import math
from typing import NamedTuple

import numpy as np
import pytest

from rieszw.mesh import DyadicCube, Mesh, StepFunction

from reference_geometry import coord_range, level_cube_coords


@pytest.fixture
def unit_mesh():
    """[0,1) at L=6, standard coarse padding."""
    return Mesh(1, 0, 6)


@pytest.fixture
def tight_mesh():
    """[0,1) at L=3 with no padding levels."""
    return Mesh(1, 0, 3, coarse_padding=0)


def lognormal(mesh: Mesh, seed: int, scale: float = 1.0) -> StepFunction:
    rng = np.random.default_rng(seed)
    shape = (mesh.cells_per_axis,) * mesh.n
    return StepFunction(mesh, np.exp(scale * rng.standard_normal(shape)))


def _flat_index(mesh: Mesh, shift, level: int, lo3: np.ndarray) -> np.ndarray:
    """Row-major index, in ``level_cube_coords`` order, of the level
    cube that contains each thirds-unit point of ``lo3`` (shape (m, n)).

    A verbatim copy of the lookup the sparse families used before they
    kept their level-table positions: the oracle of the table's parents."""
    scale = 1 << (mesh.finest_exponent - level)
    sgn = 1 if level % 2 == 0 else -1
    coord = (lo3 // scale - sgn * np.asarray(shift, dtype=np.int64)) // 3
    idx = np.zeros(len(coord), dtype=np.int64)
    for axis, r in enumerate(coord_range(mesh, tuple(shift), level)):
        idx = idx * len(r) + (coord[:, axis] - r.start)
    return idx


# Helpers that only the tests use, kept here rather than in ``rieszw``.


def level_bounds3(mesh: Mesh, shift, level: int):
    """(lower, upper) thirds-corners of all level cubes meeting the box, in
    ``level_cube_coords`` order: the per-level scalar geometry the level
    tables are checked against."""
    coords = level_cube_coords(mesh, shift, level)
    scale = 1 << (mesh.finest_exponent - level)
    sgn = 1 if level % 2 == 0 else -1
    lo = (3 * coords + sgn * np.asarray(shift, dtype=np.int64)) * scale
    return lo, lo + 3 * scale


def center_slices(mesh: Mesh, lo3, hi3) -> tuple:
    """Index of the cells whose centre lies in the box [lo3, hi3)."""
    return tuple(slice(*mesh.center_window(int(a), int(b))) for a, b in zip(lo3, hi3))


def _scan_levels(mesh: Mesh):
    """Per (shift, level) of the in-box corpus: cube coords and thirds-bounds
    arrays, as read-only views of ``mesh.corpus``."""
    c = mesh.corpus
    for (shift, level), a, b in zip(c.segments, c.starts.tolist(), c.ends.tolist()):
        yield shift, level, c.coords[a:b], c.lo3[a:b], c.hi3[a:b]


def in_box_cubes(mesh: Mesh):
    """All enumerated cubes of both shifts contained in the base box, coarse
    to fine, aligned shift first."""
    for shift, level, coords, _, _ in _scan_levels(mesh):
        for c in coords.tolist():
            yield DyadicCube(shift, level, tuple(c))


class LevelGrid(NamedTuple):
    """The cubes of one level of a shifted grid that meet the base box, in
    ``level_cube_coords`` (row-major) order: the per-level view the
    level-by-level oracles paint through."""

    level: int
    coords: np.ndarray  # (count, n) int64 integer coordinates
    lo3: np.ndarray  # (count, n) int64 lower corners, thirds of the finest cell width
    hi3: np.ndarray  # (count, n) int64 upper corners
    in_box: np.ndarray  # (count,) bool: the cube lies inside the base box
    shape: tuple[int, ...]  # cubes per axis
    cell_cube: tuple[np.ndarray, ...]  # per axis: the cube containing each cell centre

    def gather(self, values: np.ndarray) -> np.ndarray:
        """Per-cube values painted on the cells: each cell takes the value
        of the one cube of the level that contains its centre."""
        return values.reshape(self.shape)[np.ix_(*self.cell_cube)]


def per_level_grid(mesh: Mesh, shift, level: int) -> LevelGrid:
    """One level of a grid, built from the per-level scalar geometry."""
    shift = tuple(shift)
    coords = level_cube_coords(mesh, shift, level)
    lo3, hi3 = level_bounds3(mesh, shift, level)
    box3 = 3 * mesh.cells_per_axis
    in_box = np.all(lo3 >= 0, axis=1) & np.all(hi3 <= box3, axis=1)
    shape = tuple(len(r) for r in coord_range(mesh, shift, level))
    cell_cube = []
    for axis, count in enumerate(shape):
        if count == 1:
            cell_cube.append(np.zeros(mesh.cells_per_axis, dtype=np.int64))
            continue
        line = np.arange(count) * math.prod(shape[axis + 1 :])
        i0, i1 = mesh.center_window(lo3[line, axis], hi3[line, axis])
        cell_cube.append(np.repeat(np.arange(count), np.maximum(i1 - i0, 0)))
    return LevelGrid(level, coords, lo3, hi3, in_box, shape, tuple(cell_cube))


def level_grids(mesh: Mesh, shift) -> tuple[LevelGrid, ...]:
    """Every level of a grid, coarse to fine (entry ``k - coarsest_level``
    is level k)."""
    return tuple(per_level_grid(mesh, shift, k) for k in mesh.levels())
