import numpy as np
import pytest

from rieszw.mesh import Mesh, StepFunction


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
    """Row-major index, in ``Mesh.level_cube_coords`` order, of the level
    cube that contains each thirds-unit point of ``lo3`` (shape (m, n)).

    A verbatim copy of the lookup the sparse families used before they
    kept their level-table positions: the oracle of the table's parents."""
    scale = 1 << (mesh.finest_exponent - level)
    sgn = 1 if level % 2 == 0 else -1
    coord = (lo3 // scale - sgn * np.asarray(shift, dtype=np.int64)) // 3
    idx = np.zeros(len(coord), dtype=np.int64)
    for axis, r in enumerate(mesh.coord_range(tuple(shift), level)):
        idx = idx * len(r) + (coord[:, axis] - r.start)
    return idx
