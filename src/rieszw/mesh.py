"""Shifted dyadic grids on a truncated box, and step functions over them.

Geometry convention: a cube at level ``k`` with shift flags ``s`` (one flag
per axis, flag 1 meaning an offset of 1/3) and integer coordinate ``m`` is

    2^{-k} * ([0,1)^n + m + (-1)^k * s/3),

half open.  All cube boundaries are integer multiples of ``h/3`` where
``h = 2^{-L}`` is the finest cell width, so geometry (containment,
intersection, overlap with mesh cells) is done in exact integer "thirds"
units.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "BoxPlan",
    "Corpus",
    "DyadicCube",
    "LevelTable",
    "Mesh",
    "StepFunction",
]

#: Default number of padding levels coarser than the base box.  Chosen so the
#: omitted coarse tail of the dyadic Riesz potential is at most
#: 2^{(alpha-n)(T+1)} / (1 - 2^{alpha-n}) relative to the coarsest kept term.
DEFAULT_COARSE_PADDING = 40

#: Hard cap on finest cells; the FFT reference operator is O(cells log cells).
DEFAULT_MAX_CELLS = 1 << 20

#: Entries (8 bytes each) per block of stacked rows, read by ``_block_rows``
#: alone: blocks this small hold the per-row call overhead down without
#: adding to the peak memory of a run.
_FRAME_BLOCK = 1 << 12


def _block_rows(row_entries: int) -> int:
    """The rows of ``row_entries`` entries each that one block holds, and at least one."""
    return max(1, _FRAME_BLOCK // row_entries)


@dataclass(frozen=True, order=True)
class DyadicCube:
    """A half-open cube of a shifted dyadic grid.

    ``shift`` holds one flag per axis (1 means the 1/3 offset), ``level`` is
    the scale (side length ``2^-level``), ``coord`` the integer position.
    """

    shift: tuple[int, ...]
    level: int
    coord: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.coord)

    @property
    def side(self) -> float:
        return 2.0 ** (-self.level)

    @property
    def volume(self) -> float:
        return 2.0 ** (-self.level * self.n)

    def bounds3(self, finest_exponent: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Exact (lower, upper) corners in units of ``2^-L / 3``."""
        k = self.level
        if k > finest_exponent:
            raise ValueError("cube finer than reference level")
        scale = 1 << (finest_exponent - k)
        sgn = 1 if k % 2 == 0 else -1
        lo = tuple((3 * m + sgn * s) * scale for m, s in zip(self.coord, self.shift))
        hi = tuple(a + 3 * scale for a in lo)
        return lo, hi


class LevelTable(NamedTuple):
    """The cubes of every level of one shifted grid that meet the base box,
    as one table: coarse to fine, and row-major in integer coordinates
    within a level.  Arrays are read-only.

    ``parent`` links each cube to the cube one level coarser that contains
    it, and ``cells`` gives each cell the finest cube over its centre, so
    the cubes over a cell centre are the chain up ``parent`` from its
    ``cells`` entry: a per-cube sum or maximum painted on the cells is one
    ``sweep`` and one ``np.take(x, cells)``.

    A 1-D table is built directly (``Mesh._line_table``); a 2-D table is
    the level-by-level product of the line tables of its two axis flags
    (``_product_table``)."""

    coords: np.ndarray  # (count, n) int64 integer coordinates
    lo3: np.ndarray  # (count, n) int64 lower corners, thirds of the finest cell width
    hi3: np.ndarray  # (count, n) int64 upper corners
    level: np.ndarray  # (count,) int64 level of each cube
    in_box: np.ndarray  # (count,) bool: the cube lies inside the base box
    volume: np.ndarray  # (count,) 2^(-level * n)
    starts: np.ndarray  # (levels,) int64 position of each level's first cube
    parent: np.ndarray  # (count,) int64 position of the next coarser level's cube containing lo3, -1 at the coarsest level
    cells: np.ndarray  # cells' shape, int64: position of the finest cube containing each cell centre
    single: int  # leading levels that hold one cube; every other level holds more

    @property
    def ends(self) -> np.ndarray:
        """The position one past each level's last cube."""
        return np.append(self.starts[1:], len(self.parent))

    @property
    def head(self) -> int:
        """The leading positions that form one chain for ``_sweep``: the
        one-cube levels, and at least the first cube."""
        return max(self.single, 1)

    @property
    def runs(self) -> list[tuple[int, int]]:
        """(start, stop) of every level after the head, coarse to fine, so
        the cubes of a coarsest level of many cubes keep their own values."""
        return list(zip(self.starts[self.head:].tolist(), self.ends[self.head:].tolist()))

    def sweep(self, x: np.ndarray, op) -> np.ndarray:
        """``_sweep`` down the table: each cube takes op(parent's value, own
        value), coarse to fine."""
        return _sweep(x, self.head, self.runs, self.parent, op)


def _sweep(x: np.ndarray, head: int, runs, parent: np.ndarray, op) -> np.ndarray:
    """Sweep ``x`` in place along its last axis down a forest laid out coarse
    to fine: positions [0, head) form one chain, then each run (a, b) has its
    parents ``parent[a:b]`` before a.  Each position takes op(parent's value,
    own value, out=own value): ``op.accumulate`` over the head, then one
    step per run (with no head, ``op`` may be any such function)."""
    if head:
        x[..., :head] = op.accumulate(x[..., :head], axis=-1)
    for a, b in runs:
        op(x[..., parent[a:b]], x[..., a:b], out=x[..., a:b])
    return x


class Corpus(NamedTuple):
    """The cubes of both shifts that lie inside the base box, as one table.

    Each (shift, level) with an in-box cube is one segment; segments run
    shift by shift (``Mesh.shifts`` order) and coarse to fine, and the cubes
    of a segment keep their ``LevelTable`` order.  Arrays are read-only."""

    coords: np.ndarray  # (count, n) int64 integer coordinates
    lo3: np.ndarray  # (count, n) int64 lower corners, thirds of the finest cell width
    hi3: np.ndarray  # (count, n) int64 upper corners
    level: np.ndarray  # (count,) int64 level of each cube
    starts: np.ndarray  # (segments,) int64 index of each segment's first cube
    segments: tuple[tuple[tuple[int, ...], int], ...]  # (shift, level) per segment

    @property
    def ends(self) -> np.ndarray:
        """The index one past each segment's last cube."""
        return np.append(self.starts[1:], len(self.level))

    def cube(self, i: int) -> DyadicCube:
        """The ``DyadicCube`` of entry ``i``."""
        shift, level = self.segments[int(np.searchsorted(self.starts, i, side="right")) - 1]
        return DyadicCube(shift, level, tuple(self.coords[i].tolist()))


@dataclass(frozen=True)
class Mesh:
    """Truncated dyadic discretization of the box [0, 2^J)^n.

    Finest cells have side ``2^-L``; dyadic sums run over levels
    ``-(J+T) .. L`` where ``T`` is the coarse padding.
    """

    n: int
    base_exponent: int
    finest_exponent: int
    coarse_padding: int = DEFAULT_COARSE_PADDING

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError("only dimensions 1 and 2 are supported")
        if self.base_exponent + self.finest_exponent < 0:
            raise ValueError("need J + L >= 0")
        if self.coarse_padding < 0:
            raise ValueError("coarse padding must be nonnegative")
        if self.total_cells > DEFAULT_MAX_CELLS:
            raise ValueError(
                f"mesh has {self.total_cells} cells, exceeding budget {DEFAULT_MAX_CELLS}"
            )
        # the coarsest cube's corners reach 3 * 2^(J+L+T) thirds units in int64
        if self.base_exponent + self.finest_exponent + self.coarse_padding > 60:
            raise ValueError("need J + L + T <= 60, or the coarsest cube corners overflow int64")

    # -- basic geometry -------------------------------------------------

    @property
    def cells_per_axis(self) -> int:
        return 1 << (self.base_exponent + self.finest_exponent)

    @property
    def total_cells(self) -> int:
        return self.cells_per_axis**self.n

    @property
    def cell_width(self) -> float:
        return 2.0**-self.finest_exponent

    @property
    def cell_volume(self) -> float:
        return self.cell_width**self.n

    @property
    def box_side(self) -> float:
        return 2.0**self.base_exponent

    @property
    def coarsest_level(self) -> int:
        return -(self.base_exponent + self.coarse_padding)

    def levels(self) -> range:
        """All admissible levels, coarse to fine."""
        return range(self.coarsest_level, self.finest_exponent + 1)

    def maximal_levels(self, shift: tuple[int, ...]) -> range:
        """The levels a maximal sweep over the grid needs, coarse to fine.

        It starts at the finest level at which one grid cube contains the
        whole box.  Every coarser level also has one cube meeting the box,
        with the same integrals over a larger volume, so it cannot raise a
        maximum of averages.  If no level in range covers the box, all
        levels are kept."""
        single = self.level_table(shift).single
        return range(self.coarsest_level + max(single - 1, 0), self.finest_exponent + 1)

    @functools.cached_property
    def _tables(self) -> dict:
        return {}

    @functools.cached_property
    def _line(self) -> "Mesh":
        """The mesh of one axis (n = 1, the same J, L and T), kept so that
        every 2-D shift shares its two line tables."""
        return Mesh(1, self.base_exponent, self.finest_exponent, self.coarse_padding)

    def level_table(self, shift: Sequence[int]) -> LevelTable:
        """The whole level table of one shifted grid, built on first use and
        cached on the mesh; ``ValueError`` for a shift not in ``shifts``.
        A 2-D table is the product of the line tables of its axis flags."""
        shift = tuple(shift)
        table = self._tables.get(shift)
        if table is None:
            if shift not in self.shifts():
                raise ValueError(f"invalid shift {shift!r}")
            if self.n == 1:
                table = self._line_table(shift[0])
            else:
                table = _product_table(*(self._line.level_table((s,)) for s in shift))
            self._tables[shift] = table
        return table

    def table_cubes(self, shift: Sequence[int], positions) -> tuple[DyadicCube, ...]:
        """The cubes at ``positions`` (an index array or a slice) of the
        level table of ``shift``."""
        shift, t = tuple(shift), self.level_table(shift)
        rows = zip(t.level[positions].tolist(), t.coords[positions].tolist())
        return tuple(DyadicCube(shift, k, tuple(c)) for k, c in rows)

    def _line_table(self, flag: int) -> LevelTable:
        """Every level of one 1-D grid at once: per level, the range of
        integer coordinates whose cube meets the box, as arrays, and the
        cubes of all levels listed in one pass."""
        L = self.finest_exponent
        levels = np.arange(self.coarsest_level, L + 1)
        # Python shifts: a scale beyond int64 raises instead of wrapping
        scale = np.array([1 << (L - k) for k in levels.tolist()], dtype=np.int64)
        offset = (1 - 2 * (levels % 2)) * flag
        box3 = 3 * self.cells_per_axis
        m_lo = -((2 + offset) // 3)
        sizes = ((box3 - 1) // scale - offset) // 3 - m_lo + 1
        starts = np.cumsum(sizes) - sizes
        # per-level values repeated over the level's cubes, each temporary
        # freed at once: these arrays set the build's peak memory
        coords = np.repeat(m_lo - starts, sizes)
        coords += np.arange(len(coords))
        lo3 = 3 * coords
        lo3 += np.repeat(offset, sizes)
        lo3 *= np.repeat(scale, sizes)
        hi3 = np.repeat(3 * scale, sizes)
        hi3 += lo3
        # each cube's parent: the coarser level's cube over its lower corner,
        # as a table position (that level's start plus the cube's offset from
        # the level's first cube)
        up = np.maximum(np.arange(len(levels)) - 1, 0)
        parent = lo3 // np.repeat(scale[up], sizes)
        parent -= np.repeat(offset[up], sizes)
        parent //= 3
        parent += np.repeat((starts - m_lo)[up], sizes)
        parent[: sizes[0]] = -1
        # the finest cube over each cell centre
        cells = _containing_coord(np.arange(self.cells_per_axis), flag, L, L)
        cells += starts[-1] - m_lo[-1]
        out = LevelTable(coords[:, None], lo3[:, None], hi3[:, None], np.repeat(levels, sizes),
                         (lo3 >= 0) & (hi3 <= box3), np.repeat(np.ldexp(1.0, -levels), sizes),
                         starts, parent, cells,
                         # a level with one cube covers the box, and so does that
                         # cube's parent: the one-cube levels are the leading ones
                         int(np.count_nonzero(sizes == 1)))
        for x in out[:-1]:
            x.setflags(write=False)
        return out

    @functools.cached_property
    def corpus(self) -> Corpus:
        """The in-box cubes of both shifts, cut from the level tables on
        first use and cached on the mesh."""
        parts, segments, sizes = [], [], []
        for shift in self.shifts():
            t = self.level_table(shift)
            keep = t.in_box
            parts.append((t.coords[keep], t.lo3[keep], t.hi3[keep], t.level[keep]))
            levels, counts = np.unique(t.level[keep], return_counts=True)
            segments += [(shift, k) for k in levels.tolist()]
            sizes.append(counts)
        sizes = np.concatenate(sizes)
        # never empty: the box itself is the aligned cube of level -J
        coords, lo3, hi3, level = (np.concatenate(a) for a in zip(*parts))
        out = Corpus(coords, lo3, hi3, level, np.cumsum(sizes) - sizes, tuple(segments))
        for a in out[:5]:
            a.setflags(write=False)
        return out

    @functools.cached_property
    def corpus_plan(self) -> "BoxPlan":
        """The ``BoxPlan`` of the corpus cubes on the full frame, built on
        first use and cached on the mesh: every characteristic integrates
        the same boxes."""
        c = self.corpus
        return BoxPlan(list(c.lo3.T), list(c.hi3.T), (self.cells_per_axis,) * self.n)

    @functools.cached_property
    def _factor_tables(self) -> dict:
        return {}

    def level_factors(self, alpha: float) -> np.ndarray:
        """2^(-k alpha) for every level k, entry ``k - coarsest_level``,
        read-only and cached per alpha.  Each entry is a Python pow, as a
        per-level loop computes it: ``np.power`` can differ in the last bit."""
        table = self._factor_tables.get(alpha)
        if table is None:
            table = np.array([2.0 ** (-k * alpha) for k in self.levels()])
            table.setflags(write=False)
            self._factor_tables[alpha] = table
        return table

    def shifts(self) -> list[tuple[int, ...]]:
        """The 2^n grid shifts, all-zero first."""
        return [tuple(s) for s in itertools.product((0, 1), repeat=self.n)]

    def bounds3(self, cubes: Sequence[DyadicCube]) -> tuple[np.ndarray, np.ndarray]:
        """(lower, upper) thirds-corners of a cube sequence, as int64 arrays
        of shape (len(cubes), n)."""
        bounds = [q.bounds3(self.finest_exponent) for q in cubes]
        lo3, hi3 = np.array(bounds, dtype=np.int64).reshape(-1, 2, self.n).transpose(1, 0, 2)
        return lo3, hi3

    def center_window(self, lo3, hi3):
        """Index window [i0, i1) of the cells whose center lies in
        [lo3, hi3), thirds units; on Python ints or elementwise on arrays."""
        # cell i has center 6i + 3 in units of h/6; the bounds are 2*lo3, 2*hi3
        i0 = -((3 - 2 * lo3) // 6)
        i1 = (2 * hi3 - 4) // 6 + 1
        if isinstance(i0, np.ndarray):
            return np.maximum(i0, 0), np.minimum(i1, self.cells_per_axis)
        return max(i0, 0), min(i1, self.cells_per_axis)

    def window_cells(self, i0: np.ndarray, width: np.ndarray):
        """The cells of per-box index windows [i0, i0 + width) (shape
        (count, n)), box by box and row-major within a box: the box of each
        cell and the cell's index along every axis."""
        counts = width.prod(axis=1)
        box = np.repeat(np.arange(len(counts)), counts)
        rest = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        index = []
        for axis in reversed(range(self.n)):
            w = width[box, axis]
            index.insert(0, i0[box, axis] + rest % w)
            rest //= w
        return box, tuple(index)

def _product_table(tx: LevelTable, ty: LevelTable) -> LevelTable:
    """The 2-D level table of the grid whose axes are the line grids of
    ``tx`` and ``ty``: a cube is one interval per axis, so each level is the
    row-major product of the two lines' cubes of that level.  Every field
    gathers or combines line fields at each cube's pair of line positions
    (the y line's after the x line's, so that one ``take`` fills both
    columns), or repeats a per-level value; no cube's coordinates are
    divided."""
    levels = np.arange(tx.level[0], tx.level[-1] + 1)
    cy = ty.ends - ty.starts
    sizes = (tx.ends - tx.starts) * cy
    starts = np.cumsum(sizes) - sizes
    count, nx = int(starts[-1] + sizes[-1]), len(tx.level)
    lx = tx.level - levels[0]  # each x cube's level index
    row = cy[lx]  # each x cube's row: the y cubes of its level
    # each cube's line positions: its x cube, and its y cube, which runs
    # through the y cubes of the level along every row
    pos = np.empty((count, 2), dtype=np.int64)
    pos[:, 0] = np.repeat(np.arange(nx), row)
    pos[:, 1] = np.arange(nx, nx + count) - np.repeat(np.cumsum(row) - row - ty.starts[lx], row)
    coords, lo3, hi3 = (np.concatenate([a[:, 0], b[:, 0]]).take(pos)
                        for a, b in ((tx.coords, ty.coords), (tx.lo3, ty.lo3), (tx.hi3, ty.hi3)))
    pair = np.concatenate([tx.in_box, ty.in_box]).take(pos)
    in_box = pair[:, 0] & pair[:, 1]
    # each cube's parent: the coarser level's start, plus the x parent's
    # row of y cubes there, plus the y parent's offset in its level
    up, uy = np.maximum(lx - 1, 0), np.maximum(ty.level - levels[0] - 1, 0)
    pair = np.concatenate([starts[up] + (tx.parent - tx.starts[up]) * cy[up],
                           ty.parent - ty.starts[uy]]).take(pos)
    del pos
    parent = pair[:, 0] + pair[:, 1]
    del pair
    parent[: sizes[0]] = -1
    cells = np.add.outer((tx.cells - tx.starts[-1]) * cy[-1] + starts[-1], ty.cells - ty.starts[-1])
    out = LevelTable(coords, lo3, hi3, np.repeat(levels, sizes), in_box,
                     np.repeat(np.ldexp(1.0, -2 * levels), sizes), starts, parent, cells,
                     # a level holds one cube where both lines do
                     min(tx.single, ty.single))
    for x in out[:-1]:
        x.setflags(write=False)
    return out


def _containing_coord(cell, flag, level, finest_exponent):
    """Integer coordinate, along one axis, of the level cube of a grid with
    shift ``flag`` on that axis that contains the centre of ``cell``;
    elementwise on Python ints or broadcast integer arrays."""
    dp = 2 << (finest_exponent - level)  # the cube side in units of h/2
    sgn = 1 - 2 * (level % 2)
    return (3 * (2 * cell + 1) - sgn * flag * dp) // (3 * dp)


class StepFunction:
    """A nonnegative function constant on the finest mesh cells, zero outside
    the base box.  Immutable; cube aggregation is O(1) via prefix sums."""

    __slots__ = ("mesh", "values", "_pref", "_corpus")

    def __init__(self, mesh: Mesh, values: np.ndarray):
        values = np.ascontiguousarray(values, dtype=np.float64)
        shape = (mesh.cells_per_axis,) * mesh.n
        if values.shape != shape:
            raise ValueError(f"values must have shape {shape}, got {values.shape}")
        _checked(values)
        values.setflags(write=False)
        object.__setattr__(self, "mesh", mesh)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_pref", None)
        object.__setattr__(self, "_corpus", None)

    def __setattr__(self, name, value):
        raise AttributeError("StepFunction is immutable")

    @classmethod
    def constant(cls, mesh: Mesh, c: float) -> "StepFunction":
        return cls(mesh, np.full((mesh.cells_per_axis,) * mesh.n, float(c)))

    def map(self, fn) -> "StepFunction":
        """New step function with cellwise-transformed values."""
        return StepFunction(self.mesh, fn(self.values))

    # -- box integrals ---------------------------------------------------

    def _corpus_integrals(self) -> np.ndarray:
        """``plan_integrals`` of the corpus plan (the integral over every cube
        of ``mesh.corpus``), taken on first use and kept, read-only."""
        if self._corpus is None:
            ints = self.plan_integrals(self.mesh.corpus_plan)
            ints.setflags(write=False)
            object.__setattr__(self, "_corpus", ints)
        return self._corpus

    def integral_box3(self, lo3, hi3) -> np.ndarray:
        """Integral over axis-parallel boxes given in thirds units: exact
        geometry, but prefix-sum differences, which lose precision on small
        boxes far from the origin (3.3e-9 relative at 1-D L=16).

        ``lo3``/``hi3`` are integer arrays of shape (..., n); broadcasting
        over the leading dimensions is supported."""
        lo3, hi3 = (np.moveaxis(np.asarray(x, dtype=np.int64), -1, 0) for x in (lo3, hi3))
        return self.plan_integrals(BoxPlan(lo3, hi3, self.values.shape))

    def plan_integrals(self, plan: "BoxPlan") -> np.ndarray:
        """``integral_box3`` over the boxes of a ``BoxPlan`` on this mesh's
        frame, bit for bit, from the function's prefix table, built on first
        use and kept."""
        if self._pref is None:
            object.__setattr__(self, "_pref", _prefix_sums(self.values, self.mesh.n))
        return plan._sums(self._pref) * self.mesh.cell_volume

    def cube_integral(self, cube: DyadicCube) -> float:
        return float(self.integral_box3(*cube.bounds3(self.mesh.finest_exponent)))

    def cube_average(self, cube: DyadicCube) -> float:
        return self.cube_integral(cube) / cube.volume

    def total(self) -> float:
        return float(np.sum(self.values)) * self.mesh.cell_volume

    # -- weighted norms ---------------------------------------------------

    def lp_norm(self, p: float, weight: "StepFunction | None" = None) -> float:
        """Global L^p norm, optionally against a weight density."""
        vol = self.mesh.cell_volume
        w = weight.values if weight is not None else 1.0
        return float(np.sum(self.values**p * w) * vol) ** (1.0 / p)


class NonFiniteError(ValueError):
    """Raised by ``_checked`` on a negative, infinite or nan value."""


def _checked(values: np.ndarray) -> np.ndarray:
    """``values``, if every entry is finite and nonnegative."""
    if not np.all(np.isfinite(values)) or np.any(values < 0):
        raise NonFiniteError("values must be nonnegative and finite")
    return values


def _prefix_sums(values: np.ndarray, n: int) -> np.ndarray:
    """The prefix table of cell values over their last ``n`` axes: 2^n
    tables, each padded to the frame's size plus one per axis and
    flattened row-major, shape (2^n, ..., M), where the middle axes are a
    batch of frames.  1-d: (S, V), the prefix sums with a leading zero and
    the values; 2-d: (P, RP, CP, V), the full prefix sums and the sums
    along each row and each column, each with a leading zero per summed
    axis, and the values.  On an axis where a table is one short it repeats
    its last entry, so entry (i, j) of RP, CP or V is the entry of the
    clamped index that a box corner at whole cells (i, j) reads.  Each sum
    is a running ``cumsum``, so frames that agree on a window and are zero
    outside it have the window's own prefix sums there."""
    lead, shape = values.shape[:-n], values.shape[-n:]
    if n == 1:
        (size,) = shape
        S, V = table = np.empty((2, *lead, size + 1))
        S[..., 0] = 0.0
        np.cumsum(values, axis=-1, out=S[..., 1:])
        V[..., :size] = values
        V[..., size] = values[..., size - 1]
        return table
    rows, cols = shape
    P, RP, CP, V = table = np.zeros((4, *lead, rows + 1, cols + 1))
    np.cumsum(np.cumsum(values, axis=-2), axis=-1, out=P[..., 1:, 1:])
    np.cumsum(values, axis=-1, out=RP[..., :rows, 1:])
    np.cumsum(values, axis=-2, out=CP[..., 1:, :cols])
    V[..., :rows, :cols] = values
    RP[..., rows, :] = RP[..., rows - 1, :]
    V[..., rows, :] = V[..., rows - 1, :]
    CP[..., cols] = CP[..., cols - 1]
    V[..., cols] = V[..., cols - 1]
    return table.reshape(4, *lead, (rows + 1) * (cols + 1))


def _axis_terms(x3: np.ndarray, size: int):
    """A corner coordinate (thirds units) clamped to a frame axis of
    ``size`` cells: its whole cells and the fraction of the next one."""
    i, r = np.divmod(np.minimum(np.maximum(x3, 0), 3 * size), 3)
    return i, r / 3.0


class BoxPlan:
    """The corner terms of a fixed box set on frames of one size, worked
    out once: each corner's ``_axis_terms`` as one flat gather index into a
    frame's ``_prefix_sums`` table, with its fractions.

    ``lo3``/``hi3`` hold one integer corner array per axis (thirds units,
    clamped to the frame), all broadcast together; ``size`` is the frame's
    shape.  ``sums`` gives the box sums of any frames of that size.  The
    arrays are read-only, so a plan can be cached."""

    __slots__ = ("shape", "size", "corners")

    def __init__(self, lo3, hi3, size):
        corners = [np.asarray(x) for x in (*lo3, *hi3)]
        if len({x.shape for x in corners}) > 1:
            corners = np.broadcast_arrays(*corners)
        n = len(size)
        self.shape = corners[0].shape
        self.size = tuple(size)
        terms = [_axis_terms(x.reshape(-1), m) for x, m in zip(corners, self.size * 2)]
        if n == 1:
            # (index, fraction), the upper corner first
            self.corners = (terms[1], terms[0])
        else:
            # (index, fx, fy) per corner, in the order of the signs of
            # c11 - c01 - c10 + c00; the whole rows become row offsets
            (i0, fx0), (j0, fy0), (i1, fx1), (j1, fy1) = terms
            i0 *= self.size[1] + 1
            i1 *= self.size[1] + 1
            self.corners = ((i1 + j1, fx1, fy1), (i0 + j1, fx0, fy1), (i1 + j0, fx1, fy0), (i0 + j0, fx0, fy0))
        for corner in self.corners:
            for a in corner:
                a.setflags(write=False)

    def sums(self, values: np.ndarray) -> np.ndarray:
        """Sums over the boxes, in cell volumes and clipped at zero, of
        frames of cell values of the plan's size; leading axes of
        ``values`` are a batch of frames, and the sums gain them in front."""
        return self._sums(_prefix_sums(values, len(self.size)))

    def _sums(self, pref: np.ndarray) -> np.ndarray:
        """``sums`` of the frames whose ``_prefix_sums`` table is ``pref``.
        Every corner is ((P + fx RP) + fy CP) + (fx fy) V in 2-d (S + fx V
        in 1-d), and the corners combine as c11 - c01 - c10 + c00
        (c1 - c0)."""
        c = self.corners
        out = _planned_corner(pref, c[0])
        out -= _planned_corner(pref, c[1])
        if len(c) == 4:
            out -= _planned_corner(pref, c[2])
            out += _planned_corner(pref, c[3])
        return np.maximum(out.reshape((*pref.shape[1:-1], *self.shape)), 0.0)


def _planned_corner(pref: np.ndarray, terms) -> np.ndarray:
    """Integral of the cells over [0, x) per axis, in cell volumes, from a
    ``_prefix_sums`` table and one corner's ``BoxPlan`` terms: one gather
    of every table at the corner's index.  ``take`` along the last axis
    gathers faster than indexing a batch."""
    if len(terms) == 2:
        i, fx = terms
        S, V = pref.take(i, axis=-1)
        return S + fx * V
    i, fx, fy = terms
    P, RP, CP, V = pref.take(i, axis=-1)
    return P + fx * RP + fy * CP + fx * fy * V
