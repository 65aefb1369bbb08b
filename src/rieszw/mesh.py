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
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "Corpus",
    "DyadicCube",
    "LevelTable",
    "Mesh",
    "StepFunction",
    "CoveringError",
    "enumerate_cubes",
    "covering_shifted_cube",
    "cube_integral",
    "cube_average",
]

#: Default number of padding levels coarser than the base box.  Chosen so the
#: omitted coarse tail of the dyadic Riesz potential is at most
#: 2^{(alpha-n)(T+1)} / (1 - 2^{alpha-n}) relative to the coarsest kept term.
DEFAULT_COARSE_PADDING = 40

#: Hard cap on finest cells; the FFT reference operator is O(cells log cells).
DEFAULT_MAX_CELLS = 1 << 20


class CoveringError(RuntimeError):
    """No admissible shifted cube covers the requested box."""


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

    def lower(self) -> tuple[float, ...]:
        k = self.level
        sgn = 1 if k % 2 == 0 else -1
        return tuple(2.0 ** (-k) * (m + sgn * s / 3.0) for m, s in zip(self.coord, self.shift))

    def contains_point(self, x: Sequence[float]) -> bool:
        lo = self.lower()
        side = self.side
        return all(a <= xi < a + side for a, xi in zip(lo, x))

    def contains_cube(self, other: "DyadicCube") -> bool:
        """Set containment; both cubes must carry the same shift."""
        if self.shift != other.shift:
            raise ValueError("containment is only defined within one grid")
        if other.level < self.level:
            return False
        ref = max(self.level, other.level)
        lo_a, hi_a = self.bounds3(ref)
        lo_b, hi_b = other.bounds3(ref)
        return all(a <= b for a, b in zip(lo_a, lo_b)) and all(
            b <= a for a, b in zip(hi_a, hi_b)
        )

    def intersects_cube(self, other: "DyadicCube") -> bool:
        ref = max(self.level, other.level)
        lo_a, hi_a = self.bounds3(ref)
        lo_b, hi_b = other.bounds3(ref)
        return all(a < d and c < b for a, b, c, d in zip(lo_a, hi_a, lo_b, hi_b))


class LevelTable(NamedTuple):
    """The cubes of every level of one shifted grid that meet the base box,
    as one table: coarse to fine, and row-major in coordinates
    (``Mesh.level_cube_coords`` order) within a level.  Arrays are
    read-only.

    ``parent`` links each cube to the cube one level coarser that contains
    it, and ``cells`` gives each cell the finest cube over its centre, so
    the cubes over a cell centre are the chain up ``parent`` from its
    ``cells`` entry: a per-cube sum or maximum painted on the cells is one
    ``sweep`` and one ``np.take(x, cells)``."""

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

    def level_table(self, shift: Sequence[int]) -> LevelTable:
        """The whole level table of one shifted grid, built on first use and
        cached on the mesh; ``ValueError`` for a shift not in ``shifts``."""
        shift = tuple(shift)
        table = self._tables.get(shift)
        if table is None:
            if shift not in self.shifts():
                raise ValueError(f"invalid shift {shift!r}")
            table = self._tables[shift] = self._level_table(shift)
        return table

    def _level_table(self, shift: tuple[int, ...]) -> LevelTable:
        """Every level of one grid at once: the per-level coordinate ranges
        of ``coord_range`` as arrays, and the cubes of all levels listed in
        one unravel."""
        L = self.finest_exponent
        levels = np.arange(self.coarsest_level, L + 1)
        # Python shifts: a scale beyond int64 raises instead of wrapping
        scale = np.array([1 << (L - k) for k in levels.tolist()], dtype=np.int64)
        offset = (1 - 2 * (levels % 2))[:, None] * np.asarray(shift, dtype=np.int64)
        box3 = 3 * self.cells_per_axis
        m_lo = -((2 + offset) // 3)
        counts = ((box3 - 1) // scale[:, None] - offset) // 3 - m_lo + 1  # (levels, n)
        level_of, index = self.window_cells(m_lo, counts)
        coords = np.stack(index, axis=1)
        del index  # in place from here: these arrays set the build's peak memory
        cube_scale = scale[level_of, None]
        lo3 = 3 * coords
        lo3 += offset[level_of]
        lo3 *= cube_scale
        hi3 = lo3 + 3 * cube_scale
        del cube_scale
        in_box = np.all(lo3 >= 0, axis=1) & np.all(hi3 <= box3, axis=1)
        sizes = counts.prod(axis=1)
        starts = np.cumsum(sizes) - sizes
        # each cube's parent: the coarser level's cube over its lower corner,
        # as a table position (that level's start plus the row-major offset
        # of the cube's coordinates from the level's first cube)
        up = np.maximum(level_of - 1, 0)
        coarse = lo3 // scale[up, None]
        coarse -= offset[up]
        coarse //= 3
        coarse -= m_lo[up]
        parent = coarse[:, 0].copy()
        for axis in range(1, self.n):
            parent *= counts[up, axis]
            parent += coarse[:, axis]
        parent += starts[up]
        parent[level_of == 0] = -1
        del coarse, up
        # the finest cube over each cell centre: its row-major offset in the
        # finest level, from the coordinate along each axis
        cells = 0
        for axis, flag in enumerate(shift):
            row = _containing_coord(np.arange(self.cells_per_axis), flag, L, L) - m_lo[-1, axis]
            cells = cells * counts[-1, axis] + row.reshape((-1,) + (1,) * (self.n - 1 - axis))
        cells += starts[-1]
        volume = np.ldexp(1.0, -self.n * levels)[level_of]
        level_of += self.coarsest_level  # now each cube's level
        out = LevelTable(coords, lo3, hi3, level_of, in_box, volume, starts, parent, cells,
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

    def coord_range(self, shift: tuple[int, ...], level: int) -> list[range]:
        """Per-axis range of integer coordinates whose cube meets the box."""
        scale = 1 << (self.finest_exponent - level)
        box3 = 3 * self.cells_per_axis
        sgn = 1 if level % 2 == 0 else -1
        out = []
        for s in shift:
            c = sgn * s
            m_hi = ((box3 - 1) // scale - c) // 3
            # smallest m with (3m + 3 + c) * scale > 0
            m_lo = -((2 + c) // 3)
            out.append(range(m_lo, m_hi + 1))
        return out

    def cube_containing_cell(
        self, shift: tuple[int, ...], level: int, cell: tuple[int, ...]
    ) -> DyadicCube:
        """The unique level-``level`` cube of the grid containing the center
        of the given finest cell."""
        coord = tuple(
            _containing_coord(i, s, level, self.finest_exponent) for i, s in zip(cell, shift)
        )
        return DyadicCube(tuple(shift), level, coord)

    def level_cube_coords(self, shift: tuple[int, ...], level: int) -> np.ndarray:
        """Integer coordinates of all level cubes meeting the box, as an
        array of shape (count, n), lexicographically ordered."""
        ranges = self.coord_range(shift, level)
        grids = np.meshgrid(*[np.arange(r.start, r.stop) for r in ranges], indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

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

    def contains_cube(self, cube: DyadicCube) -> bool:
        """Whether the cube lies entirely inside the base box."""
        lo, hi = cube.bounds3(self.finest_exponent)
        box3 = 3 * self.cells_per_axis
        return all(a >= 0 for a in lo) and all(b <= box3 for b in hi)


def _containing_coord(cell, flag, level, finest_exponent):
    """Integer coordinate, along one axis, of the level cube of a grid with
    shift ``flag`` on that axis that contains the centre of ``cell``;
    elementwise on Python ints or broadcast integer arrays."""
    dp = 2 << (finest_exponent - level)  # the cube side in units of h/2
    sgn = 1 - 2 * (level % 2)
    return (3 * (2 * cell + 1) - sgn * flag * dp) // (3 * dp)


def enumerate_cubes(mesh: Mesh, shift: tuple[int, ...]) -> list[DyadicCube]:
    """Every cube of the shifted grid with level in the truncated range that
    intersects the base box, coarse to fine then lexicographic."""
    if tuple(shift) not in mesh.shifts():
        raise ValueError(f"invalid shift {shift!r}")
    out: list[DyadicCube] = []
    for k in mesh.levels():
        for coord in itertools.product(*mesh.coord_range(tuple(shift), k)):
            out.append(DyadicCube(tuple(shift), k, coord))
    return out


def covering_shifted_cube(
    mesh: Mesh, lower: Sequence[float], upper: Sequence[float]
) -> tuple[tuple[int, ...], DyadicCube]:
    """Find a shift t and grid cube containing the box [lower, upper) with
    side at most 6x the box side.

    Scans the admissible levels finest to coarsest, all-zero shift first.
    Raises CoveringError if nothing fits inside the truncated level range.
    """
    lo = [Fraction(x) for x in lower]
    hi = [Fraction(x) for x in upper]
    if any(b <= a for a, b in zip(lo, hi)):
        raise ValueError("degenerate box")
    ell = max(b - a for a, b in zip(lo, hi))
    # candidate levels: 2^-k in [ell, 6*ell]
    k_hi = math.floor(-math.log2(float(ell)))
    while Fraction(2) ** (-k_hi) < ell:
        k_hi -= 1
    k_lo = k_hi
    while Fraction(2) ** (-(k_lo - 1)) <= 6 * ell:
        k_lo -= 1
    k_hi = min(k_hi, mesh.finest_exponent)
    k_lo = max(k_lo, mesh.coarsest_level)
    third = Fraction(1, 3)
    for k in range(k_hi, k_lo - 1, -1):
        side = Fraction(2) ** (-k)
        sgn = 1 if k % 2 == 0 else -1
        for shift in mesh.shifts():
            ok = True
            coord = []
            for a, b, s in zip(lo, hi, shift):
                off = sgn * s * third
                m = math.floor(a / side - off)
                if b > side * (m + 1 + off):
                    ok = False
                    break
                coord.append(m)
            if ok:
                return tuple(shift), DyadicCube(tuple(shift), k, tuple(coord))
    raise CoveringError("no shifted cube covers the box within the level range")


class StepFunction:
    """A nonnegative function constant on the finest mesh cells, zero outside
    the base box.  Immutable; cube aggregation is O(1) via prefix sums."""

    __slots__ = ("mesh", "values", "_pref")

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

    def __setattr__(self, name, value):
        raise AttributeError("StepFunction is immutable")

    @classmethod
    def constant(cls, mesh: Mesh, c: float) -> "StepFunction":
        return cls(mesh, np.full((mesh.cells_per_axis,) * mesh.n, float(c)))

    def map(self, fn) -> "StepFunction":
        """New step function with cellwise-transformed values."""
        return StepFunction(self.mesh, fn(self.values))

    # -- prefix machinery ------------------------------------------------

    def _prefixes(self):
        pref = self._pref
        if pref is None:
            pref = _prefix_sums(self.values, self.mesh.n)
            object.__setattr__(self, "_pref", pref)
        return pref

    def integral_box3(self, lo3, hi3) -> np.ndarray:
        """Integral over axis-parallel boxes given in thirds units: exact
        geometry, but prefix-sum differences, which lose precision on small
        boxes far from the origin (3.3e-9 relative at 1-D L=16).

        ``lo3``/``hi3`` are integer arrays of shape (..., n); broadcasting
        over the leading dimensions is supported."""
        lo3 = np.asarray(lo3, dtype=np.int64)
        hi3 = np.asarray(hi3, dtype=np.int64)
        n = self.mesh.n
        sums = _box_sums(self._prefixes(), self.values,
                        [lo3[..., a] for a in range(n)], [hi3[..., a] for a in range(n)])
        return sums * self.mesh.cell_volume

    def cube_integral(self, cube: DyadicCube) -> float:
        lo, hi = cube.bounds3(self.mesh.finest_exponent)
        return float(self.integral_box3(np.asarray(lo), np.asarray(hi)))

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


def _checked(values: np.ndarray) -> np.ndarray:
    """``values``, if every entry is finite and nonnegative."""
    if not np.all(np.isfinite(values)) or np.any(values < 0):
        raise ValueError("values must be nonnegative and finite")
    return values


def _prefix_sums(values: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """Prefix sums of cell values over their last ``n`` axes, each with a
    leading zero per axis; leading axes are a batch of frames.  1-d: (S,);
    2-d: (P, RP, CP), the full sums and the sums along each row and each
    column.  Each is a running ``cumsum``, so frames that agree on a window
    and are zero outside it have the window's own prefix sums there."""
    lead, shape = values.shape[:-n], values.shape[-n:]
    if n == 1:
        S = np.zeros((*lead, shape[0] + 1))
        np.cumsum(values, axis=-1, out=S[..., 1:])
        return (S,)
    rows, cols = shape
    P = np.zeros((*lead, rows + 1, cols + 1))
    np.cumsum(np.cumsum(values, axis=-2), axis=-1, out=P[..., 1:, 1:])
    RP = np.zeros((*lead, rows, cols + 1))
    np.cumsum(values, axis=-1, out=RP[..., 1:])
    CP = np.zeros((*lead, rows + 1, cols))
    np.cumsum(values, axis=-2, out=CP[..., 1:, :])
    return P, RP, CP


def _axis_terms(x3: np.ndarray, size: int):
    """A corner coordinate (thirds units) clamped to a frame axis of
    ``size`` cells: its whole cells, the fraction of the next one, and that
    cell's index kept inside the frame."""
    i, r = np.divmod(np.minimum(np.maximum(x3, 0), 3 * size), 3)
    return i, r / 3.0, np.minimum(i, size - 1)


def _corner(pref, values, terms, batch):
    """Integral of the cells over [0, x) per axis, in cell volumes, from
    each axis's ``_axis_terms``."""
    if len(terms) == 1:
        ((i, fx, iv),) = terms
        return pref[0][(*batch, i)] + fx * values[(*batch, iv)]
    P, RP, CP = pref
    (i, fx, iv), (j, fy, jv) = terms
    return (P[(*batch, i, j)] + fx * RP[(*batch, iv, j)] + fy * CP[(*batch, i, jv)]
            + fx * fy * values[(*batch, iv, jv)])


def _box_sums(pref, values, lo3, hi3) -> np.ndarray:
    """Sums of the cell values over boxes [lo3, hi3), in cell volumes and
    clipped at zero, from the ``_prefix_sums`` of ``values``.  ``lo3`` and
    ``hi3`` hold one integer corner array per axis (thirds units, clamped
    to the frame here), all broadcast together.  If ``values`` has more
    axes than there are corner arrays, the leading ones are a batch of
    frames that share the corners, and the sums gain those axes in front."""
    size = values.shape[-len(lo3):]
    # an Ellipsis spans the batch axes, and indexes faster than an index array
    batch = (Ellipsis,) if values.ndim > len(lo3) else ()
    lo = [_axis_terms(x, m) for x, m in zip(lo3, size)]
    hi = [_axis_terms(x, m) for x, m in zip(hi3, size)]
    if len(lo) == 1:
        out = _corner(pref, values, hi, batch) - _corner(pref, values, lo, batch)
    else:
        (x0, y0), (x1, y1) = lo, hi
        out = (_corner(pref, values, (x1, y1), batch) - _corner(pref, values, (x0, y1), batch)
               - _corner(pref, values, (x1, y0), batch) + _corner(pref, values, (x0, y0), batch))
    return np.maximum(out, 0.0)


def cube_integral(f: StepFunction, cube: DyadicCube) -> float:
    """Integral of ``f`` over the cube (f vanishes outside the box), as
    ``StepFunction.integral_box3`` takes it."""
    return f.cube_integral(cube)


def cube_average(f: StepFunction, cube: DyadicCube) -> float:
    """Integral divided by the full cube volume."""
    return f.cube_average(cube)

