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

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "DyadicCube",
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
    max_cells: int = DEFAULT_MAX_CELLS

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError("only dimensions 1 and 2 are supported")
        if self.base_exponent + self.finest_exponent < 0:
            raise ValueError("need J + L >= 0")
        if self.coarse_padding < 0:
            raise ValueError("coarse padding must be nonnegative")
        if self.total_cells > self.max_cells:
            raise ValueError(
                f"mesh has {self.total_cells} cells, exceeding budget {self.max_cells}"
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
        return float(1 << self.base_exponent)

    @property
    def coarsest_level(self) -> int:
        return -(self.base_exponent + self.coarse_padding)

    def levels(self) -> range:
        """All admissible levels, coarse to fine."""
        return range(self.coarsest_level, self.finest_exponent + 1)

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

    def cube(self, shift: tuple[int, ...], level: int, coord: tuple[int, ...]) -> DyadicCube:
        return DyadicCube(tuple(shift), level, tuple(coord))

    def cube_containing_cell(
        self, shift: tuple[int, ...], level: int, cell: tuple[int, ...]
    ) -> DyadicCube:
        """The unique level-``level`` cube of the grid containing the center
        of the given finest cell."""
        dp = 1 << (self.finest_exponent - level + 1)
        sgn = 1 if level % 2 == 0 else -1
        coord = tuple(
            (3 * (2 * i + 1) - sgn * s * dp) // (3 * dp) for i, s in zip(cell, shift)
        )
        return DyadicCube(tuple(shift), level, coord)

    def level_cube_coords(self, shift: tuple[int, ...], level: int) -> np.ndarray:
        """Integer coordinates of all level cubes meeting the box, as an
        array of shape (count, n), lexicographically ordered."""
        ranges = self.coord_range(shift, level)
        grids = np.meshgrid(*[np.arange(r.start, r.stop) for r in ranges], indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    def level_bounds3(
        self, shift: tuple[int, ...], level: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """(lower, upper) thirds-corners for all level cubes meeting the box."""
        coords = self.level_cube_coords(shift, level)
        scale = 1 << (self.finest_exponent - level)
        sgn = 1 if level % 2 == 0 else -1
        s = np.asarray(shift, dtype=np.int64)
        lo = (3 * coords + sgn * s) * scale
        return lo, lo + 3 * scale

    def center_window(self, lo3, hi3):
        """Index window [i0, i1) of the cells whose center lies in
        [lo3, hi3), thirds units; on Python ints or elementwise on arrays."""
        # cell i has center 6i + 3 in units of h/6; the bounds are 2*lo3, 2*hi3
        i0 = -((3 - 2 * lo3) // 6)
        i1 = (2 * hi3 - 4) // 6 + 1
        if isinstance(i0, np.ndarray):
            return np.maximum(i0, 0), np.minimum(i1, self.cells_per_axis)
        return max(i0, 0), min(i1, self.cells_per_axis)

    def center_slices(self, lo3, hi3) -> tuple[slice, ...]:
        """Index of the cells whose center lies in the box [lo3, hi3)."""
        return tuple(slice(*self.center_window(int(a), int(b))) for a, b in zip(lo3, hi3))

    def contains_cube(self, cube: DyadicCube) -> bool:
        """Whether the cube lies entirely inside the base box."""
        lo, hi = cube.bounds3(self.finest_exponent)
        box3 = 3 * self.cells_per_axis
        return all(a >= 0 for a in lo) and all(b <= box3 for b in hi)


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
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            raise ValueError("values must be nonnegative and finite")
        values.setflags(write=False)
        object.__setattr__(self, "mesh", mesh)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_pref", None)

    def __setattr__(self, name, value):
        raise AttributeError("StepFunction is immutable")

    @classmethod
    def constant(cls, mesh: Mesh, c: float) -> "StepFunction":
        return cls(mesh, np.full((mesh.cells_per_axis,) * mesh.n, float(c)))

    @classmethod
    def from_callable(cls, mesh: Mesh, fn) -> "StepFunction":
        """Sample ``fn`` at cell centers."""
        centers = cell_centers(mesh)
        if mesh.n == 1:
            vals = np.asarray([fn(x) for x in centers[:, 0]])
        else:
            vals = np.asarray([fn(*xy) for xy in centers]).reshape(
                (mesh.cells_per_axis,) * 2
            )
        return cls(mesh, vals)

    def map(self, fn) -> "StepFunction":
        """New step function with cellwise-transformed values."""
        return StepFunction(self.mesh, fn(self.values))

    # -- prefix machinery ------------------------------------------------

    def _prefixes(self):
        pref = self._pref
        if pref is None:
            v = self.values
            N = self.mesh.cells_per_axis
            if self.mesh.n == 1:
                S = np.zeros(N + 1)
                np.cumsum(v, out=S[1:])
                pref = (S,)
            else:
                P = np.zeros((N + 1, N + 1))
                np.cumsum(np.cumsum(v, axis=0), axis=1, out=P[1:, 1:])
                RP = np.zeros((N, N + 1))
                np.cumsum(v, axis=1, out=RP[:, 1:])
                CP = np.zeros((N + 1, N))
                np.cumsum(v, axis=0, out=CP[1:, :])
                pref = (P, RP, CP)
            object.__setattr__(self, "_pref", pref)
        return pref

    def _corner1(self, x3: np.ndarray) -> np.ndarray:
        """Prefix integral over [0, x3/3 * h) in units of h (1-d)."""
        (S,) = self._prefixes()
        N = self.mesh.cells_per_axis
        x3 = np.clip(x3, 0, 3 * N)
        i = x3 // 3
        r = x3 - 3 * i
        iv = np.minimum(i, N - 1)
        return S[i] + (r / 3.0) * self.values[iv]

    def _corner2(self, x3: np.ndarray, y3: np.ndarray) -> np.ndarray:
        P, RP, CP = self._prefixes()
        N = self.mesh.cells_per_axis
        v = self.values
        x3 = np.clip(x3, 0, 3 * N)
        y3 = np.clip(y3, 0, 3 * N)
        i, j = x3 // 3, y3 // 3
        fx = (x3 - 3 * i) / 3.0
        fy = (y3 - 3 * j) / 3.0
        iv, jv = np.minimum(i, N - 1), np.minimum(j, N - 1)
        return P[i, j] + fx * RP[iv, j] + fy * CP[i, jv] + fx * fy * v[iv, jv]

    def integral_box3(self, lo3, hi3) -> np.ndarray:
        """Exact integral over axis-parallel boxes given in thirds units.

        ``lo3``/``hi3`` are integer arrays of shape (..., n); broadcasting
        over the leading dimensions is supported."""
        lo3 = np.asarray(lo3, dtype=np.int64)
        hi3 = np.asarray(hi3, dtype=np.int64)
        scale = self.mesh.cell_volume
        if self.mesh.n == 1:
            out = self._corner1(hi3[..., 0]) - self._corner1(lo3[..., 0])
        else:
            x0, y0 = lo3[..., 0], lo3[..., 1]
            x1, y1 = hi3[..., 0], hi3[..., 1]
            out = (
                self._corner2(x1, y1)
                - self._corner2(x0, y1)
                - self._corner2(x1, y0)
                + self._corner2(x0, y0)
            )
        return np.maximum(out, 0.0) * scale

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


def cube_integral(f: StepFunction, cube: DyadicCube) -> float:
    """Exact integral of ``f`` over the cube (f vanishes outside the box)."""
    return f.cube_integral(cube)


def cube_average(f: StepFunction, cube: DyadicCube) -> float:
    """Integral divided by the full cube volume."""
    return f.cube_average(cube)


def cell_centers(mesh: Mesh) -> np.ndarray:
    """Cell centers as an array of shape (total_cells, n), C order."""
    N = mesh.cells_per_axis
    h = mesh.cell_width
    axis = (np.arange(N) + 0.5) * h
    if mesh.n == 1:
        return axis[:, None]
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel()], axis=1)
