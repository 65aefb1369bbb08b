"""Per-cube geometry of the shifted dyadic grids, kept as independent
oracles for the level tables: the package builds every grid as one
``Mesh.level_table`` and never walks its cubes one at a time.

Each helper is the scalar form a level table is checked against: integer
coordinate ranges per level, cube-by-cube enumeration, containment and
intersection in exact thirds units, float corners, and the covering of a
box by one cube of a shifted grid (the one-third trick).  ``sobolev_pair``
builds the exponent tuples the tests run on."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from rieszw.mesh import DyadicCube, Mesh, _containing_coord
from rieszw.weights import ExponentTuple


class CoveringError(RuntimeError):
    """No admissible shifted cube covers the requested box."""


def lower(cube: DyadicCube) -> tuple[float, ...]:
    """The cube's lower corner as floats."""
    k = cube.level
    sgn = 1 if k % 2 == 0 else -1
    return tuple(2.0 ** (-k) * (m + sgn * s / 3.0) for m, s in zip(cube.coord, cube.shift))


def contains_point(cube: DyadicCube, x: Sequence[float]) -> bool:
    lo = lower(cube)
    side = cube.side
    return all(a <= xi < a + side for a, xi in zip(lo, x))


def contains_cube(cube: DyadicCube, other: DyadicCube) -> bool:
    """Set containment; both cubes must carry the same shift."""
    if cube.shift != other.shift:
        raise ValueError("containment is only defined within one grid")
    if other.level < cube.level:
        return False
    ref = max(cube.level, other.level)
    lo_a, hi_a = cube.bounds3(ref)
    lo_b, hi_b = other.bounds3(ref)
    return all(a <= b for a, b in zip(lo_a, lo_b)) and all(
        b <= a for a, b in zip(hi_a, hi_b)
    )


def intersects_cube(cube: DyadicCube, other: DyadicCube) -> bool:
    ref = max(cube.level, other.level)
    lo_a, hi_a = cube.bounds3(ref)
    lo_b, hi_b = other.bounds3(ref)
    return all(a < d and c < b for a, b, c, d in zip(lo_a, hi_a, lo_b, hi_b))


def coord_range(mesh: Mesh, shift: tuple[int, ...], level: int) -> list[range]:
    """Per-axis range of integer coordinates whose cube meets the box."""
    scale = 1 << (mesh.finest_exponent - level)
    box3 = 3 * mesh.cells_per_axis
    sgn = 1 if level % 2 == 0 else -1
    out = []
    for s in shift:
        c = sgn * s
        m_hi = ((box3 - 1) // scale - c) // 3
        # smallest m with (3m + 3 + c) * scale > 0
        m_lo = -((2 + c) // 3)
        out.append(range(m_lo, m_hi + 1))
    return out


def cube_containing_cell(mesh: Mesh, shift: tuple[int, ...], level: int, cell: tuple[int, ...]) -> DyadicCube:
    """The unique level-``level`` cube of the grid containing the center
    of the given finest cell."""
    coord = tuple(
        _containing_coord(i, s, level, mesh.finest_exponent) for i, s in zip(cell, shift)
    )
    return DyadicCube(tuple(shift), level, coord)


def level_cube_coords(mesh: Mesh, shift: tuple[int, ...], level: int) -> np.ndarray:
    """Integer coordinates of all level cubes meeting the box, as an
    array of shape (count, n), lexicographically ordered."""
    ranges = coord_range(mesh, shift, level)
    grids = np.meshgrid(*[np.arange(r.start, r.stop) for r in ranges], indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def enumerate_cubes(mesh: Mesh, shift: tuple[int, ...]) -> list[DyadicCube]:
    """Every cube of the shifted grid with level in the truncated range that
    intersects the base box, coarse to fine then lexicographic."""
    if tuple(shift) not in mesh.shifts():
        raise ValueError(f"invalid shift {shift!r}")
    out: list[DyadicCube] = []
    for k in mesh.levels():
        for coord in itertools.product(*coord_range(mesh, tuple(shift), k)):
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


def sobolev_pair(n: int, alpha: float, p: float) -> ExponentTuple:
    """The (p, q) pair with 1/p - 1/q = alpha/n."""
    inv_q = 1.0 / p - alpha / n
    if inv_q <= 0.0:
        raise ValueError("Sobolev exponent q is not finite for this (p, alpha)")
    return ExponentTuple(n, alpha, p, 1.0 / inv_q)
