"""Riesz potentials (reference, dyadic, sparse) and maximal operators.

Discretization conventions:

* The reference operator is evaluated at cell centers with a per-source-cell
  kernel surrogate selected by :class:`KernelMode`; lower/upper modes bracket
  the true cell integrals, so one-sided comparisons against the dyadic
  operator are provable rather than empirical.
* The dyadic and sparse operators, and the maximal operators, evaluate the
  cube-indicator sums at cell centers (the unique level chain of cubes
  containing the center).  Cube averages stay exact integrals.  On aligned
  grids cubes never straddle cells, so this agrees with the function itself;
  it also makes the domination and upper-comparison inequalities hold at
  the same evaluation points as the reference operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Sequence

import numpy as np

from . import _kernels
from .mesh import DyadicCube, Mesh, StepFunction

__all__ = [
    "KernelMode",
    "riesz_reference",
    "dyadic_riesz",
    "sparse_riesz",
    "restricted_sparse_riesz",
    "hl_maximal",
    "frac_maximal_weighted",
    "compare_pointwise",
    "dyadic_upper_constant",
]


class KernelMode(IntEnum):
    """Discrete surrogate for the kernel integral over a source cell."""

    LOWER = _kernels.KERNEL_LOWER
    MIDPOINT = _kernels.KERNEL_MIDPOINT
    UPPER = _kernels.KERNEL_UPPER


def _check_alpha(mesh: Mesh, alpha: float):
    if not 0.0 < alpha < mesh.n:
        raise ValueError(f"alpha must lie in (0, n); got {alpha} with n={mesh.n}")


def riesz_reference(
    f: StepFunction, alpha: float, mode: KernelMode = KernelMode.MIDPOINT
) -> StepFunction:
    """Reference Riesz potential at cell centers, by an exact FFT Toeplitz
    apply in O(cells log cells)."""
    _check_alpha(f.mesh, alpha)
    out = _kernels.riesz_apply(f.values, f.mesh.cell_width, alpha, int(mode))
    return StepFunction(f.mesh, out)


def _level_cubes_with_averages(f: StepFunction, shift, level):
    mesh = f.mesh
    lo, hi = mesh.level_bounds3(shift, level)
    integrals = f.integral_box3(lo, hi)
    vol = 2.0 ** (-level * mesh.n)
    return lo, hi, integrals / vol


def dyadic_riesz(f: StepFunction, alpha: float, shift: Sequence[int]) -> StepFunction:
    """Truncated dyadic Riesz potential over one shifted grid."""
    mesh = f.mesh
    _check_alpha(mesh, alpha)
    shift = tuple(shift)
    aligned = not any(shift)
    N = mesh.cells_per_axis
    out = np.zeros_like(f.values)
    for k in mesh.levels():
        lo, hi, avgs = _level_cubes_with_averages(f, shift, k)
        factor = 2.0 ** (-k * alpha)
        if aligned:
            # aligned cubes tile the box exactly; paint by block repetition
            cpc = min(1 << (mesh.finest_exponent - k), N)
            if mesh.n == 1:
                out += factor * np.repeat(avgs, cpc)[:N]
            else:
                q = max(N // cpc, 1)
                block = avgs.reshape(q, q)
                out += factor * np.repeat(np.repeat(block, cpc, axis=0), cpc, axis=1)[:N, :N]
            continue
        for idx in range(lo.shape[0]):
            a = avgs[idx]
            if a > 0.0:
                out[mesh.center_slices(lo[idx], hi[idx])] += factor * a
    return StepFunction(mesh, out)


def sparse_riesz(f: StepFunction, alpha: float, family) -> StepFunction:
    """Sparse Riesz potential over a certified sparse family."""
    return _sparse_sum(f, alpha, family.cubes)


def restricted_sparse_riesz(
    f: StepFunction, alpha: float, family, root: DyadicCube
) -> StepFunction:
    """Sparse Riesz potential over the members contained in ``root``."""
    members = [q for q in family.cubes if root.contains_cube(q)]
    return _sparse_sum(f, alpha, members)


def _sparse_sum(f: StepFunction, alpha: float, cubes: Iterable[DyadicCube]) -> StepFunction:
    mesh = f.mesh
    _check_alpha(mesh, alpha)
    out = np.zeros_like(f.values)
    for q in cubes:
        avg = f.cube_average(q)
        if avg > 0.0:
            box = mesh.center_slices(*q.bounds3(mesh.finest_exponent))
            out[box] += 2.0 ** (-q.level * alpha) * avg
    return StepFunction(mesh, out)


def _pointwise_sup_over_levels(mesh: Mesh, shift, per_cube_value) -> np.ndarray:
    """Max over levels of the per-cube values painted onto cells whose
    center lies in each cube.  ``per_cube_value(level, lo, hi)`` returns the
    value array for all level cubes."""
    out = np.zeros((mesh.cells_per_axis,) * mesh.n)
    for k in mesh.levels():
        lo, hi = mesh.level_bounds3(shift, k)
        vals = per_cube_value(k, lo, hi)
        i0, i1 = mesh.center_window(lo, hi)
        for idx in range(lo.shape[0]):
            v = vals[idx]
            if v <= 0.0:
                continue
            if mesh.n == 1:
                s = out[i0[idx, 0] : i1[idx, 0]]
                np.maximum(s, v, out=s)
            else:
                s = out[i0[idx, 0] : i1[idx, 0], i0[idx, 1] : i1[idx, 1]]
                np.maximum(s, v, out=s)
    return out


def hl_maximal(f: StepFunction) -> StepFunction:
    """Two-shift dyadic Hardy-Littlewood maximal function."""
    mesh = f.mesh
    out = np.zeros((mesh.cells_per_axis,) * mesh.n)
    for shift in mesh.shifts():
        def value(k, lo, hi):
            return f.integral_box3(lo, hi) / 2.0 ** (-k * mesh.n)

        np.maximum(out, _pointwise_sup_over_levels(mesh, shift, value), out=out)
    return StepFunction(mesh, out)


def frac_maximal_weighted(
    f: StepFunction, mu: StepFunction, alpha: float, shift: Sequence[int]
) -> StepFunction:
    """Weighted fractional dyadic maximal function
    sup_Q mu(Q)^{alpha/n - 1} * integral_Q |f| dmu over one grid.

    Cubes with mu(Q) = 0 contribute 0 (the 0/0 := 0 convention)."""
    mesh = f.mesh
    _check_alpha(mesh, alpha)
    fmu = StepFunction(mesh, f.values * mu.values)
    expo = alpha / mesh.n - 1.0

    def value(k, lo, hi):
        muq = mu.integral_box3(lo, hi)
        num = fmu.integral_box3(lo, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            v = np.where(muq > 0.0, muq**expo * num, 0.0)
        return v

    out = _pointwise_sup_over_levels(mesh, tuple(shift), value)
    return StepFunction(mesh, out)


@dataclass(frozen=True)
class RatioReport:
    min_ratio: float
    max_ratio: float
    argmin: tuple[int, ...]
    argmax: tuple[int, ...]
    violations: int  # cells where B = 0 but A > 0


def compare_pointwise(A: StepFunction, B: StepFunction) -> RatioReport:
    """Cellwise ratio statistics of A/B over cells where B > 0."""
    a, b = A.values.ravel(), B.values.ravel()
    mask = b > 0.0
    violations = int(np.count_nonzero((~mask) & (a > 0.0)))
    if not mask.any():
        return RatioReport(math.nan, math.nan, (), (), violations)
    r = a[mask] / b[mask]
    flat_idx = np.flatnonzero(mask)
    shape = A.values.shape
    imin = np.unravel_index(flat_idx[np.argmin(r)], shape)
    imax = np.unravel_index(flat_idx[np.argmax(r)], shape)
    return RatioReport(float(r.min()), float(r.max()), imin, imax, violations)


def dyadic_upper_constant(n: int, alpha: float) -> float:
    """Provable cellwise bound: dyadic_riesz <= C * riesz_reference(upper),
    C = sqrt(n)^(n - alpha) / (1 - 2^(alpha - n))."""
    return math.sqrt(n) ** (n - alpha) / (1.0 - 2.0 ** (alpha - n))
