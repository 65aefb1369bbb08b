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

Cost:

* Every grid sum or maximum is a sweep down the level table the mesh
  caches per shift (``Mesh.level_table``): one box-sum call gives the
  values of every cube, ``LevelTable.sweep`` carries each cube's value
  into its children, coarse to fine, and each cell reads the finest cube
  over its centre (``np.take(x, t.cells)``).  A sum gets one term per
  level in level order, and a maximum maps values <= 0 to +0.0.
* A sparse apply is one batched ``integral_box3`` over the members and one
  sum swept down the member levels of the family's forest, read by each
  cell's owner (``SparseFamily.forest``): no Python loop over members, and
  each cell's sum is formed in member order, as a per-member loop forms it.
  ``_sparse_sum`` applies a block of frames at once, with one box-sum call
  and one sweep for the block.
* Maximal sweeps stop at the covering level (``Mesh.maximal_levels``): the
  coarser padding levels repeat the covering cube's integrals over a larger
  volume, so they cannot raise the maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Sequence

import numpy as np

from . import _kernels
from .mesh import DyadicCube, Mesh, StepFunction, _box_sums, _prefix_sums, _sweep

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


def dyadic_riesz(f: StepFunction, alpha: float, shift: Sequence[int]) -> StepFunction:
    """Truncated dyadic Riesz potential over one shifted grid."""
    mesh = f.mesh
    _check_alpha(mesh, alpha)
    t = mesh.level_table(shift)
    avg = f.integral_box3(t.lo3, t.hi3) / t.volume
    w = mesh.level_factors(alpha)[t.level - mesh.coarsest_level] * avg
    return StepFunction(mesh, np.take(t.sweep(w, np.add), t.cells))


def sparse_riesz(f: StepFunction, alpha: float, family) -> StepFunction:
    """Sparse Riesz potential over a certified sparse family."""
    return StepFunction(f.mesh, _sparse_sum(f.values, alpha, family, pref=f._prefixes()))


def restricted_sparse_riesz(
    f: StepFunction, alpha: float, family, root: DyadicCube
) -> StepFunction:
    """Sparse Riesz potential over the members contained in ``root``."""
    keep = family.contained_in(root)
    return StepFunction(f.mesh, _sparse_sum(f.values, alpha, family, keep, f._prefixes()))


def _sparse_sum(values: np.ndarray, alpha: float, family, keep=True, pref=None) -> np.ndarray:
    """sum over the members Q (those set in ``keep``) of
    2^(-level(Q) alpha) avg_Q f, painted on the cells whose centre lies in
    Q, for the values of f with an optional leading batch axis (B, cells...)
    and, if given, their ``_prefix_sums``.  Each row of a batch equals the
    sum of that frame alone bit for bit; the values are not checked."""
    _check_alpha(family.mesh, alpha)
    w = _member_weights(values, alpha, family, pref)
    return _forest_paint(np.where(keep, w, 0.0), family)


def _member_weights(values: np.ndarray, alpha: float, family, pref=None) -> np.ndarray:
    """2^(-level(Q) alpha) avg_Q f for every member Q, shape (..., m), from
    the values of f with an optional leading batch axis and, if given,
    their ``_prefix_sums``."""
    mesh, t = family.mesh, family.forest
    pref = _prefix_sums(values, mesh.n) if pref is None else pref
    sums = _box_sums(pref, values, list(t.lo3.T), list(t.hi3.T)) * mesh.cell_volume
    return mesh.level_factors(alpha)[t.level - mesh.coarsest_level] * (sums / t.volume)


def _forest_paint(w: np.ndarray, family) -> np.ndarray:
    """Member weights (..., m) painted on the cells: each cell reads the
    sum down its owner's forest chain, coarse to fine.

    The sum is swept down the member levels (``mesh._sweep``): a running
    sum over the leading chain, then each member adds its weight to its
    parent's sum, or to the 0.0 at index m.  These are the terms of a
    per-member loop in its order, with an exact +0.0 for a member of weight
    +0.0, so the sum is the loop's bit for bit.  ``np.take`` keeps each
    output row C-contiguous, so a later row sum sees the same memory order
    as a single frame's."""
    t = family.forest
    acc = np.zeros((*w.shape[:-1], w.shape[-1] + 1))
    acc[..., :-1] = w
    _sweep(acc, t.head, t.runs[t.head:], t.up, np.add)
    return np.take(acc, t.owner, axis=-1)


def _pointwise_sup_over_levels(mesh: Mesh, shift, per_cube_value) -> np.ndarray:
    """Max over levels of the per-cube values painted onto cells whose
    center lies in each cube.  ``per_cube_value(lo3, hi3, volume)`` returns
    the values of the table cubes from the start of ``mesh.maximal_levels``
    on, so the value of the one cube containing the box must not grow when
    the cube is replaced by its parent: an average shrinks, and a weighted
    fractional average stays the same."""
    t = mesh.level_table(shift)
    a = t.starts[mesh.maximal_levels(shift).start - mesh.coarsest_level]
    v = per_cube_value(t.lo3[a:], t.hi3[a:], t.volume[a:])
    # values <= 0, and the cubes coarser than the start, paint +0.0, so a
    # cell no positive value reaches stays +0.0
    x = np.zeros(len(t.parent))
    x[a:] = np.where(v > 0.0, v, 0.0)
    return np.take(t.sweep(x, np.maximum), t.cells)


def hl_maximal(f: StepFunction) -> StepFunction:
    """Two-shift dyadic Hardy-Littlewood maximal function."""
    mesh = f.mesh

    def value(lo, hi, vol):
        return f.integral_box3(lo, hi) / vol

    out = np.zeros((mesh.cells_per_axis,) * mesh.n)
    for shift in mesh.shifts():
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

    def value(lo, hi, vol):
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
