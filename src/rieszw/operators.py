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
* A sparse apply takes the members' integrals over the box plan the
  family keeps (``SparseFamily.plan``) and sweeps one sum down the member
  levels of its forest, read by each cell's owner: no Python loop over
  members, and each cell's sum is formed in member order, as a per-member
  loop forms it.  ``_apply_rows`` applies a block of frames at once, from
  one ``BoxPlan.sums`` call and with one sweep for the block.
* ``dyadic_rieszs`` and ``sparse_rieszs`` apply one function for several
  alphas: the box sums do not depend on alpha, so they are taken once, and
  the alphas' weights are swept as the rows of blocks, each row the
  one-alpha call's bit for bit.
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
from .mesh import DyadicCube, Mesh, StepFunction, _block_rows, _checked, _sweep

__all__ = [
    "KernelMode",
    "riesz_reference",
    "dyadic_riesz",
    "dyadic_rieszs",
    "sparse_riesz",
    "sparse_rieszs",
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
    return next(dyadic_rieszs(f, [alpha], shift))


def dyadic_rieszs(f: StepFunction, alphas: Sequence[float], shift: Sequence[int]):
    """``dyadic_riesz(f, alpha, shift)`` for each alpha of ``alphas``, in
    order and bit for bit, from one box-sum call: the cube averages do not
    depend on alpha.  The alphas are checked at once; their level-factor
    weights are swept as the rows of ``_alpha_frames`` blocks."""
    mesh = f.mesh
    for alpha in alphas:
        _check_alpha(mesh, alpha)
    t = mesh.level_table(shift)
    avg = f.integral_box3(t.lo3, t.hi3) / t.volume
    level = t.level - mesh.coarsest_level

    def block(alphas):
        w = np.array([mesh.level_factors(alpha) for alpha in alphas])[:, level]
        w *= avg
        return np.take(t.sweep(w, np.add), t.cells, axis=-1)

    return _alpha_frames(mesh, alphas, len(t.parent), block)


def sparse_riesz(f: StepFunction, alpha: float, family) -> StepFunction:
    """Sparse Riesz potential over a certified sparse family."""
    return next(sparse_rieszs(f, [alpha], family))


def sparse_rieszs(f: StepFunction, alphas: Sequence[float], family):
    """``sparse_riesz(f, alpha, family)`` for each alpha of ``alphas``, in
    order and bit for bit, from one member integral; the alphas' member
    weights are painted as the rows of ``_alpha_frames`` blocks."""
    for alpha in alphas:
        _check_alpha(family.mesh, alpha)
    ints = f.plan_integrals(family.plan)
    return _alpha_frames(f.mesh, alphas, f.mesh.total_cells,
                         lambda alphas: _forest_paint(np.array([_member_weights(ints, alpha, family)
                                                                for alpha in alphas]), family))


def _alpha_frames(mesh: Mesh, alphas: Sequence[float], width: int, block):
    """The frames of ``block(alphas[i:j])`` (one row per alpha, of ``width``
    entries), the alphas taken in blocks; a block is computed when its
    first frame is read."""
    size = _block_rows(width)
    for i in range(0, len(alphas), size):
        frames = block(alphas[i : i + size]).reshape(-1, *(mesh.cells_per_axis,) * mesh.n)
        yield from (StepFunction(mesh, x) for x in frames)


def restricted_sparse_riesz(
    f: StepFunction, alpha: float, family, root: DyadicCube
) -> StepFunction:
    """Sparse Riesz potential over the members contained in ``root``."""
    keep = family.contained_in(root)
    w = _member_weights(f.plan_integrals(family.plan), alpha, family)
    return StepFunction(f.mesh, _forest_paint(np.where(keep, w, 0.0), family))


def _norm_rows(X: np.ndarray, w: np.ndarray, p: float, vol: float) -> list[float]:
    """||x||_{L^p(w)} of each frame x of X, with w one frame or one per row:
    row sums, times the cell volume in float64, then a Python float pow per
    row.  A row sum equals the sum of that frame alone bit for bit."""
    sums = np.sum((X**p * w).reshape(len(X), -1), axis=1) * vol
    return [v ** (1.0 / p) for v in sums.tolist()]


def _column(v: list, n: int) -> np.ndarray:
    """Per-row scalars shaped to broadcast over frames with n axes."""
    return np.array(v).reshape((-1,) + (1,) * n)


def _apply_rows(X: np.ndarray, alpha: float, family) -> np.ndarray:
    """The sparse potential of each frame of X, inputs and outputs checked
    as ``sparse_riesz`` checks them; each row equals that frame's apply
    alone bit for bit.  A one-row block applies its frame alone: a batch of
    one costs 5-10 % more per apply at 1-D L=12 and L=14."""
    _checked(X)
    frames = X[0] if len(X) == 1 else X
    H = _forest_paint(_member_weights(family.plan.sums(frames) * family.mesh.cell_volume, alpha, family), family)
    return _checked(H.reshape(X.shape))


def _weak_lorentz(H: np.ndarray, U: np.ndarray, q: float) -> list[float]:
    """``normest.weak_lorentz_norm`` of each row of flat cell values H, with
    the same row of U (or its one row) the cell masses of u.  A row-wise
    argsort and cumsum equal the 1-D calls on that row.  An array ** can
    differ from scalar pow in the last bit, so it only picks the run ends
    within 1e-12 relative of the row's maximum, and a Python float pow per
    such end gives the value."""
    k, N = H.shape
    order = np.argsort(H, axis=1)[:, ::-1]
    flat = order + N * np.arange(k)[:, None]
    hs = H.take(flat)
    cum = np.cumsum(U.take(flat if len(U) > 1 else order), axis=1)
    # the last index of each run of equal values, kept where the value is > 0
    end = np.ones(hs.shape, dtype=bool)
    np.not_equal(hs[:, :-1], hs[:, 1:], out=end[:, :-1])
    e = np.flatnonzero(end)
    e = e[hs.ravel()[e] > 0.0]
    r, v, c = e // N, hs.ravel()[e], cum.ravel()[e]
    approx = v * c ** (1.0 / q)
    counts = np.bincount(r, minlength=k)
    top = np.maximum.reduceat(np.append(approx, -math.inf), np.cumsum(counts) - counts)
    near = approx >= np.repeat(top, counts) * (1.0 - 1e-12)
    out = [0.0] * len(H)
    for i, x, y in zip(r[near].tolist(), v[near].tolist(), c[near].tolist()):
        out[i] = max(out[i], x * y ** (1.0 / q))
    return out


def _member_weights(ints: np.ndarray, alpha: float, family) -> np.ndarray:
    """2^(-level(Q) alpha) avg_Q f for every member Q, shape (..., m), from
    the integrals of f over the members (``family.plan``); alpha is checked."""
    mesh, t = family.mesh, family.forest
    _check_alpha(mesh, alpha)
    return mesh.level_factors(alpha)[t.level - mesh.coarsest_level] * (ints / t.volume)


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


def _sup_over_shifts(mesh: Mesh, per_cube_value) -> StepFunction:
    """The max of ``_pointwise_sup_over_levels`` over every grid shift."""
    out = np.zeros((mesh.cells_per_axis,) * mesh.n)
    for shift in mesh.shifts():
        np.maximum(out, _pointwise_sup_over_levels(mesh, shift, per_cube_value), out=out)
    return StepFunction(mesh, out)


def hl_maximal(f: StepFunction) -> StepFunction:
    """Two-shift dyadic Hardy-Littlewood maximal function."""
    return _sup_over_shifts(f.mesh, lambda lo, hi, vol: f.integral_box3(lo, hi) / vol)


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
