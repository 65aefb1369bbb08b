"""Hot numeric kernels in numpy: Young function evaluation, the batched
Luxemburg bisection, and the reference Riesz apply.

The reference apply is an exact FFT matvec: its kernel depends only on the
cell offset, so it costs O(N^n log N) for N cells per axis rather than the
O(cells^2) of a dense matrix.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# Kept for the benchmark harness: perfbench/child.py --setup-only records it
# with the environment, and without the name every benchmark run stops with
# "rieszw does not import".  There is one numpy backend, so it is False.
NUMBA_ENABLED = False

# Young function kind codes shared with rieszw.orlicz.
KIND_POWER = 0
KIND_LOG_BUMP = 1
KIND_LOGLOG_BUMP = 2
KIND_DUAL_LOG = 3
KIND_DUAL_LOGLOG = 4

_E = math.e
_EE = math.exp(math.e)  # e^e ~ 15.154; loglog(e^e + t) >= 1 at t = 0

KERNEL_LOWER = 0
KERNEL_MIDPOINT = 1
KERNEL_UPPER = 2


class LuxemburgError(RuntimeError):
    """Bisection bracket for the Luxemburg norm could not be established."""


# ---------------------------------------------------------------------------
# Young function evaluation


def young_eval_np(kind: int, a: float, b: float, t: np.ndarray) -> np.ndarray:
    """Vectorized Young function evaluation.

    Parameter meaning per kind: power -> a=exponent, b=scale;
    log/loglog bump and dual kinds -> a=power exponent, b=delta.
    """
    t = np.asarray(t, dtype=np.float64)
    if kind == KIND_POWER:
        return b * t**a
    lg = np.log(_E + t)
    if kind == KIND_LOG_BUMP:
        return t**a * lg ** (a - 1.0 + b)
    if kind == KIND_DUAL_LOG:
        return t**a * lg ** (-1.0 - b)
    llg = np.log(np.log(_EE + t))
    if kind == KIND_LOGLOG_BUMP:
        return t**a * lg ** (a - 1.0) * llg ** (a - 1.0 + b)
    if kind == KIND_DUAL_LOGLOG:
        return t**a * lg ** (-1.0) * llg ** (-1.0 - b)
    raise ValueError(f"unknown Young kind {kind}")


# ---------------------------------------------------------------------------
# Batched Luxemburg norms
#
# Groups are given in CSR form: vals/wts are concatenated per-group cell
# values and cell overlap volumes, indptr delimits groups, vols holds the
# full cube volume of each group.

LUX_RTOL = 1e-12
LUX_MAX_ITER = 200


def luxemburg_batch(vals, wts, indptr, vols, kind, a, b):
    """Solve the Luxemburg normalization per group; returns lambda per group.

    Raises LuxemburgError when a bracket is not found in 200 doublings
    (halvings) for some group."""
    vals = np.asarray(vals, dtype=np.float64)
    wts = np.asarray(wts, dtype=np.float64)
    vols = np.asarray(vols, dtype=np.float64)
    a, b = float(a), float(b)
    ngroups = len(vols)
    lam = np.zeros(ngroups)
    counts = np.diff(indptr)
    group_of = np.repeat(np.arange(ngroups), counts)
    mass = np.zeros(ngroups)
    np.add.at(mass, group_of, vals * wts)
    active = mass > 0.0

    gmax = np.zeros(ngroups)
    np.maximum.at(gmax, group_of, vals)

    def gval(lam_arr):
        lam_cells = lam_arr[group_of]
        phi = young_eval_np(kind, a, b, vals / lam_cells)
        acc = np.zeros(ngroups)
        np.add.at(acc, group_of, phi * wts)
        return acc / vols

    lo = np.where(active, gmax, 1.0)
    hi = lo.copy()
    for _ in range(200):
        need = active & (gval(hi) > 1.0)
        if not need.any():
            break
        hi[need] *= 2.0
    else:
        raise LuxemburgError("upper bracket not found")
    for _ in range(200):
        need = active & (gval(lo) < 1.0)
        if not need.any():
            break
        lo[need] *= 0.5
    else:
        raise LuxemburgError("lower bracket not found")
    for _ in range(LUX_MAX_ITER):
        mid = 0.5 * (lo + hi)
        above = gval(mid) > 1.0
        lo = np.where(active & above, mid, lo)
        hi = np.where(active & ~above, mid, hi)
        if np.all(hi - lo <= LUX_RTOL * hi):
            break
    lam[active] = 0.5 * (lo + hi)[active]
    return lam


# ---------------------------------------------------------------------------
# Reference Riesz kernel
#
# Targets are cell centers; per source cell the kernel weight is a discrete
# surrogate for the integral of |x - y|^{alpha - n} over the cell, selected
# by mode: lower uses the farthest point of the cell, midpoint the
# center-to-center distance, upper the nearest point.  The self cell uses
# the equal-volume-ball radial integral n*omega_n*rho^alpha/alpha for the
# midpoint and upper modes (for midpoint the center distance is zero).


def _ball_weight(n: int, h: float, alpha: float) -> float:
    omega = 2.0 if n == 1 else math.pi
    rho = (h**n / omega) ** (1.0 / n)
    return n * omega * rho**alpha / alpha


def _self_weight(n: int, h: float, alpha: float, mode: int) -> float:
    if mode == KERNEL_LOWER:
        dfar = 0.5 * h * math.sqrt(n)
        return h**n * dfar ** (alpha - n)
    return _ball_weight(n, h, alpha)


def riesz_apply(values: np.ndarray, h: float, alpha: float, mode: int) -> np.ndarray:
    """Reference Riesz potential at all cell centers of an N^n grid.

    The weight of source cell j at target i depends only on |i - j| per
    axis, so the operator is (block-)Toeplitz.  It is embedded in a circulant
    of size 2N per axis and applied exactly by zero-padded real FFTs
    (circulant embedding; Chan & Jin, Iterative Toeplitz Solvers, ch. 2)."""
    from numpy import fft  # first use only: keeps numpy.fft out of the import

    values = np.asarray(values, dtype=np.float64)
    n, N = values.ndim, values.shape[0]
    # circulant index m stands for the axis offset min(m, 2N - m); m = N is
    # never reached by an offset between two cells
    m = np.arange(2 * N)
    dist = np.minimum(m, 2 * N - m) * h
    if mode == KERNEL_LOWER:
        dist = dist + 0.5 * h
    elif mode == KERNEL_UPPER:
        dist = np.maximum(dist - 0.5 * h, 0.0)
    d = functools.reduce(np.hypot, np.meshgrid(*(dist,) * n, indexing="ij", sparse=True))
    with np.errstate(divide="ignore"):
        kernel = h**n * d ** (alpha - n)
    kernel[(0,) * n] = _self_weight(n, h, alpha, mode)
    shape, axes = (2 * N,) * n, tuple(range(n))
    spectrum = fft.rfftn(values, shape, axes) * fft.rfftn(kernel, shape, axes)
    return fft.irfftn(spectrum, shape, axes)[(slice(0, N),) * n]
