"""Hot numeric kernels in numpy: Young function evaluation, the batched
Luxemburg bisection, and the reference Riesz apply.

The reference apply is an exact FFT matvec: its kernel depends only on the
cell offset, so it costs O(N^n log N) for N cells per axis rather than the
O(cells^2) of a dense matrix.  The kernel's spectrum is kept, one per
kernel mode.  The bisection takes groups of several levels as segments that
stop independently.
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
# Groups are given in CSR form: vals/wts are the concatenated cell values
# and cell overlap volumes of every group, indptr delimits the groups, and
# vols holds the full cube volume of each group.  rieszw.orlicz builds the
# groups of a whole batch of cubes at once, row-major within each cube.
# Every step is elementwise or a per-group bincount sum in cell order, so a
# group's lambda does not depend on which other groups share its batch, up
# to when the bisection stops; segments fix that point.

LUX_RTOL = 1e-12
LUX_MAX_ITER = 200


def luxemburg_batch(vals, wts, indptr, vols, phi, starts=(0,)):
    """Solve avg Phi(vals / lambda) = 1 per group, for a Young function
    ``phi`` evaluated elementwise on arrays; returns lambda per group, 0 for
    a group with no mass.

    ``starts`` cuts the groups into consecutive non-empty segments (the
    index of each segment's first group, increasing from 0).  A segment
    stops bisecting once all of its groups are within ``LUX_RTOL``, which
    is when a call on that segment alone stops, so each lambda equals that
    call's bit for bit.  The default is one segment.

    Raises LuxemburgError when a bracket is not found in 200 doublings
    (halvings) for some group."""
    vals = np.asarray(vals, dtype=np.float64)
    wts = np.asarray(wts, dtype=np.float64)
    vols = np.asarray(vols, dtype=np.float64)
    starts = np.asarray(starts, dtype=np.intp)
    ngroups = len(vols)
    lam = np.zeros(ngroups)
    group_of = np.repeat(np.arange(ngroups), np.diff(indptr))
    active = np.bincount(group_of, weights=vals * wts, minlength=ngroups) > 0.0

    gmax = np.zeros(ngroups)
    np.maximum.at(gmax, group_of, vals)

    def gval(lam_arr):
        phi_wts = phi(vals / lam_arr[group_of]) * wts
        return np.bincount(group_of, weights=phi_wts, minlength=ngroups) / vols

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
    segment_of = np.repeat(np.arange(len(starts)), np.diff(starts, append=ngroups))
    moving = active
    for _ in range(LUX_MAX_ITER):
        mid = 0.5 * (lo + hi)
        above = gval(mid) > 1.0
        lo = np.where(moving & above, mid, lo)
        hi = np.where(moving & ~above, mid, hi)
        done = hi - lo <= LUX_RTOL * hi
        # a stopped segment stays done, so this only ever stops more
        live = ~np.logical_and.reduceat(done, starts)
        if not live.any():
            break
        moving = active & live[segment_of]
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


#: One kernel spectrum per mode, for the last (n, N, h, alpha) that mode
#: was applied with: at most three are held.
_SPECTRA: dict[int, tuple[tuple, np.ndarray]] = {}


def _kernel_spectrum(n: int, N: int, h: float, alpha: float, mode: int) -> np.ndarray:
    """rfftn of the circulant kernel table of size 2N per axis, read-only."""
    key = (n, N, h, alpha)
    hit = _SPECTRA.get(mode)
    if hit is not None and hit[0] == key:
        return hit[1]
    from numpy import fft  # first use only: keeps numpy.fft out of the import

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
    spectrum = fft.rfftn(kernel, (2 * N,) * n, tuple(range(n)))
    spectrum.setflags(write=False)
    _SPECTRA[mode] = (key, spectrum)
    return spectrum


def riesz_apply(
    values: np.ndarray, h: float, alpha: float, mode: int, n: int | None = None
) -> np.ndarray:
    """Reference Riesz potential at all cell centers of an N^n grid.

    The weight of source cell j at target i depends only on |i - j| per
    axis, so the operator is (block-)Toeplitz.  It is embedded in a circulant
    of size 2N per axis and applied exactly by zero-padded real FFTs
    (circulant embedding; Chan & Jin, Iterative Toeplitz Solvers, ch. 2).
    The kernel's spectrum is kept per mode (``_kernel_spectrum``).

    The grid is the last ``n`` axes (all of them by default); leading axes
    are a batch of grids, each transformed as if alone."""
    from numpy import fft

    values = np.asarray(values, dtype=np.float64)
    n = values.ndim if n is None else n
    N = values.shape[-1]
    shape, axes = (2 * N,) * n, tuple(range(-n, 0))
    spectrum = fft.rfftn(values, shape, axes) * _kernel_spectrum(n, N, h, alpha, mode)
    return fft.irfftn(spectrum, shape, axes)[(..., *(slice(0, N),) * n)]
