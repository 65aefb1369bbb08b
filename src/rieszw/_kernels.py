"""Hot numeric kernels in numpy: the batched Luxemburg bisection and the
reference Riesz apply.  The bisection knows no Young function kinds (they
are ``rieszw.orlicz``'s): it calls each Young function, and reads a closed
form's exponents (a, c, d) from its ``exponents``.

The reference apply is an exact FFT matvec: its kernel depends only on the
cell offset, so it costs O(N^n log N) for N cells per axis rather than the
O(cells^2) of a dense matrix.  The kernel's spectrum is kept, one per
kernel mode.  The bisection takes groups of several levels as segments that
stop independently, and runs of cells with their own Young functions, so
that several norms over the same cubes (``rieszw.orlicz`` packs them) share
its rounds.

The bisection certifies each group's root once, then replays its own
evaluated run bit for bit.  For a group of m cells whose Young function is
a closed form with cond = a + |c| + |d| (its exponents of t, log and
loglog), eps_g = (m + 16 (cond + 2)) 2^-53 bounds the relative error of the
computed average g.  From the evaluation at the group maximum, at most five
secant steps on log g against log lambda estimate the root r, and g is
evaluated once at A = r (1 - eta) and once at B = r (1 + eta), with kappa =
3 eps_g and eta = 2 kappa / rate (rate bounds d log Phi / d log t from
below).  If g(A) >= 1 + kappa and g(B) <= 1 - kappa, every step at a point
outside (A, B) is decided without evaluating; a round evaluates only when
some moving group's point lies inside.  Numeric tables, plain callables and
groups whose probes fail are evaluated on every round.  The two calls of a
1-D L=5 ``sandwich`` on the five corpus pairs take 11 rounds each rather
than 44.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# Kept for the benchmark harness: perfbench/child.py --setup-only records it
# with the environment, and without the name every benchmark run stops with
# "rieszw does not import".  There is one numpy backend, so it is False.
NUMBA_ENABLED = False

KERNEL_LOWER = 0
KERNEL_MIDPOINT = 1
KERNEL_UPPER = 2


class LuxemburgError(RuntimeError):
    """Bisection bracket for the Luxemburg norm could not be established."""


# ---------------------------------------------------------------------------
# Batched Luxemburg norms
#
# Groups are given in CSR form: vals/wts are the concatenated cell values
# and cell overlap volumes of every group, indptr delimits the groups, and
# vols holds the full cube volume of each group.  rieszw.orlicz builds the
# groups of a whole batch of cubes at once, row-major within each cube.
# Every step is elementwise or a per-group bincount sum in cell order, so a
# group's lambda does not depend on which other groups share its batch, or
# which Young functions they use, up to when the bisection stops; segments
# fix that point.
#
# Certify, then replay (the scheme is in the module docstring).  For
# closed kinds b t^a log(e+t)^c loglog(e^e+t)^d (b = 1 but for the power
# kind), eps_g covers m - 1 roundings for the sequential bincount sum of
# nonnegative terms (Higham, Accuracy and Stability of Numerical
# Algorithms, ch. 4), one for the division, and per term at most 9 cond +
# 28 ulps if each log and power is within 4 ulps: the rounding of v / x
# carried through t^a, that of log(e+t) through c, that of loglog through
# d, and the products.  Each Phi is nondecreasing (``_closed_exponents``),
# so the exact average does not increase in x, and on a certified group
# every x <= A computes g(x) > 1 and every x >= B computes g(x) < 1, since
# (1 + kappa)(1 - eps_g) > 1 + eps_g and (1 - kappa)(1 + eps_g) < 1 - eps_g.
# The bound is kept far from the edges of the float range: values are
# nonnegative and finite, weights in (0, 2^400], volumes at least 2^-400
# (terms that underflow then move g by far less than kappa), and exponents
# at most 64 (no factor is 0 or inf at a t = v / x <= 2^200 that the loops
# reach).

LUX_RTOL = 1e-12
LUX_MAX_ITER = 200

_U = 2.0**-53  # unit roundoff of float64
_SECANT_STEPS = 5


def _closed_exponents(phi):
    """(rate, cond) of a closed form with ``exponents`` (a, c, d) that the
    certified bisection can replay, else None (a scale b <= 0, which no
    constructor makes, fails the probes).  cond = a + |c| + |d|, and rate = a +
    min(c, 0)/3 + min(d, 0)/7 bounds d log Phi / d log t = a + c h + d k
    from below, as 0 <= h = t / ((e+t) log(e+t)) < 1/3 and 0 <= k = t /
    ((e^e+t) log(e^e+t) loglog(e^e+t)) < 1/7; rate > 0 makes Phi
    increasing."""
    ex = getattr(phi, "exponents", None)
    if ex is None:
        return None
    a, c, d = ex
    rate = a + min(c, 0.0) / 3.0 + min(d, 0.0) / 7.0
    if not (rate > 0.0 and max(a, abs(c), abs(d)) <= 64.0):
        return None
    return rate, a + abs(c) + abs(d)


def luxemburg_batch(vals, wts, indptr, vols, phi, starts=(0,)):
    """Solve avg Phi(vals / lambda) = 1 per group; returns lambda per group,
    0 for a group with no mass.

    ``phi`` is a Young function evaluated elementwise on arrays, or a
    sequence of runs (a, b, Phi) that give the cells a:b their own Young
    function, in order and covering every cell.  ``starts`` cuts the groups
    into consecutive non-empty segments (the index of each segment's first
    group, increasing from 0).  A segment stops bisecting once all of its
    groups are within ``LUX_RTOL``, which is when a call on that segment
    alone stops, so each lambda equals that call's bit for bit.  The default
    is one segment.  With no groups the result is empty.

    The decisions of certified groups are taken without evaluating (see
    the module docstring); the brackets, midpoints, stops and errors are
    those of a bisection that evaluates every round.

    Raises LuxemburgError when a bracket is not found in 200 doublings
    (halvings) for some group, or when some segment is still apart after
    ``LUX_MAX_ITER`` bisection steps."""
    vals = np.asarray(vals, dtype=np.float64)
    wts = np.asarray(wts, dtype=np.float64)
    vols = np.asarray(vols, dtype=np.float64)
    starts = np.asarray(starts, dtype=np.intp)
    runs = [(0, len(vals), phi)] if callable(phi) else phi
    ngroups = len(vols)
    lam = np.zeros(ngroups)
    if not ngroups:
        return lam
    group_of = np.repeat(np.arange(ngroups), np.diff(indptr))
    active = np.bincount(group_of, weights=vals * wts, minlength=ngroups) > 0.0

    gmax = np.zeros(ngroups)
    np.maximum.at(gmax, group_of, vals)

    # every round's cell terms go to one buffer, each run's to its slice
    t = np.empty_like(vals)
    run_views = [(t[a:b], wts[a:b], f) for a, b, f in runs]

    def gval(lam_arr):
        np.divide(vals, lam_arr[group_of], out=t)
        for t_run, w_run, f in run_views:
            np.multiply(f(t_run), w_run, out=t_run)
        return np.bincount(group_of, weights=t, minlength=ngroups) / vols

    lo = np.where(active, gmax, 1.0)
    g0 = gval(lo)
    below, above = _certify(vals, wts, indptr, vols, runs, group_of, active, lo, g0, gval)

    def decide(x, moving, sure, compare):
        """compare(gval(x), 1.0) for the moving groups: ``sure`` where the
        group is certified at x, evaluated where it is not."""
        unsure = moving & (x > below) & (x < above)
        if unsure.any():
            np.copyto(sure, compare(gval(x), 1.0), where=unsure)
        return sure

    # the first round of each bracket is at the group maxima, evaluated once
    hi = lo.copy()
    need = active & (g0 > 1.0)
    for _ in range(199):
        if not need.any():
            break
        hi[need] *= 2.0
        need &= decide(hi, need, hi <= below, np.greater)
    if need.any():
        raise LuxemburgError("upper bracket not found")
    need = active & (g0 < 1.0)
    for _ in range(199):
        if not need.any():
            break
        lo[need] *= 0.5
        need &= decide(lo, need, lo >= above, np.less)
    if need.any():
        raise LuxemburgError("lower bracket not found")

    segment_of = np.repeat(np.arange(len(starts)), np.diff(starts, append=ngroups))
    # a zero-width bracket stays as it is, whichever way a step goes
    width = active & (lo < hi)
    moving = width
    # each step halves the widths, so no group is within LUX_RTOL before
    # step first and the stop test waits; a bracket near the ends of the
    # float range may not halve, and then the test runs from the start
    first = 0
    if width.any() and lo[width].min() > 2.0**-900 and hi[width].max() < 2.0**900:
        spread = np.log2((1.0 - lo[width] / hi[width]).min() / LUX_RTOL)
        first = min(max(int(spread) - 2, 0), LUX_MAX_ITER - 1)
    for step in range(LUX_MAX_ITER):
        mid = 0.5 * (lo + hi)
        up = moving & decide(mid, moving, mid <= below, np.greater)
        np.copyto(lo, mid, where=up)
        np.copyto(hi, mid, where=np.logical_xor(moving, up))
        if step < first:
            continue
        done = hi - lo <= LUX_RTOL * hi
        # a stopped segment stays done, so this only ever stops more
        live = ~np.logical_and.reduceat(done, starts)
        if not live.any():
            break
        moving = width & live[segment_of]
    else:
        raise LuxemburgError(
            f"bisection did not converge in {LUX_MAX_ITER} steps for {int(live.sum())} segment(s)"
        )
    lam[active] = 0.5 * (lo + hi)[active]
    return lam


def _certify(vals, wts, indptr, vols, runs, group_of, active, x0, g0, gval):
    """(A, B) per group: g(x) > 1 is certain at x <= A and g(x) < 1 at
    x >= B; -inf and +inf for a group left uncertified.  ``g0`` is
    ``gval`` at ``x0``, the group maxima."""
    ngroups = len(vols)
    below, above = np.full(ngroups, -np.inf), np.full(ngroups, np.inf)
    # a group's rate is the least of its runs', its cond the largest
    rate, cond = np.full(ngroups, np.inf), np.zeros(ngroups)
    for a, b, f in runs:
        if a == b:
            continue
        ex = _closed_exponents(f)
        g = slice(group_of[a], group_of[b - 1] + 1)
        if ex is None:
            cond[g] = np.inf
        else:
            np.minimum(rate[g], ex[0], out=rate[g])
            np.maximum(cond[g], ex[1], out=cond[g])
    kappa = 3.0 * (np.diff(indptr) + 16.0 * (cond + 2.0)) * _U
    cand = active & (kappa < 0.05) & (4.0 * kappa < rate) & (vols >= 2.0**-400)
    if not cand.any():
        return below, above
    sound = (vals >= 0.0) & (vals < np.inf) & (wts > 0.0) & (wts <= 2.0**400)
    if not sound.all():
        cand &= np.bincount(group_of, weights=~sound, minlength=ngroups) == 0
    with np.errstate(all="ignore"):
        x, y = x0, np.log(g0)
        step = y / rate
        for _ in range(_SECANT_STEPS):
            x = x * np.exp(step)
            y_new = np.log(gval(x))
            step = np.where(y_new != y, y_new * step / (y - y_new), 0.0)
            # the next point is off by about cond |y_new y| / rate
            if not (cand & (cond * np.abs(y_new * y) > kappa)).any():
                break
            y = y_new
        r, eta = x * np.exp(step), 2.0 * kappa / rate
        probe_lo, probe_hi = r * (1.0 - eta), r * (1.0 + eta)
        cand &= gval(probe_lo) >= 1.0 + kappa
        cand &= gval(probe_hi) <= 1.0 - kappa
    np.copyto(below, probe_lo, where=cand)
    np.copyto(above, probe_hi, where=cand)
    return below, above


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
