"""Young functions, Luxemburg norms on cubes, associates, B_p checks, and
the Orlicz maximal function.

Closed-form kinds: Power(p) = scale*t^p, LogBump(p, d) = t^p log(e+t)^(p-1+d),
LogLogBump(p, d) = t^p log(e+t)^(p-1) loglog(e^e+t)^(p-1+d), and the dual
bump kinds with negative logarithmic exponents.  A NumericTable kind carries
a sampled monotone graph for validation work.

Luxemburg norms solve avg_Q Phi(f/lambda) = 1 by bisection at relative
tolerance 1e-12 with a 200-iteration cap; the average is over the full cube
volume (functions vanish outside the base box).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import _kernels
from ._kernels import LuxemburgError
from .mesh import DyadicCube, StepFunction

__all__ = [
    "YoungFunction",
    "LuxemburgError",
    "BpVerdict",
    "GapFit",
    "luxemburg_norm",
    "luxemburg_norms",
    "bp_check",
    "orlicz_maximal",
    "generalized_holder",
    "crv_gap_check",
]

_KIND_NAMES = {
    _kernels.KIND_POWER: "power",
    _kernels.KIND_LOG_BUMP: "log_bump",
    _kernels.KIND_LOGLOG_BUMP: "loglog_bump",
    _kernels.KIND_DUAL_LOG: "dual_log_bump",
    _kernels.KIND_DUAL_LOGLOG: "dual_loglog_bump",
}
_KIND_NUMERIC = -1


_CONJUGATE_CACHE: dict = {}


def _conjugate(p: float) -> float:
    return p / (p - 1.0)


@dataclass(frozen=True)
class YoungFunction:
    """A Young function given by a closed-form kind or a numeric table.

    For the closed forms ``a`` is the power exponent and ``b`` the secondary
    parameter (scale for Power, bump exponent delta for the log kinds)."""

    kind: int
    a: float = 0.0
    b: float = 0.0
    table_t: np.ndarray | None = field(default=None, compare=False)
    table_y: np.ndarray | None = field(default=None, compare=False)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def power(p: float, scale: float = 1.0) -> "YoungFunction":
        if p <= 1.0 or scale <= 0.0:
            raise ValueError("power kind needs p > 1 and scale > 0")
        return YoungFunction(_kernels.KIND_POWER, p, scale)

    @staticmethod
    def log_bump(p: float, delta: float) -> "YoungFunction":
        if p <= 1.0 or delta <= 0.0:
            raise ValueError("log bump needs p > 1 and delta > 0")
        return YoungFunction(_kernels.KIND_LOG_BUMP, p, delta)

    @staticmethod
    def loglog_bump(p: float, delta: float) -> "YoungFunction":
        if p <= 1.0 or delta <= 0.0:
            raise ValueError("loglog bump needs p > 1 and delta > 0")
        return YoungFunction(_kernels.KIND_LOGLOG_BUMP, p, delta)

    @staticmethod
    def dual_log_bump(qprime: float, deltaprime: float) -> "YoungFunction":
        if qprime <= 1.0 or deltaprime <= 0.0:
            raise ValueError("dual log bump needs q' > 1 and delta' > 0")
        return YoungFunction(_kernels.KIND_DUAL_LOG, qprime, deltaprime)

    @staticmethod
    def dual_loglog_bump(qprime: float, deltaprime: float) -> "YoungFunction":
        if qprime <= 1.0 or deltaprime <= 0.0:
            raise ValueError("dual loglog bump needs q' > 1 and delta' > 0")
        return YoungFunction(_kernels.KIND_DUAL_LOGLOG, qprime, deltaprime)

    @staticmethod
    def numeric_table(ts: Sequence[float], ys: Sequence[float]) -> "YoungFunction":
        ts = np.asarray(ts, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if ts.ndim != 1 or ts.shape != ys.shape or ts.size < 3:
            raise ValueError("need matching 1-d sample arrays with >= 3 points")
        if ts[0] <= 0.0 or np.any(np.diff(ts) <= 0) or np.any(np.diff(ys) <= 0):
            raise ValueError("samples must be positive and strictly increasing")
        yf = YoungFunction(_KIND_NUMERIC, 0.0, 0.0, ts, ys)
        yf.check_young()
        return yf

    # -- evaluation -------------------------------------------------------

    @property
    def name(self) -> str:
        if self.kind == _KIND_NUMERIC:
            return "numeric_table"
        return _KIND_NAMES[self.kind]

    def __call__(self, t):
        t = np.asarray(t, dtype=np.float64)
        if self.kind == _KIND_NUMERIC:
            # log-log interpolation, extrapolated with the boundary slopes
            lt = np.log(np.maximum(t, 1e-300))
            ly = np.interp(lt, np.log(self.table_t), np.log(self.table_y))
            lo, hi = np.log(self.table_t[[0, -1]])
            sl_lo = (np.log(self.table_y[1]) - np.log(self.table_y[0])) / (
                np.log(self.table_t[1]) - np.log(self.table_t[0])
            )
            sl_hi = (np.log(self.table_y[-1]) - np.log(self.table_y[-2])) / (
                np.log(self.table_t[-1]) - np.log(self.table_t[-2])
            )
            ly = np.where(lt < lo, np.log(self.table_y[0]) + sl_lo * (lt - lo), ly)
            ly = np.where(lt > hi, np.log(self.table_y[-1]) + sl_hi * (lt - hi), ly)
            out = np.where(t > 0.0, np.exp(ly), 0.0)
            return out if out.ndim else float(out)
        out = _kernels.young_eval_np(self.kind, self.a, self.b, t)
        return out if out.ndim else float(out)

    def inverse(self, y: float) -> float:
        """The unique t >= 0 with Phi(t) = y."""
        if y < 0.0:
            raise ValueError("inverse needs y >= 0")
        if y == 0.0:
            return 0.0
        if self.kind == _kernels.KIND_POWER:
            return (y / self.b) ** (1.0 / self.a)
        lo, hi = 1.0, 1.0
        for _ in range(200):
            if self(hi) >= y:
                break
            hi *= 2.0
        for _ in range(200):
            if self(lo) <= y:
                break
            lo *= 0.5
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self(mid) < y:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-14 * hi:
                break
        return 0.5 * (lo + hi)

    def check_young(self, grid: np.ndarray | None = None):
        """Numeric Young-function sanity on a log-spaced grid: Phi(0) = 0,
        strictly increasing, midpoint convexity, Phi(t)/t unbounded."""
        if grid is None:
            grid = np.logspace(-6, 8, 200)
        v = np.asarray(self(grid))
        if self(0.0) != 0.0:
            raise ValueError("Phi(0) != 0")
        if np.any(np.diff(v) <= 0):
            raise ValueError("Phi is not strictly increasing on the test grid")
        mids = np.asarray(self(0.5 * (grid[:-1] + grid[1:])))
        if np.any(mids > 0.5 * (v[:-1] + v[1:]) * (1 + 1e-9)):
            raise ValueError("Phi fails midpoint convexity on the test grid")
        r = v / grid
        if r[-1] <= 10.0 * r[0] and r[-1] < 1e6:
            raise ValueError("Phi(t)/t does not appear to be unbounded")

    # -- associates -------------------------------------------------------

    def associate(self) -> "YoungFunction":
        """Associate (Legendre-dual) Young function.

        Exact for Power; for the bump kinds this is the standard asymptotic
        dual kind (equivalent, not equal, to the numeric Legendre transform).
        Numeric tables get a tabulated numeric Legendre transform."""
        if self.kind == _kernels.KIND_POWER:
            p, scale = self.a, self.b
            pp = _conjugate(p)
            return YoungFunction.power(pp, (p * scale) ** (-pp / p) / pp)
        if self.kind == _kernels.KIND_LOG_BUMP:
            return YoungFunction.dual_log_bump(_conjugate(self.a), self.b / (self.a - 1.0))
        if self.kind == _kernels.KIND_LOGLOG_BUMP:
            return YoungFunction.dual_loglog_bump(_conjugate(self.a), self.b / (self.a - 1.0))
        if self.kind == _kernels.KIND_DUAL_LOG:
            q = _conjugate(self.a)
            return YoungFunction.log_bump(q, self.b * (q - 1.0))
        if self.kind == _kernels.KIND_DUAL_LOGLOG:
            q = _conjugate(self.a)
            return YoungFunction.loglog_bump(q, self.b * (q - 1.0))
        ts = np.logspace(-8, 12, 600)
        return YoungFunction.numeric_table(ts, np.maximum(self.legendre(ts), 1e-290))

    def exact_conjugate(self) -> "YoungFunction":
        """The true Legendre conjugate: closed form for Power, a numeric
        Legendre table otherwise.  Unlike associate(), the Young inequality
        s*t <= Phi(s) + conj(t) holds pointwise, not just asymptotically."""
        if self.kind == _kernels.KIND_POWER:
            return self.associate()
        key = (self.kind, self.a, self.b)
        if self.kind != _KIND_NUMERIC and key in _CONJUGATE_CACHE:
            return _CONJUGATE_CACHE[key]
        ts = np.logspace(-8, 12, 600)
        conj = YoungFunction.numeric_table(ts, np.maximum(self.legendre(ts), 1e-290))
        if self.kind != _KIND_NUMERIC:
            _CONJUGATE_CACHE[key] = conj
        return conj

    def legendre(self, t) -> np.ndarray:
        """Numeric Legendre transform sup_{s>0} (s*t - Phi(s)) by ternary
        search on log s (the map is concave in s)."""
        t = np.atleast_1d(np.asarray(t, dtype=np.float64))
        out = np.empty_like(t)
        for i, ti in enumerate(t):
            lo, hi = -60.0, 60.0
            # shrink to a bracket where the derivative changes sign
            for _ in range(300):
                if hi - lo < 1e-12:
                    break
                m1 = lo + (hi - lo) / 3.0
                m2 = hi - (hi - lo) / 3.0
                f1 = math.exp(m1) * ti - float(self(math.exp(m1)))
                f2 = math.exp(m2) * ti - float(self(math.exp(m2)))
                if f1 < f2:
                    lo = m1
                else:
                    hi = m2
            s = math.exp(0.5 * (lo + hi))
            out[i] = max(s * ti - float(self(s)), 0.0)
        return out


# ---------------------------------------------------------------------------
# Luxemburg norms


def _axis_coverage(lo3: int, hi3: int, ncells: int):
    """Cells overlapping [lo3, hi3) (thirds units) with coverage fractions."""
    a = max(lo3, 0)
    b = min(hi3, 3 * ncells)
    if a >= b:
        return 0, 0, np.zeros(0)
    i0 = a // 3
    i1 = (b + 2) // 3
    w = np.ones(i1 - i0)
    w[0] = (min(b, 3 * (i0 + 1)) - a) / 3.0
    if i1 - i0 > 1:
        w[-1] = (b - 3 * (i1 - 1)) / 3.0
    return i0, i1, w


def _cube_cells(f: StepFunction, cube: DyadicCube):
    """Values and overlap volumes of the cells meeting the cube."""
    mesh = f.mesh
    lo, hi = cube.bounds3(mesh.finest_exponent)
    N = mesh.cells_per_axis
    if mesh.n == 1:
        i0, i1, w = _axis_coverage(lo[0], hi[0], N)
        return f.values[i0:i1], w * mesh.cell_volume
    i0, i1, wx = _axis_coverage(lo[0], hi[0], N)
    j0, j1, wy = _axis_coverage(lo[1], hi[1], N)
    if i0 >= i1 or j0 >= j1:
        return np.zeros(0), np.zeros(0)
    vals = f.values[i0:i1, j0:j1].ravel()
    wts = np.outer(wx, wy).ravel() * mesh.cell_volume
    return vals, wts


def luxemburg_norms(
    f: StepFunction, cubes: Iterable[DyadicCube], phi: YoungFunction
) -> np.ndarray:
    """Luxemburg norms ||f||_{Phi,Q} for a batch of cubes."""
    cubes = list(cubes)
    if phi.kind == _KIND_NUMERIC:
        return np.array([_luxemburg_numeric(f, q, phi) for q in cubes])
    vals_parts, wts_parts, indptr, vols = [], [], [0], []
    for q in cubes:
        v, w = _cube_cells(f, q)
        vals_parts.append(v)
        wts_parts.append(w)
        indptr.append(indptr[-1] + len(v))
        vols.append(q.volume)
    vals = np.concatenate(vals_parts) if vals_parts else np.zeros(0)
    wts = np.concatenate(wts_parts) if wts_parts else np.zeros(0)
    return _kernels.luxemburg_batch(
        vals, wts, np.asarray(indptr), np.asarray(vols), phi.kind, phi.a, phi.b
    )


def luxemburg_norm(f: StepFunction, cube: DyadicCube, phi: YoungFunction) -> float:
    """The unique lambda with avg_Q Phi(f/lambda) = 1, or 0 if f = 0 on Q."""
    return float(luxemburg_norms(f, [cube], phi)[0])


def _luxemburg_numeric(f: StepFunction, cube: DyadicCube, phi: YoungFunction) -> float:
    vals, wts = _cube_cells(f, cube)
    if len(vals) == 0 or float(vals @ wts) <= 0.0:
        return 0.0
    vol = cube.volume

    def g(lam):
        return float(np.sum(np.asarray(phi(vals / lam)) * wts)) / vol

    lo = hi = float(vals.max())
    for _ in range(200):
        if g(hi) <= 1.0:
            break
        hi *= 2.0
    else:
        raise LuxemburgError("upper bracket not found")
    for _ in range(200):
        if g(lo) >= 1.0:
            break
        lo *= 0.5
    else:
        raise LuxemburgError("lower bracket not found")
    for _ in range(_kernels.LUX_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if g(mid) > 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= _kernels.LUX_RTOL * hi:
            break
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# B_p membership


@dataclass(frozen=True)
class BpVerdict:
    finite: bool
    tail_slope: float  # fitted d log(Phi(t)/t^p) / d log t near the cutoff
    integral_to_cutoff: float  # int_1^cutoff Phi(t)/t^p dt/t
    unreliable: bool = False


def bp_check(phi: YoungFunction, p: float, cutoff: float = 1e12) -> BpVerdict:
    """Whether int^infty Phi(t)/t^p dt/t converges.

    Closed forms are decided analytically from the exponent triple (power,
    log, loglog); numeric tables fall back to the fitted tail slope and are
    flagged unreliable."""
    if p <= 1.0:
        raise ValueError("need p > 1")
    ts = np.logspace(0.0, math.log10(cutoff), 4000)
    integrand = np.asarray(phi(ts)) / ts**p
    # trapezoid rule in log t, spelled out: np.trapz is gone in numpy 2.x and
    # np.trapezoid does not exist before 2.0
    x = np.log(ts)
    integral = float((np.diff(x) * (integrand[1:] + integrand[:-1]) / 2.0).sum())
    t1, t2 = cutoff / 1e2, cutoff
    slope = (math.log(float(phi(t2)) / t2**p) - math.log(float(phi(t1)) / t1**p)) / (
        math.log(t2) - math.log(t1)
    )
    if phi.kind == _KIND_NUMERIC:
        return BpVerdict(slope < -1e-6, slope, integral, unreliable=True)
    # exponent triple (power, log, loglog) of Phi
    if phi.kind == _kernels.KIND_POWER:
        triple = (phi.a, 0.0, 0.0)
    elif phi.kind == _kernels.KIND_LOG_BUMP:
        triple = (phi.a, phi.a - 1.0 + phi.b, 0.0)
    elif phi.kind == _kernels.KIND_LOGLOG_BUMP:
        triple = (phi.a, phi.a - 1.0, phi.a - 1.0 + phi.b)
    elif phi.kind == _kernels.KIND_DUAL_LOG:
        triple = (phi.a, -1.0 - phi.b, 0.0)
    else:
        triple = (phi.a, -1.0, -1.0 - phi.b)
    a, c, d = triple
    if a != p:
        finite = a < p
    elif c != -1.0:
        finite = c < -1.0
    else:
        finite = d < -1.0
    return BpVerdict(finite, slope, integral)


# ---------------------------------------------------------------------------
# Orlicz maximal function and generalized Hoelder


def orlicz_maximal(f: StepFunction, phi: YoungFunction) -> StepFunction:
    """M_Phi f: per cell, the max of ||f||_{Phi,Q} over all enumerated cubes
    of both shifts containing the cell center.  The two-shift enumeration is
    the standard stand-in for the sup over arbitrary cubes (every cube sits
    inside a shifted dyadic cube of comparable side)."""
    mesh = f.mesh
    out = np.zeros((mesh.cells_per_axis,) * mesh.n)
    for shift in mesh.shifts():
        for k in mesh.levels():
            coords = mesh.level_cube_coords(shift, k)
            cubes = [DyadicCube(shift, k, tuple(int(x) for x in c)) for c in coords]
            norms = luxemburg_norms(f, cubes, phi)
            for cube, v in zip(cubes, norms):
                if v <= 0.0:
                    continue
                s = out[mesh.center_slices(*cube.bounds3(mesh.finest_exponent))]
                np.maximum(s, float(v), out=s)
    return StepFunction(mesh, out)


def generalized_holder(
    f: StepFunction, g: StepFunction, cube: DyadicCube, phi: YoungFunction
) -> tuple[float, float]:
    """(avg_Q fg, 2*||f||_{Phi,Q}*||g||_{conj Phi,Q}); lhs <= rhs always
    (constant 2 is the classical Luxemburg-norm Hoelder constant).  The
    second norm is taken against the exact Legendre conjugate so the bound
    is provable via the Young inequality; the asymptotic associate kinds can
    overshoot it by a bounded factor."""
    prod = StepFunction(f.mesh, f.values * g.values)
    lhs = prod.cube_average(cube)
    rhs = 2.0 * luxemburg_norm(f, cube, phi) * luxemburg_norm(
        g, cube, phi.exact_conjugate()
    )
    return lhs, rhs


# ---------------------------------------------------------------------------
# Norm-interpolation gap fitting


@dataclass(frozen=True)
class GapFit:
    mode: str  # "log" or "loglog"
    parameter: float  # fitted gamma (log mode) or kappa (loglog mode)
    worst_ratio: float
    ok: bool
    skipped: int


_GAP_CONSTANT = 16.0


def crv_gap_check(
    u: StepFunction,
    q: float,
    delta: float,
    cubes: Sequence[DyadicCube],
    mode: str = "log",
) -> GapFit:
    """Fit the interpolation exponent in the bump-gap inequality

        ||u^{1/q}||_{Phi0,Q} <= 16 * ||u^{1/q}||_{Phi,Q}^{1-g} * ||u^{1/q}||_{q,Q}^g

    where Phi has bump delta and Phi0 bump delta/2.  In log mode g = gamma is
    a constant fitted on a 0.01 grid; in loglog mode g = log(e/r)^{-kappa}
    with r = ||.||_q / ||.||_Phi and kappa fitted on the same grid.  The
    exponents are empirical (reported, never asserted a priori)."""
    if mode == "log":
        phi = YoungFunction.log_bump(q, delta)
        phi0 = YoungFunction.log_bump(q, delta / 2.0)
    elif mode == "loglog":
        phi = YoungFunction.loglog_bump(q, delta)
        phi0 = YoungFunction.loglog_bump(q, delta / 2.0)
    else:
        raise ValueError("mode must be 'log' or 'loglog'")
    root = u.map(lambda v: v ** (1.0 / q))
    pq = YoungFunction.power(q)
    n0 = luxemburg_norms(root, cubes, phi0)
    n1 = luxemburg_norms(root, cubes, phi)
    nq = luxemburg_norms(root, cubes, pq)
    keep = (n0 > 0.0) & (n1 > 0.0) & (nq > 0.0)
    skipped = int(np.count_nonzero(~keep))
    n0, n1, nq = n0[keep], n1[keep], nq[keep]
    if len(n0) == 0:
        return GapFit(mode, math.nan, math.nan, False, skipped)
    grid = np.arange(0.01, 1.0, 0.01) if mode == "log" else np.arange(0.01, 4.0, 0.01)
    best, best_ratio = math.nan, math.inf
    for par in grid:
        if mode == "log":
            g = np.full(len(n0), par)
        else:
            r = np.minimum(nq / n1, 1.0)
            g = np.log(_kernels._E / r) ** (-par)
        ratio = float(np.max(n0 / (n1 ** (1.0 - g) * nq**g)))
        if ratio <= _GAP_CONSTANT:
            # largest parameter still admissible wins
            best, best_ratio = float(par), ratio
        elif math.isnan(best):
            best_ratio = min(best_ratio, ratio)
    ok = not math.isnan(best)
    return GapFit(mode, best, best_ratio, ok, skipped)
