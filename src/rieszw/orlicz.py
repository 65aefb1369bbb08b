"""Young functions, Luxemburg norms on cubes, associates, B_p checks, and
the Orlicz maximal function.

Closed-form kinds: Power(p) = scale*t^p, LogBump(p, d) = t^p log(e+t)^(p-1+d),
LogLogBump(p, d) = t^p log(e+t)^(p-1) loglog(e^e+t)^(p-1+d), and the dual
bump kinds with negative logarithmic exponents.  A NumericTable kind carries
a sampled monotone graph for validation work.

Luxemburg norms solve avg_Q Phi(f/lambda) = 1 by bisection at relative
tolerance 1e-12 with a 200-iteration cap; the average is over the full cube
volume (functions vanish outside the base box).  The bisection evaluates
Phi only where a decision is not certain: a closed kind's root is certified
once, by a few secant steps and one evaluation at each of r (1 - eta) and
r (1 + eta), and every step outside that interval is decided by it, so the
norms are those of a bisection that evaluates every step, bit for bit
(``_kernels``, which states eps_g, kappa and eta).  Cubes come as thirds-unit
corner arrays (``LevelTable.lo3``/``hi3``, ``Mesh.bounds3``, or a run of
``Mesh.corpus``); the cells of a whole batch are gathered in one vectorised
pass and every Young function, the numeric tables included, goes through
the one batched bisection ``_kernels.luxemburg_batch``.  A batch may hold
several levels as segments, each stopping as a call on it alone would, and
several (function, Young function) blocks over the same cubes, which then
share the bisection's rounds (``_luxemburg_blocks``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _kernels
from ._kernels import LuxemburgError
from .mesh import DyadicCube, StepFunction
from .operators import _sup_over_shifts

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
    parameter (scale for Power, bump exponent delta for the log kinds).  A
    numeric table keeps its samples as tuples of floats, so that equality
    and the hash see them."""

    kind: int
    a: float = 0.0
    b: float = 0.0
    table_t: tuple[float, ...] | None = None
    table_y: tuple[float, ...] | None = None

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
        yf = YoungFunction(_KIND_NUMERIC, 0.0, 0.0, tuple(ts.tolist()), tuple(ys.tolist()))
        yf.check_young()
        return yf

    @functools.cached_property
    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The numeric table's samples as arrays, built on first use."""
        return np.asarray(self.table_t), np.asarray(self.table_y)

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
            table_t, table_y = self._tables
            lt = np.log(np.maximum(t, 1e-300))
            ly = np.interp(lt, np.log(table_t), np.log(table_y))
            lo, hi = np.log(table_t[[0, -1]])
            sl_lo = (np.log(table_y[1]) - np.log(table_y[0])) / (
                np.log(table_t[1]) - np.log(table_t[0])
            )
            sl_hi = (np.log(table_y[-1]) - np.log(table_y[-2])) / (
                np.log(table_t[-1]) - np.log(table_t[-2])
            )
            ly = np.where(lt < lo, np.log(table_y[0]) + sl_lo * (lt - lo), ly)
            ly = np.where(lt > hi, np.log(table_y[-1]) + sl_hi * (lt - hi), ly)
            out = np.where(t > 0.0, np.exp(ly), 0.0)
            return out if out.ndim else float(out)
        out = _kernels.young_eval_np(self.kind, self.a, self.b, t)
        return out if out.ndim else float(out)

    def inverse(self, y: float) -> float:
        """The unique t >= 0 with Phi(t) = y.

        Raises LuxemburgError when 200 doublings (halvings) of 1 find no
        bracket, or 200 bisection steps do not reach relative width 1e-14."""
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
        else:
            raise LuxemburgError("upper bracket not found")
        for _ in range(200):
            if self(lo) <= y:
                break
            lo *= 0.5
        else:
            raise LuxemburgError("lower bracket not found")
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self(mid) < y:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-14 * hi:
                break
        else:
            raise LuxemburgError("bisection did not converge in 200 steps")
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


#: Cells per bisection call in ``_luxemburg_blocks``: the units of segments
#: up to this size share calls up to this many cells in all, and a larger
#: segment runs alone for each block.  One call over a whole large corpus
#: was slower and took more memory.  The cap, not the number of blocks, sets
#: the calls of a packing: the eighteen bump blocks of the five corpus
#: pairs of a 1-D L=5 ``sandwich``, 378 cells each, fill two calls.
_LUX_BATCH_CELLS = 1 << 12


def _box_window(mesh, lo3: np.ndarray, hi3: np.ndarray):
    """Each box [lo3, hi3) clipped to the base box, as thirds corners (a,
    b), and the window [i0, i0 + width) of the cells it meets."""
    a = np.maximum(lo3, 0)
    b = np.minimum(hi3, 3 * mesh.cells_per_axis)
    i0 = a // 3
    return a, b, i0, np.where(a < b, (b + 2) // 3 - i0, 0)


def _box_cells(mesh, lo3: np.ndarray, hi3: np.ndarray):
    """CSR groups of the cells meeting each box [lo3, hi3) (thirds units,
    shape (count, n)): flat row-major cell indices, overlap volumes and
    group pointers, row-major within each box.  The boxes may be of any
    sizes and levels; each group depends only on its own box."""
    a, b, i0, width = _box_window(mesh, lo3, hi3)
    box, index = mesh.window_cells(i0, width)
    frac = np.ones(len(box))
    for axis, cell in enumerate(index):
        # the part of each cell inside its box, from the overlap in thirds
        frac *= (np.minimum(b[box, axis], 3 * cell + 3) - np.maximum(a[box, axis], 3 * cell)) / 3.0
    flat = np.ravel_multi_index(index, (mesh.cells_per_axis,) * mesh.n)
    indptr = np.concatenate(([0], np.cumsum(width.prod(axis=1))))
    return flat, frac * mesh.cell_volume, indptr


def _luxemburg_blocks(blocks, lo3: np.ndarray, hi3: np.ndarray, starts=(0,)) -> list[np.ndarray]:
    """Luxemburg norms of several (function, Young function) blocks over the
    same cubes, cut into the same segments ``starts``; one array per block.

    Every (block, segment) unit is one segment of a
    ``_kernels.luxemburg_batch`` call, so its norms equal those of a call on
    that unit alone, bit for bit.  The units of segments of at most
    ``_LUX_BATCH_CELLS`` cells are packed block by block into calls of at
    most that many cells in all; a larger segment runs alone, once per
    block.  The cells are listed once, for all small segments together and
    for each large one on its own, and each block's values are gathered at
    them.  A block's cells in a call are one run of its Young function, and
    equal neighbours share a run."""
    lo3 = np.asarray(lo3, dtype=np.int64)
    hi3 = np.asarray(hi3, dtype=np.int64)
    mesh = blocks[0][0].mesh
    bounds = [*np.asarray(starts).tolist(), len(lo3)]
    cells = [int(_box_window(mesh, lo3[a:b], hi3[a:b])[3].prod(axis=1).sum())
             for a, b in zip(bounds, bounds[1:])]
    small = [s for s, k in enumerate(cells) if k <= _LUX_BATCH_CELLS]
    large = [[s] for s, k in enumerate(cells) if k > _LUX_BATCH_CELLS]
    out = [np.empty(len(lo3)) for _ in blocks]
    for group in [small, *large] if small else large:
        idx = np.concatenate([np.arange(bounds[s], bounds[s + 1]) for s in group])
        flat, wts, indptr = _box_cells(mesh, lo3[idx], hi3[idx])
        # the side 3 * 2^(L-k) thirds is 2^-k, so each volume is an exact power of two
        vols = np.prod((hi3[idx] - lo3[idx]) / 3.0 * mesh.cell_width, axis=1)
        # the group's segment i starts at position first[i] of idx; a call is
        # a list of pieces [block, first segment, end segment] of the group
        first = np.cumsum([0] + [bounds[s + 1] - bounds[s] for s in group]).tolist()
        calls, total = [[]], 0
        for j in range(len(blocks)):
            for i, s in enumerate(group):
                if total and total + cells[s] > _LUX_BATCH_CELLS:
                    calls.append([])
                    total = 0
                total += cells[s]
                if calls[-1] and calls[-1][-1][0] == j:
                    calls[-1][-1][2] = i + 1
                else:
                    calls[-1].append([j, i, i + 1])
        for call in calls:
            parts, runs, seg, at, pos = [], [], [], 0, 0
            for j, i0, i1 in call:
                f, phi = blocks[j]
                a, b = first[i0], first[i1]
                c0, c1 = int(indptr[a]), int(indptr[b])
                parts.append((f.values.ravel()[flat[c0:c1]], wts[c0:c1], np.diff(indptr[a : b + 1]), vols[a:b]))
                seg += [x - a + pos for x in first[i0:i1]]
                if runs and (runs[-1][2] is phi or runs[-1][2] == phi):
                    runs[-1] = (runs[-1][0], at + c1 - c0, phi)
                else:
                    runs.append((at, at + c1 - c0, phi))
                at, pos = at + c1 - c0, pos + b - a
            vals, w, n, v = (p[0] if len(p) == 1 else np.concatenate(p) for p in zip(*parts))
            lam = _kernels.luxemburg_batch(vals, w, np.concatenate(([0], np.cumsum(n))), v, runs, seg)
            pos = 0
            for j, i0, i1 in call:
                a, b = first[i0], first[i1]
                out[j][idx[a:b]] = lam[pos : pos + b - a]
                pos += b - a
    return out


def luxemburg_norms(
    f: StepFunction, lo3: np.ndarray, hi3: np.ndarray, phi: YoungFunction, starts=(0,)
) -> np.ndarray:
    """Luxemburg norms ||f||_{Phi,Q} for a batch of grid cubes Q, given by
    their thirds-unit corners ``lo3``/``hi3`` of shape (count, n).

    ``starts`` cuts the batch into consecutive non-empty segments (the index
    of each segment's first cube); each segment's norms equal those of a
    call on that segment alone, bit for bit (``_kernels.luxemburg_batch``).
    The default is one segment.  This is the one-block case of
    ``_luxemburg_blocks``."""
    return _luxemburg_blocks([(f, phi)], lo3, hi3, starts)[0]


def luxemburg_norm(f: StepFunction, cube: DyadicCube, phi: YoungFunction) -> float:
    """The unique lambda with avg_Q Phi(f/lambda) = 1, or 0 if f = 0 on Q."""
    return float(luxemburg_norms(f, *f.mesh.bounds3([cube]), phi)[0])


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
    inside a shifted dyadic cube of comparable side).

    The sweep stops at the covering level: for Q' containing Q containing
    the box, avg_{Q'} Phi(f/lambda) = (|Q|/|Q'|) avg_Q Phi(f/lambda), so
    ||f||_{Phi,Q'} < ||f||_{Phi,Q}.  Each level of the table is one
    segment of the Luxemburg batch, so its norms stop as a call on that
    level alone would."""

    def value(lo, hi, vol):
        # the volume changes exactly where a level starts
        return luxemburg_norms(f, lo, hi, phi, np.flatnonzero(np.diff(vol, prepend=0.0)))

    return _sup_over_shifts(f.mesh, value)


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
    lo3, hi3 = u.mesh.bounds3(cubes)
    n0 = luxemburg_norms(root, lo3, hi3, phi0)
    n1 = luxemburg_norms(root, lo3, hi3, phi)
    nq = luxemburg_norms(root, lo3, hi3, YoungFunction.power(q))
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
