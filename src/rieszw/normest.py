"""Testing constants, weak/strong norm functionals, lower-bound operator
norm estimation, and the theorem-sandwich ratio experiments.

Norm estimates are lower bounds only (alternating maximization from a fixed
seed set); upper control comes from the testing constants.  The artifact
never claims a certified upper bound on the true operator norm.

All three sandwich stages run on blocks of C-contiguous full frames, at
most ``_FRAME_BLOCK`` entries a block, through one batched forest apply
(``operators._sparse_sum``): the testing scan paints a block of cut
fields, one per run of root levels with the same coarser members, and
sums the rows of a block of roots, taken across those runs, at once; the
strong iteration keeps a block of seeds in block-sized arrays and applies
the rows still iterating, picked by an index array; the weak one streams
its seeds a block at a time.  Row sums of full frames equal the sums of single
frames bit for bit, so every value is that of one restricted apply per
root and one seed at a time.

The theorem checks (``thm31_bound_checks``, ``thm41_bound_checks``) take
a list of weight pairs, all the pairs of a run at once: one Fujii-Wilson
scan per distinct weight, and one packed Luxemburg bisection for every
bump norm.  A single pair is a one-item list.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import _kernels
from .mesh import DyadicCube, Mesh, StepFunction, _checked
# sparse_riesz is no longer called here; the binding stays for code that
# patches ``normest.sparse_riesz`` (perfbench's tracer self-test)
from .operators import KernelMode, _check_alpha, _forest_paint, _member_weights, _sparse_sum, sparse_riesz  # noqa: F401
from .sparse import SparseFamily
from .weights import (
    CharacteristicReport,
    ExponentTuple,
    bump_constants,
    fujii_wilson,
    range_conditions,
    two_weight_ap,
    _FRAME_BLOCK,
    _center_mask,
)
from .orlicz import YoungFunction

__all__ = [
    "NormEstimate",
    "TestingReport",
    "RangeConditionError",
    "weak_lorentz_norm",
    "sawyer_testing",
    "dyadic_testing",
    "strong_norm_lower",
    "weak_norm_lower",
    "lsut_sandwich",
    "thm31_bound_checks",
    "thm41_bound_checks",
]

_REL_TOL = 1e-8
_MAX_ITERS = 100
_N_RANDOM = 8


class RangeConditionError(ValueError):
    """Raised when a theorem's exponent-range hypothesis fails; distinct
    from a numeric skip."""


def weak_lorentz_norm(h: StepFunction, u: StepFunction, q: float) -> float:
    """sup_t t * u({h > t})^{1/q}, exactly, by scanning the distinct values
    of h: the sup is attained as t increases to some value v, where the
    super-level set is {h >= v}."""
    return _weak_lorentz(h.values.ravel(), u.values.ravel() * h.mesh.cell_volume, q)


def _weak_lorentz(hv: np.ndarray, uv: np.ndarray, q: float) -> float:
    """``weak_lorentz_norm`` of flat cell values, with ``uv`` the cell
    masses of u."""
    order = np.argsort(hv)[::-1]
    hs, us = hv[order], uv[order]
    cum = np.cumsum(us)
    # the last index of each run of equal values, kept where the value is > 0
    ends = np.append(np.flatnonzero(np.diff(hs)), len(hs) - 1)
    ends = ends[hs[ends] > 0.0]
    # Python float pow per run: an array ** can differ from scalar pow in the last bit
    return max((v * c ** (1.0 / q) for v, c in zip(hs[ends].tolist(), cum[ends].tolist())), default=0.0)


# ---------------------------------------------------------------------------
# Testing constants


@dataclass(frozen=True)
class TestingReport:
    direct: float  # sup_R sigma(R)^{-1/p} (int_R (I^{S(R)} sigma chi_R)^q u)^{1/q}
    dual: float  # same with (u, sigma, p, q) -> (sigma, u, q', p')
    witness_direct: DyadicCube | None
    witness_dual: DyadicCube | None
    skipped_direct: int
    skipped_dual: int

    def to_jsonable(self) -> dict:
        def cube(c):
            return None if c is None else [list(c.shift), c.level, list(c.coord)]

        return {
            "direct": self.direct,
            "dual": self.dual,
            "witnessDirect": cube(self.witness_direct),
            "witnessDual": cube(self.witness_dual),
            "skippedDirect": self.skipped_direct,
            "skippedDual": self.skipped_dual,
        }


def _testing_sup(
    den_w: StepFunction,
    out_w: StepFunction,
    family: SparseFamily,
    alpha: float,
    den_exp: float,
    out_exp: float,
) -> tuple[float, DyadicCube | None, int]:
    """sup_R den_w(R)^{-1/den_exp} (int (I^{S(R)} den_w)^{out_exp} out_w)^{1/out_exp}
    over the family's candidate roots R.

    Every member Q of S(R) satisfies Q subseteq R, so averaging chi_R den_w
    over Q equals averaging den_w.  On the cells of a root R of level k, the
    members over a cell centre that lie in R are those of level >= k, so
    I^{S(R)} den_w there is the chain sum with the coarser members weighted
    +0.0: one cut field serves every root of its level, and the roots of
    levels with the same coarser members share it (painted a block at a
    time).  The roots of a paint block go a block at a time across its
    runs: each root's terms are copied into a full-frame row, +0.0 off its
    cells, and a numerator is that row's sum: the sum a restricted apply
    per root gives, bit for bit.  Alpha and each cut field are checked as
    ``restricted_sparse_riesz`` checks them."""
    mesh, t, roots = family.mesh, family.forest, family.roots
    table = mesh.level_table(family.shift)
    _check_alpha(mesh, alpha)
    lo3, hi3 = table.lo3[roots], table.hi3[roots]
    dens = den_w.integral_box3(lo3, hi3)
    live = np.flatnonzero(~(dens <= 0.0))
    w = _member_weights(den_w.plan_integrals(family.plan), alpha, family)
    # members are sorted by level: those coarser than a root come first
    cut = np.searchsorted(t.level, table.level[roots[live]])
    new_run = np.diff(cut, prepend=-1) != 0
    starts, run = np.flatnonzero(new_run), np.cumsum(new_run) - 1
    rows = max(1, _FRAME_BLOCK // mesh.total_cells)
    best, witness = 0.0, None
    for r in range(0, len(starts), rows):
        W = np.where(np.arange(len(w)) >= cut[starts[r : r + rows], None], w, 0.0)
        terms = _checked(_forest_paint(W, family)) ** out_exp * out_w.values
        end = starts[r + rows] if r + rows < len(starts) else len(live)
        for c in range(starts[r], end, rows):
            idx = live[c : min(c + rows, end)]
            # a root's cells are those whose centre lies in it: one index window
            i0, i1 = mesh.center_window(lo3[idx], hi3[idx])
            X = np.zeros((len(idx), *terms.shape[1:]))
            field = (run[c : c + len(idx)] - r).tolist()
            for j, (k, lo, hi) in enumerate(zip(field, i0.tolist(), i1.tolist())):
                win = tuple(map(slice, lo, hi))
                X[(j, *win)] = terms[(k, *win)]
            nums = np.sum(X.reshape(len(idx), -1), axis=1) * mesh.cell_volume
            for i, num, den in zip(idx.tolist(), nums.tolist(), dens[idx].tolist()):
                val = num ** (1.0 / out_exp) / den ** (1.0 / den_exp)
                if val > best:
                    best, witness = val, i
    if witness is not None:
        p = roots[witness]
        witness = DyadicCube(family.shift, int(table.level[p]), tuple(table.coords[p].tolist()))
    return best, witness, len(dens) - len(live)


def dyadic_testing(
    u: StepFunction, sigma: StepFunction, exps: ExponentTuple, family: SparseFamily
) -> TestingReport:
    """Sparse testing constants over all enumerated roots R of the family's
    grid; the dual constant is the direct constant of the swapped data
    (sigma, u, q', p'), which is what self-adjointness gives."""
    direct, wd, sd = _testing_sup(sigma, u, family, exps.alpha, exps.p, exps.q)
    dual, wu, su = _testing_sup(u, sigma, family, exps.alpha, exps.q_prime, exps.p_prime)
    return TestingReport(direct, dual, wd, wu, sd, su)


def sawyer_testing(
    u: StepFunction,
    sigma: StepFunction,
    exps: ExponentTuple,
    mode: KernelMode = KernelMode.MIDPOINT,
) -> TestingReport:
    """Continuous-form testing constants with the reference operator.

    Indicators chi_Q are realized by center membership (exact for aligned
    cubes); the scan runs over the in-box corpus of both shifts, matching
    the weight-characteristic convention.  The masked inputs go through
    the reference apply in batches of at most ``_FRAME_BLOCK`` padded
    transform cells, and every sum is a row sum of full frames, so each
    value equals a per-cube apply's bit for bit."""
    mesh = u.mesh
    c = mesh.corpus
    rows = max(1, _FRAME_BLOCK // (2 * mesh.cells_per_axis) ** mesh.n)

    def one_side(inner: StepFunction, outer: StepFunction, den_exp, out_exp):
        best, witness, skipped = 0.0, None, 0
        for a in range(0, len(c.level), rows):
            b = min(a + rows, len(c.level))
            mask = _center_mask(mesh, c.lo3[a:b], c.hi3[a:b])
            masked = inner.values * mask
            den = np.sum(masked.reshape(b - a, -1), axis=1) * mesh.cell_volume
            live = np.flatnonzero(~(den <= 0.0))
            skipped += b - a - len(live)
            if not len(live):
                continue
            I = _kernels.riesz_apply(masked[live], mesh.cell_width, exps.alpha, int(mode), mesh.n)
            _checked(I)
            terms = I**out_exp * outer.values * mask[live]
            num = np.sum(terms.reshape(len(live), -1), axis=1) * mesh.cell_volume
            for i, nm, dn in zip((a + live).tolist(), num.tolist(), den[live].tolist()):
                val = nm ** (1.0 / out_exp) / dn ** (1.0 / den_exp)
                if val > best:
                    best, witness = val, c.cube(i)
        return best, witness, skipped

    direct, wd, sd = one_side(sigma, u, exps.p, exps.q)
    dual, wu, su = one_side(u, sigma, exps.q_prime, exps.p_prime)
    return TestingReport(direct, dual, wd, wu, sd, su)


# ---------------------------------------------------------------------------
# Lower-bound norm estimation


@dataclass(frozen=True)
class NormEstimate:
    value: float
    witness_f: StepFunction | None
    witness_g: StepFunction | None
    iterations: int
    seed_label: str
    converged: bool
    degenerate: bool

    def to_jsonable(self) -> dict:
        return {
            "value": self.value,
            "iterations": self.iterations,
            "seed": self.seed_label,
            "converged": self.converged,
            "degenerate": self.degenerate,
        }


def _norm_rows(X: np.ndarray, w: np.ndarray, p: float, vol: float) -> list[float]:
    """||x||_{L^p(w)} of each frame x of X: row sums, times the cell volume
    in float64, then a Python float pow per row.  A row sum equals the sum
    of that frame alone bit for bit."""
    sums = np.sum((X**p * w).reshape(len(X), -1), axis=1) * vol
    return [v ** (1.0 / p) for v in sums.tolist()]


def _column(v: list, n: int) -> np.ndarray:
    """Per-row scalars shaped to broadcast over frames with n axes."""
    return np.array(v).reshape((-1,) + (1,) * n)


def _apply_rows(X: np.ndarray, alpha: float, family: SparseFamily) -> np.ndarray:
    """The sparse potential of each frame of X, inputs and outputs checked
    as ``sparse_riesz`` checks them.  A one-row block (every block once
    N > ``_FRAME_BLOCK`` / 2) applies its frame alone: a batch of one costs
    5-10 % more per apply at 1-D L=12 and L=14."""
    _checked(X)
    frames = X[0] if len(X) == 1 else X
    H = _sparse_sum(family.plan.sums(frames) * family.mesh.cell_volume, alpha, family)
    return _checked(H.reshape(X.shape))


def _seed_functions(
    mesh: Mesh,
    sigma: StepFunction,
    exps: ExponentTuple,
    family: SparseFamily,
    rng_seed: int,
    extra_seeds: Sequence[tuple[str, StepFunction]],
):
    """(label, values) of every seed in order: the member indicators, built
    a block at a time, a sigma^{p'-1} profile, seeded random starts, and the
    extra seeds."""
    rows = max(1, _FRAME_BLOCK // mesh.total_cells)
    t = family.forest
    coords = mesh.level_table(family.shift).coords[family.positions].tolist()
    for a in range(0, len(family), rows):
        masks = _center_mask(mesh, t.lo3[a : a + rows], t.hi3[a : a + rows])
        for k, c, mask in zip(t.level[a : a + rows].tolist(), coords[a : a + rows], masks):
            yield f"chi[{k},{tuple(c)}]", mask
    with np.errstate(divide="ignore", invalid="ignore"):
        prof = np.where(sigma.values > 0.0, sigma.values ** (exps.p_prime - 1.0), 0.0)
    yield "sigma-profile", StepFunction(mesh, prof).values
    rng = np.random.default_rng(rng_seed)
    shape = (mesh.cells_per_axis,) * mesh.n
    for i in range(_N_RANDOM):
        yield f"random-{i}", rng.random(shape)
    for label, f in extra_seeds:
        yield label, f.values


def _seed_blocks(mesh: Mesh, seeds):
    """The seeds at most ``_FRAME_BLOCK`` entries at a time: (labels, the
    nonnegative parts of their values stacked on a leading axis)."""
    rows = max(1, _FRAME_BLOCK // mesh.total_cells)
    seeds = iter(seeds)
    while block := list(itertools.islice(seeds, rows)):
        labels, values = zip(*block)
        yield list(labels), np.maximum(np.stack(values), 0.0)


def _half_step(H: np.ndarray, w: np.ndarray, e: float, vol: float, floor: np.ndarray, live: np.ndarray, message: str):
    """One half-step of the alternating maximization: the L^e(w) norms of
    the live rows' images H, asserted not below ``floor`` (the norms of the
    half-step before) where they are > 0.  Returns the rows of ``live``, H
    and the norms where the norm is > 0; the other rows drop out."""
    norms = np.array(_norm_rows(H, w, e, vol))
    stay = ~(norms <= 0.0)
    if np.any(stay & (norms < floor * (1.0 - 1e-12))):
        raise AssertionError(message)
    return live[stay], H[stay], norms[stay]


def strong_norm_lower(
    u: StepFunction,
    sigma: StepFunction,
    exps: ExponentTuple,
    family: SparseFamily,
    rng_seed: int = 0,
    extra_seeds: Sequence[tuple[str, StepFunction]] = (),
) -> NormEstimate:
    """Lower bound on ||I^S(. sigma)||_{L^p(sigma) -> L^q(u)} by alternating
    maximization of B(f, g) = int I^S(f sigma) g u over the unit spheres
    ||f||_{L^p(sigma)} = ||g||_{L^{q'}(u)} = 1.

    Given f the optimal g is proportional to (I^S(f sigma))^{q-1}; by
    self-adjointness the f-update is h = I^S(g u), f proportional to
    h^{p'-1}.  The objective is nondecreasing by construction and is
    asserted to be so each step.  Multi-start from the member indicators,
    a sigma^{p'-1} profile, seeded random starts, and any extra seeds.

    A block of seeds iterates as the rows of one batched apply.  Each row's
    f, last g, count, flags and value sit in block-sized arrays, written in
    place at the indices ``live`` of the rows still iterating; a row stops
    by dropping out of ``live`` (its norm is 0, it converged, or the cap
    ends the loop), so every row computes what a run of that seed alone
    computes.  The best is the first strict maximum in seed order."""
    mesh = u.mesh
    vol = mesh.cell_volume
    uv, sv = u.values, sigma.values
    p, q, pp = exps.p, exps.q, exps.p_prime

    def T(X: np.ndarray) -> np.ndarray:
        return _apply_rows(X, exps.alpha, family)

    best = NormEstimate(0.0, None, None, 0, "none", False, True)
    seeds = _seed_functions(mesh, sigma, exps, family, rng_seed, extra_seeds)
    for labels, F in _seed_blocks(mesh, seeds):
        nf = _norm_rows(F, sv, p, vol)
        keep = [i for i, v in enumerate(nf) if not v <= 0.0]
        if not keep:
            continue
        F = F[keep] / _column([nf[i] for i in keep], mesh.n)
        G = np.zeros_like(F)
        its, value = np.zeros(len(F), dtype=int), np.zeros(len(F))
        has_g, converged = np.zeros(len(F), dtype=bool), np.zeros(len(F), dtype=bool)
        live = np.arange(len(F))
        for it in range(1, _MAX_ITERS + 1):
            if not len(live):
                break
            its[live] = it
            live, H, new = _half_step(T(F[live] * sv), uv, q, vol, value[live], live,
                                  "alternating objective decreased (g-step)")
            if not len(live):
                break
            g = (H / _column(new, mesh.n)) ** (q - 1.0)
            G[live], has_g[live] = g, True
            live, H, nh2 = _half_step(T(g * uv), sv, pp, vol, new, live, "alternating objective decreased (f-step)")
            with np.errstate(divide="ignore", invalid="ignore"):
                F[live] = np.where(H > 0.0, (H / _column(nh2, mesh.n)) ** (pp - 1.0), 0.0)
            converged[live] = np.abs(nh2 - value[live]) / np.maximum(nh2, 1e-300) < _REL_TOL
            value[live] = nh2
            live = live[~converged[live]]
        # re-evaluate at the final witness so value is recomputable from it
        rows = zip(_norm_rows(T(F * sv), uv, q, vol), its.tolist(), has_g.tolist(), converged.tolist())
        for i, (v, n, with_g, done) in enumerate(rows):
            if v > best.value:
                g = StepFunction(mesh, G[i].copy()) if with_g else None
                best = NormEstimate(v, StepFunction(mesh, F[i].copy()), g, n, labels[keep[i]], done, False)
    return best


def weak_norm_lower(
    u: StepFunction,
    sigma: StepFunction,
    exps: ExponentTuple,
    family: SparseFamily,
    strong: NormEstimate,
    rng_seed: int = 0,
    extra_seeds: Sequence[tuple[str, StepFunction]] = (),
) -> NormEstimate:
    """Lower bound on the weak-type norm: the maximum over the seed set of
    weak_lorentz_norm(I^S(f sigma), u, q) / ||f||_{L^p(sigma)}.

    ``strong`` is the ``strong_norm_lower`` estimate of the same arguments;
    the seed set is that of the strong run plus its witness.  No smooth
    iteration is run; the weak functional is piecewise constant in the
    thresholds.  Per witness, weak <= strong holds by Chebyshev and is
    asserted.  The seeds stream through one batched apply per block, so
    the seed set is never held whole."""
    mesh = u.mesh
    vol = mesh.cell_volume
    uv, sv = u.values, sigma.values
    umass = uv.ravel() * vol
    seeds = _seed_functions(mesh, sigma, exps, family, rng_seed, extra_seeds)
    if strong.witness_f is not None:
        seeds = itertools.chain(seeds, [("strong-witness", strong.witness_f.values)])
    best = NormEstimate(0.0, None, None, 0, "none", True, True)
    for labels, F in _seed_blocks(mesh, seeds):
        nf = _norm_rows(F, sv, exps.p, vol)
        keep = [i for i, v in enumerate(nf) if not v <= 0.0]
        if not keep:
            continue
        X = F[keep] * sv / _column([nf[i] for i in keep], mesh.n)
        H = _apply_rows(X, exps.alpha, family)
        for h, s, i in zip(H, _norm_rows(H, uv, exps.q, vol), keep):
            wk = _weak_lorentz(h.ravel(), umass, exps.q)
            if wk > s * (1.0 + 1e-12):
                raise AssertionError("weak functional exceeded strong at the same witness")
            if wk > best.value:
                f = StepFunction(mesh, F[i] / nf[i])
                best = NormEstimate(wk, f, None, 1, labels[i], True, False)
    return best


# ---------------------------------------------------------------------------
# Sandwich and theorem-ratio experiments


@dataclass(frozen=True)
class SandwichReport:
    strong: NormEstimate
    weak: NormEstimate
    testing: TestingReport
    r1: float | None  # strong / (direct + dual)
    r2: float | None  # weak / dual
    r1_ok: bool | None  # r1 <= 1 + 1e-8 (norm lower bound below testing sum)
    testing_below_norm: bool

    def to_jsonable(self) -> dict:
        return {
            "strong": self.strong.to_jsonable(),
            "weak": self.weak.to_jsonable(),
            "testing": self.testing.to_jsonable(),
            "r1": self.r1,
            "r2": self.r2,
            "r1Ok": self.r1_ok,
            "testingBelowNorm": self.testing_below_norm,
        }


def lsut_sandwich(
    u: StepFunction,
    sigma: StepFunction,
    exps: ExponentTuple,
    family: SparseFamily,
    rng_seed: int = 0,
) -> SandwichReport:
    """Two-sided sandwich: r1 = strong_norm_lower / (direct + dual testing)
    and r2 = weak_norm_lower / dual testing.

    The testing witnesses are injected into the norm seed set, which makes
    direct <= strong_norm_lower hold by construction (the indicator seed
    realizes the testing functional from below).  Degenerate denominators
    are reported as None ratios."""
    mesh = u.mesh
    testing = dyadic_testing(u, sigma, exps, family)
    extra: list[tuple[str, StepFunction]] = []
    for name, wit in (("direct-witness", testing.witness_direct), ("dual-witness", testing.witness_dual)):
        if wit is not None:
            lo, hi = wit.bounds3(mesh.finest_exponent)
            extra.append((name, StepFunction(mesh, _center_mask(mesh, lo, hi))))
    strong = strong_norm_lower(u, sigma, exps, family, rng_seed, extra_seeds=extra)
    weak = weak_norm_lower(u, sigma, exps, family, strong, rng_seed, extra_seeds=extra)
    denom = testing.direct + testing.dual
    r1 = strong.value / denom if denom > 0.0 else None
    r2 = weak.value / testing.dual if testing.dual > 0.0 else None
    r1_ok = None if r1 is None else r1 <= 1.0 + _REL_TOL
    below = testing.direct <= strong.value + _REL_TOL
    return SandwichReport(strong, weak, testing, r1, r2, r1_ok, below)


@dataclass(frozen=True)
class BoundRatio:
    ratio: float | None  # None = numeric skip (infinite or zero component)
    testing: float
    bound: float
    components: dict

    def to_jsonable(self) -> dict:
        return {
            "ratio": self.ratio,
            "testing": self.testing,
            "bound": self.bound,
            "components": {k: (v if np.isfinite(v) else None) for k, v in self.components.items()},
        }


def thm31_bound_checks(
    items: Sequence[tuple[StepFunction, StepFunction, TestingReport]],
    exps: ExponentTuple,
    fw_max_level: int | None = None,
) -> list[tuple[BoundRatio, BoundRatio]]:
    """Mixed-characteristic bound ratios at Sobolev exponents, for each
    (u, sigma, testing) of ``items``, with ``testing`` the
    ``dyadic_testing`` report of (u, sigma): the pair

    dual testing / ([u,sigma]_{A_s(p)}^{1/q} [u]_{FW}^{1/p'}) and the
    symmetric form direct testing / ([sigma,u]_{A_s(q')}^{1/p'}
    [sigma]_{FW}^{1/q}).

    Refuses exponents without the Sobolev relation.  An infinite or zero
    characteristic yields a None ratio.  One ``fujii_wilson`` runs per
    distinct weight object; a one-item list checks a single pair."""
    if not exps.sobolev:
        raise RangeConditionError("mixed bound requires the Sobolev exponent relation")

    def one(test_val, tw: CharacteristicReport, fw: CharacteristicReport, e1, e2):
        comps = {"twoWeight": tw.value, "fujiiWilson": fw.value}
        if not (np.isfinite(tw.value) and np.isfinite(fw.value)) or tw.value <= 0 or fw.value <= 0:
            return BoundRatio(None, test_val, math.inf, comps)
        bound = tw.value**e1 * fw.value**e2
        return BoundRatio(test_val / bound, test_val, bound, comps)

    weights = dict.fromkeys(w for u, s, _ in items for w in (u, s))
    fw = {w: fujii_wilson(w, max_level=fw_max_level) for w in weights}
    return [
        (one(t.dual, two_weight_ap(u, s, exps.s_p), fw[u], 1.0 / exps.q, 1.0 / exps.p_prime),
         one(t.direct, two_weight_ap(s, u, exps.s_qprime), fw[s], 1.0 / exps.p_prime, 1.0 / exps.q))
        for u, s, t in items
    ]


def thm41_bound_checks(
    items: Sequence[tuple[StepFunction, StepFunction, TestingReport]],
    exps: ExponentTuple,
    bump_kind: str = "log",
    delta: float = 1.0,
) -> list[tuple[BoundRatio, BoundRatio | None]]:
    """Separated-bump bound ratios for each (u, sigma, testing) of
    ``items``, with ``testing`` the ``dyadic_testing`` report of (u, sigma):
    the dual form is dual testing / K with
    K = sup |Q|^{alpha/n+1/q-1/p} ||u^{1/q}||_{Phi,Q} ||sigma^{1/p'}||_{p',Q},
    Phi a log or loglog bump of order q.

    Requires p < q and the range condition (p'/q')(1 - alpha/n) >= 1, and
    refuses otherwise; these depend on the exponents alone, so they refuse
    every item or none.  The direct form (Psi bumping the sigma side) is
    computed when its own range condition (q/p)(1 - alpha/n) >= 1 holds,
    else it is None.  A zero or infinite K yields a None ratio.  All the
    norms come from one packed Luxemburg bisection (``bump_constants``), and
    each equals that of a one-item list bit for bit."""
    if bump_kind not in ("log", "loglog"):
        raise ValueError("bump_kind must be 'log' or 'loglog'")
    flags = range_conditions(exps)
    if exps.p >= exps.q or not flags.weak:
        raise RangeConditionError(
            f"range condition fails: need p < q and (p'/q')(1-alpha/n) >= 1, "
            f"got p={exps.p}, q={exps.q}, alpha={exps.alpha}"
        )
    make = YoungFunction.log_bump if bump_kind == "log" else YoungFunction.loglog_bump

    pairs = [(make(exps.q, delta), YoungFunction.power(exps.p_prime))]
    if (exps.q / exps.p) * (1.0 - exps.alpha / exps.n) >= 1.0:
        pairs.append((YoungFunction.power(exps.q), make(exps.p_prime, delta)))

    def ratio(test_val: float, k: CharacteristicReport) -> BoundRatio:
        if not np.isfinite(k.value) or k.value <= 0.0:
            return BoundRatio(None, test_val, math.inf, {"K": k.value})
        return BoundRatio(test_val / k.value, test_val, k.value, {"K": k.value})

    ks = bump_constants([(u, s) for u, s, _ in items], exps, pairs)
    return [(ratio(t.dual, k[0]), ratio(t.direct, k[1]) if len(k) > 1 else None)
            for (_, _, t), k in zip(items, ks)]
