"""Testing constants, weak/strong norm functionals, lower-bound operator
norm estimation, and the theorem-sandwich ratio experiments.

Norm estimates are lower bounds only (alternating maximization from a fixed
seed set); upper control comes from the testing constants.  The artifact
never claims a certified upper bound on the true operator norm.

Each sandwich stage (``dyadic_testings``, ``strong_norm_lowers``,
``weak_norm_lowers``) is one pass over all the weight pairs of a run on
one sparse family, on blocks of C-contiguous full frames, through one
batched forest paint (``operators._forest_paint``): the testing scan
paints the cut fields of every pair, one per run of root levels with the
same coarser members, a block at a time, and sums the rows of a block of
roots at once; the norm seeds of every pair form one stream, each row
with its pair's u and sigma, which the strong iteration applies a block
at a time, the rows still iterating picked by an index array, and the
weak scan too.  Row sums of full frames equal the sums of single frames
bit for bit, so every value is that of one restricted apply per root and
one seed and pair at a time.  The one-pair forms are one-item calls.

The theorem checks (``thm31_bound_checks``, ``thm41_bound_checks``) take
the pairs of a run at once too: one Fujii-Wilson scan over every distinct
weight, and one packed Luxemburg bisection for every bump norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _kernels
from .mesh import BoxPlan, DyadicCube, StepFunction, _block_rows, _checked
from .operators import KernelMode, _apply_rows, _check_alpha, _column, _forest_paint, _member_weights, _norm_rows
# sparse_riesz is no longer called here; the binding stays for code that
# patches ``normest.sparse_riesz`` (perfbench's tracer self-test)
from .operators import _weak_lorentz, sparse_riesz  # noqa: F401
from .sparse import SparseFamily
from .weights import (
    CharacteristicReport,
    ExponentTuple,
    bump_constants,
    fujii_wilsons,
    range_conditions,
    two_weight_ap,
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
    "dyadic_testings",
    "strong_norm_lower",
    "strong_norm_lowers",
    "weak_norm_lower",
    "weak_norm_lowers",
    "lsut_sandwich",
    "lsut_sandwiches",
    "thm31_bound_checks",
    "thm41_bound_checks",
]

_REL_TOL = 1e-8
_MAX_ITERS = 100
_N_RANDOM = 8

#: Weight pairs (u, sigma) on one mesh, and the (label, function) extra norm seeds of one pair
_Pairs = Sequence[tuple[StepFunction, StepFunction]]
_Seeds = Sequence[tuple[str, StepFunction]]


class RangeConditionError(ValueError):
    """Raised when a theorem's exponent-range hypothesis fails; distinct
    from a numeric skip."""


def weak_lorentz_norm(h: StepFunction, u: StepFunction, q: float) -> float:
    """sup_t t * u({h > t})^{1/q}, exactly, by scanning the distinct values
    of h: the sup is attained as t increases to some value v, where the
    super-level set is {h >= v}."""
    return _weak_lorentz(h.values.reshape(1, -1), u.values.reshape(1, -1) * h.mesh.cell_volume, q)[0]


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


def _testing_sups(
    items: _Pairs,
    family: SparseFamily,
    alpha: float,
    den_exp: float,
    out_exp: float,
) -> list[tuple[float, DyadicCube | None, int]]:
    """sup_R den_w(R)^{-1/den_exp} (int (I^{S(R)} den_w)^{out_exp} out_w)^{1/out_exp}
    over the family's candidate roots R, with its witness and the count of
    roots of zero mass skipped, for each (den_w, out_w) of ``items``.

    Every member Q of S(R) satisfies Q subseteq R, so averaging chi_R den_w
    over Q equals averaging den_w.  On the cells of a root R of level k, the
    members over a cell centre that lie in R are those of level >= k, so
    I^{S(R)} den_w there is the chain sum with the coarser members weighted
    +0.0: one cut field serves every root of its level, and the roots of
    levels with the same coarser members share it.  The cut fields of every
    item are painted a block at a time, and the roots of a paint block go a
    block at a time: each root's terms are copied into a full-frame row,
    +0.0 off its cells, and a numerator is that row's sum: the sum a
    restricted apply per root gives, bit for bit.  The roots' masses share
    one box plan.  Alpha and each cut field are checked as
    ``restricted_sparse_riesz`` checks them."""
    mesh, t, roots = family.mesh, family.forest, family.roots
    table = mesh.level_table(family.shift)
    _check_alpha(mesh, alpha)
    if not items:
        return []
    lo3, hi3 = table.lo3[roots], table.hi3[roots]
    plan = BoxPlan(lo3.T, hi3.T, (mesh.cells_per_axis,) * mesh.n)
    D = np.stack([den_w.plan_integrals(plan) for den_w, _ in items])
    w = np.stack([_member_weights(den_w.plan_integrals(family.plan), alpha, family) for den_w, _ in items])
    # the live roots of every item, item by item; members are sorted by
    # level: those coarser than a root come first
    item, live = np.nonzero(~(D <= 0.0))
    cut = np.searchsorted(t.level, table.level[roots[live]])
    new_run = (np.diff(cut, prepend=-1) != 0) | (np.diff(item, prepend=-1) != 0)
    field, f_item, f_cut = np.cumsum(new_run) - 1, item[new_run], cut[new_run]
    # a row counts as two frames: at one, the stages' temporaries outgrew the
    # theorem checks' working memory (sandwich-1d: 505 KB traced, 274 KB at two)
    rows = _block_rows(2 * mesh.total_cells)
    best, witness = [0.0] * len(items), [None] * len(items)
    for f0 in range(0, len(f_cut), rows):
        W = np.where(np.arange(w.shape[1]) >= f_cut[f0 : f0 + rows, None], w[f_item[f0 : f0 + rows]], 0.0)
        out_v = np.stack([items[i][1].values for i in f_item[f0 : f0 + rows].tolist()])
        terms = _checked(_forest_paint(W, family)) ** out_exp * out_v
        # the paint block's roots: item, root, field, centre window and mass
        a, b = np.searchsorted(field, [f0, f0 + rows]).tolist()
        i0, i1 = mesh.center_window(lo3[live[a:b]], hi3[live[a:b]])
        block = list(zip(item[a:b].tolist(), live[a:b].tolist(), (field[a:b] - f0).tolist(), i0.tolist(),
                         i1.tolist(), D[item[a:b], live[a:b]].tolist()))
        for c in range(0, len(block), rows):
            chunk = block[c : c + rows]
            # a root's cells are those whose centre lies in it: one index window
            X = np.zeros((len(chunk), *terms.shape[1:]))
            for j, (_, _, fj, lo, hi, _) in enumerate(chunk):
                win = tuple(map(slice, lo, hi))
                X[(j, *win)] = terms[(fj, *win)]
            nums = np.sum(X.reshape(len(X), -1), axis=1) * mesh.cell_volume
            for (i, r, _, _, _, den), num in zip(chunk, nums.tolist()):
                val = num ** (1.0 / out_exp) / den ** (1.0 / den_exp)
                if val > best[i]:
                    best[i], witness[i] = val, roots[r]
    cube = [None if p is None else mesh.table_cubes(family.shift, [p])[0] for p in witness]
    return list(zip(best, cube, np.count_nonzero(D <= 0.0, axis=1).tolist()))


def dyadic_testing(u, sigma, exps, family) -> TestingReport:
    """``dyadic_testings`` of one pair."""
    return dyadic_testings([(u, sigma)], exps, family)[0]


def dyadic_testings(pairs: _Pairs, exps: ExponentTuple, family: SparseFamily) -> list[TestingReport]:
    """Sparse testing constants of each (u, sigma) of ``pairs`` over all
    enumerated roots R of the family's grid, one scan per side for every
    pair; the dual constant is the direct constant of the swapped data
    (sigma, u, q', p'), which is what self-adjointness gives."""
    direct = _testing_sups([(s, u) for u, s in pairs], family, exps.alpha, exps.p, exps.q)
    dual = _testing_sups(pairs, family, exps.alpha, exps.q_prime, exps.p_prime)
    return [TestingReport(d, e, wd, we, sd, se) for (d, wd, sd), (e, we, se) in zip(direct, dual)]


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
    the reference apply in batches of padded transforms, and every sum is
    a row sum of full frames, so each value equals a per-cube apply's bit
    for bit."""
    mesh = u.mesh
    c = mesh.corpus
    rows = _block_rows((2 * mesh.cells_per_axis) ** mesh.n)

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


def _seed_blocks(pairs: _Pairs, exps: ExponentTuple, family: SparseFamily, rng_seed: int,
                 extra_seeds: Sequence[_Seeds] | None):
    """The norm seeds of every pair, pair by pair, a block at a time: a
    pair's member indicators, a sigma^{p'-1} profile, seeded random starts
    (made once per run) and extra_seeds[i] for pair i.  Per
    block, of the seeds whose nonnegative part f has ||f||_{L^p(sigma)} > 0:
    (their pairs, labels, the parts f stacked, the norms as a column, and
    their pairs' u and sigma values, one row each when the block holds one
    pair).  A frame is stacked only in its block."""
    mesh, t, m = family.mesh, family.forest, len(family)
    coords = mesh.level_table(family.shift).coords[family.positions].tolist()
    chi = [f"chi[{k},{tuple(c)}]" for k, c in zip(t.level.tolist(), coords)]
    rng = np.random.default_rng(rng_seed)
    frames = [rng.random((mesh.cells_per_axis,) * mesh.n) for _ in range(_N_RANDOM)]
    # per seed: its pair, and its row of frames, or -1 - j for the indicator of member j
    pair, labels, src = [], [], []
    for i, ((_, sigma), extra) in enumerate(zip(pairs, extra_seeds or [()] * len(pairs))):
        with np.errstate(divide="ignore", invalid="ignore"):
            prof = np.where(sigma.values > 0.0, sigma.values ** (exps.p_prime - 1.0), 0.0)
        k = len(frames)
        frames += [StepFunction(mesh, prof).values, *(f.values for _, f in extra)]
        labels += [*chi, "sigma-profile", *(f"random-{j}" for j in range(_N_RANDOM)), *(x for x, _ in extra)]
        src += [*range(-1, -1 - m, -1), k, *range(_N_RANDOM), *range(k + 1, len(frames))]
        pair += [i] * (len(src) - len(pair))
    pair, src = np.array([pair, src], dtype=np.int64)
    rows = _block_rows(2 * mesh.total_cells)  # as in _testing_sups
    for a in range(0, len(pair), rows):
        s = src[a : a + rows]
        F = np.stack([frames[j] for j in np.maximum(s, 0).tolist()])
        F[s < 0] = _center_mask(mesh, t.lo3[-1 - s[s < 0]], t.hi3[-1 - s[s < 0]])
        F = np.maximum(F, 0.0)
        # a block of one pair broadcasts that pair's weights over its rows
        u, sigma = pairs[pair[a]] if pair[a] == pair[min(a + rows, len(pair)) - 1] else (None, None)
        S = (sigma.values[None] if sigma is not None
             else np.stack([pairs[i][1].values for i in pair[a : a + rows].tolist()]))
        nf = _norm_rows(F, S, exps.p, mesh.cell_volume)
        keep = [i for i, v in enumerate(nf) if not v <= 0.0]
        if keep:
            b = pair[a + np.array(keep)]
            U = u.values[None] if u is not None else np.stack([pairs[i][0].values for i in b.tolist()])
            yield b, [labels[a + i] for i in keep], F[keep], _column([nf[i] for i in keep], mesh.n), U, _rows(S, keep)


def _rows(X: np.ndarray, idx) -> np.ndarray:
    """The rows ``idx`` of per-row values X, or X when its one row serves all."""
    return X if len(X) == 1 else X[idx]


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


def strong_norm_lower(u, sigma, exps, family, rng_seed=0, extra_seeds=()) -> NormEstimate:
    """``strong_norm_lowers`` of one pair, with its extra seeds."""
    return strong_norm_lowers([(u, sigma)], exps, family, rng_seed, [extra_seeds])[0]


def strong_norm_lowers(
    pairs: _Pairs,
    exps: ExponentTuple,
    family: SparseFamily,
    rng_seed: int = 0,
    extra_seeds: Sequence[_Seeds] | None = None,
) -> list[NormEstimate]:
    """Lower bound on ||I^S(. sigma)||_{L^p(sigma) -> L^q(u)} for each
    (u, sigma) of ``pairs``, by alternating maximization of
    B(f, g) = int I^S(f sigma) g u over the unit spheres
    ||f||_{L^p(sigma)} = ||g||_{L^{q'}(u)} = 1.

    Given f the optimal g is proportional to (I^S(f sigma))^{q-1}; by
    self-adjointness the f-update is h = I^S(g u), f proportional to
    h^{p'-1}.  The objective is nondecreasing by construction and is
    asserted to be so each step.  Multi-start from the member indicators,
    a sigma^{p'-1} profile, seeded random starts, and extra_seeds[i] for
    pair i (none by default).

    A block of the seed stream (``_seed_blocks``) iterates as the rows of
    one batched apply, each row with its pair's u and sigma.  Each row's f,
    last g, count, flags and value sit in block-sized arrays, written in
    place at the indices ``live`` of the rows still iterating; a row stops
    by dropping out of ``live`` (its norm is 0, it converged, or the cap
    ends the loop), so every row computes what a run of that seed alone
    computes.  A pair's best is the first strict maximum in its seeds."""
    mesh = family.mesh
    vol = mesh.cell_volume
    q, pp = exps.q, exps.p_prime

    def T(X: np.ndarray) -> np.ndarray:
        return _apply_rows(X, exps.alpha, family)

    best = [NormEstimate(0.0, None, None, 0, "none", False, True)] * len(pairs)
    for pair, labels, F, nf, U, S in _seed_blocks(pairs, exps, family, rng_seed, extra_seeds):
        F = F / nf
        G = np.zeros_like(F)
        its, value = np.zeros(len(F), dtype=int), np.zeros(len(F))
        has_g, converged = np.zeros(len(F), dtype=bool), np.zeros(len(F), dtype=bool)
        live = np.arange(len(F))
        for it in range(1, _MAX_ITERS + 1):
            if not len(live):
                break
            its[live] = it
            live, H, new = _half_step(T(F[live] * _rows(S, live)), _rows(U, live), q, vol, value[live], live,
                                      "alternating objective decreased (g-step)")
            if not len(live):
                break
            g = (H / _column(new, mesh.n)) ** (q - 1.0)
            G[live], has_g[live] = g, True
            live, H, nh2 = _half_step(T(g * _rows(U, live)), _rows(S, live), pp, vol, new, live,
                                      "alternating objective decreased (f-step)")
            with np.errstate(divide="ignore", invalid="ignore"):
                F[live] = np.where(H > 0.0, (H / _column(nh2, mesh.n)) ** (pp - 1.0), 0.0)
            converged[live] = np.abs(nh2 - value[live]) / np.maximum(nh2, 1e-300) < _REL_TOL
            value[live] = nh2
            live = live[~converged[live]]
        # re-evaluate at the final witness so value is recomputable from it
        rows = zip(pair.tolist(), _norm_rows(T(F * S), U, q, vol), its.tolist(), has_g.tolist(), converged.tolist())
        for i, (b, v, n, with_g, done) in enumerate(rows):
            if v > best[b].value:
                g = StepFunction(mesh, G[i].copy()) if with_g else None
                best[b] = NormEstimate(v, StepFunction(mesh, F[i].copy()), g, n, labels[i], done, False)
    return best


def weak_norm_lower(u, sigma, exps, family, strong, rng_seed=0, extra_seeds=()) -> NormEstimate:
    """``weak_norm_lowers`` of one pair, with its strong estimate and extra seeds."""
    return weak_norm_lowers([(u, sigma)], exps, family, [strong], rng_seed, [extra_seeds])[0]


def weak_norm_lowers(
    pairs: _Pairs,
    exps: ExponentTuple,
    family: SparseFamily,
    strongs: Sequence[NormEstimate],
    rng_seed: int = 0,
    extra_seeds: Sequence[_Seeds] | None = None,
) -> list[NormEstimate]:
    """Lower bound on the weak-type norm for each (u, sigma) of ``pairs``:
    the maximum over the seed set of
    weak_lorentz_norm(I^S(f sigma), u, q) / ||f||_{L^p(sigma)}.

    strongs[i] is the ``strong_norm_lowers`` estimate of pair i with the
    same seeds; a pair's seed set is that of its strong run plus its
    witness.  No smooth iteration is run; the weak functional is piecewise
    constant in the thresholds.  Per witness, weak <= strong holds by
    Chebyshev and is asserted.  Each block of the seed stream is one
    batched apply and one weak-Lorentz scan."""
    mesh = family.mesh
    vol = mesh.cell_volume
    extra = [[*x, *([("strong-witness", st.witness_f)] if st.witness_f is not None else [])]
             for x, st in zip(extra_seeds or [()] * len(pairs), strongs)]
    best = [NormEstimate(0.0, None, None, 0, "none", True, True)] * len(pairs)
    for pair, labels, F, nf, U, S in _seed_blocks(pairs, exps, family, rng_seed, extra):
        H = _apply_rows(F * S / nf, exps.alpha, family)
        weak = _weak_lorentz(H.reshape(len(H), -1), U.reshape(len(U), -1) * vol, exps.q)
        for i, (b, wk, s) in enumerate(zip(pair.tolist(), weak, _norm_rows(H, U, exps.q, vol))):
            if wk > s * (1.0 + 1e-12):
                raise AssertionError("weak functional exceeded strong at the same witness")
            if wk > best[b].value:
                best[b] = NormEstimate(wk, StepFunction(mesh, F[i] / nf[i]), None, 1, labels[i], True, False)
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


def lsut_sandwich(u, sigma, exps, family, rng_seed=0) -> SandwichReport:
    """``lsut_sandwiches`` of one pair."""
    return lsut_sandwiches([(u, sigma)], exps, family, rng_seed)[0]


def lsut_sandwiches(
    pairs: _Pairs,
    exps: ExponentTuple,
    family: SparseFamily,
    rng_seed: int = 0,
) -> list[SandwichReport]:
    """Two-sided sandwich of each (u, sigma) of ``pairs``:
    r1 = strong_norm_lower / (direct + dual testing) and
    r2 = weak_norm_lower / dual testing, each stage one pass over every pair.

    The testing witnesses are injected into the norm seed set, which makes
    direct <= strong_norm_lower hold by construction (the indicator seed
    realizes the testing functional from below).  Degenerate denominators
    are reported as None ratios."""
    mesh = family.mesh
    testings = dyadic_testings(pairs, exps, family)
    extra = [[(name, StepFunction(mesh, _center_mask(mesh, *wit.bounds3(mesh.finest_exponent))))
              for name, wit in (("direct-witness", t.witness_direct), ("dual-witness", t.witness_dual))
              if wit is not None] for t in testings]
    strongs = strong_norm_lowers(pairs, exps, family, rng_seed, extra)
    weaks = weak_norm_lowers(pairs, exps, family, strongs, rng_seed, extra)
    out = []
    for t, strong, weak in zip(testings, strongs, weaks):
        r1 = strong.value / (t.direct + t.dual) if t.direct + t.dual > 0.0 else None
        r2 = weak.value / t.dual if t.dual > 0.0 else None
        r1_ok = None if r1 is None else r1 <= 1.0 + _REL_TOL
        out.append(SandwichReport(strong, weak, t, r1, r2, r1_ok, t.direct <= strong.value + _REL_TOL))
    return out


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
    characteristic yields a None ratio.  One ``fujii_wilsons`` scan covers
    every distinct weight object; a one-item list checks a single pair."""
    if not exps.sobolev:
        raise RangeConditionError("mixed bound requires the Sobolev exponent relation")

    def one(test_val, tw: CharacteristicReport, fw: CharacteristicReport, e1, e2):
        comps = {"twoWeight": tw.value, "fujiiWilson": fw.value}
        if not (np.isfinite(tw.value) and np.isfinite(fw.value)) or tw.value <= 0 or fw.value <= 0:
            return BoundRatio(None, test_val, math.inf, comps)
        bound = tw.value**e1 * fw.value**e2
        return BoundRatio(test_val / bound, test_val, bound, comps)

    weights = dict.fromkeys(w for u, s, _ in items for w in (u, s))
    fw = dict(zip(weights, fujii_wilsons(list(weights), max_level=fw_max_level)))
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
