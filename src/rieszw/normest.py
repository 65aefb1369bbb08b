"""Testing constants, weak/strong norm functionals, lower-bound operator
norm estimation, and the theorem-sandwich ratio experiments.

Norm estimates are lower bounds only (alternating maximization from a fixed
seed set); upper control comes from the testing constants.  The artifact
never claims a certified upper bound on the true operator norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .mesh import DyadicCube, Mesh, StepFunction
from .operators import KernelMode, restricted_sparse_riesz, riesz_reference, sparse_riesz
from .sparse import SparseFamily, _ancestor_at, _contains3
from .weights import (
    CharacteristicReport,
    ExponentTuple,
    bump_constant,
    fujii_wilson,
    in_box_cubes,
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
    "strong_norm_lower",
    "weak_norm_lower",
    "lsut_sandwich",
    "thm31_bound_check",
    "thm41_bound_check",
]

_REL_TOL = 1e-8
_MAX_ITERS = 100


class RangeConditionError(ValueError):
    """Raised when a theorem's exponent-range hypothesis fails; distinct
    from a numeric skip."""


def weak_lorentz_norm(h: StepFunction, u: StepFunction, q: float) -> float:
    """sup_t t * u({h > t})^{1/q}, exactly, by scanning the distinct values
    of h: the sup is attained as t increases to some value v, where the
    super-level set is {h >= v}."""
    hv = h.values.ravel()
    uv = u.values.ravel() * h.mesh.cell_volume
    order = np.argsort(hv)[::-1]
    hs, us = hv[order], uv[order]
    cum = np.cumsum(us)
    best = 0.0
    i = 0
    n = len(hs)
    while i < n:
        v = hs[i]
        if v <= 0.0:
            break
        j = i
        while j + 1 < n and hs[j + 1] == v:
            j += 1
        best = max(best, v * cum[j] ** (1.0 / q))
        i = j + 1
    return best


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


def _candidate_roots(family: SparseFamily) -> list[DyadicCube]:
    """Members and their enumerated ancestors: the only cubes R on which
    the restricted operator is nonzero."""
    mesh = family.mesh
    out: set[DyadicCube] = set()
    for q in family.cubes:
        for level in mesh.levels():
            if level > q.level:
                break
            out.add(_ancestor_at(mesh, q, level))
        out.add(q)
    return sorted(out, key=lambda c: (c.level, c.coord))


def _testing_sup(
    den_w: StepFunction,
    out_w: StepFunction,
    family: SparseFamily,
    alpha: float,
    den_exp: float,
    out_exp: float,
) -> tuple[float, DyadicCube | None, int]:
    """sup_R den_w(R)^{-1/den_exp} (int (I^{S(R)} den_w)^{out_exp} out_w)^{1/out_exp}.

    Since every member Q of S(R) satisfies Q subseteq R, averaging
    chi_R * den_w over Q equals averaging den_w, and the output is supported
    inside R, so the integral needs no explicit localization."""
    mesh = family.mesh
    best, witness, skipped = 0.0, None, 0
    L = mesh.finest_exponent
    member_bounds = [(q, q.bounds3(L)) for q in family.cubes]
    for R in _candidate_roots(family):
        rb = R.bounds3(L)
        if not any(_contains3(rb, b) for _, b in member_bounds):
            continue
        den = den_w.cube_integral(R)
        if den <= 0.0:
            skipped += 1
            continue
        I = restricted_sparse_riesz(den_w, alpha, family, R)
        num = float(np.sum(I.values**out_exp * out_w.values)) * mesh.cell_volume
        val = num ** (1.0 / out_exp) / den ** (1.0 / den_exp)
        if val > best:
            best, witness = val, R
    return best, witness, skipped


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
    the weight-characteristic convention."""
    mesh = u.mesh

    def one_side(inner: StepFunction, outer: StepFunction, den_exp, out_exp):
        best, witness, skipped = 0.0, None, 0
        for cube, lo, hi in in_box_cubes(mesh, with_bounds=True):
            mask = _center_mask(mesh, lo, hi)
            den = float(np.sum(inner.values * mask)) * mesh.cell_volume
            if den <= 0.0:
                skipped += 1
                continue
            I = riesz_reference(StepFunction(mesh, inner.values * mask), exps.alpha, mode)
            num = float(np.sum(I.values**out_exp * outer.values * mask)) * mesh.cell_volume
            val = num ** (1.0 / out_exp) / den ** (1.0 / den_exp)
            if val > best:
                best, witness = val, cube
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


def _lp_norm_weighted(values: np.ndarray, w: np.ndarray, p: float, vol: float) -> float:
    return float(np.sum(values**p * w) * vol) ** (1.0 / p)


def _seed_functions(
    mesh: Mesh,
    sigma: StepFunction,
    exps: ExponentTuple,
    family: SparseFamily,
    rng_seed: int,
    n_random: int,
    extra_seeds: Sequence[tuple[str, StepFunction]],
):
    for q in family.cubes:
        lo, hi = q.bounds3(mesh.finest_exponent)
        mask = _center_mask(mesh, lo, hi)
        yield f"chi[{q.level},{q.coord}]", StepFunction(mesh, mask)
    with np.errstate(divide="ignore", invalid="ignore"):
        prof = np.where(sigma.values > 0.0, sigma.values ** (exps.p_prime - 1.0), 0.0)
    yield "sigma-profile", StepFunction(mesh, prof)
    rng = np.random.default_rng(rng_seed)
    shape = (mesh.cells_per_axis,) * mesh.n
    for i in range(n_random):
        yield f"random-{i}", StepFunction(mesh, rng.random(shape))
    for label, f in extra_seeds:
        yield label, f


def strong_norm_lower(
    u: StepFunction,
    sigma: StepFunction,
    exps: ExponentTuple,
    family: SparseFamily,
    rng_seed: int = 0,
    n_random: int = 8,
    extra_seeds: Sequence[tuple[str, StepFunction]] = (),
) -> NormEstimate:
    """Lower bound on ||I^S(. sigma)||_{L^p(sigma) -> L^q(u)} by alternating
    maximization of B(f, g) = int I^S(f sigma) g u over the unit spheres
    ||f||_{L^p(sigma)} = ||g||_{L^{q'}(u)} = 1.

    Given f the optimal g is proportional to (I^S(f sigma))^{q-1}; by
    self-adjointness the f-update is h = I^S(g u), f proportional to
    h^{p'-1}.  The objective is nondecreasing by construction and is
    asserted to be so each step.  Multi-start from the member indicators,
    a sigma^{p'-1} profile, seeded random starts, and any extra seeds."""
    mesh = u.mesh
    vol = mesh.cell_volume
    uv, sv = u.values, sigma.values
    p, q, pp, qp = exps.p, exps.q, exps.p_prime, exps.q_prime
    alpha = exps.alpha

    def T(vals: np.ndarray) -> np.ndarray:
        return sparse_riesz(StepFunction(mesh, vals), alpha, family).values

    best = NormEstimate(0.0, None, None, 0, "none", False, True)
    for label, f0 in _seed_functions(mesh, sigma, exps, family, rng_seed, n_random, extra_seeds):
        fv = np.maximum(f0.values, 0.0)
        nf = _lp_norm_weighted(fv, sv, p, vol)
        if nf <= 0.0:
            continue
        fv = fv / nf
        value = 0.0
        converged = False
        it = 0
        gv = None
        for it in range(1, _MAX_ITERS + 1):
            h = T(fv * sv)
            new = _lp_norm_weighted(h, uv, q, vol)
            if new <= 0.0:
                break
            if new < value * (1.0 - 1e-12):
                raise AssertionError("alternating objective decreased (g-step)")
            gv = (h / new) ** (q - 1.0)
            h2 = T(gv * uv)
            nh2 = _lp_norm_weighted(h2, sv, pp, vol)
            if nh2 <= 0.0:
                value = new
                break
            if nh2 < new * (1.0 - 1e-12):
                raise AssertionError("alternating objective decreased (f-step)")
            with np.errstate(divide="ignore", invalid="ignore"):
                fnew = np.where(h2 > 0.0, (h2 / nh2) ** (pp - 1.0), 0.0)
            rel = abs(nh2 - value) / max(nh2, 1e-300)
            value = nh2
            fv = fnew
            if rel < _REL_TOL:
                converged = True
                break
        # re-evaluate at the final witness so value is recomputable from it
        h = T(fv * sv)
        value = _lp_norm_weighted(h, uv, q, vol)
        if value > best.value:
            best = NormEstimate(
                value,
                StepFunction(mesh, fv),
                None if gv is None else StepFunction(mesh, gv),
                it,
                label,
                converged,
                False,
            )
    return best


def weak_norm_lower(
    u: StepFunction,
    sigma: StepFunction,
    exps: ExponentTuple,
    family: SparseFamily,
    rng_seed: int = 0,
    n_random: int = 8,
    extra_seeds: Sequence[tuple[str, StepFunction]] = (),
) -> NormEstimate:
    """Lower bound on the weak-type norm: the maximum over the seed set
    (including the strong-type witness) of
    weak_lorentz_norm(I^S(f sigma), u, q) / ||f||_{L^p(sigma)}.

    No smooth iteration is run; the weak functional is piecewise constant
    in the thresholds.  Per witness, weak <= strong holds by Chebyshev and
    is asserted."""
    mesh = u.mesh
    vol = mesh.cell_volume
    strong = strong_norm_lower(u, sigma, exps, family, rng_seed, n_random, extra_seeds)
    seeds = list(_seed_functions(mesh, sigma, exps, family, rng_seed, n_random, extra_seeds))
    if strong.witness_f is not None:
        seeds.append(("strong-witness", strong.witness_f))
    best = NormEstimate(0.0, None, None, 0, "none", True, True)
    for label, f0 in seeds:
        fv = np.maximum(f0.values, 0.0)
        nf = _lp_norm_weighted(fv, sigma.values, exps.p, vol)
        if nf <= 0.0:
            continue
        h = sparse_riesz(StepFunction(mesh, fv * sigma.values / nf), exps.alpha, family)
        wk = weak_lorentz_norm(h, u, exps.q)
        st = _lp_norm_weighted(h.values, u.values, exps.q, vol)
        if wk > st * (1.0 + 1e-12):
            raise AssertionError("weak functional exceeded strong at the same witness")
        if wk > best.value:
            best = NormEstimate(wk, StepFunction(mesh, fv / nf), None, 1, label, True, False)
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
    weak = weak_norm_lower(u, sigma, exps, family, rng_seed, extra_seeds=extra)
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


def thm31_bound_check(
    u: StepFunction,
    sigma: StepFunction,
    exps: ExponentTuple,
    family: SparseFamily,
    fw_max_level: int | None = None,
) -> tuple[BoundRatio, BoundRatio]:
    """Mixed-characteristic bound ratios at Sobolev exponents:

    dual testing / ([u,sigma]_{A_s(p)}^{1/q} [u]_{FW}^{1/p'}) and the
    symmetric form direct testing / ([sigma,u]_{A_s(q')}^{1/p'}
    [sigma]_{FW}^{1/q}).  Infinite characteristics yield a None ratio."""
    if not exps.sobolev:
        raise RangeConditionError("mixed bound requires the Sobolev exponent relation")
    testing = dyadic_testing(u, sigma, exps, family)

    def one(test_val, tw: CharacteristicReport, fw: CharacteristicReport, e1, e2):
        comps = {"twoWeight": tw.value, "fujiiWilson": fw.value}
        if not (np.isfinite(tw.value) and np.isfinite(fw.value)) or tw.value <= 0 or fw.value <= 0:
            return BoundRatio(None, test_val, math.inf, comps)
        bound = tw.value**e1 * fw.value**e2
        return BoundRatio(test_val / bound, test_val, bound, comps)

    dual_ratio = one(
        testing.dual,
        two_weight_ap(u, sigma, exps.s_p),
        fujii_wilson(u, max_level=fw_max_level),
        1.0 / exps.q,
        1.0 / exps.p_prime,
    )
    direct_ratio = one(
        testing.direct,
        two_weight_ap(sigma, u, exps.s_qprime),
        fujii_wilson(sigma, max_level=fw_max_level),
        1.0 / exps.p_prime,
        1.0 / exps.q,
    )
    return dual_ratio, direct_ratio


def thm41_bound_check(
    u: StepFunction,
    sigma: StepFunction,
    exps: ExponentTuple,
    family: SparseFamily,
    bump_kind: str = "log",
    delta: float = 1.0,
) -> tuple[BoundRatio, BoundRatio | None]:
    """Separated-bump bound ratios: dual testing / K with
    K = sup |Q|^{alpha/n+1/q-1/p} ||u^{1/q}||_{Phi,Q} ||sigma^{1/p'}||_{p',Q},
    Phi a log or loglog bump of order q.  Requires p < q and the range
    condition (p'/q')(1 - alpha/n) >= 1; refuses otherwise.  The direct
    form (Psi bumping the sigma side) is computed when its own range
    condition (q/p)(1 - alpha/n) >= 1 holds, else None."""
    if bump_kind not in ("log", "loglog"):
        raise ValueError("bump_kind must be 'log' or 'loglog'")
    flags = range_conditions(exps)
    if exps.p >= exps.q or not flags.weak:
        raise RangeConditionError(
            f"range condition fails: need p < q and (p'/q')(1-alpha/n) >= 1, "
            f"got p={exps.p}, q={exps.q}, alpha={exps.alpha}"
        )
    make = YoungFunction.log_bump if bump_kind == "log" else YoungFunction.loglog_bump
    testing = dyadic_testing(u, sigma, exps, family)

    phi = make(exps.q, delta)
    k1 = bump_constant(u, sigma, exps, phi, YoungFunction.power(exps.p_prime))
    comps1 = {"K": k1.value}
    if not np.isfinite(k1.value) or k1.value <= 0.0:
        dual_ratio = BoundRatio(None, testing.dual, math.inf, comps1)
    else:
        dual_ratio = BoundRatio(testing.dual / k1.value, testing.dual, k1.value, comps1)

    direct_ratio = None
    if (exps.q / exps.p) * (1.0 - exps.alpha / exps.n) >= 1.0:
        psi = make(exps.p_prime, delta)
        k2 = bump_constant(u, sigma, exps, YoungFunction.power(exps.q), psi)
        comps2 = {"K": k2.value}
        if not np.isfinite(k2.value) or k2.value <= 0.0:
            direct_ratio = BoundRatio(None, testing.direct, math.inf, comps2)
        else:
            direct_ratio = BoundRatio(testing.direct / k2.value, testing.direct, k2.value, comps2)
    return dual_ratio, direct_ratio
