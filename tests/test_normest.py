import json
import math
import types

import numpy as np
import pytest

from rieszw import _kernels, calibration, cli, mesh as mesh_module, orlicz, weights
from rieszw.mesh import DyadicCube, Mesh, StepFunction
from rieszw.normest import (
    RangeConditionError,
    dyadic_testing,
    lsut_sandwich,
    sawyer_testing,
    strong_norm_lower,
    thm31_bound_checks,
    thm41_bound_checks,
    weak_lorentz_norm,
    weak_norm_lower,
)
from rieszw import normest
from rieszw.normest import NormEstimate
from rieszw.operators import (KernelMode, _forest_paint, _member_weights, restricted_sparse_riesz, riesz_reference,
                               sparse_riesz)
from rieszw.orlicz import YoungFunction, _luxemburg_blocks
from rieszw.sparse import SparseFamily, build_sparse
from rieszw.weights import ExponentTuple, _center_mask

from conftest import _scan_levels, center_slices, lognormal
from reference_geometry import sobolev_pair
from test_sparse import ORACLE_FAMILIES, _ancestor_at, candidate_roots, member_integrals
from test_weights import CORPUS_MESHES, in_box_cubes_with_bounds, zero_mass_weight

ROOT = DyadicCube((0,), 0, (0,))
E22 = ExponentTuple(1, 0.5, 2.0, 2.0)
SOB = ExponentTuple(1, 0.5, 4.0 / 3.0, 4.0)


def single_cube(mesh):
    return SparseFamily(mesh, (0,), (ROOT,))


class TestWeakLorentz:
    def test_two_value_distribution(self):
        mesh = Mesh(1, 0, 2)
        h = StepFunction(mesh, np.array([2.0, 1.0, 1.0, 1.0]))
        one = StepFunction.constant(mesh, 1.0)
        # sup(2 * (1/4)^{1/2}, 1 * 1^{1/2}) = 1
        assert weak_lorentz_norm(h, one, 2.0) == pytest.approx(1.0, rel=1e-12)

    def test_constant(self, unit_mesh):
        h = StepFunction.constant(unit_mesh, 3.0)
        u = StepFunction.constant(unit_mesh, 2.0)
        assert weak_lorentz_norm(h, u, 4.0) == pytest.approx(3.0 * 2.0**0.25, rel=1e-12)

    def test_chebyshev(self, unit_mesh):
        h = lognormal(unit_mesh, 1)
        u = lognormal(unit_mesh, 2, scale=0.7)
        q = 3.0
        strong = float(np.sum(h.values**q * u.values) * unit_mesh.cell_volume) ** (1 / q)
        assert weak_lorentz_norm(h, u, q) <= strong * (1.0 + 1e-12)

    def test_zero(self, unit_mesh):
        z = StepFunction.constant(unit_mesh, 0.0)
        assert weak_lorentz_norm(z, z, 2.0) == 0.0


def loop_weak_lorentz_norm(h, u, q):
    """The run-by-run scan ``weak_lorentz_norm`` replaced."""
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


def lorentz_cases(mesh):
    """(h, u) pairs with ties, one value, zeros of both signs and h = 0."""
    shape = (mesh.cells_per_axis,) * mesh.n
    rng = np.random.default_rng(7)
    u = lognormal(mesh, 8, scale=0.7)
    ties = rng.integers(0, 4, shape) * 0.7
    signed_zeros = np.where(rng.random(shape) < 0.5, -0.0, 0.0)
    mixed = np.where(rng.random(shape) < 0.4, signed_zeros, rng.integers(1, 3, shape) / 3.0)
    for vals in (
        ties,
        np.full(shape, 1.3),
        mixed,
        signed_zeros,
        np.zeros(shape),
        np.exp(rng.standard_normal(shape)),
    ):
        yield StepFunction(mesh, vals), u


class TestWeakLorentzOracle:
    @pytest.mark.parametrize("mesh", [Mesh(1, 0, 6), Mesh(2, 0, 3)], ids=["n1", "n2"])
    @pytest.mark.parametrize("q", [1.5, 4.0, 33.0])
    def test_equals_loop(self, mesh, q):
        for h, u in lorentz_cases(mesh):
            got = weak_lorentz_norm(h, u, q)
            expect = loop_weak_lorentz_norm(h, u, q)
            assert got == expect and math.copysign(1.0, got) == math.copysign(1.0, expect)

    def test_many_draws_equal_loop(self):
        # the max lands on a last-bit difference of an array pow now and then
        mesh = Mesh(1, 0, 5)
        rng = np.random.default_rng(9)
        for _ in range(300):
            h = StepFunction(mesh, np.exp(rng.standard_normal(mesh.cells_per_axis)))
            u = StepFunction(mesh, np.exp(rng.standard_normal(mesh.cells_per_axis)))
            q = float(rng.uniform(1.1, 40.0))
            assert weak_lorentz_norm(h, u, q) == loop_weak_lorentz_norm(h, u, q)


class TestTesting:
    def test_single_cube_constants(self, tight_mesh):
        one = StepFunction.constant(tight_mesh, 1.0)
        rep = dyadic_testing(one, one, E22, single_cube(tight_mesh))
        assert rep.direct == pytest.approx(1.0, rel=1e-10)
        assert rep.dual == pytest.approx(1.0, rel=1e-10)

    def test_empty_family(self, unit_mesh):
        one = StepFunction.constant(unit_mesh, 1.0)
        rep = dyadic_testing(one, one, E22, SparseFamily(unit_mesh, (0,), ()))
        assert rep.direct == 0.0 and rep.dual == 0.0

    def test_duality_symmetry(self, unit_mesh):
        u = lognormal(unit_mesh, 3, scale=0.7)
        s = lognormal(unit_mesh, 4, scale=0.7)
        f = lognormal(unit_mesh, 5)
        fam, _ = build_sparse(f, (0,), SOB.alpha)
        a = dyadic_testing(u, s, SOB, fam)
        swapped = ExponentTuple(1, SOB.alpha, SOB.q_prime, SOB.p_prime)
        b = dyadic_testing(s, u, swapped, fam)
        assert a.dual == b.direct and a.direct == b.dual

    def test_scaling_covariance(self, unit_mesh):
        u = lognormal(unit_mesh, 6, scale=0.7)
        s = lognormal(unit_mesh, 7, scale=0.7)
        f = lognormal(unit_mesh, 8)
        fam, _ = build_sparse(f, (0,), SOB.alpha)
        base = dyadic_testing(u, s, SOB, fam)
        c = 5.0
        scaled = dyadic_testing(u.map(lambda v: c * v), s, SOB, fam)
        assert scaled.direct == pytest.approx(
            base.direct * c ** (1.0 / SOB.q), rel=1e-10
        )

    def test_mismatched_alpha_raises(self, unit_mesh):
        # alpha = 1.5 lies in (0, n) for n = 2, not on a 1-D mesh
        u = lognormal(unit_mesh, 3, scale=0.7)
        s = lognormal(unit_mesh, 4, scale=0.7)
        fam, _ = build_sparse(lognormal(unit_mesh, 5), (0,), SOB.alpha)
        with pytest.raises(ValueError, match="alpha must lie in"):
            dyadic_testing(u, s, ExponentTuple(2, 1.5, 2.0, 2.0), fam)

    def test_overflowing_field_raises(self, unit_mesh):
        # each value is finite, but the member integrals overflow to inf
        huge = StepFunction.constant(unit_mesh, 1e308)
        fam, _ = build_sparse(lognormal(unit_mesh, 5), (0,), SOB.alpha)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="nonnegative and finite"):
            dyadic_testing(StepFunction.constant(unit_mesh, 1.0), huge, SOB, fam)

    def test_sawyer_constant_weights_oracle(self):
        mesh = Mesh(1, 0, 6)
        one = StepFunction.constant(mesh, 1.0)
        rep = sawyer_testing(one, one, SOB, KernelMode.MIDPOINT)
        # the ratio is scale invariant at Sobolev exponents; the sup sits at
        # a single cell where the self-cell ball surrogate gives exactly
        # (h * (2 sqrt(2) sqrt(h))^4)^{1/4} / h^{3/4} = 2 sqrt(2)
        assert rep.direct == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-10)
        assert rep.witness_direct.level == mesh.finest_exponent
        # root-cube functional vs the closed form
        # int_0^1 (2(sqrt(x)+sqrt(1-x)))^4 dx = 16*(5/3 + pi/2)
        from rieszw.operators import riesz_reference

        I = riesz_reference(one, SOB.alpha, KernelMode.MIDPOINT)
        num = float(np.sum(I.values**SOB.q)) * mesh.cell_volume
        oracle = (16.0 * (5.0 / 3.0 + math.pi / 2.0)) ** 0.25
        assert num**0.25 == pytest.approx(oracle, rel=5e-3)


def loop_sawyer_testing(u, sigma, exps, mode=KernelMode.MIDPOINT):
    """``sawyer_testing`` as a loop over (cube, lower, upper) triples."""
    mesh = u.mesh

    def one_side(inner, outer, den_exp, out_exp):
        best, witness, skipped = 0.0, None, 0
        for cube, lo, hi in in_box_cubes_with_bounds(mesh):
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
    return normest.TestingReport(direct, dual, wd, wu, sd, su)


def per_cube_sawyer_testing(u, sigma, exps, mode=KernelMode.MIDPOINT):
    """``sawyer_testing`` as one full-mesh ``riesz_reference`` per cube,
    scanned a (shift, level) segment at a time."""
    mesh = u.mesh

    def frame_mask(lo3, hi3):
        mask = np.zeros((mesh.cells_per_axis,) * mesh.n)
        mask[center_slices(mesh, lo3, hi3)] = 1.0
        return mask

    def one_side(inner, outer, den_exp, out_exp):
        best, witness, skipped = 0.0, None, 0
        for shift, level, coords, lo, hi in _scan_levels(mesh):
            for i in range(len(coords)):
                mask = frame_mask(lo[i], hi[i])
                den = float(np.sum(inner.values * mask)) * mesh.cell_volume
                if den <= 0.0:
                    skipped += 1
                    continue
                I = riesz_reference(StepFunction(mesh, inner.values * mask), exps.alpha, mode)
                num = float(np.sum(I.values**out_exp * outer.values * mask)) * mesh.cell_volume
                val = num ** (1.0 / out_exp) / den ** (1.0 / den_exp)
                if val > best:
                    best, witness = val, DyadicCube(shift, level, tuple(coords[i].tolist()))
        return best, witness, skipped

    direct, wd, sd = one_side(sigma, u, exps.p, exps.q)
    dual, wu, su = one_side(u, sigma, exps.q_prime, exps.p_prime)
    return normest.TestingReport(direct, dual, wd, wu, sd, su)


class TestSawyerBatches:
    """The batched reference applies against one apply per cube, ``==`` on
    every ``TestingReport`` field."""

    @pytest.mark.parametrize("mesh", [Mesh(1, 0, 5), Mesh(1, 1, 4, coarse_padding=0), Mesh(2, 0, 3),
                                      Mesh(2, 1, 2, coarse_padding=0)],
                             ids=["n1", "n1J1-T0", "n2", "n2J1-T0"])
    def test_equals_per_cube_applies(self, mesh):
        exps = SOB if mesh.n == 1 else sobolev_pair(2, 0.5, 1.5)
        u = lognormal(mesh, 62, scale=0.7)
        for s in (lognormal(mesh, 63, scale=0.7), zero_mass_weight(mesh, 63)):
            for mode in KernelMode:
                assert sawyer_testing(u, s, exps, mode) == per_cube_sawyer_testing(u, s, exps, mode)
                assert sawyer_testing(s, u, exps, mode) == per_cube_sawyer_testing(s, u, exps, mode)

    def test_across_frame_blocks(self, monkeypatch):
        mesh = Mesh(2, 0, 3)
        exps = sobolev_pair(2, 0.5, 1.5)
        u, s = lognormal(mesh, 64, scale=0.7), zero_mass_weight(mesh, 65)
        expect = per_cube_sawyer_testing(u, s, exps)
        monkeypatch.setattr(mesh_module, "_FRAME_BLOCK", 5 * (2 * mesh.cells_per_axis) ** 2)  # 5 frames
        assert sawyer_testing(u, s, exps) == expect
        assert expect.skipped_direct > 5


class TestSawyerOracle:
    @pytest.mark.parametrize("mesh", [Mesh(1, 0, 5), Mesh(1, 1, 4), Mesh(2, 0, 2)], ids=["n1", "n1J1", "n2"])
    @pytest.mark.parametrize("zeros", ["positive", "zero-mass"])
    def test_equals_loop(self, mesh, zeros):
        exps = SOB if mesh.n == 1 else sobolev_pair(2, 0.5, 1.5)
        u = lognormal(mesh, 60, scale=0.7)
        s = lognormal(mesh, 61, scale=0.7) if zeros == "positive" else zero_mass_weight(mesh, 61)
        for mode in (KernelMode.MIDPOINT, KernelMode.UPPER):
            got = sawyer_testing(u, s, exps, mode)
            assert got == loop_sawyer_testing(u, s, exps, mode)
        if zeros == "zero-mass":
            assert got.skipped_direct > 0


def oracle_candidate_roots(family):
    """Every member's ancestors found one cube and one level at a time."""
    mesh = family.mesh
    out = set()
    for q in family.cubes:
        for level in mesh.levels():
            if level > q.level:
                break
            out.add(_ancestor_at(mesh, q, level))
        out.add(q)
    return sorted(out, key=lambda c: (c.level, c.coord))


class TestCandidateRootsOracle:
    @pytest.mark.parametrize("make", [m for _, m in ORACLE_FAMILIES], ids=[i for i, _ in ORACLE_FAMILIES])
    def test_matches_per_cube_ancestors(self, make):
        family = make()
        assert candidate_roots(family) == oracle_candidate_roots(family)

    @pytest.mark.parametrize("make", [m for _, m in ORACLE_FAMILIES], ids=[i for i, _ in ORACLE_FAMILIES])
    def test_roots_table(self, make):
        family = make()
        r, cubes = family.roots, oracle_candidate_roots(family)
        t = family.mesh.level_table(family.shift)
        assert family.roots is r and not r.flags.writeable
        assert r.dtype == np.int64 and r.shape == (len(cubes),) and np.all(np.diff(r) > 0)
        assert t.level[r].tolist() == [c.level for c in cubes]
        assert t.coords[r].tolist() == [list(c.coord) for c in cubes]
        lo3, hi3 = family.mesh.bounds3(cubes)
        assert np.array_equal(t.lo3[r], lo3) and np.array_equal(t.hi3[r], hi3)


class TestNormLower:
    def test_rank_one_norm(self, tight_mesh):
        one = StepFunction.constant(tight_mesh, 1.0)
        est = strong_norm_lower(one, one, E22, single_cube(tight_mesh))
        assert est.value == pytest.approx(1.0, rel=1e-10)
        assert est.converged and not est.degenerate

    def test_degenerate_sigma(self, tight_mesh):
        one = StepFunction.constant(tight_mesh, 1.0)
        zero = StepFunction.constant(tight_mesh, 0.0)
        est = strong_norm_lower(one, zero, E22, single_cube(tight_mesh))
        assert est.value == 0.0 and est.degenerate

    def test_weak_rank_one(self, tight_mesh):
        one = StepFunction.constant(tight_mesh, 1.0)
        strong = strong_norm_lower(one, one, E22, single_cube(tight_mesh))
        est = weak_norm_lower(one, one, E22, single_cube(tight_mesh), strong)
        assert est.value == pytest.approx(1.0, rel=1e-10)

    def test_value_reproducible_from_witness(self, unit_mesh):
        u = lognormal(unit_mesh, 10, scale=0.7)
        s = lognormal(unit_mesh, 11, scale=0.7)
        f = lognormal(unit_mesh, 12)
        fam, _ = build_sparse(f, (0,), SOB.alpha)
        est = strong_norm_lower(u, s, SOB, fam)
        from rieszw.operators import sparse_riesz

        vol = unit_mesh.cell_volume
        h = sparse_riesz(
            StepFunction(unit_mesh, est.witness_f.values * s.values), SOB.alpha, fam
        )
        norm = float(np.sum(h.values**SOB.q * u.values) * vol) ** (1.0 / SOB.q)
        nf = float(np.sum(est.witness_f.values**SOB.p * s.values) * vol) ** (1.0 / SOB.p)
        assert norm / nf == pytest.approx(est.value, rel=1e-10)


def lp_norm_weighted(values, w, p, vol):
    return float(np.sum(values**p * w) * vol) ** (1.0 / p)


def seed_functions(mesh, sigma, exps, family, rng_seed, n_random, extra_seeds):
    """The seed set of the norm estimates, with its count of random starts."""
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


def self_contained_weak_norm_lower(u, sigma, exps, family, rng_seed=0, n_random=8, extra_seeds=()):
    """``weak_norm_lower`` running its own strong estimate for the witness."""
    mesh = u.mesh
    vol = mesh.cell_volume
    strong = strong_norm_lower(u, sigma, exps, family, rng_seed, extra_seeds=extra_seeds)
    seeds = list(seed_functions(mesh, sigma, exps, family, rng_seed, n_random, extra_seeds))
    if strong.witness_f is not None:
        seeds.append(("strong-witness", strong.witness_f))
    best = NormEstimate(0.0, None, None, 0, "none", True, True)
    for label, f0 in seeds:
        fv = np.maximum(f0.values, 0.0)
        nf = lp_norm_weighted(fv, sigma.values, exps.p, vol)
        if nf <= 0.0:
            continue
        h = sparse_riesz(StepFunction(mesh, fv * sigma.values / nf), exps.alpha, family)
        wk = weak_lorentz_norm(h, u, exps.q)
        st = lp_norm_weighted(h.values, u.values, exps.q, vol)
        if wk > st * (1.0 + 1e-12):
            raise AssertionError("weak functional exceeded strong at the same witness")
        if wk > best.value:
            best = NormEstimate(wk, StepFunction(mesh, fv / nf), None, 1, label, True, False)
    return best


def witness_indicator_seeds(u, s, exps, family):
    """The testing witnesses as indicator seeds, as ``lsut_sandwich`` adds them."""
    mesh = u.mesh
    testing = dyadic_testing(u, s, exps, family)
    extra = []
    for name, wit in (("direct-witness", testing.witness_direct), ("dual-witness", testing.witness_dual)):
        if wit is not None:
            lo, hi = wit.bounds3(mesh.finest_exponent)
            extra.append((name, StepFunction(mesh, _center_mask(mesh, lo, hi))))
    return extra


def assert_same_estimate(got, expect):
    assert (got.value, got.iterations, got.seed_label, got.converged, got.degenerate) == (
        expect.value, expect.iterations, expect.seed_label, expect.converged, expect.degenerate)
    for a, b in ((got.witness_f, expect.witness_f), (got.witness_g, expect.witness_g)):
        assert (a is None) == (b is None)
        if a is not None:
            assert np.array_equal(a.values, b.values)
            assert np.array_equal(np.signbit(a.values), np.signbit(b.values))


class TestWeakNormOracle:
    """The weak estimate from the caller's strong estimate against the one
    that runs its own, on the ``TestSandwich`` instances."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("with_extra", [False, True], ids=["plain", "witness-seeds"])
    def test_equals_self_contained(self, unit_mesh, seed, with_extra):
        u = lognormal(unit_mesh, 20 + seed, scale=0.7)
        s = lognormal(unit_mesh, 30 + seed, scale=0.7)
        f = lognormal(unit_mesh, 40 + seed)
        fam, _ = build_sparse(f, (0,), SOB.alpha)
        extra = witness_indicator_seeds(u, s, SOB, fam) if with_extra else ()
        strong = strong_norm_lower(u, s, SOB, fam, seed, extra_seeds=extra)
        got = weak_norm_lower(u, s, SOB, fam, strong, seed, extra_seeds=extra)
        assert_same_estimate(got, self_contained_weak_norm_lower(u, s, SOB, fam, seed, extra_seeds=extra))

    def test_strong_witness_wins(self, unit_mesh):
        # wide weights where the strong witness is the best weak seed
        u = lognormal(unit_mesh, 22, scale=2.0)
        s = lognormal(unit_mesh, 32, scale=2.0)
        fam, _ = build_sparse(lognormal(unit_mesh, 42), (0,), SOB.alpha)
        got = weak_norm_lower(u, s, SOB, fam, strong_norm_lower(u, s, SOB, fam, 2), 2)
        assert got.seed_label == "strong-witness"
        assert_same_estimate(got, self_contained_weak_norm_lower(u, s, SOB, fam, 2))

    def test_single_cube_and_degenerate(self, tight_mesh):
        one = StepFunction.constant(tight_mesh, 1.0)
        zero = StepFunction.constant(tight_mesh, 0.0)
        fam = single_cube(tight_mesh)
        for u, s in ((one, one), (one, zero)):
            got = weak_norm_lower(u, s, E22, fam, strong_norm_lower(u, s, E22, fam))
            assert_same_estimate(got, self_contained_weak_norm_lower(u, s, E22, fam))


class TestSandwich:
    def test_single_cube_fixture(self, tight_mesh):
        one = StepFunction.constant(tight_mesh, 1.0)
        rep = lsut_sandwich(one, one, E22, single_cube(tight_mesh))
        assert rep.r1 == pytest.approx(0.5, rel=1e-9)
        assert rep.r2 == pytest.approx(1.0, rel=1e-9)
        assert rep.r1_ok and rep.testing_below_norm

    def test_random_instances(self, unit_mesh):
        for seed in range(3):
            u = lognormal(unit_mesh, 20 + seed, scale=0.7)
            s = lognormal(unit_mesh, 30 + seed, scale=0.7)
            f = lognormal(unit_mesh, 40 + seed)
            fam, _ = build_sparse(f, (0,), SOB.alpha)
            rep = lsut_sandwich(u, s, SOB, fam, rng_seed=seed)
            assert rep.r1_ok and rep.testing_below_norm
            assert rep.weak.value <= rep.strong.value * (1.0 + 1e-12)


class TestTheoremRatios:
    def test_thm31_constant_weights(self, tight_mesh):
        one = StepFunction.constant(tight_mesh, 1.0)
        dual, direct = thm31_bound_checks([(one, one, dyadic_testing(one, one, SOB, single_cube(tight_mesh)))], SOB)[0]
        assert dual.ratio == pytest.approx(1.0, rel=1e-9)
        assert direct.ratio == pytest.approx(1.0, rel=1e-9)

    def test_thm31_needs_sobolev(self, tight_mesh):
        one = StepFunction.constant(tight_mesh, 1.0)
        with pytest.raises(ValueError):
            e23 = ExponentTuple(1, 0.5, 2.0, 3.0)
            thm31_bound_checks([(one, one, dyadic_testing(one, one, e23, single_cube(tight_mesh)))], e23)

    def test_thm41_constant_weights_closed_form(self, tight_mesh):
        one = StepFunction.constant(tight_mesh, 1.0)
        dual, direct = thm41_bound_checks([(one, one, dyadic_testing(one, one, SOB, single_cube(tight_mesh)))], SOB)[0]
        phi = YoungFunction.log_bump(SOB.q, 1.0)
        # testing = 1 and K = 1/phi^{-1}(1), so the ratio is phi^{-1}(1)
        assert dual.ratio == pytest.approx(phi.inverse(1.0), rel=1e-9)
        assert direct is not None

    def test_thm41_range_refusal(self, tight_mesh):
        one = StepFunction.constant(tight_mesh, 1.0)
        with pytest.raises(RangeConditionError):
            thm41_bound_checks([(one, one, dyadic_testing(one, one, E22, single_cube(tight_mesh)))], E22)

    def test_thm41_loglog_kind(self, tight_mesh):
        one = StepFunction.constant(tight_mesh, 1.0)
        testing = dyadic_testing(one, one, SOB, single_cube(tight_mesh))
        dual, _ = thm41_bound_checks([(one, one, testing)], SOB, "loglog", 1.0)[0]
        phi = YoungFunction.loglog_bump(SOB.q, 1.0)
        assert dual.ratio == pytest.approx(phi.inverse(1.0), rel=1e-9)


# ---------------------------------------------------------------------------
# Oracles for the blocked sandwich stages: the per-root testing scan and the
# per-seed norm iterations that the frame blocks replaced, copied here.


def per_root_testing_sup(den_w, out_w, family, roots, alpha, den_exp, out_exp):
    """One restricted apply and one full-frame sum per candidate root."""
    mesh = family.mesh
    best, witness, skipped = 0.0, None, 0
    dens = den_w.integral_box3(*mesh.bounds3(roots)).tolist()
    for R, den in zip(roots, dens):
        if den <= 0.0:
            skipped += 1
            continue
        I = restricted_sparse_riesz(den_w, alpha, family, R)
        num = float(np.sum(I.values**out_exp * out_w.values)) * mesh.cell_volume
        val = num ** (1.0 / out_exp) / den ** (1.0 / den_exp)
        if val > best:
            best, witness = val, R
    return best, witness, skipped


def per_root_dyadic_testing(u, sigma, exps, family):
    roots = oracle_candidate_roots(family)
    direct, wd, sd = per_root_testing_sup(sigma, u, family, roots, exps.alpha, exps.p, exps.q)
    dual, wu, su = per_root_testing_sup(u, sigma, family, roots, exps.alpha, exps.q_prime, exps.p_prime)
    return normest.TestingReport(direct, dual, wd, wu, sd, su)


def per_seed_strong_norm_lower(u, sigma, exps, family, rng_seed=0, extra_seeds=()):
    """One seed at a time, with a ``StepFunction`` per iterate."""
    mesh = u.mesh
    vol = mesh.cell_volume
    uv, sv = u.values, sigma.values
    p, q, pp = exps.p, exps.q, exps.p_prime

    def T(vals):
        return sparse_riesz(StepFunction(mesh, vals), exps.alpha, family).values

    best = NormEstimate(0.0, None, None, 0, "none", False, True)
    for label, f0 in seed_functions(mesh, sigma, exps, family, rng_seed, 8, extra_seeds):
        fv = np.maximum(f0.values, 0.0)
        nf = lp_norm_weighted(fv, sv, p, vol)
        if nf <= 0.0:
            continue
        fv = fv / nf
        value, converged, it, gv = 0.0, False, 0, None
        for it in range(1, normest._MAX_ITERS + 1):
            h = T(fv * sv)
            new = lp_norm_weighted(h, uv, q, vol)
            if new <= 0.0:
                break
            if new < value * (1.0 - 1e-12):
                raise AssertionError("alternating objective decreased (g-step)")
            gv = (h / new) ** (q - 1.0)
            h2 = T(gv * uv)
            nh2 = lp_norm_weighted(h2, sv, pp, vol)
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
            if rel < 1e-8:
                converged = True
                break
        value = lp_norm_weighted(T(fv * sv), uv, q, vol)
        if value > best.value:
            best = NormEstimate(value, StepFunction(mesh, fv), None if gv is None else StepFunction(mesh, gv),
                                it, label, converged, False)
    return best


def per_seed_weak_norm_lower(u, sigma, exps, family, strong, rng_seed=0, extra_seeds=()):
    """The whole seed list first, then one apply per seed."""
    mesh = u.mesh
    vol = mesh.cell_volume
    seeds = list(seed_functions(mesh, sigma, exps, family, rng_seed, 8, extra_seeds))
    if strong.witness_f is not None:
        seeds.append(("strong-witness", strong.witness_f))
    best = NormEstimate(0.0, None, None, 0, "none", True, True)
    for label, f0 in seeds:
        fv = np.maximum(f0.values, 0.0)
        nf = lp_norm_weighted(fv, sigma.values, exps.p, vol)
        if nf <= 0.0:
            continue
        h = sparse_riesz(StepFunction(mesh, fv * sigma.values / nf), exps.alpha, family)
        wk = weak_lorentz_norm(h, u, exps.q)
        st = lp_norm_weighted(h.values, u.values, exps.q, vol)
        if wk > st * (1.0 + 1e-12):
            raise AssertionError("weak functional exceeded strong at the same witness")
        if wk > best.value:
            best = NormEstimate(wk, StepFunction(mesh, fv / nf), None, 1, label, True, False)
    return best


def exps_for(mesh):
    return SOB if mesh.n == 1 else sobolev_pair(2, 0.5, 1.5)


def oracle_pairs(mesh):
    """(u, sigma): lognormal weights, then sigma vanishing on half the box
    (roots of zero mass on the direct side)."""
    u = lognormal(mesh, 70, scale=0.7)
    return [(u, lognormal(mesh, 71, scale=0.7)), (u, zero_mass_weight(mesh, 72))]


def assert_sandwich_stages_equal(u, s, exps, fam, rng_seed=0):
    """Testing, strong and weak estimates against the oracles, with the
    testing witnesses as extra seeds, as ``lsut_sandwich`` runs them.  Where
    the oracle's strong iteration raises (on a shifted grid the painted
    operator is not self-adjoint, so the objective can fall), the blocked
    one must raise too, and the weak run gets no strong witness."""
    testing = dyadic_testing(u, s, exps, fam)
    assert testing == per_root_dyadic_testing(u, s, exps, fam)
    extra = witness_indicator_seeds(u, s, exps, fam)
    try:
        expect = per_seed_strong_norm_lower(u, s, exps, fam, rng_seed, extra)
    except AssertionError:
        with pytest.raises(AssertionError, match="alternating objective decreased"):
            strong_norm_lower(u, s, exps, fam, rng_seed, extra_seeds=extra)
        strong = NormEstimate(0.0, None, None, 0, "none", False, True)
    else:
        strong = strong_norm_lower(u, s, exps, fam, rng_seed, extra_seeds=extra)
        assert_same_estimate(strong, expect)
    weak = weak_norm_lower(u, s, exps, fam, strong, rng_seed, extra_seeds=extra)
    assert_same_estimate(weak, per_seed_weak_norm_lower(u, s, exps, fam, strong, rng_seed, extra))
    return testing, strong, weak


T0_FAMILIES = [
    (f"built-n{n}-J1-T0-s{''.join(map(str, shift))}", mesh, shift)
    for n, L in ((1, 4), (2, 2))
    for mesh in [Mesh(n, 1, L, coarse_padding=0)]
    for shift in mesh.shifts()
]


class TestSandwichStagesOracle:
    """The blocked testing scan and norm iterations against one restricted
    apply per root and one seed at a time, ``==`` on every field."""

    @pytest.mark.parametrize("make", [m for _, m in ORACLE_FAMILIES], ids=[i for i, _ in ORACLE_FAMILIES])
    def test_oracle_families(self, make):
        fam = make()
        for u, s in oracle_pairs(fam.mesh):
            assert_sandwich_stages_equal(u, s, exps_for(fam.mesh), fam)

    @pytest.mark.parametrize("mesh, shift", [(m, s) for _, m, s in T0_FAMILIES], ids=[i for i, _, _ in T0_FAMILIES])
    def test_no_padding(self, mesh, shift):
        fam, _ = build_sparse(lognormal(mesh, 73), shift, 0.5)
        for u, s in oracle_pairs(mesh):
            assert_sandwich_stages_equal(u, s, exps_for(mesh), fam)

    def test_zero_mass_roots(self):
        mesh = Mesh(1, 0, 6)
        fam, _ = build_sparse(lognormal(mesh, 74), (0,), 0.5)
        u, z = lognormal(mesh, 75, scale=0.7), zero_mass_weight(mesh, 76)
        direct, *_ = assert_sandwich_stages_equal(u, z, SOB, fam)
        dual, *_ = assert_sandwich_stages_equal(z, u, SOB, fam)
        assert direct.skipped_direct > 0 and dual.skipped_dual > 0

    def test_one_member(self, tight_mesh):
        one = StepFunction.constant(tight_mesh, 1.0)
        for exps in (E22, SOB):
            assert_sandwich_stages_equal(one, lognormal(tight_mesh, 77, scale=0.7), exps, single_cube(tight_mesh))

    def test_degenerate_u_leaves_at_g_step(self, tight_mesh):
        # h = I^S(f sigma) has no u-mass: every seed leaves at the first g-step
        zero = StepFunction.constant(tight_mesh, 0.0)
        fam, _ = build_sparse(lognormal(tight_mesh, 78), (0,), 0.5)
        _, strong, weak = assert_sandwich_stages_equal(zero, lognormal(tight_mesh, 79), SOB, fam)
        assert strong.degenerate and weak.degenerate

    def test_degenerate_sigma_leaves_at_f_step(self):
        # the one member, level 3 of the shifted grid, covers a third of cell 3
        # (all of sigma) and the centre of cell 4 (all of u): h2 = I^S(g u)
        # lives on cell 4, where sigma vanishes
        mesh = Mesh(1, 0, 3, coarse_padding=0)
        fam = SparseFamily(mesh, (1,), (DyadicCube((1,), 3, (4,)),))
        u, s = np.zeros(8), np.zeros(8)
        u[4], s[3] = 1.0, 1.0
        for exps in (E22, SOB):
            _, strong, _ = assert_sandwich_stages_equal(StepFunction(mesh, u), StepFunction(mesh, s), exps, fam)
            assert strong.value > 0.0 and strong.iterations == 1 and not strong.converged
            assert strong.witness_g is not None

    @pytest.mark.parametrize("rows", [1, 3])
    def test_block_edges(self, monkeypatch, rows):
        # one row a block is the layout of every mesh with 2^12 cells or more
        mesh = Mesh(1, 0, 5)
        fam, _ = build_sparse(lognormal(mesh, 80), (0,), 0.5)
        pairs = oracle_pairs(mesh)
        monkeypatch.setattr(mesh_module, "_FRAME_BLOCK", 2 * rows * mesh.total_cells)
        assert len(fam) + 1 + 8 > 3 and len(fam.roots) > 3
        for u, s in pairs:
            for seed in range(2):
                assert_sandwich_stages_equal(u, s, SOB, fam, seed)

    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_iteration_cap(self, monkeypatch, cap):
        # rows that reach the cap leave unconverged, mid-block
        mesh = Mesh(1, 0, 6)
        fam, _ = build_sparse(lognormal(mesh, 86), (0,), 0.5)
        monkeypatch.setattr(normest, "_MAX_ITERS", cap)
        for u, s in oracle_pairs(mesh):
            _, strong, _ = assert_sandwich_stages_equal(u, s, SOB, fam)
            assert strong.iterations == cap and not strong.converged

    @pytest.mark.parametrize("winner", ["f-step", "converged", "cap"])
    def test_mixed_exit_block(self, monkeypatch, winner):
        # one seed block of a 1-D L=5 shifted grid holds rows of all four
        # exits.  A finest member covers a third of cell k - 1 and the rest
        # of cell k, and paints cell k: with sigma on cell 1 and no u there,
        # chi[5,(1,)] and e_1 leave at the first g-step; with sigma on cell 4
        # alone and u on cell 5, e_4 leaves at the first f-step; weights on
        # cell 8 alone make chi[5,(8,)] and e_8 converge at the second step;
        # on cells 15 and 17 three members act as a symmetric 2 x 2 operator,
        # so its seeds and the global ones stop at the cap of 3.  Scaling u
        # on each region in turn makes the f-step leaver, a converged row
        # and a capped row win; a g-step leaver re-evaluates to 0 and never
        # wins.  The small sigma on cell 4 keeps the f-step leaver's region
        # from lowering the objective of the global seeds.
        mesh, sh, cap = Mesh(1, 0, 5, coarse_padding=0), (1,), 3
        fam = SparseFamily(mesh, sh, tuple(DyadicCube(sh, k, (c,)) for k, c in
                                           ((5, 1), (5, 5), (5, 8), (3, 4), (4, 7), (4, 8))))
        scale = {"f-step": (100.0, 1.0, 1.0), "converged": (1.0, 100.0, 1.0), "cap": (1.0, 1.0, 100.0)}[winner]
        u, s = np.zeros(32), np.zeros(32)
        s[1] = 1.0
        s[4], u[5] = 1e-4, scale[0] / 1e-4
        s[8], u[8] = 1.0, scale[1]
        s[[15, 17]], u[[15, 17]] = (1.0, 2.0), (scale[2], 0.5 * scale[2])
        u, s = StepFunction(mesh, u), StepFunction(mesh, s)
        extra = [(f"e{i}", StepFunction(mesh, np.eye(32)[i])) for i in (1, 4, 8)]
        h = sparse_riesz(StepFunction(mesh, extra[0][1].values * s.values), E22.alpha, fam)
        assert not np.any(h.values * u.values)
        monkeypatch.setattr(normest, "_MAX_ITERS", cap)
        got = strong_norm_lower(u, s, E22, fam, extra_seeds=extra)
        assert_same_estimate(got, per_seed_strong_norm_lower(u, s, E22, fam, extra_seeds=extra))
        assert len(fam) + 1 + 8 + len(extra) <= mesh_module._block_rows(2 * mesh.total_cells)
        label, its, converged = {"f-step": ("e4", 1, False), "converged": ("chi[5,(8,)]", 2, True),
                                 "cap": ("random-7", cap, False)}[winner]
        assert (got.seed_label, got.iterations, got.converged) == (label, its, converged)
        assert got.witness_g is not None

    def test_block_edges_2d(self, monkeypatch):
        mesh = Mesh(2, 0, 3)
        fam, _ = build_sparse(lognormal(mesh, 82, scale=2.0), (0, 0), 0.5)
        monkeypatch.setattr(mesh_module, "_FRAME_BLOCK", 4 * mesh.total_cells)
        assert len(fam) > 2 and len(fam.roots) > 2
        for u, s in oracle_pairs(mesh):
            assert_sandwich_stages_equal(u, s, exps_for(mesh), fam)


class TestRowBlocks:
    def test_identical_rows_equal_single_apply(self):
        # the seed block of the default 1-D L=5 sandwich holds chi[-40,(0,)]
        # and chi[-38,(0,)]: both cubes cover the box, so their rows are
        # identical, and each must give a single apply's values and norm
        mesh = Mesh(1, 0, 5)
        f = StepFunction(mesh, np.exp(np.random.default_rng(0).standard_normal(mesh.cells_per_axis)))
        fam, _ = build_sparse(f, (0,), SOB.alpha)
        u, s = lognormal(mesh, 82, scale=0.7), lognormal(mesh, 83, scale=0.7)
        [(_, labels, F, *_)] = normest._seed_blocks([(u, s)], SOB, fam, 0, [()])
        assert labels[:2] == ["chi[-40,(0,)]", "chi[-38,(0,)]"] and np.array_equal(F[0], F[1])
        X = F * s.values
        H = _forest_paint(_member_weights(member_integrals(X, fam), SOB.alpha, fam), fam)
        assert H.flags.c_contiguous
        norms = normest._norm_rows(H, u.values, SOB.q, mesh.cell_volume)
        for row, h, norm in zip(X, H, norms):
            single = sparse_riesz(StepFunction(mesh, row), SOB.alpha, fam).values
            assert np.array_equal(h, single) and np.array_equal(np.signbit(h), np.signbit(single))
            assert norm == lp_norm_weighted(single, u.values, SOB.q, mesh.cell_volume)

    @pytest.mark.parametrize("mesh", [Mesh(1, 1, 4), Mesh(2, 0, 3)], ids=["n1J1", "n2"])
    def test_rows_equal_single_applies(self, mesh):
        fam, _ = build_sparse(lognormal(mesh, 84), (1,) * mesh.n, 0.5)
        X = np.stack([lognormal(mesh, 85 + i).values for i in range(5)])
        X[2] = 0.0
        H = _forest_paint(_member_weights(member_integrals(X, fam), 0.5, fam), fam)
        for row, h in zip(X, H):
            single = sparse_riesz(StepFunction(mesh, row), 0.5, fam).values
            assert np.array_equal(h, single) and np.array_equal(np.signbit(h), np.signbit(single))


# ---------------------------------------------------------------------------
# Oracles for the batched sandwich work: the parent's per-pair theorem checks
# and its run-by-run testing scan, copied here.


def parent_testing_sup(den_w, out_w, family, alpha, den_exp, out_exp):
    """The testing scan with its blocks of roots taken run by run, each
    root's centre window copied into a zero full-frame row."""
    mesh, t, roots = family.mesh, family.forest, family.roots
    table = mesh.level_table(family.shift)
    normest._check_alpha(mesh, alpha)
    dens = den_w.integral_box3(table.lo3[roots], table.hi3[roots])
    live = np.flatnonzero(~(dens <= 0.0))
    w = normest._member_weights(den_w.plan_integrals(family.plan), alpha, family)
    cut = np.searchsorted(t.level, table.level[roots[live]])
    starts = np.flatnonzero(np.diff(cut, prepend=-1))
    runs = list(zip(starts.tolist(), [*starts[1:].tolist(), len(live)]))
    rows = max(1, mesh_module._FRAME_BLOCK // mesh.total_cells)
    best, witness = 0.0, None
    for r in range(0, len(runs), rows):
        W = np.where(np.arange(len(w)) >= cut[starts[r : r + rows], None], w, 0.0)
        fields = normest._checked(normest._forest_paint(W, family))
        for (a, b), terms in zip(runs[r : r + rows], fields**out_exp * out_w.values):
            for c in range(a, b, rows):
                idx = live[c : min(c + rows, b)]
                i0, i1 = mesh.center_window(table.lo3[roots[idx]], table.hi3[roots[idx]])
                X = np.zeros((len(idx), *terms.shape))
                for j, (lo, hi) in enumerate(zip(i0.tolist(), i1.tolist())):
                    win = tuple(map(slice, lo, hi))
                    X[(j, *win)] = terms[win]
                nums = np.sum(X.reshape(len(idx), -1), axis=1) * mesh.cell_volume
                for i, num, den in zip(idx.tolist(), nums.tolist(), dens[idx].tolist()):
                    val = num ** (1.0 / out_exp) / den ** (1.0 / den_exp)
                    if val > best:
                        best, witness = val, i
    if witness is not None:
        level, coord = int(table.level[roots[witness]]), tuple(table.coords[roots[witness]].tolist())
        witness = DyadicCube(family.shift, level, coord)
    return best, witness, len(dens) - len(live)


def parent_bump_constants(u, sigma, exps, pairs):
    """``weights.bump_constants`` of one weight pair: two blocks per (Phi, Psi)."""
    e = exps.alpha / exps.n + 1.0 / exps.q - 1.0 / exps.p
    uroot = u.map(lambda v: v ** (1.0 / exps.q))
    sroot = sigma.map(lambda v: v ** (1.0 / exps.p_prime))
    c = u.mesh.corpus
    blocks = [block for phi, psi in pairs for block in ((uroot, phi), (sroot, psi))]
    norms = _luxemburg_blocks(blocks, c.lo3, c.hi3, c.starts)
    size = weights._size_powers(u.mesh, exps.n, e)
    return [weights._supremum_report("bump", u.mesh, size * nu * ns) for nu, ns in zip(norms[::2], norms[1::2])]


def parent_thm41_check(u, sigma, exps, testing, bump_kind="log", delta=1.0):
    if bump_kind not in ("log", "loglog"):
        raise ValueError("bump_kind must be 'log' or 'loglog'")
    flags = weights.range_conditions(exps)
    if exps.p >= exps.q or not flags.weak:
        raise RangeConditionError(
            f"range condition fails: need p < q and (p'/q')(1-alpha/n) >= 1, "
            f"got p={exps.p}, q={exps.q}, alpha={exps.alpha}"
        )
    make = YoungFunction.log_bump if bump_kind == "log" else YoungFunction.loglog_bump
    pairs = [(make(exps.q, delta), YoungFunction.power(exps.p_prime))]
    if (exps.q / exps.p) * (1.0 - exps.alpha / exps.n) >= 1.0:
        pairs.append((YoungFunction.power(exps.q), make(exps.p_prime, delta)))

    def ratio(test_val, k):
        if not np.isfinite(k.value) or k.value <= 0.0:
            return normest.BoundRatio(None, test_val, math.inf, {"K": k.value})
        return normest.BoundRatio(test_val / k.value, test_val, k.value, {"K": k.value})

    k = parent_bump_constants(u, sigma, exps, pairs)
    return ratio(testing.dual, k[0]), (ratio(testing.direct, k[1]) if len(k) > 1 else None)


def parent_thm31_check(u, sigma, exps, testing, fw_max_level=None):
    if not exps.sobolev:
        raise RangeConditionError("mixed bound requires the Sobolev exponent relation")

    def one(test_val, tw, fw, e1, e2):
        comps = {"twoWeight": tw.value, "fujiiWilson": fw.value}
        if not (np.isfinite(tw.value) and np.isfinite(fw.value)) or tw.value <= 0 or fw.value <= 0:
            return normest.BoundRatio(None, test_val, math.inf, comps)
        bound = tw.value**e1 * fw.value**e2
        return normest.BoundRatio(test_val / bound, test_val, bound, comps)

    return (one(testing.dual, weights.two_weight_ap(u, sigma, exps.s_p),
                weights.fujii_wilson(u, max_level=fw_max_level), 1.0 / exps.q, 1.0 / exps.p_prime),
            one(testing.direct, weights.two_weight_ap(sigma, u, exps.s_qprime),
                weights.fujii_wilson(sigma, max_level=fw_max_level), 1.0 / exps.p_prime, 1.0 / exps.q))


def theorem_items(mesh, count):
    """``count`` (u, sigma, testing) items: lognormal weights, a weight
    vanishing on half the box (an infinite constant), a constant, and the
    first lognormal again as a later sigma (one object in two pairs)."""
    ws = [lognormal(mesh, 90, scale=0.7), zero_mass_weight(mesh, 91), StepFunction.constant(mesh, 2.0),
          lognormal(mesh, 92, scale=0.7), lognormal(mesh, 93, scale=1.5)]
    pairs = [(ws[i % 5], ws[(i + 1) % 5]) for i in range(count)]
    return [(u, s, types.SimpleNamespace(dual=1.5 + i, direct=2.5 / (1 + i))) for i, (u, s) in enumerate(pairs)]


def mesh_id(m):
    return f"n{m.n}-J{m.base_exponent}-L{m.finest_exponent}-T{m.coarse_padding}"


class TestBatchedTheoremChecks:
    """``thm41_bound_checks``/``thm31_bound_checks`` over many pairs against
    the parent's one call per pair, ``==`` on every ratio."""

    @pytest.mark.parametrize("split", [True, False], ids=["segments-over-budget", "default-budget"])
    @pytest.mark.parametrize("mesh", CORPUS_MESHES, ids=mesh_id)
    def test_thm41_matches_one_parent_call_per_pair(self, mesh, split, monkeypatch):
        if split:
            # the median level's cells: the larger levels run alone, once
            # per block, and the others are packed
            c = mesh.corpus
            cells = sorted(orlicz._box_window(mesh, c.lo3[a:b], c.hi3[a:b])[3].prod(axis=1).sum()
                           for a, b in zip(c.starts, c.ends))
            budget = int(cells[len(cells) // 2])
            assert budget < cells[-1]
            monkeypatch.setattr(orlicz, "_LUX_BATCH_CELLS", budget)
        # Sobolev: both range conditions hold; the second tuple fails the
        # direct one, so only the dual constant is computed
        for exps, direct in ((sobolev_pair(mesh.n, 0.5 * mesh.n, 4.0 / 3.0), True),
                             (ExponentTuple(mesh.n, 0.3 * mesh.n, 1.2, 1.5), False)):
            for kind in ("log", "loglog"):
                for count in (1, 6):
                    items = theorem_items(mesh, count)
                    got = normest.thm41_bound_checks(items, exps, kind, 0.5)
                    expect = [parent_thm41_check(u, s, exps, t, kind, 0.5) for u, s, t in items]
                    assert got == expect
                    assert all((d is not None) == direct for _, d in got)

    def test_pair_counts_on_one_mesh(self):
        mesh = Mesh(1, 0, 5)
        for count in range(1, 7):
            items = theorem_items(mesh, count)
            assert normest.thm41_bound_checks(items, SOB) == [parent_thm41_check(u, s, SOB, t)
                                                              for u, s, t in items]

    def test_range_refusal_text(self):
        mesh = Mesh(1, 0, 4)
        items = theorem_items(mesh, 3)
        for exps in (E22, ExponentTuple(1, 0.9, 1.2, 1.5)):
            with pytest.raises(RangeConditionError) as expect:
                parent_thm41_check(*items[0][:2], exps, items[0][2])
            with pytest.raises(RangeConditionError) as got:
                normest.thm41_bound_checks(items, exps)
            assert str(got.value) == str(expect.value)
        with pytest.raises(ValueError, match="bump_kind"):
            normest.thm41_bound_checks(items, SOB, "cubic")

    def test_no_items(self):
        assert normest.thm41_bound_checks([], SOB) == [] and normest.thm31_bound_checks([], SOB) == []

    @pytest.mark.parametrize("mesh", CORPUS_MESHES, ids=mesh_id)
    def test_thm31_matches_one_parent_call_per_pair(self, mesh, monkeypatch):
        exps = sobolev_pair(mesh.n, 0.5 * mesh.n, 4.0 / 3.0)
        items = theorem_items(mesh, 6)
        expect = [parent_thm31_check(u, s, exps, t, 1) for u, s, t in items]
        seen, fujii_wilsons = [], weights.fujii_wilsons
        monkeypatch.setattr(normest, "fujii_wilsons", lambda ws, **kw: seen.append(ws) or fujii_wilsons(ws, **kw))
        assert normest.thm31_bound_checks(items, exps, 1) == expect
        # six pairs over five weights: one batched scan of the five
        [ws] = seen
        assert len(ws) == len(set(map(id, ws))) == 5

    def test_five_pair_sandwich_makes_two_bisection_calls(self, tmp_path, monkeypatch):
        # each block meets 378 cells of the 1-D L=5 corpus: one block per
        # distinct u (five) and sigma (four: constant:c=1 is the sigma of two
        # pairs) under each of two (Phi, Psi), eighteen blocks, fill two
        # calls of at most 2^12 cells, where one call per pair made five
        calls, kernel = [], _kernels.luxemburg_batch
        monkeypatch.setattr(_kernels, "luxemburg_batch", lambda *a: calls.append(a) or kernel(*a))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"pairs": [list(p) for p in calibration.corpus_pairs()], "fw_max_level": 1}))
        code = cli.main(["sandwich", "--mesh", "n=1,J=0,L=5", "--config", str(config), "--out", str(tmp_path)])
        assert code == 0 and len(calls) == 2
        assert sum(len(a[3]) for a in calls) == (5 + 4) * 2 * len(Mesh(1, 0, 5).corpus.level)

    def test_five_pair_sandwich_bisection_rounds(self, tmp_path, monkeypatch):
        # each round evaluates every run of Young functions once; certified
        # groups leave about 11 of the 44 rounds that evaluate everything
        evals, rounds = [0], []
        young, kernel = _kernels.young_eval_np, _kernels.luxemburg_batch

        def counting_young(*a):
            evals[0] += 1
            return young(*a)

        def counting_kernel(vals, wts, indptr, vols, runs, starts):
            evals[0] = 0
            out = kernel(vals, wts, indptr, vols, runs, starts)
            rounds.append(evals[0] / len(runs))
            return out

        monkeypatch.setattr(_kernels, "young_eval_np", counting_young)
        monkeypatch.setattr(_kernels, "luxemburg_batch", counting_kernel)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"pairs": [list(p) for p in calibration.corpus_pairs()], "fw_max_level": 1}))
        code = cli.main(["sandwich", "--mesh", "n=1,J=0,L=5", "--config", str(config), "--out", str(tmp_path)])
        assert code == 0 and len(rounds) == 2
        assert all(r == int(r) and r <= 16 for r in rounds), rounds


class TestTestingScanOracle:
    """``_testing_sups`` of one item against the parent's run-by-run scan,
    ``==`` on the value, witness and skip count, both sides."""

    @staticmethod
    def assert_both_sides(u, s, exps, fam):
        for args in ((s, u, fam, exps.alpha, exps.p, exps.q),
                     (u, s, fam, exps.alpha, exps.q_prime, exps.p_prime)):
            assert normest._testing_sups([args[:2]], *args[2:]) == [parent_testing_sup(*args)]

    @pytest.mark.parametrize("make", [m for _, m in ORACLE_FAMILIES], ids=[i for i, _ in ORACLE_FAMILIES])
    def test_oracle_families(self, make):
        fam = make()
        for u, s in oracle_pairs(fam.mesh):
            self.assert_both_sides(u, s, exps_for(fam.mesh), fam)

    def test_one_row_blocks(self):
        # the smallest 1-D mesh on which every block holds one root
        mesh = next(Mesh(1, 0, L) for L in range(21) if mesh_module._block_rows(2 << L) == 1)
        assert mesh_module._block_rows(2 * mesh.total_cells) == 1
        fam, _ = build_sparse(lognormal(mesh, 94), (0,), 0.5)
        u, z = lognormal(mesh, 95, scale=0.7), zero_mass_weight(mesh, 96)
        for s in (lognormal(mesh, 97, scale=0.7), z):
            self.assert_both_sides(u, s, SOB, fam)

    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_block_edges(self, monkeypatch, rows):
        mesh = Mesh(1, 0, 5)
        fam, _ = build_sparse(lognormal(mesh, 80), (0,), 0.5)
        monkeypatch.setattr(mesh_module, "_FRAME_BLOCK", 2 * rows * mesh.total_cells)
        for u, s in oracle_pairs(mesh):
            self.assert_both_sides(u, s, SOB, fam)

    def test_zero_mass_roots(self):
        mesh = Mesh(1, 0, 6)
        fam, _ = build_sparse(lognormal(mesh, 74), (0,), 0.5)
        u, z = lognormal(mesh, 75, scale=0.7), zero_mass_weight(mesh, 76)
        for a, b in ((u, z), (z, u)):
            self.assert_both_sides(a, b, SOB, fam)
        assert normest._testing_sups([(z, u)], fam, 0.5, SOB.p, SOB.q)[0][2] > 0


# ---------------------------------------------------------------------------
# Oracles for the pair-batched sandwich stages: the parent's one-pair testing
# scan, norm iterations and weak-Lorentz scan, copied here.


def pair_weak_lorentz(hv, uv, q):
    """The weak-Lorentz scan of one flat row, a Python float pow per run end."""
    order = np.argsort(hv)[::-1]
    hs, us = hv[order], uv[order]
    cum = np.cumsum(us)
    ends = np.append(np.flatnonzero(np.diff(hs)), len(hs) - 1)
    ends = ends[hs[ends] > 0.0]
    return max((v * c ** (1.0 / q) for v, c in zip(hs[ends].tolist(), cum[ends].tolist())), default=0.0)


def pair_testing_sup(den_w, out_w, family, alpha, den_exp, out_exp):
    """The testing scan of one pair: blocks of cut fields of its runs, and
    each root's centre window copied into a zero full-frame row."""
    mesh, t, roots = family.mesh, family.forest, family.roots
    table = mesh.level_table(family.shift)
    normest._check_alpha(mesh, alpha)
    lo3, hi3 = table.lo3[roots], table.hi3[roots]
    dens = den_w.integral_box3(lo3, hi3)
    live = np.flatnonzero(~(dens <= 0.0))
    w = normest._member_weights(den_w.plan_integrals(family.plan), alpha, family)
    cut = np.searchsorted(t.level, table.level[roots[live]])
    new_run = np.diff(cut, prepend=-1) != 0
    starts, run = np.flatnonzero(new_run), np.cumsum(new_run) - 1
    rows = max(1, mesh_module._FRAME_BLOCK // mesh.total_cells)
    best, witness = 0.0, None
    for r in range(0, len(starts), rows):
        W = np.where(np.arange(len(w)) >= cut[starts[r : r + rows], None], w, 0.0)
        terms = normest._checked(normest._forest_paint(W, family)) ** out_exp * out_w.values
        end = starts[r + rows] if r + rows < len(starts) else len(live)
        for c in range(starts[r], end, rows):
            idx = live[c : min(c + rows, end)]
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


def pair_dyadic_testing(u, sigma, exps, family):
    direct, wd, sd = pair_testing_sup(sigma, u, family, exps.alpha, exps.p, exps.q)
    dual, wu, su = pair_testing_sup(u, sigma, family, exps.alpha, exps.q_prime, exps.p_prime)
    return normest.TestingReport(direct, dual, wd, wu, sd, su)


def pair_seed_blocks(mesh, sigma, exps, family, rng_seed, extra_seeds):
    """One pair's seeds a block at a time: (labels, nonnegative parts)."""
    t = family.forest
    coords = mesh.level_table(family.shift).coords[family.positions].tolist()
    seeds = []
    for a in range(len(family)):
        mask = _center_mask(mesh, t.lo3[a], t.hi3[a])
        seeds.append((f"chi[{t.level[a]},{tuple(coords[a])}]", mask))
    with np.errstate(divide="ignore", invalid="ignore"):
        prof = np.where(sigma.values > 0.0, sigma.values ** (exps.p_prime - 1.0), 0.0)
    seeds.append(("sigma-profile", StepFunction(mesh, prof).values))
    rng = np.random.default_rng(rng_seed)
    seeds += [(f"random-{i}", rng.random((mesh.cells_per_axis,) * mesh.n)) for i in range(normest._N_RANDOM)]
    seeds += [(label, f.values) for label, f in extra_seeds]
    rows = max(1, mesh_module._FRAME_BLOCK // mesh.total_cells)
    for a in range(0, len(seeds), rows):
        labels, values = zip(*seeds[a : a + rows])
        yield list(labels), np.maximum(np.stack(values), 0.0)


def pair_strong_norm_lower(u, sigma, exps, family, rng_seed=0, extra_seeds=()):
    """The strong iteration of one pair, its seeds in blocks of rows."""
    mesh = u.mesh
    vol = mesh.cell_volume
    uv, sv = u.values, sigma.values
    p, q, pp = exps.p, exps.q, exps.p_prime

    def T(X):
        return normest._apply_rows(X, exps.alpha, family)

    col = normest._column
    best = NormEstimate(0.0, None, None, 0, "none", False, True)
    for labels, F in pair_seed_blocks(mesh, sigma, exps, family, rng_seed, extra_seeds):
        nf = normest._norm_rows(F, sv, p, vol)
        keep = [i for i, v in enumerate(nf) if not v <= 0.0]
        if not keep:
            continue
        F = F[keep] / col([nf[i] for i in keep], mesh.n)
        G = np.zeros_like(F)
        its, value = np.zeros(len(F), dtype=int), np.zeros(len(F))
        has_g, converged = np.zeros(len(F), dtype=bool), np.zeros(len(F), dtype=bool)
        live = np.arange(len(F))
        for it in range(1, normest._MAX_ITERS + 1):
            if not len(live):
                break
            its[live] = it
            live, H, new = normest._half_step(T(F[live] * sv), uv, q, vol, value[live], live,
                                              "alternating objective decreased (g-step)")
            if not len(live):
                break
            g = (H / col(new, mesh.n)) ** (q - 1.0)
            G[live], has_g[live] = g, True
            live, H, nh2 = normest._half_step(T(g * uv), sv, pp, vol, new, live,
                                              "alternating objective decreased (f-step)")
            with np.errstate(divide="ignore", invalid="ignore"):
                F[live] = np.where(H > 0.0, (H / col(nh2, mesh.n)) ** (pp - 1.0), 0.0)
            converged[live] = np.abs(nh2 - value[live]) / np.maximum(nh2, 1e-300) < normest._REL_TOL
            value[live] = nh2
            live = live[~converged[live]]
        rows = zip(normest._norm_rows(T(F * sv), uv, q, vol), its.tolist(), has_g.tolist(), converged.tolist())
        for i, (v, n, with_g, done) in enumerate(rows):
            if v > best.value:
                g = StepFunction(mesh, G[i].copy()) if with_g else None
                best = NormEstimate(v, StepFunction(mesh, F[i].copy()), g, n, labels[keep[i]], done, False)
    return best


def pair_weak_norm_lower(u, sigma, exps, family, strong, rng_seed=0, extra_seeds=()):
    """The weak scan of one pair, one weak-Lorentz scan per row."""
    mesh = u.mesh
    vol = mesh.cell_volume
    uv, sv = u.values, sigma.values
    umass = uv.ravel() * vol
    extra = [*extra_seeds, *([("strong-witness", strong.witness_f)] if strong.witness_f is not None else [])]
    best = NormEstimate(0.0, None, None, 0, "none", True, True)
    for labels, F in pair_seed_blocks(mesh, sigma, exps, family, rng_seed, extra):
        nf = normest._norm_rows(F, sv, exps.p, vol)
        keep = [i for i, v in enumerate(nf) if not v <= 0.0]
        if not keep:
            continue
        X = F[keep] * sv / normest._column([nf[i] for i in keep], mesh.n)
        H = normest._apply_rows(X, exps.alpha, family)
        for h, s, i in zip(H, normest._norm_rows(H, uv, exps.q, vol), keep):
            wk = pair_weak_lorentz(h.ravel(), umass, exps.q)
            if wk > s * (1.0 + 1e-12):
                raise AssertionError("weak functional exceeded strong at the same witness")
            if wk > best.value:
                best = NormEstimate(wk, StepFunction(mesh, F[i] / nf[i]), None, 1, labels[i], True, False)
    return best


def corpus_weights(mesh):
    """The calibration corpus pairs as weight pairs, one object per spec."""
    specs = calibration.corpus_pairs()
    ws = {spec: weights.generate_weight(mesh, spec) for pair in specs for spec in pair}
    return [(ws[u], ws[s]) for u, s in specs]


# name: (mesh, count of oracle pairs, count of corpus pairs)
PAIR_BATCH_MESHES = {"n1-L5-corpus": (Mesh(1, 0, 5), 0, 5), "n2-J1-L2": (Mesh(2, 1, 2), 2, 2),
                     "n1-J1-L4-T0": (Mesh(1, 1, 4, coarse_padding=0), 2, 5)}


def pair_batch_case(name):
    mesh, oracle, corpus = PAIR_BATCH_MESHES[name]
    return mesh, oracle_pairs(mesh)[:oracle] + corpus_weights(mesh)[:corpus]


class TestPairBatchOracle:
    """The pair-batched stages against one parent call per pair, ``==`` on
    every field: testing, strong and weak estimates (with the testing
    witnesses as extra seeds, as ``lsut_sandwiches`` runs them) and the
    sandwich ratios."""

    @staticmethod
    def assert_pairs_equal(pairs, exps, fam, rng_seed=0):
        testings = normest.dyadic_testings(pairs, exps, fam)
        assert testings == [pair_dyadic_testing(u, s, exps, fam) for u, s in pairs]
        extra = [witness_indicator_seeds(u, s, exps, fam) for u, s in pairs]
        strongs = normest.strong_norm_lowers(pairs, exps, fam, rng_seed, extra)
        for got, (u, s), x in zip(strongs, pairs, extra):
            assert_same_estimate(got, pair_strong_norm_lower(u, s, exps, fam, rng_seed, x))
        weaks = normest.weak_norm_lowers(pairs, exps, fam, strongs, rng_seed, extra)
        for got, (u, s), x, st in zip(weaks, pairs, extra, strongs):
            assert_same_estimate(got, pair_weak_norm_lower(u, s, exps, fam, st, rng_seed, x))
        for sw, testing, strong, weak in zip(normest.lsut_sandwiches(pairs, exps, fam, rng_seed),
                                             testings, strongs, weaks):
            assert sw.testing == testing
            assert_same_estimate(sw.strong, strong)
            assert_same_estimate(sw.weak, weak)
        return strongs

    @pytest.mark.parametrize("case", list(PAIR_BATCH_MESHES))
    def test_pairs_on_one_family(self, case):
        mesh, pairs = pair_batch_case(case)
        fam, _ = build_sparse(lognormal(mesh, 100), (0,) * mesh.n, 0.5)
        for seed in range(2):
            self.assert_pairs_equal(pairs, exps_for(mesh), fam, seed)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_blocks_across_pairs(self, monkeypatch, rows):
        # blocks of one and three rows: seed blocks and paint blocks that
        # straddle the pairs
        mesh, pairs = pair_batch_case("n1-L5-corpus")
        fam, _ = build_sparse(lognormal(mesh, 101), (0,), 0.5)
        monkeypatch.setattr(mesh_module, "_FRAME_BLOCK", 2 * rows * mesh.total_cells)
        self.assert_pairs_equal(pairs, SOB, fam)

    def test_one_run_per_pair(self, tight_mesh):
        # one member: every pair's live roots form one run with the same
        # cut, so only the pair boundary starts a new cut field
        one = StepFunction.constant(tight_mesh, 1.0)
        pairs = [(one, lognormal(tight_mesh, 105, scale=0.7)), (lognormal(tight_mesh, 106), one),
                 (lognormal(tight_mesh, 107), lognormal(tight_mesh, 108, scale=2.0))]
        for exps in (E22, SOB):
            self.assert_pairs_equal(pairs, exps, single_cube(tight_mesh))

    def test_shifted_family_raises(self):
        # on a shifted grid the parent's strong iteration raises for a pair,
        # and so does the batch wherever that pair sits; which half-step
        # fails first depends on the rows a block holds, so only the text
        # that ``TestSandwichStagesOracle`` pins is compared
        mesh = Mesh(1, 1, 6)
        fam, _ = build_sparse(lognormal(mesh, 102), (1,), 0.5)
        bad = [weights.generate_weight(mesh, f"martingale:seed={k},vol=0.5") for k in (5, 6)]
        with pytest.raises(AssertionError, match="alternating objective decreased"):
            pair_strong_norm_lower(*bad, SOB, fam)
        one = StepFunction.constant(mesh, 1.0)
        for pairs in ([tuple(bad)], [(one, one), tuple(bad)], [tuple(bad), (one, one)]):
            with pytest.raises(AssertionError, match="alternating objective decreased"):
                normest.strong_norm_lowers(pairs, SOB, fam)

    def test_no_pairs(self):
        fam, _ = build_sparse(lognormal(Mesh(1, 0, 4), 103), (0,), 0.5)
        assert normest.dyadic_testings([], SOB, fam) == []
        assert normest.strong_norm_lowers([], SOB, fam) == []
        assert normest.weak_norm_lowers([], SOB, fam, []) == []
        assert normest.lsut_sandwiches([], SOB, fam) == []

    @pytest.mark.parametrize("mesh", [Mesh(1, 0, 6), Mesh(2, 0, 3)], ids=["n1", "n2"])
    @pytest.mark.parametrize("q", [1.5, 4.0, 33.0])
    def test_weak_lorentz_rows(self, mesh, q):
        # rows with ties, one value, signed zeros, all zeros, and zero u cells
        cases = list(lorentz_cases(mesh))
        H = np.stack([h.values.ravel() for h, _ in cases])
        U = np.stack([u.values.ravel() * mesh.cell_volume for _, u in cases])
        U[::2, ::3] = 0.0
        got = normest._weak_lorentz(H, U, q)
        expect = [pair_weak_lorentz(h, u, q) for h, u in zip(H, U)]
        assert got == expect
        assert [math.copysign(1.0, v) for v in got] == [math.copysign(1.0, v) for v in expect]

    def test_weak_lorentz_many_rows(self):
        # the max lands on a last-bit difference of an array pow now and then
        rng = np.random.default_rng(104)
        for q in rng.uniform(1.1, 40.0, 20).tolist():
            H, U = np.exp(rng.standard_normal((2, 15, 32)))
            H[:5] = np.round(H[:5], 1)
            assert normest._weak_lorentz(H, U, q) == [pair_weak_lorentz(h, u, q) for h, u in zip(H, U)]
