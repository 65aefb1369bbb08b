import math

import numpy as np
import pytest

from rieszw.mesh import DyadicCube, Mesh, StepFunction
from rieszw.normest import (
    RangeConditionError,
    dyadic_testing,
    lsut_sandwich,
    sawyer_testing,
    strong_norm_lower,
    thm31_bound_check,
    thm41_bound_check,
    weak_lorentz_norm,
    weak_norm_lower,
)
from rieszw.normest import _candidate_roots
from rieszw.operators import KernelMode
from rieszw.orlicz import YoungFunction
from rieszw.sparse import SparseFamily, build_sparse
from rieszw.weights import ExponentTuple

from conftest import lognormal
from test_sparse import ORACLE_FAMILIES, _ancestor_at

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
        assert _candidate_roots(family) == oracle_candidate_roots(family)


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
        est = weak_norm_lower(one, one, E22, single_cube(tight_mesh))
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
        dual, direct = thm31_bound_check(one, one, SOB, dyadic_testing(one, one, SOB, single_cube(tight_mesh)))
        assert dual.ratio == pytest.approx(1.0, rel=1e-9)
        assert direct.ratio == pytest.approx(1.0, rel=1e-9)

    def test_thm31_needs_sobolev(self, tight_mesh):
        one = StepFunction.constant(tight_mesh, 1.0)
        with pytest.raises(ValueError):
            e23 = ExponentTuple(1, 0.5, 2.0, 3.0)
            thm31_bound_check(one, one, e23, dyadic_testing(one, one, e23, single_cube(tight_mesh)))

    def test_thm41_constant_weights_closed_form(self, tight_mesh):
        one = StepFunction.constant(tight_mesh, 1.0)
        dual, direct = thm41_bound_check(one, one, SOB, dyadic_testing(one, one, SOB, single_cube(tight_mesh)))
        phi = YoungFunction.log_bump(SOB.q, 1.0)
        # testing = 1 and K = 1/phi^{-1}(1), so the ratio is phi^{-1}(1)
        assert dual.ratio == pytest.approx(phi.inverse(1.0), rel=1e-9)
        assert direct is not None

    def test_thm41_range_refusal(self, tight_mesh):
        one = StepFunction.constant(tight_mesh, 1.0)
        with pytest.raises(RangeConditionError):
            thm41_bound_check(one, one, E22, dyadic_testing(one, one, E22, single_cube(tight_mesh)))

    def test_thm41_loglog_kind(self, tight_mesh):
        one = StepFunction.constant(tight_mesh, 1.0)
        testing = dyadic_testing(one, one, SOB, single_cube(tight_mesh))
        dual, _ = thm41_bound_check(one, one, SOB, testing, "loglog", 1.0)
        phi = YoungFunction.loglog_bump(SOB.q, 1.0)
        assert dual.ratio == pytest.approx(phi.inverse(1.0), rel=1e-9)
