import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rieszw.mesh import DyadicCube, Mesh, StepFunction
from rieszw.orlicz import (
    LuxemburgError,
    YoungFunction,
    bp_check,
    crv_gap_check,
    generalized_holder,
    luxemburg_norm,
    luxemburg_norms,
    orlicz_maximal,
)
from rieszw.weights import in_box_cubes

from conftest import lognormal

ROOT = DyadicCube((0,), 0, (0,))


def lp_average_oracle(f: StepFunction, cube: DyadicCube, p: float) -> float:
    """(avg_Q f^p)^{1/p} by a direct thirds-resolution sum (no prefix
    cancellation, so the oracle is accurate to machine precision)."""
    mesh = f.mesh
    lo3, hi3 = cube.bounds3(mesh.finest_exponent)
    fine = np.repeat(f.values**p, 3)
    a, b = max(lo3[0], 0), min(hi3[0], fine.size)
    total = float(fine[a:b].sum()) * mesh.cell_width / 3.0
    return (total / cube.volume) ** (1.0 / p)


class TestYoungEvaluation:
    def test_power(self):
        assert YoungFunction.power(2.0)(3.0) == pytest.approx(9.0)

    def test_log_bump_at_zero_and_one(self):
        phi = YoungFunction.log_bump(2.0, 1.0)
        assert phi(0.0) == 0.0
        assert phi(1.0) == pytest.approx(math.log(math.e + 1.0) ** 2, rel=1e-12)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            YoungFunction.power(1.0)
        with pytest.raises(ValueError):
            YoungFunction.log_bump(2.0, 0.0)

    def test_inverse_roundtrip(self):
        for phi in (
            YoungFunction.power(3.0, 2.0),
            YoungFunction.log_bump(4.0, 1.0),
            YoungFunction.loglog_bump(2.5, 0.5),
            YoungFunction.dual_log_bump(1.5, 1.0),
        ):
            for y in (1e-4, 1.0, 37.0, 1e6):
                t = phi.inverse(y)
                assert float(phi(t)) == pytest.approx(y, rel=1e-9)

    @given(st.floats(1.2, 6.0), st.floats(0.1, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_young_axioms(self, p, delta):
        YoungFunction.log_bump(p, delta).check_young()
        YoungFunction.loglog_bump(p, delta).check_young()


class TestAssociates:
    def test_power_associate_exact(self):
        # conj of t^2 is t^2/4
        dual = YoungFunction.power(2.0).associate()
        for t in (0.5, 1.0, 7.0):
            assert float(dual(t)) == pytest.approx(t * t / 4.0, rel=1e-12)

    def test_double_legendre_recovers_power(self):
        phi = YoungFunction.power(3.0)
        dd = phi.exact_conjugate().exact_conjugate()
        ts = np.logspace(-1, 2, 50)
        np.testing.assert_allclose(np.asarray(dd(ts)), np.asarray(phi(ts)), rtol=1e-6)

    def test_log_bump_associate_equivalent_to_dual_kind(self):
        phi = YoungFunction.log_bump(2.0, 1.0)
        asym = phi.associate()
        numeric = phi.exact_conjugate()
        ts = np.logspace(0, 6, 60)
        ratio = np.asarray(asym(ts)) / np.asarray(numeric(ts))
        assert ratio.max() <= 4.0 and ratio.min() >= 0.25

    def test_young_inequality_exact_conjugate(self):
        phi = YoungFunction.log_bump(3.0, 0.7)
        conj = phi.exact_conjugate()
        rng = np.random.default_rng(0)
        s = 10.0 ** rng.uniform(-2, 2, 200)
        t = 10.0 ** rng.uniform(-2, 2, 200)
        lhs = s * t
        rhs = np.asarray(phi(s)) + np.asarray(conj(t))
        assert np.all(lhs <= rhs * (1.0 + 1e-6))


class TestLuxemburg:
    def test_constant_closed_form(self):
        mesh = Mesh(1, 0, 4)
        f = StepFunction.constant(mesh, 3.0)
        for phi in (YoungFunction.power(2.5), YoungFunction.log_bump(2.0, 1.0)):
            assert luxemburg_norm(f, ROOT, phi) == pytest.approx(
                3.0 / phi.inverse(1.0), rel=1e-10
            )

    def test_power_half_indicator(self):
        mesh = Mesh(1, 0, 3)
        vals = np.zeros(8)
        vals[:4] = 2.0
        f = StepFunction(mesh, vals)
        assert luxemburg_norm(f, ROOT, YoungFunction.power(2.0)) == pytest.approx(
            math.sqrt(2.0), rel=1e-10
        )

    def test_log_bump_against_dense_scan(self):
        mesh = Mesh(1, 0, 3)
        vals = np.zeros(8)
        vals[:4] = 1.0
        f = StepFunction(mesh, vals)
        phi = YoungFunction.log_bump(2.0, 1.0)
        got = luxemburg_norm(f, ROOT, phi)
        # dense scan oracle: smallest lambda with avg phi(f/lambda) <= 1
        lams = np.linspace(1e-3, 2.0, 200000)
        g = 0.5 * np.asarray(phi(1.0 / lams))
        oracle = lams[np.searchsorted(-g, -1.0)]
        assert got == pytest.approx(oracle, rel=1e-4)
        assert 0.5 * float(phi(1.0 / got)) == pytest.approx(1.0, rel=1e-10)

    def test_power_case_matches_lp_average(self):
        mesh = Mesh(1, 0, 5)
        rng = np.random.default_rng(42)
        cubes = list(in_box_cubes(mesh))
        for i in range(30):
            f = lognormal(mesh, 100 + i)
            p = float(rng.uniform(1.1, 5.0))
            q = cubes[rng.integers(len(cubes))]
            got = luxemburg_norm(f, q, YoungFunction.power(p))
            assert got == pytest.approx(lp_average_oracle(f, q, p), rel=1e-10)

    def test_homogeneity_and_monotonicity(self, unit_mesh):
        f = lognormal(unit_mesh, 50)
        g = StepFunction(unit_mesh, f.values + 0.5)
        phi = YoungFunction.log_bump(2.0, 1.0)
        nf = luxemburg_norm(f, ROOT, phi)
        assert luxemburg_norm(f.map(lambda v: 3.0 * v), ROOT, phi) == pytest.approx(
            3.0 * nf, rel=1e-10
        )
        assert luxemburg_norm(g, ROOT, phi) >= nf

    def test_zero_function(self, unit_mesh):
        z = StepFunction.constant(unit_mesh, 0.0)
        assert luxemburg_norm(z, ROOT, YoungFunction.power(2.0)) == 0.0

    def test_batch_matches_scalar(self, unit_mesh):
        f = lognormal(unit_mesh, 51)
        phi = YoungFunction.loglog_bump(2.0, 1.0)
        cubes = [DyadicCube((0,), 2, (m,)) for m in range(4)]
        batch = luxemburg_norms(f, cubes, phi)
        for q, v in zip(cubes, batch):
            assert v == pytest.approx(luxemburg_norm(f, q, phi), rel=1e-12)

    def test_failed_bracket_raises(self):
        # the exact norm is 1e100, beyond 200 doublings of the start max f = 1
        f = StepFunction.constant(Mesh(1, 0, 4), 1.0)
        with pytest.raises(LuxemburgError, match="upper bracket"):
            luxemburg_norm(f, ROOT, YoungFunction.power(2.0, 1e200))

    def test_numeric_table_agrees_with_closed_form(self, unit_mesh):
        f = lognormal(unit_mesh, 52)
        phi = YoungFunction.power(2.0)
        ts = np.logspace(-8, 8, 400)
        tab = YoungFunction.numeric_table(ts, np.asarray(phi(ts)))
        got = luxemburg_norm(f, ROOT, tab)
        assert got == pytest.approx(luxemburg_norm(f, ROOT, phi), rel=1e-6)


class TestBp:
    def test_power_is_not_bp(self):
        assert not bp_check(YoungFunction.power(2.0), 2.0).finite

    def test_dual_log_bump_is_bqprime(self):
        q = 4.0
        delta = 1.0
        qp = q / (q - 1.0)
        phi = YoungFunction.dual_log_bump(qp, delta / (2.0 * (q - 1.0)))
        assert bp_check(phi, qp).finite

    def test_log_decay_example(self):
        # t^p log(e+t)^{-1-eps} integrates against dt/t^{p+1}
        phi = YoungFunction.dual_log_bump(2.0, 0.5)
        assert bp_check(phi, 2.0).finite

    def test_smaller_power_is_bp(self):
        assert bp_check(YoungFunction.power(2.0), 3.0).finite

    def test_integral_to_cutoff_closed_forms(self):
        cutoff = 1e12
        # Phi(t)/t^p = 1: the integral in dt/t is log(cutoff), exact for trapezoids
        flat = bp_check(YoungFunction.power(2.0), 2.0, cutoff=cutoff)
        assert flat.integral_to_cutoff == pytest.approx(math.log(cutoff), rel=1e-12)
        # Phi(t)/t^p = 1/t: the integral is 1 - 1/cutoff; the tolerance covers
        # the trapezoid error on 4000 log-spaced nodes (about 4e-6)
        decay = bp_check(YoungFunction.power(2.0), 3.0, cutoff=cutoff)
        assert decay.integral_to_cutoff == pytest.approx(1.0 - 1.0 / cutoff, rel=1e-5)


class TestMaximalAndHolder:
    def test_maximal_constant(self):
        mesh = Mesh(1, 0, 3, coarse_padding=0)
        f = StepFunction.constant(mesh, 1.0)
        out = orlicz_maximal(f, YoungFunction.power(2.0)).values
        np.testing.assert_allclose(out, 1.0, rtol=1e-10)

    def test_maximal_zero(self, tight_mesh):
        z = StepFunction.constant(tight_mesh, 0.0)
        assert np.all(orlicz_maximal(z, YoungFunction.power(2.0)).values == 0.0)

    def test_maximal_sees_far_mass(self, tight_mesh):
        vals = np.zeros(8)
        vals[:4] = 1.0
        f = StepFunction(tight_mesh, vals)
        out = orlicz_maximal(f, YoungFunction.power(2.0)).values
        # at x in [3/4, 1) the root cube contributes ||chi_[0,1/2)||_{2,[0,1)}
        assert np.all(out[6:] >= math.sqrt(0.5) - 1e-12)

    def test_holder_constants(self):
        # the conjugate norm is taken against the exact Legendre transform
        # of t^2, namely t^2/4, so ||1||_{conj} = 1/2 and both fixtures are
        # tight: lhs = rhs
        mesh = Mesh(1, 0, 3)
        one = StepFunction.constant(mesh, 1.0)
        lhs, rhs = generalized_holder(one, one, ROOT, YoungFunction.power(2.0))
        assert lhs == pytest.approx(1.0) and rhs == pytest.approx(1.0)
        vals = np.zeros(8)
        vals[:4] = 1.0
        ind = StepFunction(mesh, vals)
        lhs, rhs = generalized_holder(ind, ind, ROOT, YoungFunction.power(2.0))
        assert lhs == pytest.approx(0.5) and rhs == pytest.approx(0.5)

    def test_holder_inequality_random(self, unit_mesh):
        phis = [
            YoungFunction.power(2.0),
            YoungFunction.power(3.5),
            YoungFunction.log_bump(2.0, 1.0),
            YoungFunction.loglog_bump(4.0, 0.5),
        ]
        rng = np.random.default_rng(7)
        cubes = list(in_box_cubes(unit_mesh))
        for i in range(50):
            f = lognormal(unit_mesh, 200 + i)
            g = lognormal(unit_mesh, 300 + i)
            q = cubes[rng.integers(len(cubes))]
            phi = phis[i % len(phis)]
            lhs, rhs = generalized_holder(f, g, q, phi)
            assert lhs <= rhs * (1.0 + 1e-9)


class TestGapFit:
    def test_two_valued_weight_fits(self, unit_mesh):
        vals = np.ones(unit_mesh.cells_per_axis)
        vals[: unit_mesh.cells_per_axis // 2] = 4.0
        u = StepFunction(unit_mesh, vals)
        cubes = list(in_box_cubes(unit_mesh))[:40]
        fit = crv_gap_check(u, 2.0, 1.0, cubes, mode="log")
        assert fit.ok and 0.0 < fit.parameter < 1.0

    def test_all_zero_skipped(self, tight_mesh):
        z = StepFunction.constant(tight_mesh, 0.0)
        cubes = [ROOT]
        fit = crv_gap_check(z, 2.0, 1.0, cubes)
        assert not fit.ok and fit.skipped == 1
