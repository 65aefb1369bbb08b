import itertools
import math
import subprocess
import sys

import numpy as np
import pytest

from rieszw import _kernels
from rieszw.mesh import DyadicCube, Mesh, StepFunction, enumerate_cubes
from rieszw.operators import (
    KernelMode,
    compare_pointwise,
    dyadic_riesz,
    dyadic_upper_constant,
    frac_maximal_weighted,
    hl_maximal,
    riesz_reference,
    restricted_sparse_riesz,
    sparse_riesz,
)
from rieszw.sparse import SparseFamily, build_sparse

from conftest import lognormal

ALPHA = 0.5


def closed_form(x):
    # I_{1/2} chi_[0,1) on the line: 2(sqrt(x) + sqrt(1-x)) for x in [0,1]
    return 2.0 * (math.sqrt(x) + math.sqrt(1.0 - x))


class TestReference:
    def test_zero_function(self, unit_mesh):
        f = StepFunction.constant(unit_mesh, 0.0)
        for mode in KernelMode:
            assert np.all(riesz_reference(f, ALPHA, mode).values == 0.0)

    def test_closed_form_midpoint(self):
        mesh = Mesh(1, 0, 8)
        f = StepFunction.constant(mesh, 1.0)
        out = riesz_reference(f, ALPHA, KernelMode.MIDPOINT).values
        centers = (np.arange(mesh.cells_per_axis) + 0.5) * mesh.cell_width
        exact = np.array([closed_form(x) for x in centers])
        inner = (centers >= 0.05) & (centers <= 0.95)
        rel = np.abs(out[inner] - exact[inner]) / exact[inner]
        assert rel.max() < 5e-3

    def test_modes_bracket_exact_value(self):
        mesh = Mesh(1, 0, 6)
        f = StepFunction.constant(mesh, 1.0)
        lo = riesz_reference(f, ALPHA, KernelMode.LOWER).values
        hi = riesz_reference(f, ALPHA, KernelMode.UPPER).values
        centers = (np.arange(mesh.cells_per_axis) + 0.5) * mesh.cell_width
        exact = np.array([closed_form(x) for x in centers])
        assert np.all(lo <= exact + 1e-12)
        assert np.all(exact <= hi + 1e-12)

    def test_mode_monotonicity_cellwise(self, unit_mesh):
        f = lognormal(unit_mesh, 1)
        lo = riesz_reference(f, ALPHA, KernelMode.LOWER).values
        mid = riesz_reference(f, ALPHA, KernelMode.MIDPOINT).values
        hi = riesz_reference(f, ALPHA, KernelMode.UPPER).values
        assert np.all(lo <= mid) and np.all(mid <= hi)

    def test_linearity(self, unit_mesh):
        f = lognormal(unit_mesh, 2)
        g = lognormal(unit_mesh, 3)
        s = StepFunction(unit_mesh, f.values + g.values)
        lhs = riesz_reference(s, ALPHA).values
        rhs = riesz_reference(f, ALPHA).values + riesz_reference(g, ALPHA).values
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10)

    def test_alpha_out_of_range(self, unit_mesh):
        f = StepFunction.constant(unit_mesh, 1.0)
        with pytest.raises(ValueError):
            riesz_reference(f, 1.0)
        with pytest.raises(ValueError):
            riesz_reference(f, 0.0)


def naive_dyadic(f, alpha, shift):
    """All-cubes summation painting each average on center-member cells."""
    mesh = f.mesh
    out = np.zeros_like(f.values)
    h6 = mesh.cell_width / 6.0
    centers = (6 * np.arange(mesh.cells_per_axis) + 3) * h6
    for q in enumerate_cubes(mesh, shift):
        avg = f.cube_average(q)
        if avg <= 0.0:
            continue
        lo = q.lower()[0]
        lo3, hi3 = q.bounds3(mesh.finest_exponent)
        third = mesh.cell_width / 3.0
        inside = (centers >= lo3[0] * third) & (centers < hi3[0] * third)
        out[inside] += 2.0 ** (-q.level * alpha) * avg
    return out


class TestDyadic:
    def test_constant_geometric_sum(self):
        mesh = Mesh(1, 0, 3, coarse_padding=0)
        f = StepFunction.constant(mesh, 1.0)
        out = dyadic_riesz(f, ALPHA, (0,)).values
        expect = sum(2.0 ** (-k / 2.0) for k in range(4))
        np.testing.assert_allclose(out, expect, rtol=1e-12)

    def test_zero(self, unit_mesh):
        f = StepFunction.constant(unit_mesh, 0.0)
        assert np.all(dyadic_riesz(f, ALPHA, (0,)).values == 0.0)

    @pytest.mark.parametrize("shift", [(0,), (1,)])
    def test_matches_naive_sum(self, shift):
        mesh = Mesh(1, 0, 3, coarse_padding=2)
        f = lognormal(mesh, 4)
        got = dyadic_riesz(f, ALPHA, shift).values
        np.testing.assert_allclose(got, naive_dyadic(f, ALPHA, shift), rtol=1e-12)

    def test_upper_bound_vs_reference(self, unit_mesh):
        C = dyadic_upper_constant(1, ALPHA)
        assert C == pytest.approx(1.0 / (1.0 - 2.0 ** (ALPHA - 1.0)), rel=1e-12)
        for seed in range(5):
            f = lognormal(unit_mesh, 20 + seed)
            ref_u = riesz_reference(f, ALPHA, KernelMode.UPPER)
            for shift in unit_mesh.shifts():
                rep = compare_pointwise(dyadic_riesz(f, ALPHA, shift), ref_u)
                assert rep.violations == 0
                assert rep.max_ratio <= C * (1.0 + 1e-12)

    def test_compare_pointwise_identity(self, unit_mesh):
        f = lognormal(unit_mesh, 5)
        rep = compare_pointwise(f, f)
        assert rep.min_ratio == 1.0 and rep.max_ratio == 1.0 and rep.violations == 0


class TestSparseOperator:
    def test_single_cube(self):
        mesh = Mesh(1, 0, 3, coarse_padding=0)
        f = StepFunction.constant(mesh, 1.0)
        fam = SparseFamily(mesh, (0,), (DyadicCube((0,), 0, (0,)),))
        np.testing.assert_allclose(sparse_riesz(f, ALPHA, fam).values, 1.0, rtol=1e-12)

    def test_empty_family(self, unit_mesh):
        f = StepFunction.constant(unit_mesh, 1.0)
        fam = SparseFamily(unit_mesh, (0,), ())
        assert np.all(sparse_riesz(f, ALPHA, fam).values == 0.0)

    def test_nested_chain_value_at_origin(self):
        mesh = Mesh(1, 0, 3, coarse_padding=0)
        f = StepFunction.constant(mesh, 1.0)
        chain = tuple(DyadicCube((0,), j, (0,)) for j in range(4))
        fam = SparseFamily(mesh, (0,), chain)
        v0 = sparse_riesz(f, ALPHA, fam).values[0]
        assert v0 == pytest.approx(sum(2.0 ** (-j / 2.0) for j in range(4)), rel=1e-12)

    def test_restricted_variant(self):
        mesh = Mesh(1, 0, 3, coarse_padding=0)
        f = StepFunction.constant(mesh, 1.0)
        chain = tuple(DyadicCube((0,), j, (0,)) for j in range(4))
        fam = SparseFamily(mesh, (0,), chain)
        root = DyadicCube((0,), 1, (0,))
        v0 = restricted_sparse_riesz(f, ALPHA, fam, root).values[0]
        assert v0 == pytest.approx(sum(2.0 ** (-j / 2.0) for j in (1, 2, 3)), rel=1e-12)

    def test_self_adjoint_form(self, unit_mesh):
        f = lognormal(unit_mesh, 6)
        g = lognormal(unit_mesh, 7)
        fam, _ = build_sparse(f, (0,), ALPHA)
        vol = unit_mesh.cell_volume
        lhs = float(np.sum(sparse_riesz(f, ALPHA, fam).values * g.values)) * vol
        rhs = float(np.sum(sparse_riesz(g, ALPHA, fam).values * f.values)) * vol
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestMaximal:
    def test_hl_constant(self):
        mesh = Mesh(1, 0, 3, coarse_padding=0)
        f = StepFunction.constant(mesh, 1.0)
        np.testing.assert_allclose(hl_maximal(f).values, 1.0, rtol=1e-12)

    def test_hl_dominates_function(self, unit_mesh):
        f = lognormal(unit_mesh, 8)
        assert np.all(hl_maximal(f).values >= f.values * (1.0 - 1e-12))

    def test_frac_maximal_lebesgue_constant(self):
        mesh = Mesh(1, 0, 3, coarse_padding=0)
        one = StepFunction.constant(mesh, 1.0)
        out = frac_maximal_weighted(one, one, ALPHA, (0,)).values
        # sup over containing cubes of |Q|^{1/2}, maximized by the root
        np.testing.assert_allclose(out, 1.0, rtol=1e-12)

    def test_frac_maximal_zero(self, unit_mesh):
        zero = StepFunction.constant(unit_mesh, 0.0)
        one = StepFunction.constant(unit_mesh, 1.0)
        assert np.all(frac_maximal_weighted(zero, one, ALPHA, (0,)).values == 0.0)

    def test_null_measure_convention(self, unit_mesh):
        one = StepFunction.constant(unit_mesh, 1.0)
        zero = StepFunction.constant(unit_mesh, 0.0)
        # mu = 0: every cube hits the 0/0 := 0 convention
        assert np.all(frac_maximal_weighted(one, zero, ALPHA, (0,)).values == 0.0)


def dense_riesz_oracle(values, h, alpha, mode):
    """Reference apply summed cell pair by cell pair from the mode rules:
    lower takes the farthest point of the source cell, midpoint its center,
    upper its nearest point; the self cell takes the half-diagonal (lower)
    or the equal-volume ball integral n*omega_n*rho^alpha/alpha."""
    n, N = values.ndim, values.shape[0]
    omega = 2.0 if n == 1 else math.pi
    if mode == KernelMode.LOWER:
        wself = h**n * (0.5 * h * math.sqrt(n)) ** (alpha - n)
    else:
        wself = n * omega * (h**n / omega) ** (alpha / n) / alpha
    cells = list(itertools.product(range(N), repeat=n))
    out = np.zeros(values.shape)
    for i in cells:
        acc = 0.0
        for j in cells:
            if i == j:
                acc += wself * values[j]
                continue
            gaps = [abs(a - b) * h for a, b in zip(i, j)]
            if mode == KernelMode.LOWER:
                gaps = [g + 0.5 * h for g in gaps]
            elif mode == KernelMode.UPPER:
                gaps = [max(g - 0.5 * h, 0.0) for g in gaps]
            acc += h**n * math.hypot(*gaps) ** (alpha - n) * values[j]
        out[i] = acc
    return out


class TestRieszApply:
    """The FFT Toeplitz apply against the dense pairwise sum."""

    @pytest.mark.parametrize("mode", list(KernelMode))
    @pytest.mark.parametrize("alpha_end", ["low", "high"])
    @pytest.mark.parametrize("n, N", [(1, 1), (1, 2), (1, 128), (2, 1), (2, 2), (2, 16)])
    def test_matches_dense_oracle(self, n, N, alpha_end, mode):
        alpha = 0.05 if alpha_end == "low" else n - 0.05
        rng = np.random.default_rng(100 * n + N)
        v = np.exp(rng.standard_normal((N,) * n))
        h = 1.0 / N
        got = _kernels.riesz_apply(v, h, alpha, int(mode))
        np.testing.assert_allclose(got, dense_riesz_oracle(v, h, alpha, mode), rtol=1e-12)

    @pytest.mark.parametrize("mode", list(KernelMode))
    def test_masked_input_matches_dense_oracle(self, mode):
        rng = np.random.default_rng(7)
        v = np.exp(rng.standard_normal((16, 16))) * (rng.random((16, 16)) < 0.2)
        got = _kernels.riesz_apply(v, 1.0 / 16, 1.3, int(mode))
        np.testing.assert_allclose(got, dense_riesz_oracle(v, 1.0 / 16, 1.3, mode), rtol=1e-12)

    def test_numpy_fft_is_not_loaded_at_import(self):
        code = "import sys, rieszw, rieszw.cli; assert 'numpy.fft' not in sys.modules"
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
