import functools
import itertools
import math
import subprocess
import sys

import numpy as np
import pytest

from rieszw import _kernels, mesh as mesh_module
from rieszw.mesh import DyadicCube, Mesh, StepFunction
from rieszw.operators import (
    KernelMode,
    _check_alpha,
    _forest_paint,
    _member_weights,
    _pointwise_sup_over_levels,
    compare_pointwise,
    dyadic_riesz,
    dyadic_rieszs,
    dyadic_upper_constant,
    frac_maximal_weighted,
    hl_maximal,
    riesz_reference,
    restricted_sparse_riesz,
    sparse_riesz,
    sparse_rieszs,
)
from rieszw.orlicz import YoungFunction, luxemburg_norms, orlicz_maximal
from rieszw.sparse import SparseFamily, build_sparse

from conftest import center_slices, level_bounds3, level_grids, lognormal
from reference_geometry import contains_cube, enumerate_cubes, level_cube_coords
from test_sparse import (
    ORACLE_FAMILIES,
    SWEEP_MESHES,
    _roots,
    candidate_roots,
    mesh_id,
    sweep_functions,
)

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


def loop_sparse_sum(f, alpha, cubes):
    """The sparse sum one member at a time, painting each term on the cells
    whose centre lies in the member."""
    mesh = f.mesh
    out = np.zeros_like(f.values)
    for q in cubes:
        avg = f.cube_average(q)
        if avg > 0.0:
            box = center_slices(mesh, *q.bounds3(mesh.finest_exponent))
            out[box] += 2.0 ** (-q.level * alpha) * avg
    return out


def half_zero(mesh, seed):
    """A lognormal function that vanishes on the upper half of the first axis."""
    f = lognormal(mesh, seed)
    vals = f.values.copy()
    vals[mesh.cells_per_axis // 2 :] = 0.0
    return StepFunction(mesh, vals)


def signed_zero(mesh, seed):
    """``half_zero`` with -0.0 where it vanishes."""
    g = half_zero(mesh, seed).values
    return StepFunction(mesh, np.where(g == 0.0, -0.0, g))


SPARSE_CASES = [
    pytest.param(mesh, shift, id=f"{mesh_id(mesh)}-shift{''.join(map(str, shift))}")
    for mesh in (Mesh(1, 0, 6), Mesh(1, 1, 4, coarse_padding=3), Mesh(2, 0, 3),
                 Mesh(2, 1, 2, coarse_padding=0))
    for shift in mesh.shifts()
]


class TestSparseOracle:
    """The forest apply against the per-member loop, with == and sign bits."""

    @pytest.mark.parametrize("mesh, shift", SPARSE_CASES)
    def test_sparse_riesz_equals_loop(self, mesh, shift):
        alpha = 0.3  # np.power(2.0, -k * 0.3) differs from 2.0 ** (-k * 0.3) at some k
        fam, _ = build_sparse(lognormal(mesh, 30), shift, alpha)
        g = half_zero(mesh, 31)
        assert any(g.cube_average(q) == 0.0 for q in fam.cubes)
        for h in (lognormal(mesh, 32), g, signed_zero(mesh, 31)):
            got = sparse_riesz(h, alpha, fam).values
            assert_same_bits(got, loop_sparse_sum(h, alpha, fam.cubes))

    @pytest.mark.parametrize("mesh, shift", SPARSE_CASES)
    def test_restricted_equals_loop_at_every_root(self, mesh, shift):
        alpha = 0.3
        fam, _ = build_sparse(lognormal(mesh, 33), shift, alpha)
        g = half_zero(mesh, 34)
        for root in candidate_roots(fam):
            members = [q for q in fam.cubes if contains_cube(root, q)]
            assert fam.members_in(root) == members
            got = restricted_sparse_riesz(g, alpha, fam, root).values
            assert_same_bits(got, loop_sparse_sum(g, alpha, members))

    @pytest.mark.parametrize(
        "make", [m for _, m in ORACLE_FAMILIES], ids=[i for i, _ in ORACLE_FAMILIES]
    )
    def test_oracle_families_equal_loop(self, make):
        """Non-sparse subsets, nested chains, a singleton and the empty family,
        full and restricted at every root."""
        alpha = 0.3
        fam = make()
        mesh = fam.mesh
        for h in (lognormal(mesh, 36), signed_zero(mesh, 37)):
            assert_same_bits(sparse_riesz(h, alpha, fam).values, loop_sparse_sum(h, alpha, fam.cubes))
            for root in _roots(fam):
                members = [q for q in fam.cubes if contains_cube(root, q)]
                got = restricted_sparse_riesz(h, alpha, fam, root).values
                assert_same_bits(got, loop_sparse_sum(h, alpha, members))

    def test_empty_family(self):
        for mesh in (Mesh(1, 0, 4), Mesh(2, 0, 2)):
            fam = SparseFamily(mesh, mesh.shifts()[-1], ())
            f = lognormal(mesh, 35)
            assert np.array_equal(sparse_riesz(f, 0.5, fam).values, np.zeros_like(f.values))
            root = DyadicCube(fam.shift, 0, (0,) * mesh.n)
            assert fam.members_in(root) == []
            assert np.all(restricted_sparse_riesz(f, 0.5, fam, root).values == 0.0)

    def test_root_of_another_grid_rejected(self, unit_mesh):
        fam = SparseFamily(unit_mesh, (0,), (DyadicCube((0,), 0, (0,)),))
        with pytest.raises(ValueError):
            fam.members_in(DyadicCube((1,), 0, (0,)))


def assert_same_bits(got, expect):
    """Equal values and equal sign bits, so -0.0 never stands in for +0.0."""
    assert np.array_equal(got, expect)
    assert np.array_equal(np.signbit(got), np.signbit(expect))


def all_levels_sup(mesh, shifts, value):
    """Max over every level of every grid in ``shifts`` of the per-cube
    values, painted on the cells whose centre lies in each cube."""
    out = np.zeros((mesh.cells_per_axis,) * mesh.n)
    for shift in shifts:
        for k in mesh.levels():
            lo, hi = level_bounds3(mesh, shift, k)
            vals = value(k, lo, hi)
            for idx in range(lo.shape[0]):
                if vals[idx] > 0.0:
                    s = out[center_slices(mesh, lo[idx], hi[idx])]
                    np.maximum(s, vals[idx], out=s)
    return out


MAXIMAL_MESHES = [
    Mesh(1, 0, 5),
    Mesh(1, 1, 4),
    Mesh(2, 0, 3),
    Mesh(2, 1, 2),
    Mesh(1, 0, 4, coarse_padding=0),
    Mesh(2, 1, 2, coarse_padding=0),
]


class TestMaximalOracle:
    """Sweeps that stop at the covering level against all-levels sweeps."""

    def test_maximal_levels_start_at_covering_level(self):
        padded = Mesh(1, 1, 4)
        assert all(len(padded.maximal_levels(s)) < len(padded.levels()) for s in padded.shifts())
        tight = Mesh(1, 0, 4, coarse_padding=0)
        assert tight.maximal_levels((1,)) == tight.levels()

    @pytest.mark.parametrize("mesh", MAXIMAL_MESHES, ids=mesh_id)
    def test_hl_maximal_equals_all_levels(self, mesh):
        for f in (lognormal(mesh, 40), half_zero(mesh, 41)):
            def avg(k, lo, hi):
                return f.integral_box3(lo, hi) / 2.0 ** (-k * mesh.n)

            expect = all_levels_sup(mesh, mesh.shifts(), avg)
            assert_same_bits(hl_maximal(f).values, expect)

    @pytest.mark.parametrize("mesh", MAXIMAL_MESHES, ids=mesh_id)
    def test_nonpositive_values_paint_plus_zero(self, mesh):
        f = half_zero(mesh, 44)

        def signed(lo, hi, vol):
            # negative where the average is at most 1, and -0.0 where it is 0
            v = f.integral_box3(lo, hi) / vol
            return np.where(v > 1.0, v, -v)

        def per_level(k, lo, hi):
            return signed(lo, hi, 2.0 ** (-k * mesh.n))

        for shift in mesh.shifts():
            got = _pointwise_sup_over_levels(mesh, shift, signed)
            assert_same_bits(got, all_levels_sup(mesh, [shift], per_level))

    @pytest.mark.parametrize("mesh", MAXIMAL_MESHES, ids=mesh_id)
    def test_frac_maximal_equals_all_levels(self, mesh):
        f, mu = lognormal(mesh, 42), half_zero(mesh, 43)
        alpha = 0.5 * mesh.n
        fmu = StepFunction(mesh, f.values * mu.values)

        def value(k, lo, hi):
            muq = mu.integral_box3(lo, hi)
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.where(muq > 0.0, muq ** (alpha / mesh.n - 1.0) * fmu.integral_box3(lo, hi), 0.0)

        for shift in mesh.shifts():
            got = frac_maximal_weighted(f, mu, alpha, shift).values
            assert_same_bits(got, all_levels_sup(mesh, [shift], value))


def loop_dyadic_riesz(f, alpha, shift):
    """Per-cube reference for ``dyadic_riesz``: block repetition on the
    aligned grid, a loop over the cubes of each level on the shifted ones."""
    mesh = f.mesh
    shift = tuple(shift)
    aligned = not any(shift)
    N = mesh.cells_per_axis
    out = np.zeros_like(f.values)
    for k in mesh.levels():
        lo, hi = level_bounds3(mesh, shift, k)
        avgs = f.integral_box3(lo, hi) / 2.0 ** (-k * mesh.n)
        factor = 2.0 ** (-k * alpha)
        if aligned:
            # aligned cubes tile the box exactly; paint by block repetition
            cpc = min(1 << (mesh.finest_exponent - k), N)
            if mesh.n == 1:
                out += factor * np.repeat(avgs, cpc)[:N]
            else:
                q = max(N // cpc, 1)
                block = avgs.reshape(q, q)
                out += factor * np.repeat(np.repeat(block, cpc, axis=0), cpc, axis=1)[:N, :N]
            continue
        for idx in range(lo.shape[0]):
            a = avgs[idx]
            if a > 0.0:
                out[center_slices(mesh, lo[idx], hi[idx])] += factor * a
    return out


def loop_orlicz_maximal(f, phi):
    """Per-cube reference for ``orlicz_maximal``: one Luxemburg batch per
    level, painted cube by cube."""
    mesh = f.mesh
    out = np.zeros((mesh.cells_per_axis,) * mesh.n)
    for shift in mesh.shifts():
        for k in mesh.levels():
            coords = level_cube_coords(mesh, shift, k)
            cubes = [DyadicCube(shift, k, tuple(int(x) for x in c)) for c in coords]
            norms = luxemburg_norms(f, *mesh.bounds3(cubes), phi)
            for cube, v in zip(cubes, norms):
                if v <= 0.0:
                    continue
                s = out[center_slices(mesh, *cube.bounds3(mesh.finest_exponent))]
                np.maximum(s, float(v), out=s)
    return out


def per_level_dyadic_riesz(f, alpha, shift):
    """``dyadic_riesz`` a level at a time: one box-sum call and one paint
    per level, added from 0.0 coarse to fine."""
    mesh = f.mesh
    out = np.zeros_like(f.values)
    for g in level_grids(mesh, shift):
        avgs = f.integral_box3(g.lo3, g.hi3) / 2.0 ** (-g.level * mesh.n)
        out += 2.0 ** (-g.level * alpha) * g.gather(avgs)
    return out


class TestLevelSweepOracle:
    """``dyadic_riesz`` on the whole level table, with the one-cube levels
    folded into a scalar, against the per-level sweep: == and sign bits."""

    @pytest.mark.parametrize("mesh", SWEEP_MESHES, ids=mesh_id)
    def test_dyadic_riesz_equals_per_level(self, mesh):
        if mesh.coarse_padding == 0:
            assert mesh.level_table(mesh.shifts()[-1]).single == 0  # nothing to fold
        for shift in mesh.shifts():
            for f in sweep_functions(mesh, 82):
                for alpha in (0.3, 0.5, mesh.n - 0.05):
                    got = dyadic_riesz(f, alpha, shift).values
                    assert_same_bits(got, per_level_dyadic_riesz(f, alpha, shift))


def parent_dyadic_riesz(f: StepFunction, alpha: float, shift) -> StepFunction:
    """``dyadic_riesz`` as it was before the alpha batch: one box-sum call and
    one sweep per alpha."""
    mesh = f.mesh
    _check_alpha(mesh, alpha)
    t = mesh.level_table(shift)
    avg = f.integral_box3(t.lo3, t.hi3) / t.volume
    w = mesh.level_factors(alpha)[t.level - mesh.coarsest_level] * avg
    return StepFunction(mesh, np.take(t.sweep(w, np.add), t.cells))


def parent_sparse_riesz(f: StepFunction, alpha: float, family) -> StepFunction:
    """``sparse_riesz`` as it was before the alpha batch, with its
    ``_sparse_sum`` inlined: one member integral and one paint per alpha."""
    ints = f.plan_integrals(family.plan)
    _check_alpha(family.mesh, alpha)
    w = _member_weights(ints, alpha, family)
    return StepFunction(f.mesh, _forest_paint(np.where(True, w, 0.0), family))


class TestAlphaBatchOracle:
    """``dyadic_rieszs`` and ``sparse_rieszs`` against the per-alpha calls
    they replaced, and the one-alpha calls against those too: == and sign
    bits, on every shift of meshes with J 0/1 and T 0/40."""

    ALPHAS = [[0.5], [0.3, 0.5, 0.95], [0.7, 0.3, 0.7], []]

    # blocks of one alpha, of two and one for the sparse sum, or one block
    @pytest.mark.parametrize("block", [1, 2, None], ids=["alone", "two-frames", "one-block"])
    @pytest.mark.parametrize("alphas", ALPHAS, ids=["one", "three", "repeated", "empty"])
    @pytest.mark.parametrize("mesh", SWEEP_MESHES, ids=mesh_id)
    def test_batch_equals_parent(self, monkeypatch, mesh, alphas, block):
        if block is not None:
            monkeypatch.setattr(mesh_module, "_FRAME_BLOCK", block * mesh.total_cells)
        for shift in mesh.shifts():
            fam = build_sparse(lognormal(mesh, 60), shift, ALPHA)[0]
            for f in sweep_functions(mesh, 61):
                for batch, single, parent, arg in [(dyadic_rieszs, dyadic_riesz, parent_dyadic_riesz, shift),
                                                   (sparse_rieszs, sparse_riesz, parent_sparse_riesz, fam)]:
                    got = list(batch(f, alphas, arg))
                    assert len(got) == len(alphas)
                    for alpha, g in zip(alphas, got):
                        expect = parent(f, alpha, arg).values
                        assert g.values.shape == expect.shape
                        assert_same_bits(g.values, expect)
                        assert_same_bits(single(f, alpha, arg).values, expect)

    @pytest.mark.parametrize("bad", [[0.0], [0.5, 1.0], [-0.5, 0.5]])
    def test_alpha_out_of_range(self, unit_mesh, bad):
        f = lognormal(unit_mesh, 62)
        fam = build_sparse(f, (0,), ALPHA)[0]
        for call, arg in [(dyadic_rieszs, (1,)), (sparse_rieszs, fam)]:
            with pytest.raises(ValueError, match="alpha must lie in"):
                call(f, bad, arg)


class TestPaintOracle:
    """The gather paint against the per-cube loops, with == and equal sign
    bits, on lognormal and half-zero inputs."""

    @pytest.mark.parametrize("alpha_end", ["low", "high"])
    @pytest.mark.parametrize("mesh", MAXIMAL_MESHES, ids=mesh_id)
    def test_dyadic_riesz_equals_loop(self, mesh, alpha_end):
        alpha = 0.3 if alpha_end == "low" else mesh.n - 0.05
        for f in (lognormal(mesh, 50), half_zero(mesh, 51)):
            for shift in mesh.shifts():
                got = dyadic_riesz(f, alpha, shift).values
                assert_same_bits(got, loop_dyadic_riesz(f, alpha, shift))

    @pytest.mark.parametrize("mesh", MAXIMAL_MESHES, ids=mesh_id)
    def test_orlicz_maximal_equals_loop(self, mesh):
        # the sweep stops at the covering level; the loop sweeps every level
        for phi in (
            YoungFunction.log_bump(2.0, 1.0),
            YoungFunction.power(2.0),
            YoungFunction.power(40.0),
            YoungFunction.loglog_bump(2.0, 1.0),
            YoungFunction.dual_log_bump(2.0, 1.0),
        ):
            for f in (lognormal(mesh, 52), half_zero(mesh, 53)):
                assert_same_bits(orlicz_maximal(f, phi).values, loop_orlicz_maximal(f, phi))


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


def parent_riesz_apply(values, h, alpha, mode):
    """``_kernels.riesz_apply`` as it was before the spectrum cache."""
    from numpy import fft

    values = np.asarray(values, dtype=np.float64)
    n, N = values.ndim, values.shape[0]
    m = np.arange(2 * N)
    dist = np.minimum(m, 2 * N - m) * h
    if mode == _kernels.KERNEL_LOWER:
        dist = dist + 0.5 * h
    elif mode == _kernels.KERNEL_UPPER:
        dist = np.maximum(dist - 0.5 * h, 0.0)
    d = functools.reduce(np.hypot, np.meshgrid(*(dist,) * n, indexing="ij", sparse=True))
    with np.errstate(divide="ignore"):
        kernel = h**n * d ** (alpha - n)
    kernel[(0,) * n] = _kernels._self_weight(n, h, alpha, mode)
    shape, axes = (2 * N,) * n, tuple(range(n))
    spectrum = fft.rfftn(values, shape, axes) * fft.rfftn(kernel, shape, axes)
    return fft.irfftn(spectrum, shape, axes)[(slice(0, N),) * n]


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

    def test_cached_spectrum_equals_parent_apply(self, monkeypatch):
        # mode switches, then (n, N, h, alpha) changes within one mode
        monkeypatch.setattr(_kernels, "_SPECTRA", {})
        rng = np.random.default_rng(9)
        calls = [(2, 8, 1.0 / 8, 1.3, m) for m in (1, 0, 2, 1, 1)]
        calls += [(2, 16, 1.0 / 16, 1.3, 1), (2, 16, 1.0 / 16, 0.7, 1), (1, 16, 1.0 / 16, 0.7, 1),
                  (1, 16, 0.5, 0.7, 1), (2, 8, 1.0 / 8, 1.3, 1)]
        for n, N, h, alpha, mode in calls:
            v = np.exp(rng.standard_normal((N,) * n)) * (rng.random((N,) * n) < 0.5)
            got = _kernels.riesz_apply(v, h, alpha, mode)
            assert np.array_equal(got, parent_riesz_apply(v, h, alpha, mode))
            assert len(_kernels._SPECTRA) <= 3
            assert _kernels._SPECTRA[mode][0] == (n, N, h, alpha)
            assert not _kernels._SPECTRA[mode][1].flags.writeable

    @pytest.mark.parametrize("mode", list(KernelMode))
    @pytest.mark.parametrize("n, N", [(2, 8), (2, 16), (2, 64), (1, 32)])
    def test_batch_equals_each_grid(self, n, N, mode):
        # a leading batch axis: every grid's values and sign bits as alone
        rng = np.random.default_rng(10 * n + N)
        v = np.exp(rng.standard_normal((5,) + (N,) * n)) * (rng.random((5,) + (N,) * n) < 0.3)
        got = _kernels.riesz_apply(v, 1.0 / N, 0.7, int(mode), n)
        for i in range(len(v)):
            expect = _kernels.riesz_apply(v[i], 1.0 / N, 0.7, int(mode))
            assert np.array_equal(got[i], expect)
            assert np.array_equal(np.signbit(got[i]), np.signbit(expect))

    def test_numpy_fft_is_not_loaded_at_import(self):
        code = "import sys, rieszw, rieszw.cli; assert 'numpy.fft' not in sys.modules"
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
