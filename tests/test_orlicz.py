import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rieszw import _kernels
from rieszw.mesh import DyadicCube, Mesh, StepFunction
from rieszw.orlicz import (
    LuxemburgError,
    YoungFunction,
    _box_cells,
    bp_check,
    crv_gap_check,
    generalized_holder,
    luxemburg_norm,
    luxemburg_norms,
    orlicz_maximal,
)

from conftest import in_box_cubes, level_grids, lognormal
from test_mesh import TABLE_MESHES

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

    def test_numeric_tables_compare_by_value(self):
        # equal kinds and parameters, different samples: Phi(3) is 9.10 and 16.88
        a = YoungFunction.numeric_table([1, 2, 4], [1, 3, 20])
        b = YoungFunction.numeric_table([1, 2, 4], [1, 5, 40])
        assert a(3.0) != b(3.0)
        assert a != b and hash(a) != hash(b)
        same = YoungFunction.numeric_table(np.array([1.0, 2.0, 4.0]), (1, 3, 20))
        assert a == same and hash(a) == hash(same) and a is not same
        assert a(3.0) == same(3.0)
        assert len({a, b, same}) == 2

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

    def test_inverse_failures_raise(self):
        # 200 doublings of 1 reach 2^199, and Phi(2^199) < 1e300; 200
        # halvings reach 2^-199, and Phi(2^-199) > 1e-300; a root in
        # (2^-199, 2^-198) from the bracket [2^-199, 1] needs about 245
        # steps to reach width 1e-14 of it
        phi = YoungFunction.log_bump(2.0, 1.0)
        for y, message in ((1e300, "upper bracket not found"), (1e-300, "lower bracket not found"),
                           (float(phi(1.5 * 2.0**-199)), "did not converge")):
            with pytest.raises(LuxemburgError, match=message):
                phi.inverse(y)
        assert phi.inverse(float(phi(1.5 * 2.0**-150))) == pytest.approx(1.5 * 2.0**-150, rel=1e-13)

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
        batch = luxemburg_norms(f, *unit_mesh.bounds3(cubes), phi)
        for q, v in zip(cubes, batch):
            assert v == pytest.approx(luxemburg_norm(f, q, phi), rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2])
    def test_empty_batch(self, n):
        f = lognormal(Mesh(n, 0, 3), 7)
        empty = np.zeros((0, n), dtype=np.int64)
        for phi in (YoungFunction.power(2.0), YoungFunction.log_bump(2.0, 1.0)):
            got = luxemburg_norms(f, empty, empty, phi)
            assert got.dtype == np.float64 and got.shape == (0,)
        got = _kernels.luxemburg_batch(np.zeros(0), np.zeros(0), np.zeros(1, dtype=np.int64), np.zeros(0),
                                       YoungFunction.power(2.0))
        assert got.dtype == np.float64 and got.shape == (0,)

    def test_unconverged_bisection_raises(self, monkeypatch):
        # one group with cells 1, 2, 3 and Phi = t^2: the root is sqrt(14/3)
        # = 2.1602..., and five steps from the bracket [2, 4] stop at 2.1796875
        args = (np.array([1.0, 2.0, 3.0]), np.ones(3), np.array([0, 3]), np.array([3.0]),
                YoungFunction.power(2.0))
        assert _kernels.luxemburg_batch(*args)[0] == pytest.approx(math.sqrt(14.0 / 3.0), rel=1e-12)
        monkeypatch.setattr(_kernels, "LUX_MAX_ITER", 5)
        with pytest.raises(LuxemburgError, match="bisection did not converge"):
            _kernels.luxemburg_batch(*args)

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


# ---------------------------------------------------------------------------
# The per-cube Luxemburg path that the batched arrays replaced, kept as the
# oracle: cells cube by cube, the kind-coded bisection summed with
# np.add.at, and a separate scalar bisection for numeric tables.


def oracle_axis_coverage(lo3, hi3, ncells):
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


def oracle_box_cells(f, lo, hi):
    mesh = f.mesh
    N = mesh.cells_per_axis
    if mesh.n == 1:
        i0, i1, w = oracle_axis_coverage(lo[0], hi[0], N)
        return f.values[i0:i1], w * mesh.cell_volume
    i0, i1, wx = oracle_axis_coverage(lo[0], hi[0], N)
    j0, j1, wy = oracle_axis_coverage(lo[1], hi[1], N)
    if i0 >= i1 or j0 >= j1:
        return np.zeros(0), np.zeros(0)
    vals = f.values[i0:i1, j0:j1].ravel()
    wts = np.outer(wx, wy).ravel() * mesh.cell_volume
    return vals, wts


def oracle_csr(f, boxes):
    """(vals, wts, indptr) of a list of (lo, hi) thirds-unit boxes."""
    vals_parts, wts_parts, indptr = [], [], [0]
    for lo, hi in boxes:
        v, w = oracle_box_cells(f, lo, hi)
        vals_parts.append(v)
        wts_parts.append(w)
        indptr.append(indptr[-1] + len(v))
    vals = np.concatenate(vals_parts) if vals_parts else np.zeros(0)
    wts = np.concatenate(wts_parts) if wts_parts else np.zeros(0)
    return vals, wts, np.asarray(indptr)


def oracle_luxemburg_batch(vals, wts, indptr, vols, kind, a, b):
    ngroups = len(vols)
    lam = np.zeros(ngroups)
    group_of = np.repeat(np.arange(ngroups), np.diff(indptr))
    mass = np.zeros(ngroups)
    np.add.at(mass, group_of, vals * wts)
    active = mass > 0.0
    gmax = np.zeros(ngroups)
    np.maximum.at(gmax, group_of, vals)

    def gval(lam_arr):
        phi = _kernels.young_eval_np(kind, a, b, vals / lam_arr[group_of])
        acc = np.zeros(ngroups)
        np.add.at(acc, group_of, phi * wts)
        return acc / vols

    lo = np.where(active, gmax, 1.0)
    hi = lo.copy()
    for _ in range(200):
        need = active & (gval(hi) > 1.0)
        if not need.any():
            break
        hi[need] *= 2.0
    else:
        raise LuxemburgError("upper bracket not found")
    for _ in range(200):
        need = active & (gval(lo) < 1.0)
        if not need.any():
            break
        lo[need] *= 0.5
    else:
        raise LuxemburgError("lower bracket not found")
    for _ in range(_kernels.LUX_MAX_ITER):
        mid = 0.5 * (lo + hi)
        above = gval(mid) > 1.0
        lo = np.where(active & above, mid, lo)
        hi = np.where(active & ~above, mid, hi)
        if np.all(hi - lo <= _kernels.LUX_RTOL * hi):
            break
    lam[active] = 0.5 * (lo + hi)[active]
    return lam


def oracle_luxemburg_numeric(f, cube, phi):
    vals, wts = oracle_box_cells(f, *cube.bounds3(f.mesh.finest_exponent))
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


def oracle_luxemburg_norms(f, cubes, phi):
    """Closed-form kinds only; numeric tables go through the scalar oracle."""
    L = f.mesh.finest_exponent
    vals, wts, indptr = oracle_csr(f, [q.bounds3(L) for q in cubes])
    vols = np.asarray([q.volume for q in cubes])
    return oracle_luxemburg_batch(vals, wts, indptr, vols, phi.kind, float(phi.a), float(phi.b))


def level_cubes(shift, g):
    return [DyadicCube(shift, g.level, tuple(c)) for c in g.coords.tolist()]


def parent_box_cells(f, lo3, hi3):
    """``orlicz._box_cells`` as it was before it returned flat cell indices:
    cell values, overlap volumes and group pointers."""
    mesh = f.mesh
    a = np.maximum(lo3, 0)
    b = np.minimum(hi3, 3 * mesh.cells_per_axis)
    i0 = a // 3
    width = np.where(a < b, (b + 2) // 3 - i0, 0)
    box, index = mesh.window_cells(i0, width)
    frac = np.ones(len(box))
    for axis, cell in enumerate(index):
        frac *= (np.minimum(b[box, axis], 3 * cell + 3) - np.maximum(a[box, axis], 3 * cell)) / 3.0
    flat = np.ravel_multi_index(index, f.values.shape)
    indptr = np.concatenate(([0], np.cumsum(width.prod(axis=1))))
    return f.values.ravel()[flat], frac * mesh.cell_volume, indptr


def box_csr(f, lo3, hi3):
    """``_box_cells`` with the values of ``f`` gathered at its flat indices."""
    flat, wts, indptr = _box_cells(f.mesh, lo3, hi3)
    return f.values.ravel()[flat], wts, indptr


def assert_csr_equal(got, expect):
    for a, b in zip(got, expect):
        assert a.shape == b.shape and np.array_equal(a, b)


CLOSED_KINDS = [
    YoungFunction.power(2.5, 0.7),
    YoungFunction.log_bump(2.0, 1.0),
    YoungFunction.loglog_bump(4.0, 0.5),
    YoungFunction.dual_log_bump(4.0 / 3.0, 1.0),
    YoungFunction.dual_loglog_bump(1.5, 0.5),
]


class TestBatchOracle:
    """The integer-array batch against the per-cube path, with ``==``."""

    @pytest.mark.parametrize(
        "mesh",
        TABLE_MESHES,
        ids=lambda m: f"n{m.n}-J{m.base_exponent}-L{m.finest_exponent}-T{m.coarse_padding}",
    )
    def test_cells_match_every_level_table(self, mesh):
        f = lognormal(mesh, 61)
        L = mesh.finest_exponent
        for shift in mesh.shifts():
            for g in level_grids(mesh, shift):
                expect = oracle_csr(f, [q.bounds3(L) for q in level_cubes(shift, g)])
                assert_csr_equal(box_csr(f, g.lo3, g.hi3), expect)

    def test_cells_of_boxes_across_the_box_edge(self):
        # 3N = 48 in 1-D and 12 in 2-D: boxes inside, straddling either
        # edge, outside, empty, and within one cell
        one_d = [(-5, 7), (40, 50), (47, 100), (-10, -1), (0, 48), (1, 2), (2, 4), (48, 60), (5, 5)]
        two_d = [((-2, 7), (5, 14)), ((11, -3), (13, 1)), ((-6, -6), (18, 18)),
                 ((4, 4), (5, 8)), ((12, 0), (15, 3)), ((3, 1), (3, 9)), ((1, 2), (2, 11))]
        for mesh, boxes in ((Mesh(1, 0, 4), [((a,), (b,)) for a, b in one_d]), (Mesh(2, 0, 2), two_d)):
            f = lognormal(mesh, 62)
            lo3 = np.array([lo for lo, _ in boxes], dtype=np.int64)
            hi3 = np.array([hi for _, hi in boxes], dtype=np.int64)
            assert_csr_equal(box_csr(f, lo3, hi3), oracle_csr(f, boxes))

    @pytest.mark.parametrize("phi", CLOSED_KINDS, ids=lambda p: p.name)
    def test_norms_match_per_cube_batch(self, phi):
        for mesh in (Mesh(1, 0, 3), Mesh(1, 1, 4, coarse_padding=3), Mesh(2, 0, 3, coarse_padding=2)):
            f = lognormal(mesh, 63)
            for shift in mesh.shifts():
                for g in level_grids(mesh, shift):
                    got = luxemburg_norms(f, g.lo3, g.hi3, phi)
                    assert np.array_equal(got, oracle_luxemburg_norms(f, level_cubes(shift, g), phi))

    def test_numeric_table_matches_scalar_bisection(self):
        ts = np.logspace(-8, 8, 400)
        tab = YoungFunction.numeric_table(ts, np.asarray(YoungFunction.log_bump(2.0, 1.0)(ts)))
        for mesh in (Mesh(1, 0, 5, coarse_padding=2), Mesh(2, 0, 2, coarse_padding=1)):
            f = lognormal(mesh, 64)
            for shift in mesh.shifts():
                for g in level_grids(mesh, shift):
                    got = luxemburg_norms(f, g.lo3, g.hi3, tab)
                    expect = [oracle_luxemburg_numeric(f, q, tab) for q in level_cubes(shift, g)]
                    for a, b in zip(got, expect):
                        assert abs(a - b) <= 2.0 * _kernels.LUX_RTOL * b

    def test_numeric_table_failed_bracket_raises(self):
        # Phi(t) = 1e-200 t^1.5 stays below 1 for t up to 2^200, so 200
        # halvings of the lower end never reach avg Phi(f/lambda) >= 1
        ts = np.logspace(-3, 3, 50)
        tab = YoungFunction.numeric_table(ts, 1e-200 * ts**1.5)
        f = lognormal(Mesh(1, 0, 4), 65)
        with pytest.raises(LuxemburgError, match="lower bracket"):
            oracle_luxemburg_numeric(f, ROOT, tab)
        with pytest.raises(LuxemburgError, match="lower bracket"):
            luxemburg_norm(f, ROOT, tab)


def parent_luxemburg_batch(vals, wts, indptr, vols, phi):
    """``_kernels.luxemburg_batch`` before segments: one stop for the whole call."""
    vals = np.asarray(vals, dtype=np.float64)
    wts = np.asarray(wts, dtype=np.float64)
    vols = np.asarray(vols, dtype=np.float64)
    ngroups = len(vols)
    lam = np.zeros(ngroups)
    group_of = np.repeat(np.arange(ngroups), np.diff(indptr))
    active = np.bincount(group_of, weights=vals * wts, minlength=ngroups) > 0.0

    gmax = np.zeros(ngroups)
    np.maximum.at(gmax, group_of, vals)

    def gval(lam_arr):
        phi_wts = phi(vals / lam_arr[group_of]) * wts
        return np.bincount(group_of, weights=phi_wts, minlength=ngroups) / vols

    lo = np.where(active, gmax, 1.0)
    hi = lo.copy()
    for _ in range(200):
        need = active & (gval(hi) > 1.0)
        if not need.any():
            break
        hi[need] *= 2.0
    else:
        raise LuxemburgError("upper bracket not found")
    for _ in range(200):
        need = active & (gval(lo) < 1.0)
        if not need.any():
            break
        lo[need] *= 0.5
    else:
        raise LuxemburgError("lower bracket not found")
    for _ in range(_kernels.LUX_MAX_ITER):
        mid = 0.5 * (lo + hi)
        above = gval(mid) > 1.0
        lo = np.where(active & above, mid, lo)
        hi = np.where(active & ~above, mid, hi)
        if np.all(hi - lo <= _kernels.LUX_RTOL * hi):
            break
    lam[active] = 0.5 * (lo + hi)[active]
    return lam


def parent_segmented_batch(vals, wts, indptr, vols, phi, starts=(0,)):
    """``_kernels.luxemburg_batch`` before it took runs of Young functions:
    one ``phi`` for every cell, segments stopping apart."""
    vals = np.asarray(vals, dtype=np.float64)
    wts = np.asarray(wts, dtype=np.float64)
    vols = np.asarray(vols, dtype=np.float64)
    starts = np.asarray(starts, dtype=np.intp)
    ngroups = len(vols)
    lam = np.zeros(ngroups)
    group_of = np.repeat(np.arange(ngroups), np.diff(indptr))
    active = np.bincount(group_of, weights=vals * wts, minlength=ngroups) > 0.0

    gmax = np.zeros(ngroups)
    np.maximum.at(gmax, group_of, vals)

    def gval(lam_arr):
        phi_wts = phi(vals / lam_arr[group_of]) * wts
        return np.bincount(group_of, weights=phi_wts, minlength=ngroups) / vols

    lo = np.where(active, gmax, 1.0)
    hi = lo.copy()
    for _ in range(200):
        need = active & (gval(hi) > 1.0)
        if not need.any():
            break
        hi[need] *= 2.0
    else:
        raise LuxemburgError("upper bracket not found")
    for _ in range(200):
        need = active & (gval(lo) < 1.0)
        if not need.any():
            break
        lo[need] *= 0.5
    else:
        raise LuxemburgError("lower bracket not found")
    segment_of = np.repeat(np.arange(len(starts)), np.diff(starts, append=ngroups))
    moving = active
    for _ in range(_kernels.LUX_MAX_ITER):
        mid = 0.5 * (lo + hi)
        above = gval(mid) > 1.0
        lo = np.where(moving & above, mid, lo)
        hi = np.where(moving & ~above, mid, hi)
        done = hi - lo <= _kernels.LUX_RTOL * hi
        live = ~np.logical_and.reduceat(done, starts)
        if not live.any():
            break
        moving = active & live[segment_of]
    lam[active] = 0.5 * (lo + hi)[active]
    return lam


def parent_luxemburg_norms(f, lo3, hi3, phi, starts=(0,)):
    """``orlicz.luxemburg_norms`` before the packed blocks: one segmented
    call over the whole batch."""
    lo3 = np.asarray(lo3, dtype=np.int64)
    hi3 = np.asarray(hi3, dtype=np.int64)
    vals, wts, indptr = parent_box_cells(f, lo3, hi3)
    vols = np.prod((hi3 - lo3) / 3.0 * f.mesh.cell_width, axis=1)
    return parent_segmented_batch(vals, wts, indptr, vols, phi, starts)


def per_segment_batches(vals, wts, indptr, vols, phi, starts):
    """One parent call per segment, concatenated."""
    ends = [*starts[1:], len(vols)]
    out = []
    for a, b in zip(starts, ends):
        c0, c1 = indptr[a], indptr[b]
        out.append(parent_luxemburg_batch(vals[c0:c1], wts[c0:c1], indptr[a : b + 1] - c0, vols[a:b], phi))
    return np.concatenate(out)


def level_table_csr(f):
    """CSR groups of every level cube of every shift (in-box or not), with
    one segment per (shift, level)."""
    mesh = f.mesh
    lo3 = np.concatenate([g.lo3 for s in mesh.shifts() for g in level_grids(mesh, s)])
    hi3 = np.concatenate([g.hi3 for s in mesh.shifts() for g in level_grids(mesh, s)])
    sizes = [len(g.lo3) for s in mesh.shifts() for g in level_grids(mesh, s)]
    vals, wts, indptr = box_csr(f, lo3, hi3)
    vols = np.prod((hi3 - lo3) / 3.0 * mesh.cell_width, axis=1)
    return vals, wts, indptr, vols, (np.cumsum(sizes) - sizes).tolist()


SEGMENT_MESHES = [Mesh(1, 0, 4), Mesh(1, 1, 3, coarse_padding=0), Mesh(2, 0, 2, coarse_padding=3)]
NUMERIC_LOG_BUMP = YoungFunction.numeric_table(
    np.logspace(-8, 8, 400), np.asarray(YoungFunction.log_bump(2.0, 1.0)(np.logspace(-8, 8, 400))))


class TestSegmentedBatch:
    """Segments of one ``luxemburg_batch`` call against one parent call per
    segment, with ``==``."""

    @pytest.mark.parametrize("phi", [*CLOSED_KINDS, NUMERIC_LOG_BUMP], ids=lambda p: p.name)
    @pytest.mark.parametrize("zeros", ["positive", "half-zero"])
    def test_levels_as_segments(self, phi, zeros):
        for mesh in SEGMENT_MESHES:
            f = lognormal(mesh, 66)
            if zeros == "half-zero":
                v = f.values.copy()
                v[: mesh.cells_per_axis // 2] = 0.0
                f = StepFunction(mesh, v)
            vals, wts, indptr, vols, starts = level_table_csr(f)
            got = _kernels.luxemburg_batch(vals, wts, indptr, vols, phi, starts)
            expect = per_segment_batches(vals, wts, indptr, vols, phi, starts)
            assert np.array_equal(got, expect)
            if zeros == "half-zero":
                assert (expect == 0.0).any() and (expect > 0.0).any()

    @pytest.mark.parametrize("phi", CLOSED_KINDS[:3], ids=lambda p: p.name)
    def test_random_cuts_and_single_groups(self, phi):
        rng = np.random.default_rng(67)
        f = lognormal(Mesh(2, 0, 3, coarse_padding=1), 68)
        vals, wts, indptr, vols, _ = level_table_csr(f)
        ngroups = len(vols)
        for trial in range(6):
            cuts = rng.choice(np.arange(1, ngroups), size=rng.integers(1, ngroups // 2), replace=False)
            starts = [0, *sorted(cuts.tolist())]
            got = _kernels.luxemburg_batch(vals, wts, indptr, vols, phi, starts)
            assert np.array_equal(got, per_segment_batches(vals, wts, indptr, vols, phi, starts))
        # every group its own segment
        starts = list(range(ngroups))
        got = _kernels.luxemburg_batch(vals, wts, indptr, vols, phi, starts)
        assert np.array_equal(got, per_segment_batches(vals, wts, indptr, vols, phi, starts))

    @pytest.mark.parametrize("phi", [*CLOSED_KINDS, NUMERIC_LOG_BUMP], ids=lambda p: p.name)
    def test_single_segment_is_the_parent_call(self, phi):
        for mesh in SEGMENT_MESHES:
            vals, wts, indptr, vols, _ = level_table_csr(lognormal(mesh, 69))
            expect = parent_luxemburg_batch(vals, wts, indptr, vols, phi)
            assert np.array_equal(_kernels.luxemburg_batch(vals, wts, indptr, vols, phi), expect)
            assert np.array_equal(_kernels.luxemburg_batch(vals, wts, indptr, vols, phi, [0]), expect)

    def test_runs_of_young_functions(self):
        # runs cut the cells of one call at segment edges, each run with its
        # own Young function; the call equals one parent call per segment
        rng = np.random.default_rng(72)
        youngs = [*CLOSED_KINDS, NUMERIC_LOG_BUMP]
        for mesh in SEGMENT_MESHES:
            vals, wts, indptr, vols, starts = level_table_csr(lognormal(mesh, 73))
            ngroups = len(vols)
            for trial in range(3):
                edges = sorted({0, ngroups, *rng.integers(1, ngroups, 5).tolist()})
                phis = [youngs[i] for i in rng.integers(0, len(youngs), len(edges) - 1)]
                runs = [(int(indptr[a]), int(indptr[b]), phi) for a, b, phi in zip(edges, edges[1:], phis)]
                cuts = sorted({*starts, *edges[:-1]})
                got = _kernels.luxemburg_batch(vals, wts, indptr, vols, runs, cuts)
                expect = np.empty(ngroups)
                for a, b, phi in zip(edges, edges[1:], phis):
                    c0, c1 = indptr[a], indptr[b]
                    expect[a:b] = per_segment_batches(vals[c0:c1], wts[c0:c1], indptr[a : b + 1] - c0,
                                                      vols[a:b], phi, [c - a for c in cuts if a <= c < b])
                assert np.array_equal(got, expect)
            one = _kernels.luxemburg_batch(vals, wts, indptr, vols, [(0, len(vals), CLOSED_KINDS[1])], starts)
            assert np.array_equal(one, _kernels.luxemburg_batch(vals, wts, indptr, vols, CLOSED_KINDS[1], starts))

    def test_segments_stop_apart(self):
        # the levels of one call stop bisecting at different iterations, so
        # one stop for the whole call moves some lambda
        phi = YoungFunction.log_bump(2.0, 1.0)
        vals, wts, indptr, vols, starts = level_table_csr(lognormal(Mesh(1, 0, 4), 70))
        whole = parent_luxemburg_batch(vals, wts, indptr, vols, phi)
        assert not np.array_equal(whole, per_segment_batches(vals, wts, indptr, vols, phi, starts))

    def test_failed_bracket_in_one_segment_raises(self):
        # three groups of one unit cell; the middle one has a cube volume of
        # 1e-250, so avg Phi(1/lambda) <= 1 needs lambda >= 1e125, more than
        # 200 doublings above its start at 1
        vals, wts, indptr = np.ones(3), np.ones(3), np.arange(4)
        vols = np.array([1.0, 1e-250, 1.0])
        phi = YoungFunction.power(2.0)
        for starts in ([0, 1, 2], [0, 1], [0]):
            with pytest.raises(LuxemburgError, match="upper bracket"):
                _kernels.luxemburg_batch(vals, wts, indptr, vols, phi, starts)
        with pytest.raises(LuxemburgError, match="upper bracket"):
            parent_luxemburg_batch(vals[1:2], wts[1:2], indptr[:2], vols[1:2], phi)
        ok = _kernels.luxemburg_batch(vals[[0, 2]], wts[[0, 2]], indptr[:3], vols[[0, 2]], phi, [0, 1])
        assert np.array_equal(ok, [1.0, 1.0])

    def test_norms_pass_segments_through(self):
        mesh = Mesh(1, 0, 5)
        f = lognormal(mesh, 71)
        c = mesh.corpus
        phi = YoungFunction.log_bump(2.0, 1.0)
        got = luxemburg_norms(f, c.lo3, c.hi3, phi, c.starts)
        expect = np.concatenate([luxemburg_norms(f, c.lo3[a:b], c.hi3[a:b], phi)
                                 for a, b in zip(c.starts.tolist(), c.ends.tolist())])
        assert np.array_equal(got, expect)


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


def evaluated_luxemburg_batch(vals, wts, indptr, vols, phi, starts=(0,)):
    """``_kernels.luxemburg_batch`` before it certified groups: it evaluates
    every Young function on every cell in each round of the brackets and
    the bisection."""
    vals = np.asarray(vals, dtype=np.float64)
    wts = np.asarray(wts, dtype=np.float64)
    vols = np.asarray(vols, dtype=np.float64)
    starts = np.asarray(starts, dtype=np.intp)
    runs = [(0, len(vals), phi)] if callable(phi) else phi
    ngroups = len(vols)
    lam = np.zeros(ngroups)
    if not ngroups:
        return lam
    group_of = np.repeat(np.arange(ngroups), np.diff(indptr))
    active = np.bincount(group_of, weights=vals * wts, minlength=ngroups) > 0.0

    gmax = np.zeros(ngroups)
    np.maximum.at(gmax, group_of, vals)

    t = np.empty_like(vals)
    run_views = [(t[a:b], wts[a:b], f) for a, b, f in runs]

    def gval(lam_arr):
        np.divide(vals, lam_arr[group_of], out=t)
        for t_run, w_run, f in run_views:
            np.multiply(f(t_run), w_run, out=t_run)
        return np.bincount(group_of, weights=t, minlength=ngroups) / vols

    lo = np.where(active, gmax, 1.0)
    hi = lo.copy()
    for _ in range(200):
        need = active & (gval(hi) > 1.0)
        if not need.any():
            break
        hi[need] *= 2.0
    else:
        raise LuxemburgError("upper bracket not found")
    for _ in range(200):
        need = active & (gval(lo) < 1.0)
        if not need.any():
            break
        lo[need] *= 0.5
    else:
        raise LuxemburgError("lower bracket not found")
    segment_of = np.repeat(np.arange(len(starts)), np.diff(starts, append=ngroups))
    moving = active
    for _ in range(_kernels.LUX_MAX_ITER):
        mid = 0.5 * (lo + hi)
        above = gval(mid) > 1.0
        lo = np.where(moving & above, mid, lo)
        hi = np.where(moving & ~above, mid, hi)
        done = hi - lo <= _kernels.LUX_RTOL * hi
        live = ~np.logical_and.reduceat(done, starts)
        if not live.any():
            break
        moving = active & live[segment_of]
    else:
        raise LuxemburgError(
            f"bisection did not converge in {_kernels.LUX_MAX_ITER} steps for {int(live.sum())} segment(s)"
        )
    lam[active] = 0.5 * (lo + hi)[active]
    return lam


def assert_same_outcome(*args):
    """The kernel and the evaluated copy return equal arrays, or raise
    LuxemburgError with the same message."""
    try:
        expect = evaluated_luxemburg_batch(*args)
    except LuxemburgError as exc:
        with pytest.raises(LuxemburgError) as got:
            _kernels.luxemburg_batch(*args)
        assert str(got.value) == str(exc)
        return
    got = _kernels.luxemburg_batch(*args)
    assert got.dtype == expect.dtype and np.array_equal(got, expect)


def small_groups(rng, sizes, zero_share=0.0):
    """CSR groups of the given cell counts with lognormal values (a share
    of them 0), weights in (0, 1] and cube volumes at least the weights'
    sum."""
    indptr = np.concatenate(([0], np.cumsum(sizes)))
    vals = rng.lognormal(0.0, 1.5, indptr[-1]) * (rng.random(indptr[-1]) >= zero_share)
    wts = rng.uniform(1e-3, 1.0, indptr[-1])
    vols = np.add.reduceat(wts, indptr[:-1]) * rng.uniform(1.0, 4.0, len(sizes))
    return vals, wts, indptr, vols


class TestCertifiedBisectionOracle:
    """The certified kernel against ``evaluated_luxemburg_batch``, with
    ``==`` on every lambda and on every error's message."""

    @pytest.mark.parametrize("phi", [*CLOSED_KINDS, NUMERIC_LOG_BUMP], ids=lambda p: p.name)
    def test_level_tables_and_random_cuts(self, phi):
        rng = np.random.default_rng(80)
        for mesh in (*SEGMENT_MESHES, Mesh(2, 0, 3, coarse_padding=1)):
            vals, wts, indptr, vols, starts = level_table_csr(lognormal(mesh, 81))
            assert_same_outcome(vals, wts, indptr, vols, phi, starts)
            assert_same_outcome(vals, wts, indptr, vols, phi)
            ngroups = len(vols)
            cuts = rng.choice(np.arange(1, ngroups), size=rng.integers(1, ngroups // 2), replace=False)
            assert_same_outcome(vals, wts, indptr, vols, phi, [0, *sorted(cuts.tolist())])
            assert_same_outcome(vals, wts, indptr, vols, phi, list(range(ngroups)))

    def test_mixed_runs(self):
        rng = np.random.default_rng(82)
        # dual_log_bump(1.5, 5) decreases near t = 6, so it stays uncertified
        youngs = [*CLOSED_KINDS, NUMERIC_LOG_BUMP, YoungFunction.loglog_bump(1.2, 3.0),
                  YoungFunction.dual_loglog_bump(4.0, 2.0), YoungFunction.power(6.0, 1e-3),
                  YoungFunction.dual_log_bump(1.5, 5.0)]
        for mesh in SEGMENT_MESHES:
            vals, wts, indptr, vols, starts = level_table_csr(lognormal(mesh, 83))
            ngroups = len(vols)
            for trial in range(4):
                # runs may cut a group in two
                edges = sorted({0, len(vals), *rng.integers(1, len(vals), 6).tolist()})
                phis = [youngs[i] for i in rng.integers(0, len(youngs), len(edges) - 1)]
                runs = list(zip(edges, edges[1:], phis))
                cuts = sorted({0, *rng.integers(1, ngroups, 4).tolist()})
                assert_same_outcome(vals, wts, indptr, vols, runs, cuts)

    @pytest.mark.parametrize("phi", CLOSED_KINDS, ids=lambda p: p.name)
    def test_small_zero_and_constant_groups(self, phi):
        rng = np.random.default_rng(84)
        sizes = rng.integers(1, 40, 300)
        sizes[::7] = 1
        vals, wts, indptr, vols = small_groups(rng, sizes, zero_share=0.3)
        # a run of empty groups, and groups of zeros
        indptr = np.concatenate((indptr[:50], np.full(5, indptr[50]), indptr[50:]))
        vols = np.concatenate((vols[:50], np.ones(5), vols[50:]))
        vals[indptr[10] : indptr[13]] = 0.0
        assert_same_outcome(vals, wts, indptr, vols, phi, [0, 50, 55, 200])
        assert_same_outcome(vals, wts, indptr, vols, phi)
        # constant groups whose weights fill their cubes: under t^2 the
        # average at the group maximum is exactly 1, so the bracket has
        # zero width; under the other kinds the root is a fixed multiple
        for value, count in ((3.0, 1), (0.7, 4), (2.0**-30, 16), (5.0, 3)):
            vals = np.full(count, value)
            wts = np.full(count, 1.0 / count)
            args = (vals, wts, np.array([0, count]), np.ones(1))
            assert_same_outcome(*args, phi)
            assert_same_outcome(*args, YoungFunction.power(2.0))
        ones = (np.ones(4), np.full(4, 0.25), np.array([0, 4]), np.ones(1))
        assert _kernels.luxemburg_batch(*ones, YoungFunction.power(2.0))[0] == 1.0

    def test_segment_above_the_call_cap(self, monkeypatch):
        # the 2-D L=6 corpus levels near the top meet more than 2^12 cells
        # each, so each of them is a call of its own
        from rieszw.orlicz import _LUX_BATCH_CELLS

        mesh = Mesh(2, 0, 6)
        c = mesh.corpus
        f = lognormal(mesh, 85)
        calls, kernel = [], _kernels.luxemburg_batch
        monkeypatch.setattr(_kernels, "luxemburg_batch", lambda *a: calls.append(a) or kernel(*a))
        luxemburg_norms(f, c.lo3, c.hi3, YoungFunction.log_bump(2.0, 1.0), c.starts)
        large = [a for a in calls if len(a[0]) > _LUX_BATCH_CELLS]
        assert large
        for args in large:
            assert_same_outcome(*args)

    def test_failures_raise_the_same_message(self, monkeypatch):
        one = (np.ones(3), np.ones(3), np.arange(4))
        # upper: a cube volume of 1e-250 puts the root at 1e125
        assert_same_outcome(*one, np.array([1.0, 1e-250, 1.0]), YoungFunction.power(2.0), [0, 1, 2])
        # lower: Phi = 1e-300 t^2 puts the root at 1e-150
        assert_same_outcome(*one, np.ones(3), YoungFunction.power(2.0, 1e-300))
        assert_same_outcome(*one, np.ones(3), [(0, 1, YoungFunction.power(2.0)),
                                                (1, 3, YoungFunction.power(2.0, 1e-300))], [0, 1])
        with pytest.raises(LuxemburgError, match="upper bracket"):
            _kernels.luxemburg_batch(*one, np.array([1.0, 1e-250, 1.0]), YoungFunction.power(2.0))
        with pytest.raises(LuxemburgError, match="lower bracket"):
            _kernels.luxemburg_batch(*one, np.ones(3), YoungFunction.power(2.0, 1e-300))
        # five steps stop no segment of a level table
        monkeypatch.setattr(_kernels, "LUX_MAX_ITER", 5)
        for phi in (*CLOSED_KINDS, NUMERIC_LOG_BUMP):
            vals, wts, indptr, vols, starts = level_table_csr(lognormal(Mesh(1, 0, 4), 86))
            assert_same_outcome(vals, wts, indptr, vols, phi, starts)
            with pytest.raises(LuxemburgError, match="did not converge in 5 steps"):
                _kernels.luxemburg_batch(vals, wts, indptr, vols, phi, starts)

    def test_rate_bounds_the_elasticity(self):
        # d log Phi / d log t >= rate > 0 on a grid from 1e-8 to 1e12, and
        # the kinds whose logarithmic exponents can make Phi decrease are
        # refused
        t = np.logspace(-8, 12, 20001)
        for phi in (*CLOSED_KINDS, YoungFunction.dual_log_bump(1.5, 3.4), YoungFunction.dual_loglog_bump(1.2, 3.0)):
            rate, _ = _kernels._closed_exponents(phi)
            slope = np.diff(np.log(phi(t))) / np.diff(np.log(t))
            assert rate > 0.0 and slope.min() >= rate * (1.0 - 1e-6)
        assert _kernels._closed_exponents(YoungFunction.dual_log_bump(1.5, 5.0)) is None
        assert np.diff(np.log(YoungFunction.dual_log_bump(1.5, 5.0)(t))).min() < 0.0
        assert _kernels._closed_exponents(NUMERIC_LOG_BUMP) is None
        assert _kernels._closed_exponents(np.square) is None

    def test_ends_of_the_float_range(self):
        # subnormal and near-overflow values: brackets that do not halve
        # exactly, and at 1e-320 a bisection that cannot converge
        rng = np.random.default_rng(89)
        for scale in (1e-320, 1e-310, 1e-300, 1e300, 1e307):
            args = (rng.uniform(0.5, 2.0, 30) * scale, np.full(30, 1.0 / 3.0), np.arange(0, 31, 3), np.ones(10))
            for phi in CLOSED_KINDS:
                with np.errstate(over="ignore"):
                    assert_same_outcome(*args, phi, [0, 5])

    def test_values_outside_the_error_model(self):
        # negative values, zero weights, weights above 2^400, and cube
        # volumes below 2^-400 leave their groups uncertified
        rng = np.random.default_rng(87)
        vals, wts, indptr, vols = small_groups(rng, rng.integers(1, 20, 40))
        vals[indptr[3]] = -0.5
        wts[indptr[5]] = 0.0
        wts[indptr[7]] = 2.0**401
        vols[7] = 2.0**402
        vols[9] = 2.0**-401
        wts[indptr[9] : indptr[10]] = 2.0**-402
        for phi in CLOSED_KINDS[:3]:
            # a negative value to a fractional power is NaN in both
            with np.errstate(invalid="ignore"):
                assert_same_outcome(vals, wts, indptr, vols, phi, [0, 4, 8])


def longdouble_young(phi, t):
    """``phi`` of the closed kinds in long double, from the same float64
    parameters and constants as ``_kernels.young_eval_np``."""
    a, b = np.longdouble(phi.a), np.longdouble(phi.b)
    if phi.kind == _kernels.KIND_POWER:
        return b * t**a
    lg = np.log(np.longdouble(_kernels._E) + t)
    if phi.kind == _kernels.KIND_LOG_BUMP:
        return t**a * lg ** np.longdouble(phi.a - 1.0 + phi.b)
    if phi.kind == _kernels.KIND_DUAL_LOG:
        return t**a * lg ** np.longdouble(-1.0 - phi.b)
    llg = np.log(np.log(np.longdouble(_kernels._EE) + t))
    if phi.kind == _kernels.KIND_LOGLOG_BUMP:
        return t**a * lg ** np.longdouble(phi.a - 1.0) * llg ** np.longdouble(phi.a - 1.0 + phi.b)
    return t**a / lg * llg ** np.longdouble(-1.0 - phi.b)


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 60, reason="long double is no wider than float64")
class TestCertificationErrorModel:
    """The computed group average near the root against a long double
    recomputation: within eps_g / 4, a quarter of the bound that
    certification assumes (see ``_kernels``)."""

    @pytest.mark.parametrize("phi", [*CLOSED_KINDS, YoungFunction.log_bump(4.0, 1.0),
                                     YoungFunction.loglog_bump(1.2, 3.0), YoungFunction.power(1.3)],
                             ids=lambda p: f"{p.name}-{p.a:.3g}")
    def test_group_average_within_a_quarter_of_the_bound(self, phi):
        rng = np.random.default_rng(88)
        sizes = np.concatenate((np.ones(50, dtype=np.int64), rng.integers(2, 50, 200), rng.integers(500, 3000, 6)))
        vals, wts, indptr, vols = small_groups(rng, sizes, zero_share=0.1)
        vals[indptr[60] : indptr[61]] *= 1e6
        ngroups = len(sizes)
        root = _kernels.luxemburg_batch(vals, wts, indptr, vols, phi, np.arange(ngroups))
        keep = root > 0.0
        lam = np.where(keep, root * (1.0 + rng.uniform(-1e-10, 1e-10, ngroups)), 1.0)
        group_of = np.repeat(np.arange(ngroups), sizes)
        # the kernel's arithmetic: divide, Young function, weight, bincount, volume
        computed = np.bincount(group_of, weights=phi(vals / lam[group_of]) * wts, minlength=ngroups) / vols
        terms = longdouble_young(phi, vals.astype(np.longdouble) / lam[group_of]) * wts
        exact = np.add.reduceat(terms, indptr[:-1]) / vols
        _, cond = _kernels._closed_exponents(phi)
        eps = (sizes + 16.0 * (cond + 2.0)) * 2.0**-53
        err = np.abs(computed - exact)[keep] / exact[keep]
        assert keep.sum() >= ngroups - 30
        assert np.all(err <= eps[keep] / 4.0), float(np.max(err / eps[keep]))
