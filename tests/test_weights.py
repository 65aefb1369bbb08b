import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rieszw.mesh import DyadicCube, Mesh, StepFunction, _containing_coord
from rieszw.orlicz import YoungFunction
from rieszw.weights import (
    CharacteristicReport,
    ExponentTuple,
    ainfty_exp,
    ap_constant,
    apq_constant,
    bump_constant,
    fujii_wilson,
    generate_weight,
    mixed_apq_alpha,
    parse_weight_spec,
    range_conditions,
    two_weight_ap,
)
from rieszw import weights
from rieszw.operators import hl_maximal
from rieszw.orlicz import _box_cells, _conjugate
from rieszw.weights import _center_mask

from conftest import _scan_levels, center_slices, level_grids, lognormal
from test_orlicz import oracle_luxemburg_norms, parent_luxemburg_batch


def two_valued(mesh, a, b):
    vals = np.full(mesh.cells_per_axis, float(b))
    vals[: mesh.cells_per_axis // 2] = float(a)
    return StepFunction(mesh, vals)


class TestExponentTuple:
    def test_sobolev_fixture(self):
        e = ExponentTuple(1, 0.5, 4.0 / 3.0, 4.0)
        assert e.sobolev
        assert e.s_p == pytest.approx(2.0)
        assert e.s_qprime == pytest.approx(2.0)

    def test_sobolev_pair_construction(self):
        e = ExponentTuple.sobolev_pair(1, 0.5, 4.0 / 3.0)
        assert e.q == pytest.approx(4.0)

    @given(st.integers(1, 2), st.floats(0.05, 0.95), st.floats(1.05, 4.0))
    @settings(max_examples=100, deadline=None)
    def test_duality_identity(self, n, frac, p):
        # s(p)' = s(q') for every Sobolev tuple
        alpha = frac * n
        inv_q = 1.0 / p - alpha / n
        if inv_q <= 1e-9:
            return
        e = ExponentTuple(n, alpha, p, 1.0 / inv_q)
        sp = e.s_p
        assert sp / (sp - 1.0) == pytest.approx(e.s_qprime, rel=1e-12)

    @pytest.mark.parametrize("eps", [1e-8, 1e-6, 1e-4, 1e-2])
    @pytest.mark.parametrize("n", [1, 2])
    def test_near_infinite_q(self, n, eps):
        # 1/q = eps: n - alpha*p is nearly 0, so the p(n-alpha)/(n-alpha*p)
        # form of s(p) loses digits there
        for frac in np.linspace(0.26, 0.9, 9).tolist():
            p = 1.0 / (frac + eps)
            e = ExponentTuple(n, frac * n, p, 1.0 / (1.0 / p - frac))
            assert e.sobolev

    def test_hypothesis_edge_example(self):
        # the test_duality_identity draw n=1, frac=0.5551117655668327, p=1.801340671451161
        frac, p = 0.5551117655668327, 1.801340671451161
        e = ExponentTuple(1, frac, p, 1.0 / (1.0 / p - frac))
        assert e.sobolev and e.q > 3e4

    def test_sobolev_form_check_is_live(self, monkeypatch):
        # an s(p) off by 1e-11 relative must still fail the 1e-12 check
        s_p = ExponentTuple.s_p
        monkeypatch.setattr(ExponentTuple, "s_p", property(lambda e: s_p.fget(e) * (1.0 + 1e-11)))
        with pytest.raises(AssertionError, match="Sobolev form"):
            ExponentTuple(1, 0.5, 4.0 / 3.0, 4.0)

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            ExponentTuple(1, 1.5, 2.0, 2.0)
        with pytest.raises(ValueError):
            ExponentTuple(1, 0.5, 3.0, 2.0)


class TestApConstants:
    def test_constant_weight(self, unit_mesh):
        w = StepFunction.constant(unit_mesh, 1.0)
        assert ap_constant(w, 2.0).value == pytest.approx(1.0, rel=1e-12)

    def test_two_valued_oracle(self, unit_mesh):
        # (1+theta)(1-theta/2) maximized over the overlap fraction theta at
        # theta = 1/2 gives 9/8
        w = two_valued(unit_mesh, 2.0, 1.0)
        assert ap_constant(w, 2.0).value == pytest.approx(1.125, rel=1e-10)

    def test_zero_cell_diverges(self, unit_mesh):
        vals = np.ones(unit_mesh.cells_per_axis)
        vals[3] = 0.0
        rep = ap_constant(StepFunction(unit_mesh, vals), 2.0)
        assert math.isinf(rep.value) and not rep.finite

    def test_witness_reproduces_value(self, unit_mesh):
        w = lognormal(unit_mesh, 17, scale=0.7)
        rep = ap_constant(w, 2.0)
        q = rep.witness
        dual = w.map(lambda v: 1.0 / v)
        recomputed = w.cube_average(q) * dual.cube_average(q)
        assert recomputed == pytest.approx(rep.value, rel=1e-10)

    def test_characteristic_identity(self, unit_mesh):
        # [w]_{A_{p,q}} = [w^q]_{A_{s(p)}}^{1/q} = [w^{-p'}]_{A_{s(q')}}^{1/p'}
        e = ExponentTuple(1, 0.5, 4.0 / 3.0, 4.0)
        for seed in range(3):
            w = lognormal(unit_mesh, 400 + seed, scale=0.4)
            lhs = apq_constant(w, e.p, e.q).value
            mid = ap_constant(w.map(lambda v: v**e.q), e.s_p).value ** (1.0 / e.q)
            rhs = ap_constant(w.map(lambda v: v**-e.p_prime), e.s_qprime).value ** (
                1.0 / e.p_prime
            )
            assert lhs == pytest.approx(mid, rel=1e-10)
            assert lhs == pytest.approx(rhs, rel=1e-10)


class TestTwoWeight:
    def test_constants(self, unit_mesh):
        one = StepFunction.constant(unit_mesh, 1.0)
        two = StepFunction.constant(unit_mesh, 2.0)
        assert two_weight_ap(one, one, 2.0).value == pytest.approx(1.0, rel=1e-12)
        assert two_weight_ap(two, one, 2.0).value == pytest.approx(2.0, rel=1e-12)

    def test_disjoint_indicators(self, unit_mesh):
        n = unit_mesh.cells_per_axis
        u = StepFunction(unit_mesh, np.r_[np.ones(n // 2), np.zeros(n // 2)])
        s = StepFunction(unit_mesh, np.r_[np.zeros(n // 2), np.ones(n // 2)])
        assert two_weight_ap(u, s, 2.0).value == pytest.approx(0.25, rel=1e-10)


class TestAinftyAndFujiiWilson:
    def test_ainfty_scale_invariant(self, unit_mesh):
        for c in (1.0, 7.0):
            w = StepFunction.constant(unit_mesh, c)
            assert ainfty_exp(w).value == pytest.approx(1.0, rel=1e-10)

    def test_ainfty_two_valued_lower_bound(self, unit_mesh):
        w = two_valued(unit_mesh, 2.0, 1.0)
        # the top cube alone gives exp(-log(2)/2) * 3/2
        assert ainfty_exp(w).value >= 1.5 / math.sqrt(2.0) - 1e-10

    def test_ainfty_zero_cell(self, unit_mesh):
        vals = np.ones(unit_mesh.cells_per_axis)
        vals[0] = 0.0
        assert math.isinf(ainfty_exp(StepFunction(unit_mesh, vals)).value)

    def test_fujii_wilson_constant(self):
        mesh = Mesh(1, 0, 4)
        w = StepFunction.constant(mesh, 1.0)
        assert fujii_wilson(w, max_level=2).value == pytest.approx(1.0, rel=1e-10)

    def test_fujii_wilson_dominates_one(self):
        mesh = Mesh(1, 0, 4)
        vals = np.r_[np.ones(8), np.zeros(8)]
        rep = fujii_wilson(StepFunction(mesh, vals), max_level=2)
        assert rep.value >= 1.0 - 1e-12


def in_box_cubes_with_bounds(mesh):
    """The in-box corpus as (cube, lower, upper) triples, one cube at a time."""
    for shift, level, coords, lo, hi in _scan_levels(mesh):
        for i in range(len(coords)):
            cube = DyadicCube(shift, level, tuple(int(c) for c in coords[i]))
            yield cube, tuple(lo[i]), tuple(hi[i])


def zero_mass_weight(mesh, seed):
    """A lognormal weight that vanishes on the left half of the box."""
    w = lognormal(mesh, seed, scale=0.7).values.copy()
    w[: mesh.cells_per_axis // 2] = 0.0
    return StepFunction(mesh, w)


def loop_fujii_wilson(w, max_level=None):
    """``fujii_wilson`` as a loop over (cube, lower, upper) triples with one
    cube integral per cube."""
    mesh = w.mesh
    best, witness, count = -math.inf, None, 0
    for cube, lo, hi in in_box_cubes_with_bounds(mesh):
        if max_level is not None and cube.level > max_level:
            continue
        wq = w.cube_integral(cube)
        if wq <= 0.0:
            continue
        count += 1
        mask = _center_mask(mesh, lo, hi)
        mloc = hl_maximal(StepFunction(mesh, w.values * mask))
        val = float(np.sum(mloc.values * mask)) * mesh.cell_volume / wq
        if val > best:
            best, witness = val, cube
    if count == 0:
        return CharacteristicReport("A_inf' (Fujii-Wilson)", 0.0, None, 0)
    return CharacteristicReport("A_inf' (Fujii-Wilson)", best, witness, count)


class TestFujiiWilsonOracle:
    @pytest.mark.parametrize("max_level", [None, 1], ids=["all", "max1"])
    @pytest.mark.parametrize("zeros", ["positive", "zero-mass"])
    @pytest.mark.parametrize("mesh", [Mesh(1, 0, 5), Mesh(1, 1, 4, coarse_padding=0), Mesh(2, 0, 2)],
                             ids=["n1", "n1J1-T0", "n2"])
    def test_equals_loop(self, mesh, zeros, max_level):
        w = lognormal(mesh, 73, scale=0.7) if zeros == "positive" else zero_mass_weight(mesh, 73)
        got = fujii_wilson(w, max_level=max_level)
        expect = loop_fujii_wilson(w, max_level=max_level)
        assert (got.name, got.value, got.witness, got.corpus_size) == (
            expect.name, expect.value, expect.witness, expect.corpus_size)
        if zeros == "zero-mass":
            assert got.corpus_size < sum(len(c) for _, _, c, _, _ in _scan_levels(mesh))

    def test_all_zero_weight(self):
        w = StepFunction.constant(Mesh(1, 0, 3), 0.0)
        assert fujii_wilson(w) == loop_fujii_wilson(w)


def frame_mask(mesh, lo3, hi3):
    """1.0 on the cells whose centre lies in one box, as a full frame."""
    mask = np.zeros((mesh.cells_per_axis,) * mesh.n)
    mask[center_slices(mesh, lo3, hi3)] = 1.0
    return mask


def hl_fujii_wilson(w, max_level=None):
    """``fujii_wilson`` as one ``hl_maximal`` on the full mesh per cube."""
    mesh = w.mesh
    c = mesh.corpus
    scan = np.flatnonzero(c.level <= max_level) if max_level is not None else np.arange(len(c.level))
    wq = w.integral_box3(c.lo3[scan], c.hi3[scan])
    keep = wq > 0.0
    best, witness = -math.inf, None
    for i, wqi in zip(scan[keep].tolist(), wq[keep].tolist()):
        mask = frame_mask(mesh, c.lo3[i], c.hi3[i])
        mloc = hl_maximal(StepFunction(mesh, w.values * mask))
        val = float(np.sum(mloc.values * mask)) * mesh.cell_volume / wqi
        if val > best:
            best, witness = val, c.cube(i)
    count = int(np.count_nonzero(keep))
    if count == 0:
        return CharacteristicReport("A_inf' (Fujii-Wilson)", 0.0, None, 0)
    return CharacteristicReport("A_inf' (Fujii-Wilson)", best, witness, count)


def boundary_cell_weight(mesh, level):
    """A weight whose whole mass sits on one cell at the edge of the centre
    window of an in-box all-ones-shift cube of the level: the cell's centre
    lies in the cube, but a third of its width on some axis does not."""
    c = mesh.corpus
    shift = (1,) * mesh.n
    i = next(i for i in range(len(c.level)) if c.level[i] == level and c.cube(i).shift == shift)
    i0, i1 = mesh.center_window(c.lo3[i], c.hi3[i])
    # a window end cell reaches past the cube unless the cube edge is a cell edge
    cell = np.where(c.lo3[i] > 3 * i0, i0, i1 - 1)
    assert np.any(c.lo3[i] > 3 * i0) or np.any(c.hi3[i] < 3 * i1)
    w = np.zeros((mesh.cells_per_axis,) * mesh.n)
    w[tuple(cell)] = 1.0
    return StepFunction(mesh, w)


FW_MESHES = [Mesh(n, J, L, coarse_padding=T) for n, L in ((1, 5), (2, 2)) for J in (0, 1) for T in (0, 40)]


def mesh_id(m):
    return f"n{m.n}-J{m.base_exponent}-L{m.finest_exponent}-T{m.coarse_padding}"


def thirds_overlap(lo3, hi3, cells):
    """Thirds of each cell's width, along one axis, that [lo3, hi3) covers."""
    return np.clip(np.minimum(hi3, 3 * cells + 3) - np.maximum(lo3, 3 * cells), 0, 3)


class TestFujiiWilsonStart:
    """The two facts that let every window sweep of ``fujii_wilson`` start
    at Q's own level k, for every corpus segment."""

    MESHES = FW_MESHES + [Mesh(1, 1, 4, coarse_padding=0), Mesh(2, 1, 3, coarse_padding=0)]

    @pytest.mark.parametrize("mesh", MESHES, ids=mesh_id)
    def test_no_grid_starts_finer_than_q(self, mesh):
        starts = [mesh.maximal_levels(t).start for t in mesh.shifts()]
        for _, k in mesh.corpus.segments:
            assert max(starts) <= k

    @pytest.mark.parametrize("mesh", MESHES, ids=mesh_id)
    def test_one_level_coarser_averages_less(self, mesh):
        # in thirds of a cell width per axis, avg_P <= (3/4)^n avg_Q for a
        # level-(k-1) cube P reads 2^n sum w o_P <= 3^n sum w o_Q; Q covers
        # at least 2 thirds per axis of each window cell, so this holds term
        # by term, and float rounding is monotone: the sums compare exactly
        n, L = mesh.n, mesh.finest_exponent
        c = mesh.corpus
        for w in (lognormal(mesh, 93, scale=0.7), boundary_cell_weight(mesh, 1)):
            for i, k in enumerate(c.level.tolist()):
                i0, i1 = mesh.center_window(c.lo3[i], c.hi3[i])
                cells = [np.arange(a, b) for a, b in zip(i0.tolist(), i1.tolist())]
                oq = [thirds_overlap(c.lo3[i, a], c.hi3[i, a], x) for a, x in enumerate(cells)]
                assert min(o.min() for o in oq) >= 2
                vals = w.values[np.ix_(*cells)]
                own = np.sum(vals * (3**n * functools.reduce(np.multiply.outer, oq)))
                for t in mesh.shifts():
                    coords = [np.unique(_containing_coord(x, t[a], k - 1, L)).tolist()
                              for a, x in enumerate(cells)]
                    for m in itertools.product(*coords):
                        lo, hi = DyadicCube(t, k - 1, m).bounds3(L)
                        op = [thirds_overlap(lo[a], hi[a], x) for a, x in enumerate(cells)]
                        assert np.sum(vals * (2**n * functools.reduce(np.multiply.outer, op))) <= own


class TestFujiiWilsonWindows:
    """The windowed, segment-batched ``fujii_wilson`` against one full-mesh
    ``hl_maximal`` per cube, ``==`` on value, witness and count."""

    @pytest.mark.parametrize("mesh", FW_MESHES, ids=mesh_id)
    def test_equals_full_mesh_sweep(self, mesh):
        # max_level None scans the level-L cubes too: one-cell windows
        for w in (lognormal(mesh, 90, scale=0.7), zero_mass_weight(mesh, 91),
                  generate_weight(mesh, "power:beta=-0.4"), StepFunction.constant(mesh, 2.0)):
            for max_level in (None, 1, 3):
                assert_same_report(fujii_wilson(w, max_level), hl_fujii_wilson(w, max_level))

    def test_larger_windows(self):
        for mesh in (Mesh(1, 0, 8), Mesh(2, 0, 4)):
            w = generate_weight(mesh, "martingale:seed=5,vol=0.5")
            assert_same_report(fujii_wilson(w, 1), hl_fujii_wilson(w, 1))

    def test_many_windows_per_shifted_segment(self):
        # up to level 3 of 2-D L=4, a shifted segment holds up to 7 x 7
        # windows, all read through the first window's layout
        mesh = Mesh(2, 0, 4)
        for w in (generate_weight(mesh, "martingale:seed=7,vol=0.5"),
                  boundary_cell_weight(mesh, 2), boundary_cell_weight(mesh, 3)):
            assert_same_report(fujii_wilson(w, 3), hl_fujii_wilson(w, 3))

    @pytest.mark.parametrize("mesh", [Mesh(1, 0, 5), Mesh(2, 0, 3)], ids=["n1", "n2"])
    def test_mass_in_a_boundary_cell(self, mesh):
        # the level skip at its edge: chi_Q w sits on a cell Q covers by
        # 2/3 per axis, so coarse cubes come closest to Q's own average
        for level in (1, 2):
            w = boundary_cell_weight(mesh, level)
            got = fujii_wilson(w)
            assert_same_report(got, hl_fujii_wilson(w))
            assert got.corpus_size < len(mesh.corpus.level)

    def test_all_zero_weight(self):
        for mesh in (Mesh(1, 0, 3), Mesh(2, 1, 1)):
            w = StepFunction.constant(mesh, 0.0)
            got = fujii_wilson(w)
            assert_same_report(got, hl_fujii_wilson(w))
            assert (got.value, got.witness, got.corpus_size) == (0.0, None, 0)

    def test_across_frame_blocks(self, monkeypatch):
        mesh = Mesh(2, 0, 3)
        w = lognormal(mesh, 92, scale=0.7)
        expect = hl_fujii_wilson(w, 2)
        monkeypatch.setattr(weights, "_FRAME_BLOCK", 3 * mesh.total_cells)
        assert_same_report(fujii_wilson(w, 2), expect)


class TestMixedAndBump:
    def test_sobolev_scale_free(self, unit_mesh):
        e = ExponentTuple(1, 0.5, 4.0 / 3.0, 4.0)
        one = StepFunction.constant(unit_mesh, 1.0)
        assert mixed_apq_alpha(one, one, e).value == pytest.approx(1.0, rel=1e-10)

    def test_non_sobolev_attained_at_root(self, unit_mesh):
        e = ExponentTuple(1, 0.5, 2.0, 2.0)
        one = StepFunction.constant(unit_mesh, 1.0)
        rep = mixed_apq_alpha(one, one, e)
        # exponent alpha/n > 0: the largest in-box cube wins
        assert rep.value == pytest.approx(1.0, rel=1e-10)
        assert rep.witness.level == 0

    def test_bump_constant_power_case(self, unit_mesh):
        e = ExponentTuple(1, 0.5, 4.0 / 3.0, 4.0)
        one = StepFunction.constant(unit_mesh, 1.0)
        k = bump_constant(one, one, e, YoungFunction.power(e.q), YoungFunction.power(e.p_prime))
        assert k.value == pytest.approx(1.0, rel=1e-10)

    def test_bump_constant_log_case(self, unit_mesh):
        e = ExponentTuple(1, 0.5, 4.0 / 3.0, 4.0)
        one = StepFunction.constant(unit_mesh, 1.0)
        phi = YoungFunction.log_bump(e.q, 1.0)
        k = bump_constant(one, one, e, phi, YoungFunction.power(e.p_prime))
        assert k.value == pytest.approx(1.0 / phi.inverse(1.0), rel=1e-10)


def oracle_bump_constant(u, sigma, exps, phi, psi):
    """The per-level loop over DyadicCube lists that ``bump_constant``
    replaced, on the per-cube Luxemburg oracle."""
    e = exps.alpha / exps.n + 1.0 / exps.q - 1.0 / exps.p
    uroot = u.map(lambda v: v ** (1.0 / exps.q))
    sroot = sigma.map(lambda v: v ** (1.0 / exps.p_prime))
    mesh = u.mesh
    best, witness, count = -math.inf, None, 0
    for shift in mesh.shifts():
        for g in level_grids(mesh, shift):
            if not g.in_box.any():
                continue
            coords = g.coords[g.in_box]
            cubes = [DyadicCube(shift, g.level, tuple(int(c) for c in row)) for row in coords]
            nu = oracle_luxemburg_norms(uroot, cubes, phi)
            ns = oracle_luxemburg_norms(sroot, cubes, psi)
            vals = (2.0 ** (-g.level * exps.n)) ** e * nu * ns
            count += len(vals)
            i = int(np.argmax(vals))
            if vals[i] > best:
                best, witness = float(vals[i]), cubes[i]
    if count == 0:
        return CharacteristicReport("bump", 0.0, None, 0)
    return CharacteristicReport("bump", best, witness, count)


class TestBumpOracle:
    @pytest.mark.parametrize("kind", ["log", "loglog"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_per_cube_loop(self, n, kind):
        mesh = Mesh(1, 0, 5) if n == 1 else Mesh(2, 1, 2, coarse_padding=3)
        exps = ExponentTuple.sobolev_pair(n, 0.5 * n, 4.0 / 3.0)
        make = YoungFunction.log_bump if kind == "log" else YoungFunction.loglog_bump
        u, sigma = lognormal(mesh, 71, scale=0.7), lognormal(mesh, 72, scale=0.7)
        for phi, psi in ((make(exps.q, 1.0), YoungFunction.power(exps.p_prime)),
                         (YoungFunction.power(exps.q), make(exps.p_prime, 0.5))):
            got = bump_constant(u, sigma, exps, phi, psi)
            expect = oracle_bump_constant(u, sigma, exps, phi, psi)
            assert (got.name, got.value, got.witness, got.corpus_size) == (
                expect.name, expect.value, expect.witness, expect.corpus_size)


# The per-level scans that the corpus-wide characteristics replaced, copied
# as oracles: one (shift, level) at a time, a per-level callback, and a
# witness kept when a level's first maximum strictly beats the best so far.


def parent_scan_levels(mesh):
    for shift in mesh.shifts():
        for g in level_grids(mesh, shift):
            if g.in_box.any():
                yield shift, g.level, g.coords[g.in_box], g.lo3[g.in_box], g.hi3[g.in_box]


def parent_supremum_report(name, mesh, per_level):
    best = -math.inf
    witness = None
    count = 0
    for shift, level, coords, lo, hi in parent_scan_levels(mesh):
        vals = per_level(shift, level, lo, hi)
        count += len(vals)
        i = int(np.argmax(vals))
        if vals[i] > best:
            best = float(vals[i])
            witness = DyadicCube(shift, level, tuple(int(c) for c in coords[i]))
    if count == 0:
        return CharacteristicReport(name, 0.0, None, 0)
    return CharacteristicReport(name, best, witness, count)


def parent_avg(f, lo, hi, level):
    return f.integral_box3(lo, hi) / 2.0 ** (-level * f.mesh.n)


def parent_ap_constant(w, p):
    pp = _conjugate(p)
    pos = w.values > 0.0
    dual = StepFunction(w.mesh, np.where(pos, w.values, 1.0) ** (1.0 - pp) * pos)
    zeros = StepFunction(w.mesh, (~pos).astype(np.float64))

    def per_level(shift, level, lo, hi):
        a = parent_avg(w, lo, hi, level)
        b = parent_avg(dual, lo, hi, level)
        z = zeros.integral_box3(lo, hi)
        vals = a * b ** (p - 1.0)
        return np.where((z > 0.0) & (a > 0.0), math.inf, vals)

    return parent_supremum_report(f"A_{p:g}", w.mesh, per_level)


def parent_apq_constant(w, p, q):
    pp = _conjugate(p)
    pos = w.values > 0.0
    wq = w.map(lambda v: v**q)
    dual = StepFunction(w.mesh, np.where(pos, w.values, 1.0) ** (-pp) * pos)
    zeros = StepFunction(w.mesh, (~pos).astype(np.float64))

    def per_level(shift, level, lo, hi):
        a = parent_avg(wq, lo, hi, level)
        b = parent_avg(dual, lo, hi, level)
        z = zeros.integral_box3(lo, hi)
        vals = a ** (1.0 / q) * b ** (1.0 / pp)
        return np.where((z > 0.0) & (a > 0.0), math.inf, vals)

    return parent_supremum_report(f"A_{p:g},{q:g}", w.mesh, per_level)


def parent_two_weight_ap(u, sigma, r):
    def per_level(shift, level, lo, hi):
        return parent_avg(u, lo, hi, level) * parent_avg(sigma, lo, hi, level) ** (r - 1.0)

    return parent_supremum_report(f"two-weight A_{r:g}", u.mesh, per_level)


def parent_ainfty_exp(w):
    if np.any(w.values <= 0.0):
        return CharacteristicReport("A_inf (exp-log)", math.inf, None, 0)
    shift_c = float(np.max(np.log(w.values))) + 1.0
    shifted = StepFunction(w.mesh, -np.log(w.values) + shift_c)

    def per_level(shift, level, lo, hi):
        a = parent_avg(w, lo, hi, level)
        m = parent_avg(shifted, lo, hi, level) - shift_c
        return np.exp(m) * a

    return parent_supremum_report("A_inf (exp-log)", w.mesh, per_level)


def parent_mixed_apq_alpha(u, sigma, exps):
    e = exps.alpha / exps.n + 1.0 / exps.q - 1.0 / exps.p

    def per_level(shift, level, lo, hi):
        size = 2.0 ** (-level * exps.n)
        a = parent_avg(u, lo, hi, level)
        b = parent_avg(sigma, lo, hi, level)
        return size**e * a ** (1.0 / exps.q) * b ** (1.0 / exps.p_prime)

    return parent_supremum_report("mixed A_pq^alpha", u.mesh, per_level)


def parent_luxemburg_norms(f, lo3, hi3, phi):
    vals, wts, indptr = _box_cells(f, lo3, hi3)
    vols = np.prod((hi3 - lo3) / 3.0 * f.mesh.cell_width, axis=1)
    return parent_luxemburg_batch(vals, wts, indptr, vols, phi)


def parent_bump_constant(u, sigma, exps, phi, psi):
    e = exps.alpha / exps.n + 1.0 / exps.q - 1.0 / exps.p
    uroot = u.map(lambda v: v ** (1.0 / exps.q))
    sroot = sigma.map(lambda v: v ** (1.0 / exps.p_prime))

    def per_level(shift, level, lo, hi):
        nu = parent_luxemburg_norms(uroot, lo, hi, phi)
        ns = parent_luxemburg_norms(sroot, lo, hi, psi)
        return (2.0 ** (-level * exps.n)) ** e * nu * ns

    return parent_supremum_report("bump", u.mesh, per_level)


def parent_fujii_wilson(w, max_level=None):
    mesh = w.mesh
    best, witness, count = -math.inf, None, 0
    for shift, level, coords, lo, hi in parent_scan_levels(mesh):
        if max_level is not None and level > max_level:
            continue
        for i, wq in enumerate(w.integral_box3(lo, hi).tolist()):
            if wq <= 0.0:
                continue
            count += 1
            mask = _center_mask(mesh, lo[i], hi[i])
            mloc = hl_maximal(StepFunction(mesh, w.values * mask))
            val = float(np.sum(mloc.values * mask)) * mesh.cell_volume / wq
            if val > best:
                best, witness = val, DyadicCube(shift, level, tuple(coords[i].tolist()))
    if count == 0:
        return CharacteristicReport("A_inf' (Fujii-Wilson)", 0.0, None, 0)
    return CharacteristicReport("A_inf' (Fujii-Wilson)", best, witness, count)


def assert_same_report(got, expect):
    assert (got.name, got.value, got.witness, got.corpus_size) == (
        expect.name, expect.value, expect.witness, expect.corpus_size)


CORPUS_MESHES = [Mesh(1, 0, 5), Mesh(1, 1, 3, coarse_padding=0), Mesh(2, 0, 2), Mesh(2, 1, 2, coarse_padding=0)]


def weight_cases(mesh):
    """(label, u, sigma): lognormal, zero cells (the inf branch), and
    constants (every value within rounding of one number)."""
    return [
        ("lognormal", lognormal(mesh, 81, scale=0.7), lognormal(mesh, 82, scale=0.7)),
        ("zero-cells", zero_mass_weight(mesh, 83), lognormal(mesh, 84, scale=0.7)),
        ("constant", StepFunction.constant(mesh, 1.0), StepFunction.constant(mesh, 2.0)),
    ]


class TestCorpusOracle:
    """Every corpus-wide characteristic against its per-level scan, ``==``
    on every report field."""

    @pytest.mark.parametrize("mesh", CORPUS_MESHES,
                             ids=lambda m: f"n{m.n}-J{m.base_exponent}-L{m.finest_exponent}-T{m.coarse_padding}")
    def test_averaged_characteristics(self, mesh):
        exps = ExponentTuple.sobolev_pair(mesh.n, 0.5 * mesh.n, 4.0 / 3.0)
        for label, u, sigma in weight_cases(mesh):
            for got, expect in (
                (ap_constant(u, 2.5), parent_ap_constant(u, 2.5)),
                (apq_constant(u, 1.5, 3.0), parent_apq_constant(u, 1.5, 3.0)),
                (ainfty_exp(u), parent_ainfty_exp(u)),
                (two_weight_ap(u, sigma, 2.0), parent_two_weight_ap(u, sigma, 2.0)),
                (two_weight_ap(sigma, u, 3.0), parent_two_weight_ap(sigma, u, 3.0)),
                (mixed_apq_alpha(u, sigma, exps), parent_mixed_apq_alpha(u, sigma, exps)),
                (mixed_apq_alpha(u, sigma, ExponentTuple(mesh.n, 0.5, 2.0, 2.0)),
                 parent_mixed_apq_alpha(u, sigma, ExponentTuple(mesh.n, 0.5, 2.0, 2.0))),
            ):
                assert_same_report(got, expect)
            if label == "zero-cells":
                assert math.isinf(ap_constant(u, 2.5).value)

    @pytest.mark.parametrize("mesh", CORPUS_MESHES,
                             ids=lambda m: f"n{m.n}-J{m.base_exponent}-L{m.finest_exponent}-T{m.coarse_padding}")
    def test_bump_constant(self, mesh):
        exps = ExponentTuple.sobolev_pair(mesh.n, 0.5 * mesh.n, 4.0 / 3.0)
        pairs = ((YoungFunction.log_bump(exps.q, 1.0), YoungFunction.power(exps.p_prime)),
                 (YoungFunction.power(exps.q), YoungFunction.loglog_bump(exps.p_prime, 0.5)))
        for _, u, sigma in weight_cases(mesh):
            for phi, psi in pairs:
                assert_same_report(bump_constant(u, sigma, exps, phi, psi),
                                   parent_bump_constant(u, sigma, exps, phi, psi))

    def test_bump_constant_across_batches(self, monkeypatch):
        # 1-D L=8: the corpus meets 4,599 cells, more than one batch holds
        mesh = Mesh(1, 0, 8)
        assert sum(int(np.prod((hi + 2) // 3 - lo // 3, axis=1).sum())
                   for _, _, _, lo, hi in _scan_levels(mesh)) > weights._LUX_BATCH_CELLS
        exps = ExponentTuple.sobolev_pair(1, 0.5, 4.0 / 3.0)
        u, sigma = lognormal(mesh, 85, scale=0.7), zero_mass_weight(mesh, 86)
        phi, psi = YoungFunction.log_bump(exps.q, 1.0), YoungFunction.power(exps.p_prime)
        expect = parent_bump_constant(u, sigma, exps, phi, psi)
        assert_same_report(bump_constant(u, sigma, exps, phi, psi), expect)
        # a small budget: many batches, and levels larger than a batch alone
        monkeypatch.setattr(weights, "_LUX_BATCH_CELLS", 40)
        assert len(list(weights._luxemburg_batches(mesh.corpus))) > 5
        assert_same_report(bump_constant(u, sigma, exps, phi, psi), expect)

    def test_batches_cover_the_corpus(self, monkeypatch):
        for budget in (1, 40, 1 << 12, 1 << 40):
            monkeypatch.setattr(weights, "_LUX_BATCH_CELLS", budget)
            for mesh in (Mesh(1, 0, 8), Mesh(2, 0, 3)):
                c = mesh.corpus
                batches = list(weights._luxemburg_batches(c))
                assert [a for a, _, _ in batches][0] == 0 and batches[-1][1] == len(c.level)
                assert all(b == a2 for (_, b, _), (a2, _, _) in zip(batches, batches[1:]))
                starts = np.concatenate([a + s for a, _, s in batches])
                assert np.array_equal(starts, c.starts)

    @pytest.mark.parametrize("mesh", CORPUS_MESHES[:3], ids=["n1", "n1J1-T0", "n2"])
    def test_reduction_ties(self, mesh):
        # few distinct values, so maxima tie within and across levels; then
        # inf ties, NaN entries and all -inf
        rng = np.random.default_rng(88)
        size = len(mesh.corpus.level)
        for trial in range(20):
            vals = rng.integers(0, 3, size).astype(np.float64)
            if trial % 4 == 1:
                vals[rng.integers(0, size, 3)] = math.inf
            if trial % 4 == 2:
                vals[rng.integers(0, size, 2)] = math.nan
            if trial % 4 == 3:
                vals[:] = -math.inf
                vals[rng.integers(0, size, 1)] = math.nan

            def per_level(shift, level, lo, hi, it=iter(np.split(vals, mesh.corpus.starts[1:]))):
                return next(it)

            assert_same_report(weights._supremum_report("x", mesh, vals),
                               parent_supremum_report("x", mesh, per_level))

    def test_nan_level_is_dropped(self):
        # (avg u)(avg sigma)^2 with sigma = 1e200 is 0 * inf = NaN on cubes
        # where u vanishes, and inf elsewhere: levels holding a NaN count
        # for nothing in the per-level scan
        for mesh in (Mesh(1, 0, 4), Mesh(2, 0, 2)):
            u = zero_mass_weight(mesh, 87)
            sigma = StepFunction.constant(mesh, 1e200)
            with np.errstate(over="ignore", invalid="ignore"):
                got, expect = two_weight_ap(u, sigma, 3.0), parent_two_weight_ap(u, sigma, 3.0)
            assert_same_report(got, expect)
            assert got.value == math.inf and got.witness.level == 0

    @pytest.mark.parametrize("max_level", [None, 1], ids=["all", "max1"])
    @pytest.mark.parametrize("mesh", [Mesh(1, 0, 4), Mesh(1, 1, 3, coarse_padding=0), Mesh(2, 0, 2)],
                             ids=["n1", "n1J1-T0", "n2"])
    def test_fujii_wilson(self, mesh, max_level):
        for _, u, _ in weight_cases(mesh):
            assert_same_report(fujii_wilson(u, max_level), parent_fujii_wilson(u, max_level))


class TestRangeConditions:
    def test_sobolev_case_both_true(self):
        f = range_conditions(ExponentTuple(1, 0.5, 4.0 / 3.0, 4.0))
        assert f.weak and f.strong

    def test_p_equals_q_both_false(self):
        f = range_conditions(ExponentTuple(1, 0.5, 2.0, 2.0))
        assert not f.weak and not f.strong

    def test_numeric_case(self):
        e = ExponentTuple(1, 0.5, 1.4, 3.8)
        f = range_conditions(e)
        assert f.weak == ((e.p_prime / e.q_prime) * 0.5 >= 1.0)
        assert f.strong == ((e.q / e.p) * 0.5 >= 1.0)


class TestGenerators:
    def test_constant(self, unit_mesh):
        w = generate_weight(unit_mesh, "constant:c=3")
        assert np.all(w.values == 3.0)

    def test_two_value(self, unit_mesh):
        w = generate_weight(unit_mesh, "twovalue:a=2,b=1")
        n = unit_mesh.cells_per_axis
        assert np.all(w.values[: n // 2] == 2.0) and np.all(w.values[n // 2 :] == 1.0)

    def test_martingale_reproducible(self, unit_mesh):
        a = generate_weight(unit_mesh, "martingale:seed=42,vol=0.3")
        b = generate_weight(unit_mesh, "martingale:seed=42,vol=0.3")
        np.testing.assert_array_equal(a.values, b.values)
        c = generate_weight(unit_mesh, "martingale:seed=43,vol=0.3")
        assert not np.array_equal(a.values, c.values)

    def test_power_weight_positive(self, unit_mesh):
        w = generate_weight(unit_mesh, "power:beta=0.3")
        assert np.all(w.values > 0.0)

    def test_parse_errors(self, unit_mesh):
        with pytest.raises(ValueError):
            parse_weight_spec("twovalue:a=")
        with pytest.raises(ValueError):
            generate_weight(unit_mesh, "unknown:x=1")
