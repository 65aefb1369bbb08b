import dataclasses
import itertools
import json
import math
import re
import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rieszw import cli, corona as corona_module, mesh as mesh_module
from rieszw.cli import ExperimentConfig
from rieszw.mesh import BoxPlan, DyadicCube, Mesh, StepFunction, _prefix_sums, _sweep
from rieszw.normest import _seed_blocks
from rieszw.operators import (_forest_paint, _member_weights, compare_pointwise, dyadic_riesz, riesz_reference,
                              sparse_riesz)
from rieszw.corona import (
    CoronaDecomposition,
    DecayReport,
    DecayRow,
    _certify_coronas,
    _climb,
    _fractional_averages,
    _slicing_values,
    corona_decomposes,
    sigma_decay_check,
)
from rieszw.sparse import (
    CarlesonReport,
    OverlapReport,
    SparseFamily,
    SparsityCertificate,
    build_sparse,
    carleson_check,
    carleson_embedding_check,
    corona_decompose,
    domination_constant,
    overlap_level_set,
    verify_sparse,
)
from rieszw.sparse import _ilog_lt, _int64, _overlap_reports
from rieszw.weights import ExponentTuple, _center_mask, fujii_wilson, generate_weight

from conftest import _flat_index, level_grids, lognormal, per_level_grid
from reference_geometry import contains_cube, coord_range, cube_containing_cell, enumerate_cubes, level_cube_coords

ALPHA = 0.5
ROOT = DyadicCube((0,), 0, (0,))


def nested_chain(mesh, depth=4):
    return SparseFamily(mesh, (0,), tuple(DyadicCube((0,), j, (0,)) for j in range(depth)))


class TestBuild:
    def test_constant_no_padding(self):
        mesh = Mesh(1, 0, 3, coarse_padding=0)
        f = StepFunction.constant(mesh, 1.0)
        fam, C = build_sparse(f, (0,), ALPHA)
        assert fam.cubes == (ROOT,)
        assert C == pytest.approx(4.0 / (1.0 - 2.0 ** -0.5), rel=1e-12)
        assert C == pytest.approx(domination_constant(1, ALPHA))

    def test_constant_domination_geometric(self):
        mesh = Mesh(1, 0, 3, coarse_padding=0)
        f = StepFunction.constant(mesh, 1.0)
        fam, C = build_sparse(f, (0,), ALPHA)
        dy = dyadic_riesz(f, ALPHA, (0,)).values
        sp = sparse_riesz(f, ALPHA, fam).values
        assert np.all(dy <= C * sp + 1e-12)
        # lhs is the geometric sum, well under the constant
        assert dy.max() == pytest.approx(sum(2.0 ** (-k / 2) for k in range(4)))

    def test_spike_yields_ancestor_chain(self):
        mesh = Mesh(1, 0, 5)
        vals = np.zeros(32)
        vals[13] = 32.0
        f = StepFunction(mesh, vals)
        fam, _ = build_sparse(f, (0,), ALPHA)
        spike = DyadicCube((0,), 5, (13,))
        assert all(contains_cube(q, spike) for q in fam.cubes)
        assert verify_sparse(fam).ok

    def test_zero_rejected(self, unit_mesh):
        with pytest.raises(ValueError):
            build_sparse(StepFunction.constant(unit_mesh, 0.0), (0,), ALPHA)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 1.5, math.nan])
    def test_alpha_refused_as_the_operators_refuse_it(self, unit_mesh, alpha):
        f = lognormal(unit_mesh, 5)
        with pytest.raises(ValueError, match="alpha must lie in") as got:
            build_sparse(f, (0,), alpha)
        with pytest.raises(ValueError) as expect:
            riesz_reference(f, alpha)
        assert str(got.value) == str(expect.value)

    @given(st.floats(1e-8, 1e8))
    @settings(max_examples=200, deadline=None)
    def test_slice_index_brackets_value(self, x):
        a = 8.0  # 2^{n+1} for n = 2
        k = int(_ilog_lt(np.array([x]), a)[0])
        assert a**k < x <= a ** (k + 1)


def per_level_build_sparse(f, shift, alpha):
    """``build_sparse`` a level at a time: one box-sum call per level, and
    each level's ancestor maxima of the averages from the coarser level's."""
    mesh = f.mesh
    shift = tuple(shift)
    a = 2.0 ** (mesh.n + 1)
    cubes = []
    prev = None  # the coarser level's averages and ancestor maxima
    for g in level_grids(mesh, shift):
        avg = f.integral_box3(g.lo3, g.hi3) / 2.0 ** (-g.level * mesh.n)
        if prev is None:
            anc = np.zeros(len(avg))
        else:
            pidx = _flat_index(mesh, shift, prev["level"], g.lo3)
            anc = np.maximum(prev["anc"][pidx], prev["avg"][pidx])
        pos = avg > 0.0
        member = pos.copy()
        both = pos & (anc > 0.0)
        if both.any():
            ka = _ilog_lt(np.where(both, anc, 1.0), a)
            kv = _ilog_lt(np.where(both, avg, 1.0), a)
            member[both] = ka[both] < kv[both]
        for i in np.flatnonzero(member):
            cubes.append(DyadicCube(shift, g.level, tuple(int(c) for c in g.coords[i])))
        prev = {"avg": avg, "anc": anc, "level": g.level}
    return SparseFamily(mesh, shift, tuple(cubes)), domination_constant(mesh.n, alpha)


def mesh_id(mesh):
    return f"n{mesh.n}-J{mesh.base_exponent}-L{mesh.finest_exponent}-T{mesh.coarse_padding}"


#: With T = 0, the grids with a shift flag hold no one-cube level.
SWEEP_MESHES = [Mesh(n, J, L, coarse_padding=T)
                for n, L in ((1, 5), (2, 3)) for J in (0, 1) for T in (0, 40)]


def sweep_functions(mesh, seed):
    """A lognormal f, all mass in one cell, and a lognormal f that is -0.0
    on alternate stripes of the first axis."""
    f = lognormal(mesh, seed)
    spike = np.zeros(f.values.shape)
    spike[(int(0.3 * mesh.cells_per_axis),) * mesh.n] = 7.0
    stripes = f.values.copy()
    stripes[1::2] = -0.0
    return [f, StepFunction(mesh, spike), StepFunction(mesh, stripes)]


class TestLevelSweepOracle:
    """``build_sparse`` on the whole level table against the per-level sweep."""

    @pytest.mark.parametrize("mesh", SWEEP_MESHES, ids=mesh_id)
    def test_build_sparse_equals_per_level(self, mesh):
        if mesh.coarse_padding == 0:
            assert mesh.level_table(mesh.shifts()[-1]).single == 0
        for shift in mesh.shifts():
            for f in sweep_functions(mesh, 80):
                for alpha in (0.25, mesh.n - 0.05):
                    fam, C = build_sparse(f, shift, alpha)
                    expect, expect_C = per_level_build_sparse(f, shift, alpha)
                    assert fam.shift == expect.shift and fam.cubes == expect.cubes
                    assert C == expect_C


class TestVerify:
    def test_nested_chain_ratio_half(self):
        mesh = Mesh(1, 0, 4)
        cert = verify_sparse(nested_chain(mesh))
        assert cert.ok and cert.worst_union_ratio == pytest.approx(0.5)

    def test_full_levels_fail(self):
        mesh = Mesh(1, 0, 2, coarse_padding=0)
        cubes = tuple(
            DyadicCube((0,), k, (m,)) for k in range(3) for m in range(1 << k)
        )
        cert = verify_sparse(SparseFamily(mesh, (0,), cubes))
        assert not cert.ok and cert.violating_cube is not None

    def test_built_families_pass(self, unit_mesh):
        for seed in range(8):
            f = lognormal(unit_mesh, 500 + seed)
            for shift in unit_mesh.shifts():
                fam, _ = build_sparse(f, shift, ALPHA)
                assert verify_sparse(fam).ok

    def test_wrong_shift_member_rejected(self, unit_mesh):
        with pytest.raises(ValueError):
            SparseFamily(unit_mesh, (0,), (DyadicCube((1,), 0, (0,)),))


class TestDomination:
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_cellwise_with_explicit_constant(self, unit_mesh, alpha):
        C = domination_constant(1, alpha)
        for seed in range(6):
            f = lognormal(unit_mesh, 600 + seed)
            for shift in unit_mesh.shifts():
                fam, c2 = build_sparse(f, shift, alpha)
                assert c2 == C
                rep = compare_pointwise(
                    dyadic_riesz(f, alpha, shift), sparse_riesz(f, alpha, fam)
                )
                assert rep.violations == 0
                assert rep.max_ratio <= C * (1.0 + 1e-12)

    def test_dimension_two(self):
        mesh = Mesh(2, 0, 4)
        f = lognormal(mesh, 61)
        fam, C = build_sparse(f, (1, 0), ALPHA)
        assert verify_sparse(fam).ok
        rep = compare_pointwise(
            dyadic_riesz(f, ALPHA, (1, 0)), sparse_riesz(f, ALPHA, fam)
        )
        assert rep.violations == 0 and rep.max_ratio <= C * (1.0 + 1e-12)


class TestOverlap:
    def test_nested_chain_attains_bound(self):
        mesh = Mesh(1, 0, 4)
        rep = overlap_level_set(nested_chain(mesh), ROOT, 2)
        assert rep.measure == pytest.approx(0.25)
        assert rep.bound == pytest.approx(0.25)
        assert rep.exact_le_bound

    def test_singleton(self, unit_mesh):
        fam = SparseFamily(unit_mesh, (0,), (ROOT,))
        rep = overlap_level_set(fam, ROOT, 1)
        assert rep.measure == 0.0 and rep.exact_le_bound

    def test_k_must_be_positive(self, unit_mesh):
        with pytest.raises(ValueError):
            overlap_level_set(SparseFamily(unit_mesh, (0,), (ROOT,)), ROOT, 0)

    def test_built_families_bounded(self, unit_mesh):
        for seed in range(5):
            f = lognormal(unit_mesh, 700 + seed)
            fam, _ = build_sparse(f, (0,), ALPHA)
            root = fam.cubes[0]
            for k in range(1, 13):
                assert overlap_level_set(fam, root, k).exact_le_bound

    def test_all_k_reports_reject_k_below_one(self, unit_mesh):
        fam = SparseFamily(unit_mesh, (0,), (ROOT,))
        with pytest.raises(ValueError):
            _overlap_reports(fam, ROOT, [1, 0, 2])

    def test_measure_matches_direct_count(self, unit_mesh):
        f = lognormal(unit_mesh, 71)
        fam, _ = build_sparse(f, (0,), ALPHA)
        root = ROOT  # in-box root so the thirds grid covers every member
        # paint indicator counts on the thirds grid and measure level sets
        n3 = 3 * unit_mesh.cells_per_axis
        counts = np.zeros(n3)
        L = unit_mesh.finest_exponent
        for q in fam.members_in(root):
            lo, hi = q.bounds3(L)
            counts[max(lo[0], 0) : max(hi[0], 0)] += 1
        third = unit_mesh.cell_width / 3.0
        for k in range(1, 6):
            direct = float(np.count_nonzero(counts > k)) * third
            assert overlap_level_set(fam, root, k).measure == pytest.approx(direct)


EXPS = ExponentTuple(1, 0.5, 4.0 / 3.0, 4.0)


class TestCorona:
    def test_hand_trace_constant_weights(self):
        mesh = Mesh(1, 0, 6)
        one = StepFunction.constant(mesh, 1.0)
        fam = SparseFamily(
            mesh, (0,), tuple(DyadicCube((0,), j, (0,)) for j in range(7))
        )
        cd = corona_decompose(fam, ROOT, one, one, EXPS)
        assert cd.certified
        assert list(cd.slices) == [-1]
        assert cd.stopping[-1] == {ROOT: 0}
        assert all(p == ROOT for p in cd.pi[-1].values())
        # every b-group Q^{-1}_b(ROOT) holds at most two nested cubes
        sizes = Counter(cd.bindex[-1][q] for q in cd.slices[-1] if cd.pi[-1][q] == ROOT)
        assert sizes and max(sizes.values()) <= 2

    def test_trivial_single_cube(self, unit_mesh):
        one = StepFunction.constant(unit_mesh, 1.0)
        fam = SparseFamily(unit_mesh, (0,), (ROOT,))
        cd = corona_decompose(fam, ROOT, one, one, EXPS)
        assert list(cd.slices) == [-1] and cd.slices[-1] == [ROOT]

    @pytest.mark.parametrize("mode", ["classic", "fractional"])
    def test_partition_invariants_random(self, unit_mesh, mode):
        for seed in range(6):
            f = lognormal(unit_mesh, 800 + seed)
            u = lognormal(unit_mesh, 900 + seed, scale=0.7)
            s = lognormal(unit_mesh, 950 + seed, scale=0.7)
            fam, _ = build_sparse(f, (0,), ALPHA)
            root = fam.cubes[0]
            cd = corona_decompose(fam, root, u, s, EXPS, mode=mode)
            assert cd.certified
            members = set(fam.members_in(root))
            sliced = [q for a in cd.slices for q in cd.slices[a]]
            assert len(sliced) == len(set(sliced))  # disjoint slices
            assert set(sliced) | set() <= members
            assert len(sliced) + cd.skipped == len(members)
            for a in cd.slices:
                assert all(a <= cd.gamma for a in cd.slices)
                # the groups Q^a(P) over the stopping cubes P partition the slice
                grouped = [q for P in cd.stopping[a] for q in cd.slices[a] if cd.pi[a][q] == P]
                assert sorted(grouped, key=str) == sorted(cd.slices[a], key=str)

    def test_carleson_for_stopping_cubes(self, unit_mesh):
        f = lognormal(unit_mesh, 81)
        u = lognormal(unit_mesh, 82, scale=0.7)
        s = lognormal(unit_mesh, 83, scale=0.7)
        fam, _ = build_sparse(f, (0,), ALPHA)
        root = fam.cubes[0]
        cd = corona_decompose(fam, root, u, s, EXPS)
        fw = fujii_wilson(u, max_level=3).value
        for a in cd.stopping:
            c = {q: u.cube_integral(q) for q in cd.stopping[a]}
            rep = carleson_check(c, u, unit_mesh, A=2.0 * fw)
            assert rep.ok


class TestCarleson:
    def test_disjoint_antichain(self):
        mesh = Mesh(1, 0, 3)
        one = StepFunction.constant(mesh, 1.0)
        cubes = [DyadicCube((0,), 2, (m,)) for m in range(4)]
        c = {q: one.cube_integral(q) for q in cubes}
        rep = carleson_check(c, one, mesh)
        assert rep.constant == pytest.approx(1.0, rel=1e-12)

    def test_verdict_against_proposed_constant(self):
        mesh = Mesh(1, 0, 3)
        one = StepFunction.constant(mesh, 1.0)
        c = {DyadicCube((0,), 1, (0,)): 2.0}
        assert carleson_check(c, one, mesh, A=4.0).ok
        assert not carleson_check(c, one, mesh, A=3.9).ok

    def test_embedding_nested_chain(self):
        mesh = Mesh(1, 0, 4)
        one = StepFunction.constant(mesh, 1.0)
        fam = nested_chain(mesh)
        c = {q: one.cube_integral(q) for q in fam.cubes}
        lhs, rhs = carleson_embedding_check(c, one, one, EXPS)
        assert 0.0 < lhs <= rhs * (1.0 + 1e-12)

    def test_embedding_rejects_mixed_grids(self, unit_mesh):
        one = StepFunction.constant(unit_mesh, 1.0)
        c = {ROOT: 1.0, DyadicCube((1,), 1, (0,)): 1.0}
        with pytest.raises(ValueError):
            carleson_embedding_check(c, one, one, EXPS)


class TestDecay:
    def test_trivial_decomposition_all_zero(self, unit_mesh):
        one = StepFunction.constant(unit_mesh, 1.0)
        fam = SparseFamily(unit_mesh, (0,), (ROOT,))
        cd = corona_decompose(fam, ROOT, one, one, EXPS)
        rep = sigma_decay_check(cd, one)
        assert rep.worst_scaled == 0.0
        assert all(r.ratio == 0.0 for r in rep.rows if r.k >= 1)

    def test_nested_chain_no_deep_generations(self):
        mesh = Mesh(1, 0, 6)
        one = StepFunction.constant(mesh, 1.0)
        fam = SparseFamily(
            mesh, (0,), tuple(DyadicCube((0,), j, (0,)) for j in range(7))
        )
        cd = corona_decompose(fam, ROOT, one, one, EXPS)
        rep = sigma_decay_check(cd, one)
        # b-slices have <= 2 nested cubes, so F is empty from k = 2 on
        assert all(r.ratio == 0.0 for r in rep.rows if r.k >= 2)

    def test_reported_exponent(self, unit_mesh):
        one = StepFunction.constant(unit_mesh, 1.0)
        fam = SparseFamily(unit_mesh, (0,), (ROOT,))
        cd = corona_decompose(fam, ROOT, one, one, EXPS)
        rep = sigma_decay_check(cd, one)
        expect = 1.0 + (EXPS.p_prime / EXPS.q_prime) * (EXPS.alpha / EXPS.n)
        assert rep.reported_exponent == pytest.approx(expect)


class TestSerialization:
    def test_round_trip(self, unit_mesh):
        f = lognormal(unit_mesh, 90)
        fam, _ = build_sparse(f, (1,), ALPHA)
        blob = json.dumps(fam.to_jsonable())
        back = SparseFamily.from_jsonable(unit_mesh, json.loads(blob))
        assert back.cubes == fam.cubes and back.shift == fam.shift

    @pytest.mark.parametrize("data, message", [
        ({"shift": [0], "cubes": [[1, 0], [1.7, 0.9]]}, "cube row [1.7, 0.9] is not 2 integers"),
        ({"shift": [0], "cubes": [[2, 1.0]]}, "cube row [2, 1.0] is not 2 integers"),
        ({"shift": [0], "cubes": [[True, 0]]}, "cube row [True, 0] is not 2 integers"),
        ({"shift": [0], "cubes": [[1]]}, "cube row [1] is not 2 integers"),
        ({"shift": [0], "cubes": [[1, 0, 0]]}, "cube row [1, 0, 0] is not 2 integers"),
        ({"shift": [0], "cubes": [[1, "0"]]}, "cube row [1, '0'] is not 2 integers"),
        ({"shift": [0], "cubes": [3]}, "cube row 3 is not 2 integers"),
        ({"shift": [True], "cubes": [[1, 0]]}, "family shift [True] is not 1 integers"),
        ({"shift": [0.0], "cubes": []}, "family shift [0.0] is not 1 integers"),
        ({"shift": [0, 0], "cubes": []}, "family shift [0, 0] is not 1 integers"),
    ])
    def test_malformed_rows_are_rejected(self, unit_mesh, data, message):
        with pytest.raises(ValueError) as err:
            SparseFamily.from_jsonable(unit_mesh, data)
        assert str(err.value) == message

    def test_integer_rows_of_two_dimensions(self):
        mesh = Mesh(2, 0, 2)
        fam = SparseFamily.from_jsonable(mesh, {"shift": [1, 0], "cubes": [[1, 0, 1], [0, 0, 0]]})
        assert fam.cubes == (DyadicCube((1, 0), 0, (0, 0)), DyadicCube((1, 0), 1, (0, 1)))
        with pytest.raises(ValueError, match=r"^cube row \[1, 0\] is not 3 integers$"):
            SparseFamily.from_jsonable(mesh, {"shift": [1, 0], "cubes": [[0, 0, 0], [1, 0]]})


class TestIlog:
    @pytest.mark.parametrize("base", [2.0, 4.0, 8.0])
    def test_exact_against_fraction_oracle(self, base):
        powers = np.ldexp(1.0, np.arange(-1074, 1024))
        rng = np.random.default_rng(3)
        x = np.concatenate([
            powers,
            np.nextafter(powers, np.inf),
            np.nextafter(powers[1:], 0.0),  # 2^-1074 has no positive neighbour below
            np.arange(1, 200) * 5e-324,  # subnormals
            rng.random(200) * 2.2e-308,
            np.exp(rng.uniform(-700.0, 700.0, 500)),
        ])
        with np.errstate(all="raise"):
            k = _ilog_lt(x, base)
        b = Fraction(int(base))
        for xi, ki in zip(x.tolist(), k.tolist()):
            assert b**ki < Fraction(xi) <= b ** (ki + 1), (xi, ki)

    def test_base_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            _ilog_lt(np.array([1.0]), 3.0)


# ---------------------------------------------------------------------------
# The all-pairs certificate bodies the forest replaced, kept as oracles.


def _contains3(outer, inner) -> bool:
    (lo_a, hi_a), (lo_b, hi_b) = outer, inner
    return all(a <= b for a, b in zip(lo_a, lo_b)) and all(
        b <= a for a, b in zip(hi_a, hi_b)
    )


def _intersects3(b1, b2) -> bool:
    (lo_a, hi_a), (lo_b, hi_b) = b1, b2
    return all(a < d and c < b for a, b, c, d in zip(lo_a, hi_a, lo_b, hi_b))


def _vol3(cube, L):
    lo, hi = cube.bounds3(L)
    v = 1
    for a, b in zip(lo, hi):
        v *= b - a
    return v


def _maximal_disjoint_vol3(bounds):
    kept, total = [], 0
    for b in bounds:
        if any(_contains3(k, b) for k in kept):
            continue
        kept.append(b)
        v = 1
        for a, c in zip(b[0], b[1]):
            v *= c - a
        total += v
    return total


def _forest(members, L):
    members = sorted(members, key=lambda c: (c.level, c.coord))
    bounds = [q.bounds3(L) for q in members]
    parents = [-1] * len(members)
    gens = [1] * len(members)
    for i in range(len(members)):
        best = -1
        for j in range(i - 1, -1, -1):
            if members[j].level < members[i].level and _contains3(bounds[j], bounds[i]):
                if best == -1 or members[j].level > members[best].level:
                    best = j
        parents[i] = best
        if best >= 0:
            gens[i] = gens[best] + 1
    return members, parents, gens


def oracle_verify(family):
    L = family.mesh.finest_exponent
    bounds = [q.bounds3(L) for q in family.cubes]
    worst, worst_cube, violating = 0.0, None, None
    for i, q in enumerate(family.cubes):
        vol = _vol3(q, L)
        subs = []
        for j, other in enumerate(family.cubes):
            if j == i or not _intersects3(bounds[i], bounds[j]):
                continue
            inside = _contains3(bounds[i], bounds[j])
            assert inside or _contains3(bounds[j], bounds[i])
            if inside and other.level > q.level:
                subs.append((other.level, bounds[j]))
        subs.sort(key=lambda t: t[0])
        union = _maximal_disjoint_vol3([b for _, b in subs])
        ratio = union / vol
        if ratio > worst:
            worst, worst_cube = ratio, q
        if 2 * union > vol and violating is None:
            violating = q
    return SparsityCertificate(violating is None, worst, worst_cube, violating, len(family))


def oracle_overlaps(family, root, ks):
    L = family.mesh.finest_exponent
    members, _, gens = _forest(family.members_in(root), L)
    root3 = _vol3(root, L)
    cell_vol = (family.mesh.cell_width / 3.0) ** family.mesh.n
    out = []
    for k in ks:
        gen_cubes = tuple(q for q, g in zip(members, gens) if g == k + 1)
        total3 = sum(_vol3(q, L) for q in gen_cubes)
        out.append(OverlapReport(total3 * cell_vol, 2.0**-k * root3 * cell_vol,
                                 gen_cubes, (total3 << k) <= root3))
    return out


def _ilog2_lt_scalar(x):
    k = math.floor(math.log2(x))
    while 2.0**k >= x:
        k -= 1
    while 2.0 ** (k + 1) < x:
        k += 1
    return k


def oracle_corona(family, root, u, sigma, exps, mode):
    """(slices, stopping, pi, bindex) by the stop_a scan."""
    L = family.mesh.finest_exponent
    e = exps.alpha / exps.n + 1.0 / exps.q - 1.0 / exps.p
    slices, fracavg = {}, {}
    for q in family.members_in(root):
        ua, sa = u.cube_average(q), sigma.cube_average(q)
        if ua <= 0.0 or sa <= 0.0:
            continue
        v = ua ** (1.0 / exps.q) * sa ** (1.0 / exps.p_prime)
        if mode == "fractional":
            v *= q.volume**e
        slices.setdefault(_ilog2_lt_scalar(v), []).append(q)
        fracavg[q] = q.volume ** (exps.alpha / exps.n) * ua
    stopping, pi, bindex = {}, {}, {}
    for a, cubes in slices.items():
        cubes.sort(key=lambda c: (c.level, c.coord))
        bounds = {q: q.bounds3(L) for q in cubes}
        stop_a, pi_a = {}, {}
        for q in cubes:
            parent = None
            for p in stop_a:
                if p != q and _contains3(bounds[p], bounds[q]):
                    if parent is None or p.level > parent.level:
                        parent = p
            if parent is None:
                stop_a[q], pi_a[q] = 0, q
            elif fracavg[q] > 2.0 * fracavg[parent]:
                stop_a[q], pi_a[q] = stop_a[parent] + 1, q
            else:
                pi_a[q] = parent
        stopping[a], pi[a] = stop_a, pi_a
        bindex[a] = {q: -_ilog2_lt_scalar(fracavg[q] / fracavg[pi_a[q]]) for q in cubes}
    return slices, stopping, pi, bindex


def oracle_decay_rows(slices, stopping, pi, bindex, sigma, L, kmax=10):
    rows = []
    for a in sorted(slices):
        for P in sorted(stopping[a], key=lambda c: (c.level, c.coord)):
            sp = sigma.cube_integral(P)
            if sp <= 0.0:
                continue
            group = [q for q in slices[a] if pi[a][q] == P]
            for b in sorted({bindex[a][q] for q in group}):
                members, _, gens = _forest([q for q in group if bindex[a][q] == b], L)
                for k in range(kmax + 1):
                    sf = sum(sigma.cube_integral(q) for q, g in zip(members, gens) if g == k + 1)
                    rows.append(DecayRow(a, b, P, k, sf / sp))
    return tuple(rows)


def _nearest(up, q, keep):
    """The finest strict forest ancestor of q that lies in keep, or None."""
    p = up.get(q)
    while p is not None and p not in keep:
        p = up.get(p)
    return p


def oracle_corona_dict_walk(family, root, u, sigma, exps, mode):
    """The corona decomposition by per-cube averages and a walk up a
    DyadicCube-keyed forest dict, with its fields as a dict."""
    inside = family.contained_in(root)
    members = [family.cubes[i] for i in np.flatnonzero(inside)]
    up = {
        family.cubes[i]: family.cubes[p]
        for i, p in enumerate(family.forest.parent.tolist())
        if p >= 0 and inside[i] and inside[p]
    }
    e = exps.alpha / exps.n + 1.0 / exps.q - 1.0 / exps.p
    fracavg, u_avg, s_avg = {}, {}, {}
    skipped = 0
    vmax = 0.0
    values = []
    for q in members:
        ua = u.cube_average(q)
        sa = sigma.cube_average(q)
        if ua <= 0.0 or sa <= 0.0:
            skipped += 1
            continue
        v = ua ** (1.0 / exps.q) * sa ** (1.0 / exps.p_prime)
        if mode == "fractional":
            v *= q.volume**e
        vmax = max(vmax, v)
        values.append(v)
        fracavg[q] = q.volume ** (exps.alpha / exps.n) * ua
        u_avg[q] = ua
        s_avg[q] = sa
    slices = {}
    for q, a in zip(fracavg, _ilog_lt(np.array(values), 2.0).tolist()):
        slices.setdefault(a, []).append(q)
    stopping, pi, bindex = {}, {}, {}
    for a, cubes in slices.items():
        stop_a, pi_a = {}, {}
        for q in cubes:
            parent = _nearest(up, q, stop_a)
            if parent is None:
                stop_a[q] = 0
                pi_a[q] = q
            elif fracavg[q] > 2.0 * fracavg[parent]:
                stop_a[q] = stop_a[parent] + 1
                pi_a[q] = q
            else:
                pi_a[q] = parent
        b = -_ilog_lt(np.array([fracavg[q] / fracavg[pi_a[q]] for q in cubes]), 2.0)
        assert not np.any(b < 0)
        stopping[a] = stop_a
        pi[a] = pi_a
        bindex[a] = dict(zip(cubes, b.tolist()))
    gamma = math.log2(vmax) if vmax > 0.0 else -math.inf
    return dict(slices=slices, stopping=stopping, pi=pi, bindex=bindex, fracavg=fracavg,
                u_avg=u_avg, sigma_avg=s_avg, skipped=skipped, gamma=gamma,
                forest_parent=up, exps=exps)


def oracle_decay_report(old, sigma, kmax=10):
    """The sigma-decay report on the dict walk's fields, group by group."""
    def group(a, P):
        return [q for q in old["slices"][a] if old["pi"][a][q] == P]

    rows = []
    worst = 0.0
    skipped = 0
    for a in sorted(old["slices"]):
        for P in sorted(old["stopping"][a], key=lambda c: (c.level, c.coord)):
            sp = sigma.cube_integral(P)
            if sp <= 0.0:
                skipped += 1
                continue
            for b in sorted({old["bindex"][a][q] for q in group(a, P)}):
                gen = {}
                for q in [q for q in group(a, P) if old["bindex"][a][q] == b]:
                    p = _nearest(old["forest_parent"], q, gen)
                    gen[q] = 1 if p is None else gen[p] + 1
                for k in range(0, kmax + 1):
                    sf = sum(sigma.cube_integral(q) for q, g in gen.items() if g == k + 1)
                    ratio = sf / sp
                    rows.append(DecayRow(a, b, P, k, ratio))
                    if k >= 1:
                        worst = max(worst, ratio * 2.0**k)
    kmaxratio = {}
    for row in rows:
        kmaxratio[row.k] = max(kmaxratio.get(row.k, 0.0), row.ratio)
    pts = [(k, r) for k, r in kmaxratio.items() if k >= 1 and r > 0.0]
    if len(pts) >= 2:
        ks = np.array([p[0] for p in pts], dtype=np.float64)
        ys = np.log2([p[1] for p in pts])
        fitted = float(-np.polyfit(ks, ys, 1)[0])
    else:
        fitted = math.inf
    exps = old["exps"]
    reported = 1.0 + (exps.p_prime / exps.q_prime) * exps.alpha / exps.n
    return DecayReport(tuple(rows), worst, fitted, reported, skipped)


def _ancestor_at(mesh, cube, level):
    """The level cube of the grid that contains the cube's lower corner."""
    scale = 1 << (mesh.finest_exponent - level)
    sgn = 1 if level % 2 == 0 else -1
    lo, _ = cube.bounds3(mesh.finest_exponent)
    coord = tuple((l // scale - sgn * s) // 3 for l, s in zip(lo, cube.shift))
    return DyadicCube(cube.shift, level, coord)


def oracle_carleson(c, mu, mesh, A=None):
    support = [(q, v) for q, v in c.items() if v > 0.0]
    if not support:
        return CarlesonReport(0.0, None, None if A is None else True)
    L = mesh.finest_exponent
    candidates = {
        _ancestor_at(mesh, q, level)
        for q, _ in support
        for level in mesh.levels()
        if level <= q.level
    }
    best, witness = 0.0, None
    bounds = {q: q.bounds3(L) for q, _ in support}
    for R in sorted(candidates, key=lambda r: (r.level, r.coord)):
        total = sum(v for q, v in support if _contains3(R.bounds3(L), bounds[q]))
        if total <= 0.0:
            continue
        muR = mu.cube_integral(R)
        val = math.inf if muR <= 0.0 else total / muR
        if val > best:
            best, witness = val, R
    return CarlesonReport(best, witness, None if A is None else best <= A)


def _random_subset(mesh, shift, seed, frac=0.3):
    rng = np.random.default_rng(seed)
    cubes = enumerate_cubes(mesh, shift)
    return SparseFamily(mesh, shift, tuple(q for q in cubes if rng.random() < frac))


def _oracle_families():
    """(id, family factory): built families on n = 1, 2 and J = 0, 1 at every
    shift (the 2-D meshes keep the default padding, so their coarsest thirds
    volumes exceed 2^63), random non-sparse subsets, every ancestor of one
    cell, the nested chain, a singleton and the empty family."""
    out = []
    for n, J, L in ((1, 0, 6), (1, 1, 5), (2, 0, 3), (2, 1, 2)):
        mesh = Mesh(n, J, L)
        for shift in mesh.shifts():
            out.append((f"built-n{n}-J{J}-s{''.join(map(str, shift))}",
                        lambda m=mesh, s=shift, seed=40 + n + J:
                        build_sparse(lognormal(m, seed), s, ALPHA)[0]))
    for n, J, L, T in ((1, 0, 4, 3), (1, 1, 3, 2), (2, 0, 2, 2)):
        mesh = Mesh(n, J, L, coarse_padding=T)
        for shift in mesh.shifts():
            out.append((f"subset-n{n}-J{J}-s{''.join(map(str, shift))}",
                        lambda m=mesh, s=shift: _random_subset(m, s, 7)))
    for n, L in ((1, 6), (2, 3)):
        mesh = Mesh(n, 0, L)
        cell = (int(0.3 * mesh.cells_per_axis),) * n
        out.append((f"ancestors-n{n}", lambda m=mesh, c=cell: SparseFamily(
            m, (0,) * m.n, tuple(cube_containing_cell(m, (0,) * m.n, k, c) for k in m.levels()))))
    out.append(("chain", lambda: nested_chain(Mesh(1, 0, 4))))
    out.append(("singleton", lambda: SparseFamily(Mesh(1, 0, 4), (0,), (ROOT,))))
    out.append(("empty", lambda: SparseFamily(Mesh(2, 0, 2), (1, 1), ())))
    return out


ORACLE_FAMILIES = _oracle_families()


class TestConstructor:
    """``SparseFamily(...)``: each rejected input names its first offending
    cube, and the members come out in canonical (level, coord) order."""

    def test_wrong_shift(self, unit_mesh):
        with pytest.raises(ValueError, match="all members must carry the family shift"):
            SparseFamily(unit_mesh, (1,), (DyadicCube((1,), 2, (1,)), ROOT))

    @pytest.mark.parametrize("level", [-41, 7, 12, -(10**20), 10**20])
    def test_level_outside_mesh(self, unit_mesh, level):
        assert level not in unit_mesh.levels()
        cubes = (DyadicCube((0,), 3, (2,)), DyadicCube((0,), level, (0,)), DyadicCube((0,), 50, (0,)))
        with pytest.raises(ValueError, match=rf"^cube level {level} outside the mesh range$"):
            SparseFamily(unit_mesh, (0,), cubes)

    @pytest.mark.parametrize("coord", [-1, 8, -(10**20), 10**20])
    def test_coordinate_out_of_range_1d(self, unit_mesh, coord):
        bad = DyadicCube((0,), 3, (coord,))
        cubes = (DyadicCube((0,), 1, (1,)), bad, DyadicCube((0,), 3, (9,)))
        with pytest.raises(ValueError) as err:
            SparseFamily(unit_mesh, (0,), cubes)
        assert str(err.value) == f"cube {bad} is not in the enumeration"

    def test_coordinate_out_of_range_on_axis_1_only(self):
        mesh = Mesh(2, 1, 2, coarse_padding=0)
        shift = (0, 1)
        r0, r1 = coord_range(mesh, shift, 1)
        bad = DyadicCube(shift, 1, (r0.stop - 1, r1.stop))
        cubes = (DyadicCube(shift, 1, (r0.start, r1.start)), bad, DyadicCube(shift, 1, (r0.stop, r1.start)))
        with pytest.raises(ValueError) as err:
            SparseFamily(mesh, shift, cubes)
        assert str(err.value) == f"cube {bad} is not in the enumeration"

    def test_coordinate_count_differs_from_mesh(self, unit_mesh):
        bad = DyadicCube((0,), 1, (0, 0))
        with pytest.raises(ValueError) as err:
            SparseFamily(unit_mesh, (0,), (ROOT, bad))
        assert str(err.value) == f"cube {bad} has 2 coordinates, not 1"
        # a mix of dimensions names its first cube of the wrong one
        mesh = Mesh(2, 0, 2)
        bad = DyadicCube((0, 0), 2, (1,))
        cubes = (DyadicCube((0, 0), 1, (0, 1)), bad, DyadicCube((0, 0), 0, (0, 0, 0)))
        with pytest.raises(ValueError) as err:
            SparseFamily(mesh, (0, 0), cubes)
        assert str(err.value) == f"cube {bad} has 1 coordinates, not 2"

    def test_duplicate(self, unit_mesh):
        a, b = DyadicCube((0,), 2, (3,)), DyadicCube((0,), 1, (0,))
        with pytest.raises(ValueError) as err:
            SparseFamily(unit_mesh, (0,), (a, b, ROOT, b, a))
        assert str(err.value) == f"duplicate cube {b}"

    @pytest.mark.parametrize("n, shift", [(1, (1,)), (2, (1, 0))])
    def test_unsorted_input_comes_out_canonical(self, n, shift):
        mesh = Mesh(n, 1, 3, coarse_padding=2)
        cubes = enumerate_cubes(mesh, shift)
        rng = np.random.default_rng(17)
        picked = [cubes[i] for i in rng.permutation(len(cubes))[: len(cubes) // 2]]
        fam = SparseFamily(mesh, shift, tuple(picked))
        assert fam.cubes == tuple(sorted(picked, key=lambda c: (c.level, c.coord)))
        assert SparseFamily(mesh, shift, tuple(reversed(picked))) == fam

    @pytest.mark.parametrize("make", [m for _, m in ORACLE_FAMILIES], ids=[i for i, _ in ORACLE_FAMILIES])
    def test_jsonable_round_trip(self, make):
        fam = make()
        back = SparseFamily.from_jsonable(fam.mesh, json.loads(json.dumps(fam.to_jsonable())))
        assert back == fam and back.cubes == fam.cubes and back.shift == fam.shift


def candidate_roots(family):
    """``SparseFamily.roots`` as cubes, in its order."""
    r, t = family.roots, family.mesh.level_table(family.shift)
    return [DyadicCube(family.shift, k, tuple(c)) for k, c in zip(t.level[r].tolist(), t.coords[r].tolist())]


def member_integrals(values, family):
    """The integrals of frames of cell values over the family's members,
    with the values' leading axes in front: what ``_member_weights``
    takes."""
    return family.plan.sums(values) * family.mesh.cell_volume


def _roots(family):
    """Every candidate root, plus the level-0 cube at the origin."""
    extra = DyadicCube(family.shift, 0, (0,) * family.mesh.n)
    return sorted(set(candidate_roots(family)) | {extra}, key=lambda c: (c.level, c.coord))


def _corona_inputs(mesh):
    """(exps, u, sigma) triples: lognormal weights with sigma vanishing on
    the first half of the box, so that some members are skipped; a one-cell
    spike in u at 0.3 with q = p' = 40, which puts nearly every cube in one
    slice and makes the spike's ancestors stop generation after generation;
    two cascades."""
    exps = ExponentTuple(mesh.n, ALPHA, 4.0 / 3.0, 4.0)
    wide = ExponentTuple(mesh.n, ALPHA, 40.0 / 39.0, 40.0)
    u = lognormal(mesh, 11, scale=0.7)
    s = lognormal(mesh, 12, scale=0.7).values.copy()
    s[: mesh.cells_per_axis // 2] = 0.0
    spike = np.ones((mesh.cells_per_axis,) * mesh.n)
    spike[(int(0.3 * mesh.cells_per_axis),) * mesh.n] = float(mesh.total_cells)
    return [
        (exps, u, StepFunction(mesh, s)),
        (wide, StepFunction(mesh, spike), StepFunction.constant(mesh, 1.0)),
        (exps, generate_weight(mesh, "martingale:seed=5,vol=0.5"),
         generate_weight(mesh, "martingale:seed=6,vol=0.5")),
    ]


@pytest.mark.parametrize(
    "make", [m for _, m in ORACLE_FAMILIES], ids=[i for i, _ in ORACLE_FAMILIES]
)
class TestCertificateOracle:
    def test_verify_sparse(self, make):
        fam = make()
        got = verify_sparse(fam)
        # the witnesses are built one at a time, not as the whole member tuple
        assert "cubes" not in vars(fam)
        assert got == oracle_verify(fam)

    def test_one_cube_builder(self, make):
        fam = make()
        assert tuple(map(fam.cube, range(len(fam)))) == fam.cubes

    def test_overlap_level_sets(self, make):
        fam = make()
        ks = range(1, 13)
        for root in _roots(fam):
            assert [overlap_level_set(fam, root, k) for k in ks] == oracle_overlaps(fam, root, ks)

    def test_all_k_reports_equal_one_k_calls(self, make):
        fam = make()
        ks = range(1, 13)
        for root in _roots(fam):
            assert _overlap_reports(fam, root, ks) == [overlap_level_set(fam, root, k) for k in ks]

    def test_forest_against_all_pairs(self, make):
        fam = make()
        members, parents, gens = _forest(list(fam.cubes), fam.mesh.finest_exponent)
        assert members == list(fam.cubes)
        assert fam.forest.parent.tolist() == parents
        assert fam.forest.depth.tolist() == gens

    def test_owner_and_chain(self, make):
        fam = make()
        mesh, t, m = fam.mesh, fam.forest, len(fam)
        assert fam.forest is t
        assert not any(a.flags.writeable for a in t[:-2])
        index = {q: i for i, q in enumerate(fam.cubes)}
        for cell in itertools.product(range(mesh.cells_per_axis), repeat=mesh.n):
            # the members over the cell centre, coarse to fine
            over = [index[q] for k in mesh.levels()
                    if (q := cube_containing_cell(mesh, fam.shift, k, cell)) in index]
            assert t.owner[cell] == (over[-1] if over else m)
        # the sweep layout: ``up`` is the parent or m, one run per member
        # level, and the head is the longest leading chain of lone members
        parent = t.parent.tolist()
        assert t.up.tolist() == [m if p < 0 else p for p in parent]
        assert [i for a, b in t.runs for i in range(a, b)] == list(range(m))
        levels = [set(t.level[a:b].tolist()) for a, b in t.runs]
        assert all(len(k) == 1 for k in levels) and sorted(min(k) for k in levels) == [min(k) for k in levels]
        assert len(set(min(k) for k in levels)) == len(levels)
        chained = [b - a == 1 and parent[a] == a - 1 for a, b in t.runs]
        assert chained[: t.head] == [True] * t.head and chained[t.head : t.head + 1] != [True]
        # each member's chain, followed up ``up`` to m: its ancestors, then
        # itself, coarse to fine, as many as its depth
        up = t.up.tolist()
        for j in range(m):
            path, i = [], j
            while i < m:
                path.append(i)
                i = up[i]
            assert len(path) == t.depth[j]
            assert path[::-1] == sorted(path) and all(
                a == b for a, b in zip(path[1:], (parent[i] for i in path)))

    @pytest.mark.parametrize("mode", ["classic", "fractional"])
    def test_corona_decay_and_carleson(self, make, mode):
        fam = make()
        mesh = fam.mesh
        roots = _roots(fam)
        for (exps, u, sigma), root in itertools.product(
            _corona_inputs(mesh), {roots[0], roots[len(roots) // 2], roots[-1]}
        ):
            cd = corona_decompose(fam, root, u, sigma, exps, mode=mode)
            slices, stopping, pi, bindex = oracle_corona(fam, root, u, sigma, exps, mode)
            assert list(cd.slices) == list(slices)
            assert (cd.slices, cd.stopping, cd.pi, cd.bindex) == (slices, stopping, pi, bindex)
            rows = oracle_decay_rows(slices, stopping, pi, bindex, sigma, mesh.finest_exponent)
            assert sigma_decay_check(cd, sigma).rows == rows
            c = {q: u.cube_integral(q) for a in cd.stopping for q in cd.stopping[a]}
            assert carleson_check(c, u, mesh, A=2.0) == oracle_carleson(c, u, mesh, A=2.0)
        c = {q: float(i % 3) for i, q in enumerate(fam.cubes)}  # zeros leave the support
        assert carleson_check(c, sigma, mesh) == oracle_carleson(c, sigma, mesh)

    @pytest.mark.parametrize("mode", ["classic", "fractional"])
    def test_corona_against_dict_walk(self, make, mode):
        fam = make()
        roots = _roots(fam)
        for (exps, u, sigma), root in itertools.product(
            _corona_inputs(fam.mesh), {roots[0], roots[len(roots) // 2], roots[-1]}
        ):
            cd = corona_decompose(fam, root, u, sigma, exps, mode=mode)
            old = oracle_corona_dict_walk(fam, root, u, sigma, exps, mode)
            assert [fam.cubes[i] for i in cd.index.tolist()] == list(old["fracavg"])
            for name in ("u_avg", "sigma_avg", "fracavg"):
                assert getattr(cd, name).tolist() == list(old[name].values())
            assert (cd.gamma, cd.skipped) == (old["gamma"], old["skipped"])
            assert (cd.slices, cd.stopping, cd.pi, cd.bindex) == tuple(
                old[k] for k in ("slices", "stopping", "pi", "bindex"))
            assert sigma_decay_check(cd, sigma) == oracle_decay_report(old, sigma)


class TestCertifyCoronaMutations:
    """Each invariant of ``_certify_coronas``, broken on its own in a
    certified decomposition: the ancestors of one cell under a one-cell
    spike in u, which stop over six generations and leave non-stopping
    cubes under non-stopping cubes of the same slice."""

    @pytest.fixture
    def cd(self):
        mesh = Mesh(1, 0, 6)
        cell = (int(0.3 * mesh.cells_per_axis),)
        fam = SparseFamily(mesh, (0,), tuple(
            cube_containing_cell(mesh, (0,), k, cell) for k in mesh.levels()))
        exps, u, sigma = _corona_inputs(mesh)[1]
        cd = corona_decompose(fam, fam.cubes[0], u, sigma, exps)
        assert cd.certified and cd.generation.max() >= 2
        cd.certified = False
        return cd

    @staticmethod
    def _fails(cd, message):
        """``cd`` fails with the parent certificate's message, alone and
        between two certified decompositions of its family and exponents."""
        [got] = _certify_coronas([cd])
        assert got is not None and re.search(message, got) and got == parent_message(cd)
        assert not cd.certified
        one = StepFunction.constant(cd.family.mesh, 1.0)
        others = [corona_decompose(cd.family, cd.root, w, one, cd.exps, cd.mode)
                  for w in (one, lognormal(cd.family.mesh, 84))]
        assert _certify_coronas([others[0], cd, others[1]]) == [None, got, None]
        assert [others[0].certified, cd.certified, others[1].certified] == [True, False, True]

    def test_unbroken_certifies(self, cd):
        assert _certify_coronas([cd]) == [None]
        assert cd.certified

    def test_gamma_bound(self, cd):
        cd.gamma = float(cd.a.max()) - 0.5
        self._fails(cd, "exceeds the characteristic bound")

    def test_disjoint_slices(self, cd):
        cd.index[-1] = cd.index[-2]
        self._fails(cd, "slices are not disjoint")

    def test_slice_membership(self, cd):
        cd.a[len(cd.a) // 2] -= 1
        self._fails(cd, "slice membership violated")

    @pytest.mark.parametrize("parent", [1, 10**6])
    def test_containment(self, cd, parent):
        cd.up[0] = parent  # a finer member, or no member at all
        self._fails(cd, "does not contain its cube")

    def test_non_stopping_cube_as_its_own_parent(self, cd):
        k = int(np.flatnonzero(cd.generation < 0)[0])
        cd.up[k], cd.b[k] = k, 1
        self._fails(cd, "not the finest stopping ancestor")

    def test_parent_moved_to_non_stopping_ancestor(self, cd):
        k = next(k for k in range(1, len(cd.index))
                 if cd.generation[k] < 0 and cd.generation[k - 1] < 0 and cd.up[k - 1] == cd.up[k])
        cd.up[k] = k - 1
        cd.b[k] = -_ilog_lt(np.array([cd.fracavg[k] / cd.fracavg[k - 1]]), 2.0)[0]
        self._fails(cd, "not the finest stopping ancestor")

    def test_generation_zero_under_a_stopping_cube(self, cd):
        cd.generation[int(np.argmax(cd.generation))] = 0
        self._fails(cd, "stopping generation bookkeeping broken")

    def test_generation_without_coarser_stopping_cube(self, cd):
        assert cd.generation[0] == 0
        cd.generation[0] = 1
        self._fails(cd, "stopping generation bookkeeping broken")

    def test_generation_off_by_one(self, cd):
        cd.generation[int(np.argmax(cd.generation))] += 1
        self._fails(cd, "stopping generation bookkeeping broken")

    def test_stopping_inequality(self, cd):
        k = int(np.argmax(cd.generation))
        # the family is one chain, so every coarser member contains k
        anc = max(j for j in range(k) if cd.generation[j] >= 0 and cd.a[j] == cd.a[k])
        cd.fracavg[k] = 2.0 * cd.fracavg[anc]
        self._fails(cd, "stopping inequality violated")

    def test_reverse_inequality(self, cd):
        k = int(np.flatnonzero(cd.generation < 0)[0])
        cd.fracavg[k] = 4.0 * cd.fracavg[cd.up[k]]
        self._fails(cd, "reverse inequality violated")

    def test_b_slice(self, cd):
        cd.b[len(cd.b) // 2] += 1
        self._fails(cd, "b-slice membership violated")

    def test_doubled_fractional_averages(self):
        # every inequality compares ratios of fractional averages, so only
        # the recomputation from u_avg sees a common factor
        mesh = Mesh(1, 0, 6)
        fam, _ = build_sparse(lognormal(mesh, 81), (0,), ALPHA)
        exps = ExponentTuple(1, ALPHA, 4.0 / 3.0, 4.0)
        cd = corona_decompose(fam, fam.cubes[0], lognormal(mesh, 82), lognormal(mesh, 83), exps)
        assert cd.certified
        cd.certified = False
        cd.fracavg *= 2.0
        self._fails(cd, "fractional averages disagree with u_avg")


# The level-by-level forest, roots, ancestor scan, Carleson check and
# overlap reports that the level-table sweeps replaced, copied as oracles.


def per_level_forest(family):
    """``SparseFamily.forest`` a member level at a time: flat indices of
    the finer members' lower corners looked up among the level's members."""
    from rieszw.sparse import Forest

    mesh, cubes = family.mesh, family.cubes
    level = np.array([q.level for q in cubes], dtype=np.int64)
    lo3, hi3 = mesh.bounds3(cubes)
    m = len(level)
    parent = np.full(m, -1, dtype=np.int64)
    depth = np.ones(m, dtype=np.int64)
    owner = np.full((mesh.cells_per_axis,) * mesh.n, -1, dtype=np.int64)
    levels, starts = np.unique(level, return_index=True)
    for k, start, stop in zip(levels.tolist(), starts.tolist(), [*starts[1:].tolist(), m]):
        here = _flat_index(mesh, family.shift, k, lo3[start:stop])
        there = _flat_index(mesh, family.shift, k, lo3[stop:])
        pos = np.minimum(np.searchsorted(here, there), len(here) - 1)
        hit = here[pos] == there
        parent[stop:][hit] = start + pos[hit]
        depth[stop:] += hit
        g = per_level_grid(mesh, family.shift, k)
        slot = np.full(math.prod(g.shape), -1, dtype=np.int64)
        slot[here] = np.arange(start, stop)
        np.maximum(owner, g.gather(slot), out=owner)
    owner[owner < 0] = m
    runs = tuple(zip(starts.tolist(), [*starts[1:].tolist(), m]))
    head = 0
    while head < len(runs) and runs[head] == (head, head + 1) and parent[head] == head - 1:
        head += 1
    return Forest(level, lo3, hi3, np.ldexp(1.0, -mesh.n * level), parent, depth, owner,
                  np.where(parent < 0, m, parent), head, runs)


def per_level_ancestor_levels(mesh, shift, level, lo3):
    for g in level_grids(mesh, shift):
        below = level >= g.level
        if not below.any():
            return
        idx, inv = np.unique(_flat_index(mesh, shift, g.level, lo3[below]), return_inverse=True)
        yield g, below, idx, inv


def per_level_roots(family):
    """The level, coordinates and corners of every ``SparseFamily.roots``
    entry, from the per-level ancestor scan."""
    mesh, a = family.mesh, per_level_forest(family)
    parts = [(np.full(len(idx), g.level, dtype=np.int64), g.coords[idx], g.lo3[idx], g.hi3[idx])
             for g, _, idx, _ in per_level_ancestor_levels(mesh, family.shift, a.level, a.lo3)]
    empty = (np.zeros(0, dtype=np.int64), *(np.zeros((0, mesh.n), dtype=np.int64),) * 3)
    return tuple(np.concatenate(x) for x in zip(empty, *parts))


def per_level_carleson_check(c, mu, mesh, A=None):
    support = [(q, v) for q, v in c.items() if v > 0.0]
    if not support:
        return CarlesonReport(0.0, None, None if A is None else True)
    shift = support[0][0].shift
    if any(q.shift != shift for q, _ in support):
        raise ValueError("Carleson sequence must live on a single grid")
    level = np.array([q.level for q, _ in support])
    lo3, _ = mesh.bounds3([q for q, _ in support])
    weight = np.array([v for _, v in support], dtype=np.float64)
    best, witness = 0.0, None
    for g, below, idx, inv in per_level_ancestor_levels(mesh, shift, level, lo3):
        totals = np.bincount(inv, weights=weight[below])
        muR = mu.integral_box3(g.lo3[idx], g.hi3[idx])
        with np.errstate(divide="ignore"):
            vals = np.where(muR <= 0.0, math.inf, totals / muR)
        i = int(np.argmax(vals))
        if vals[i] > best:
            best = float(vals[i])
            witness = DyadicCube(shift, g.level, tuple(g.coords[idx[i]].tolist()))
    return CarlesonReport(best, witness, None if A is None else best <= A)


def per_k_overlap_reports(family, root, ks):
    """``_overlap_reports`` with a mask and ``np.unique`` per k."""
    from rieszw.sparse import _vol3 as vol3

    if any(k < 1 for k in ks):
        raise ValueError("need k >= 1")
    mesh, a = family.mesh, family.forest
    n, L = mesh.n, mesh.finest_exponent
    lo, hi = root.bounds3(L)
    above = (a.level < root.level) & np.all(a.lo3 <= lo, axis=1) & np.all(a.hi3 >= hi, axis=1)
    inside = np.flatnonzero(family.contained_in(root))
    generation = a.depth[inside] - np.count_nonzero(above)
    root3 = vol3(n, L, root.level)
    cell_vol = (mesh.cell_width / 3.0) ** n
    out = []
    for k in ks:
        idx = inside[generation == k + 1]
        levels, counts = np.unique(a.level[idx], return_counts=True)
        total3 = sum(c * vol3(n, L, j) for j, c in zip(levels.tolist(), counts.tolist()))
        out.append(OverlapReport(
            measure=total3 * cell_vol,
            bound=2.0**-k * root3 * cell_vol,
            generation_cubes=tuple(family.cubes[i] for i in idx.tolist()),
            exact_le_bound=(total3 << k) <= root3,
        ))
    return out


def _sweep_families():
    """(id, family factory): every ``ORACLE_FAMILIES`` entry, and on meshes
    without coarse padding (whose shifted grids have many cubes and no
    parent at the coarsest level) built and random-subset families, 1-D and
    2-D J=1, one member on the coarsest level and an empty family."""
    out = list(ORACLE_FAMILIES)
    for n, L in ((1, 5), (2, 3)):
        mesh = Mesh(n, 1, L, coarse_padding=0)
        for shift in mesh.shifts()[1:]:
            assert mesh.level_table(shift).single == 0
            tag = f"n{n}-J1-T0-s{''.join(map(str, shift))}"
            out.append((f"built-{tag}", lambda m=mesh, s=shift:
                        build_sparse(lognormal(m, 90 + m.n), s, ALPHA)[0]))
            out.append((f"subset-{tag}", lambda m=mesh, s=shift: _random_subset(m, s, 9)))
            out.append((f"coarsest-{tag}", lambda m=mesh, s=shift: SparseFamily(
                m, s, (DyadicCube(s, m.coarsest_level, tuple(level_cube_coords(m, s, m.coarsest_level)[-1].tolist())),))))
        out.append((f"empty-n{n}-J1-T0", lambda m=mesh: SparseFamily(m, m.shifts()[-1], ())))
    return out


SWEEP_FAMILIES = _sweep_families()


def _same_arrays(got, expect):
    """Two tuples of arrays equal field by field, dtype and shape included;
    a field that is no array is compared with ``==`` and its type."""
    assert type(got) is type(expect)
    for x, y in zip(got, expect, strict=True):
        if isinstance(y, np.ndarray):
            assert x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x, y)
        else:
            assert type(x) is type(y) and x == y


@pytest.mark.parametrize("make", [m for _, m in SWEEP_FAMILIES], ids=[i for i, _ in SWEEP_FAMILIES])
class TestTableSweepOracle:
    """The level-table sweeps against the level-by-level code they replaced."""

    def test_positions(self, make):
        fam = make()
        t = fam.mesh.level_table(fam.shift)
        assert not fam.positions.flags.writeable and fam.positions.dtype == np.int64
        assert np.all(np.diff(fam.positions) > 0)
        grids = level_grids(fam.mesh, fam.shift)
        got = [DyadicCube(fam.shift, g.level, tuple(g.coords[i - a].tolist()))
               for i in fam.positions.tolist()
               for g, a, b in zip(grids, t.starts.tolist(), t.ends.tolist()) if a <= i < b]
        assert got == list(fam.cubes)

    def test_forest(self, make):
        fam = make()
        _same_arrays(fam.forest, per_level_forest(fam))

    def test_roots(self, make):
        fam = make()
        r, t = fam.roots, fam.mesh.level_table(fam.shift)
        assert not r.flags.writeable and np.all(np.diff(r) > 0)
        _same_arrays(tuple(x[r] for x in (t.level, t.coords, t.lo3, t.hi3)), per_level_roots(fam))

    def test_overlap_reports(self, make):
        fam = make()
        for ks in (range(1, 13), (3, 1, 1), ()):
            for root in _roots(fam):
                assert _overlap_reports(fam, root, ks) == per_k_overlap_reports(fam, root, ks)

    def test_carleson_check(self, make):
        fam = make()
        mesh = fam.mesh
        mu = lognormal(mesh, 33)
        half = mu.values.copy()
        half[: mesh.cells_per_axis // 2] = 0.0
        for c in (
            {q: float(i % 3) for i, q in enumerate(fam.cubes)},
            {q: 1.0 + (i % 5) for i, q in enumerate(candidate_roots(fam))},
        ):
            for m in (mu, StepFunction(mesh, half)):
                for A in (None, 1.0):
                    assert carleson_check(c, m, mesh, A) == per_level_carleson_check(c, m, mesh, A)


# The stopping search of ``corona_decompose`` (one climb up ``forest.parent``
# per member level) and the chain sum of ``operators._forest_paint`` (a
# (depth, m + 1) gather summed by ``np.add.accumulate``) that the sweeps down
# the member levels replaced, copied as oracles.


def climb(parent, start, key, key_at):
    """For members with forest indices ``start``: the finest strict forest
    ancestor i with key_at[i] == key (-1 if none) and the number of such
    ancestors, one step up ``parent`` per round."""
    near = np.full(len(start), -1, dtype=np.int64)
    count = np.zeros(len(start), dtype=np.int64)
    cur = parent[start]
    live = np.flatnonzero(cur >= 0)
    while len(live):
        hit = key_at[cur[live]] == key[live]
        count[live] += hit
        first = live[hit & (near[live] < 0)]
        near[first] = cur[first]
        cur[live] = parent[cur[live]]
        live = live[cur[live] >= 0]
    return near, count


def per_level_climb_stopping(family, index, a, fracavg):
    """(up, generation, b) of ``corona_decompose`` for its decomposed
    members, slices and fractional averages, one member level at a time."""
    t = family.forest
    key = np.unique(a, return_inverse=True)[1]
    stop_key = np.full(len(t.level), -1, dtype=np.int64)  # the slice's key at stopping members
    up, generation = np.arange(len(index)), np.zeros(len(index), dtype=np.int64)
    _, starts = np.unique(t.level[index], return_index=True)
    for start, stop in zip(starts.tolist(), [*starts[1:].tolist(), len(index)]):
        here = slice(start, stop)
        anc, generation[here] = climb(t.parent, index[here], key[here], stop_key)
        p = np.searchsorted(index, anc)  # the ancestor's position; unused where anc < 0
        new = (anc < 0) | (fracavg[here] > 2.0 * fracavg[p])
        up[here] = np.where(new, up[here], p)
        generation[here][~new] = -1
        stop_key[index[here][new]] = key[here][new]
    return up, generation, -_ilog_lt(fracavg / fracavg[up], 2.0)


def chain_paint(w, family):
    """Member weights (..., m) painted on the cells: every member's chain of
    ancestors, then itself, coarse to fine and front-padded with m (weight
    0.0), summed down the chain by one ``np.add.accumulate``."""
    t = family.forest
    m = len(t.parent)
    up = np.append(np.where(t.parent < 0, m, t.parent), m)
    chain = np.empty((int(t.depth.max(initial=1)), m + 1), dtype=np.int64)
    chain[-1] = np.arange(m + 1)
    for r in range(len(chain) - 2, -1, -1):
        chain[r] = up[chain[r + 1]]
    ext = np.zeros((*w.shape[:-1], m + 1))
    ext[..., :-1] = w
    acc = np.add.accumulate(np.take(ext, chain, axis=-1), axis=-2)[..., -1, :]
    return np.take(acc, t.owner, axis=-1)


@pytest.mark.parametrize("make", [m for _, m in SWEEP_FAMILIES], ids=[i for i, _ in SWEEP_FAMILIES])
class TestMemberSweepOracle:
    """The sweeps down the member levels against the per-level climbs and
    the chain sum they replaced, with ``==`` (the paint through int64 views,
    so sign bits count)."""

    @pytest.mark.parametrize("mode", ["classic", "fractional"])
    def test_corona_stopping(self, make, mode):
        fam = make()
        roots = _roots(fam)
        for (exps, u, sigma), root in itertools.product(
            _corona_inputs(fam.mesh), [roots[0], roots[len(roots) // 2], roots[-1]]
        ):
            cd = corona_decompose(fam, root, u, sigma, exps, mode=mode)
            expect = per_level_climb_stopping(fam, cd.index, cd.a, cd.fracavg)
            for got, want in zip((cd.up, cd.generation, cd.b), expect, strict=True):
                assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("rows", [None, 1, 32, 128])
    def test_paint(self, make, rows):
        fam = make()
        mesh, m = fam.mesh, len(fam)
        rng = np.random.default_rng(61 + (rows or 0))
        batch = () if rows is None else (rows,)
        X = np.exp(rng.standard_normal((*batch, *(mesh.cells_per_axis,) * mesh.n)))
        w = _member_weights(member_integrals(X, fam), ALPHA, fam)
        # +0.0 weights, as members below a testing cut or outside a root get
        cut = rng.integers(0, m + 1, size=(*batch, 1))
        w = np.where((np.arange(m) >= cut) & (rng.random(w.shape) < 0.8), w, 0.0)
        got, want = _forest_paint(w, fam), chain_paint(w, fam)
        assert got.shape == want.shape and got.flags.c_contiguous
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


# ---------------------------------------------------------------------------
# Families as level-table positions, against the family that stored its cubes


@dataclass(frozen=True)
class ParentSparseFamily:
    """The family as it stored both its cubes and their table positions."""

    mesh: Mesh
    shift: tuple[int, ...]
    cubes: tuple[DyadicCube, ...]
    positions: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pos = parent_table_positions(self.mesh, self.shift, self.cubes)
        order = np.argsort(pos, kind="stable")
        pos = pos[order]
        dup = order[1:][pos[1:] == pos[:-1]]
        if len(dup):
            raise ValueError(f"duplicate cube {self.cubes[dup.min()]}")
        object.__setattr__(self, "cubes", tuple(map(self.cubes.__getitem__, order.tolist())))
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)

    def __len__(self) -> int:
        return len(self.cubes)

    def to_jsonable(self) -> dict:
        return {
            "shift": list(self.shift),
            "cubes": [[q.level, *q.coord] for q in self.cubes],
        }


def parent_table_positions(mesh, shift, cubes):
    if set(map(attrgetter("shift"), cubes)) - {shift}:
        raise ValueError("all members must carry the family shift")
    t = mesh.level_table(shift)
    m = len(cubes)
    j = _int64(list(map(attrgetter("level"), cubes))) - mesh.coarsest_level
    bad = np.flatnonzero((j < 0) | (j >= len(t.starts)))
    if len(bad):
        raise ValueError(f"cube level {cubes[bad[0]].level} outside the mesh range")
    first = t.coords[t.starts]
    shape = (t.coords[t.ends - 1] - first + 1)[j]
    off = _int64(list(map(attrgetter("coord"), cubes))).reshape(m, mesh.n) - first[j]
    bad = np.flatnonzero(np.any((off < 0) | (off >= shape), axis=1))
    if len(bad):
        raise ValueError(f"cube {cubes[bad[0]]} is not in the enumeration")
    pos = off[:, 0]
    for axis in range(1, mesh.n):
        pos = pos * shape[:, axis] + off[:, axis]
    return pos + t.starts[j]


def parent_build_sparse(f, shift, alpha):
    """``build_sparse`` as it built a ``DyadicCube`` per member."""
    mesh = f.mesh
    if not 0.0 < alpha < mesh.n:
        raise ValueError("alpha must lie in (0, n)")
    if f.total() <= 0.0:
        raise ValueError("f must not vanish identically")
    t = mesh.level_table(shift)
    avg = f.integral_box3(t.lo3, t.hi3) / t.volume
    pos = avg > 0.0
    no_key = np.iinfo(np.int64).min
    key = np.where(pos, _ilog_lt(np.where(pos, avg, 1.0), 2.0 ** (mesh.n + 1)), no_key)
    top = t.sweep(key.copy(), np.maximum)
    anc = np.where(t.parent >= 0, top[t.parent], no_key)
    member = np.flatnonzero(anc < key)
    level = t.level[member]
    shift = tuple(shift)
    cubes = tuple(DyadicCube(shift, k, tuple(c))
                  for k, c in zip(level.tolist(), t.coords[member].tolist()))
    return ParentSparseFamily(mesh, shift, cubes), domination_constant(mesh.n, alpha)


def parent_box_sums(pref, values, lo3, hi3):
    """The one-off plan that every sparse apply built."""
    return BoxPlan(lo3, hi3, values.shape[-len(lo3):])._sums(pref)


def parent_member_weights(values, alpha, family):
    mesh, t = family.mesh, family.forest
    pref = _prefix_sums(values, mesh.n)
    sums = parent_box_sums(pref, values, list(t.lo3.T), list(t.hi3.T)) * mesh.cell_volume
    return mesh.level_factors(alpha)[t.level - mesh.coarsest_level] * (sums / t.volume)


def _position_cases():
    """(id, family factory, parent factory): the oracle families rebuilt
    with the parent's class and construction, built families on unpadded
    meshes, and built families at 1-D L=6..12 and 2-D L=3..5, every shift."""
    out = [(name, make, make) for name, make in ORACLE_FAMILIES]
    meshes = [Mesh(n, J, L, coarse_padding=0) for n, J, L in ((1, 0, 6), (1, 1, 5), (2, 0, 3), (2, 1, 3))]
    meshes += [Mesh(1, 0, L) for L in range(6, 13)] + [Mesh(2, 0, L) for L in range(3, 6)]
    for mesh in meshes:
        for shift in mesh.shifts():
            f = lognormal(mesh, 70 + mesh.finest_exponent)
            out.append((f"build-n{mesh.n}-J{mesh.base_exponent}-L{mesh.finest_exponent}"
                        f"-T{mesh.coarse_padding}-s{''.join(map(str, shift))}",
                        lambda f=f, s=shift: build_sparse(f, s, ALPHA)[0],
                        lambda f=f, s=shift: parent_build_sparse(f, s, ALPHA)[0]))
    return out


POSITION_CASES = _position_cases()


@pytest.fixture(scope="module")
def position_pairs():
    """(family, parent family) of every case; the oracle families' parents
    come from their own factories with the parent's class and builder."""
    module = sys.modules[__name__]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "SparseFamily", ParentSparseFamily)
        mp.setattr(module, "build_sparse", parent_build_sparse)
        parents = [old() for _, _, old in POSITION_CASES]
    return [(new(), old) for (_, new, _), old in zip(POSITION_CASES, parents)]


class TestPositionsOracle:
    """``SparseFamily`` kept as its table positions against the family that
    stored its cubes, and the kept member plan against the plan every apply
    built, ``==`` bit for bit."""

    def test_members_and_json(self, position_pairs):
        for fam, old in position_pairs:
            assert isinstance(fam, SparseFamily) and isinstance(old, ParentSparseFamily)
            assert fam.cubes == old.cubes and fam.shift == old.shift and len(fam) == len(old)
            assert fam.positions.dtype == np.int64 and not fam.positions.flags.writeable
            assert np.array_equal(fam.positions, old.positions)
            assert np.all(np.diff(fam.positions) > 0)
            assert json.dumps(fam.to_jsonable()) == json.dumps(old.to_jsonable())
            back = SparseFamily.from_jsonable(fam.mesh, json.loads(json.dumps(fam.to_jsonable())))
            assert back == fam and hash(back) == hash(fam)

    def test_equality_and_hash_classes(self, position_pairs):
        # each family again from its cubes in reverse, so every class has two
        pairs = position_pairs + [(SparseFamily(f.mesh, f.shift, f.cubes[::-1]), o) for f, o in position_pairs]
        for (a, pa), (b, pb) in itertools.product(pairs, repeat=2):
            assert (a == b) == (pa == pb)
            if a == b:
                assert hash(a) == hash(b)
        assert len(set(f for f, _ in pairs)) == len(set(o for _, o in pairs))

    def test_seed_labels(self, position_pairs):
        for fam, old in position_pairs:
            mesh = fam.mesh
            exps = ExponentTuple(mesh.n, ALPHA, 4.0 / 3.0, 4.0)
            # the blocks hold the seeds of positive norm: with sigma = 1,
            # the indicators of the members over some cell centre
            one = StepFunction.constant(mesh, 1.0)
            labels = [x for _, block, *_ in _seed_blocks([(one, one)], exps, fam, 0, None) for x in block]
            assert labels[: labels.index("sigma-profile")] == [
                f"chi[{q.level},{q.coord}]" for q in old.cubes
                if _center_mask(mesh, *q.bounds3(mesh.finest_exponent)).any()]

    @pytest.mark.parametrize("n, J, T", list(itertools.product((1, 2), (0, 1), (0, 40))))
    def test_plan_sums(self, n, J, T):
        mesh = Mesh(n, J, 5 if n == 1 else 3, coarse_padding=T)
        N = mesh.cells_per_axis
        rng = np.random.default_rng(80 + 4 * n + 2 * J + T)
        stack = np.exp(rng.standard_normal((30, *(N,) * n)))
        stack[1, : N // 2] = 0.0
        stack[2] = 0.0
        for shift in mesh.shifts():
            fam = build_sparse(lognormal(mesh, 81), shift, ALPHA)[0]
            lo, hi = list(fam.forest.lo3.T), list(fam.forest.hi3.T)
            frames = [stack[0], stack[1], stack[2]] + [stack[:rows] for rows in (1, 4, 30)]
            for values in frames:
                pref = _prefix_sums(values, n)
                got, expect = fam.plan.sums(values), parent_box_sums(pref, values, lo, hi)
                assert got.shape == expect.shape == (*values.shape[:-n], len(fam))
                assert np.array_equal(got.view(np.int64), expect.view(np.int64))
                got = _member_weights(member_integrals(values, fam), ALPHA, fam)
                expect = parent_member_weights(values, ALPHA, fam)
                assert np.array_equal(got.view(np.int64), expect.view(np.int64))

    def test_plan_is_kept_and_read_only(self):
        mesh = Mesh(2, 1, 3)
        f = lognormal(mesh, 82)
        fam = build_sparse(f, (1, 0), ALPHA)[0]
        first = sparse_riesz(f, ALPHA, fam)
        plan = fam.plan
        assert all(not a.flags.writeable for corner in plan.corners for a in corner)
        second = sparse_riesz(lognormal(mesh, 83), ALPHA, fam)
        assert fam.plan is plan and not np.array_equal(first.values, second.values)


# The one-pair corona decomposition and certificate that ``corona_decomposes``
# and ``_certify_coronas`` replaced, copied as the oracles of the pair batch.


def parent_corona_decompose(
    family: SparseFamily,
    root: DyadicCube,
    u: StepFunction,
    sigma: StepFunction,
    exps: ExponentTuple,
    mode: str = "classic",
) -> CoronaDecomposition:
    """Corona decomposition of the members inside root.

    Slices: 2^a < (avg_Q u)^{1/q} (avg_Q sigma)^{1/p'} <= 2^{a+1}; in
    fractional mode the slicing quantity carries the extra factor
    |Q|^{alpha/n + 1/q - 1/p}.  Stopping cubes: coarse-to-fine first hit of
    |Q|^{alpha/n} avg_Q u > 2 |P|^{alpha/n} avg_P u against the finest
    stopping ancestor P.  Cubes with vanishing u- or sigma-average belong
    to no slice and are counted in ``skipped``.

    One sweep down the forest's member levels carries, for every member
    and slice, the finest stopping member of that slice at or above it and
    their count, in O(|S| * slices): a stopping cube's generation counts
    the coarser stopping cubes of its slice."""
    if mode not in ("classic", "fractional"):
        raise ValueError("mode must be 'classic' or 'fractional'")
    t = family.forest
    index = np.flatnonzero(family.contained_in(root))
    vol = t.volume[index]
    u_avg = u.integral_box3(t.lo3[index], t.hi3[index]) / vol
    s_avg = sigma.integral_box3(t.lo3[index], t.hi3[index]) / vol
    keep = (u_avg > 0.0) & (s_avg > 0.0)
    skipped = int(np.count_nonzero(~keep))
    index, vol, u_avg, s_avg = index[keep], vol[keep], u_avg[keep], s_avg[keep]
    v = _slicing_values(exps, mode, u_avg, s_avg, vol)
    fracavg = _fractional_averages(exps, u_avg, vol)
    a = _ilog_lt(v, 2.0)
    keys, key = np.unique(a, return_inverse=True)
    m = len(t.level)
    frac = np.zeros(m + 1)  # by forest index; entry m stands for no member
    frac[index] = fracavg
    # per slice key and forest index: the finest stopping member at or above
    # it (-1 if none), and their count; a member's own entry starts as itself
    x = np.zeros((2, len(keys), m + 1), dtype=np.int64)
    x[0] = -1
    x[0, key, index] = index

    def step(p, own, out):
        stops = (own[0] >= 0) & ((p[0] < 0) | (frac[own[0]] > 2.0 * frac[p[0]]))
        out[0], out[1] = np.where(stops, own[0], p[0]), p[1] + stops

    near, count = _sweep(x, 0, t.runs, t.up, step)[:, key, index]
    stops = near == index
    up = np.where(stops, np.arange(len(index)), np.searchsorted(index, near))
    generation = np.where(stops, count - 1, -1)
    b = -_ilog_lt(fracavg / fracavg[up], 2.0)
    # v(Q)^q is the slicing product per cube, so log2 of its sup over the
    # decomposed cubes bounds every slice index a from above
    vmax = float(v.max(initial=0.0))
    gamma = math.log2(vmax) if vmax > 0.0 else -math.inf
    # members come coarse to fine, so every slice is in (level, coord) order
    cubes = [family.cubes[i] for i in index.tolist()]
    parents, gens, bs = [cubes[p] for p in up.tolist()], generation.tolist(), b.tolist()
    slices, stopping, pi, bindex = {}, {}, {}, {}
    for s in dict.fromkeys(a.tolist()):
        at = np.flatnonzero(a == s).tolist()
        slices[s] = [cubes[i] for i in at]
        stopping[s] = {cubes[i]: gens[i] for i in at if gens[i] >= 0}
        pi[s] = {cubes[i]: parents[i] for i in at}
        bindex[s] = {cubes[i]: bs[i] for i in at}
    cd = CoronaDecomposition(exps, family, root, mode, index, a, up, generation, b, u_avg,
                             s_avg, fracavg, skipped, gamma)
    # the dicts as the parent built them, in place of the ones built on use
    cd.slices, cd.stopping, cd.pi, cd.bindex = slices, stopping, pi, bindex
    parent_certify_corona(cd)
    return cd


def parent_certify_corona(cd: CoronaDecomposition):
    """Every invariant of the decomposition, recomputed from its arrays in
    O(M * depth)."""
    t, index, a, up, gen, f = cd.family.forest, cd.index, cd.a, cd.up, cd.generation, cd.fracavg
    own = np.arange(len(up))
    if np.any(a > cd.gamma):
        raise AssertionError("slice index exceeds the characteristic bound")
    if np.any(np.diff(index) <= 0):
        raise AssertionError("slices are not disjoint")
    v = _slicing_values(cd.exps, cd.mode, cd.u_avg, cd.sigma_avg, t.volume[index])
    if not np.all((np.ldexp(1.0, a) < v) & (v <= np.ldexp(1.0, a + 1))):
        raise AssertionError("slice membership violated")
    if np.any((up < 0) | (up >= len(up))) or not np.all(
        (t.lo3[index[up]] <= t.lo3[index]) & (t.hi3[index] <= t.hi3[index[up]])
    ):
        raise AssertionError("stopping parent does not contain its cube")
    # the finest stopping cube of each member's slice that strictly contains it
    key = np.unique(a, return_inverse=True)[1]
    stop_key = np.full(len(t.level), -1, dtype=np.int64)
    stop_key[index[gen >= 0]] = key[gen >= 0]
    anc, count = _climb(t.parent, index, key, stop_key)
    p = np.searchsorted(index, anc)  # unused where anc < 0
    if not np.array_equal(up, np.where(gen >= 0, own, np.where(anc >= 0, p, -1))):
        raise AssertionError("stopping parent is not the finest stopping ancestor")
    if np.any((gen >= 0) & (gen != count)):
        raise AssertionError("stopping generation bookkeeping broken")
    if np.any((gen > 0) & ~(f > 2.0 * f[p])):
        raise AssertionError("stopping inequality violated")
    if np.any((up != own) & (f > 2.0 * f[up])):
        raise AssertionError("reverse inequality violated")
    if not np.all((np.ldexp(f[up], -cd.b) < f) & (f <= np.ldexp(f[up], 1 - cd.b))):
        raise AssertionError("b-slice membership violated")
    # every check above compares ratios of fractional averages, which a
    # common factor leaves unchanged
    if not np.array_equal(f, _fractional_averages(cd.exps, cd.u_avg, t.volume[index])):
        raise AssertionError("fractional averages disagree with u_avg")
    cd.certified = True



def corona_fields(cd):
    return tuple(getattr(cd, f.name) for f in dataclasses.fields(cd))


def parent_message(cd):
    """The message of the first check of the parent certificate that ``cd`` fails."""
    with pytest.raises(AssertionError) as exc:
        parent_certify_corona(cd)
    return str(exc.value)


def _batch_weights(mesh):
    """Weights for the pair batch: lognormal u, a sigma that vanishes on the
    first half of the box, u == 0 and two martingales."""
    half = lognormal(mesh, 12, scale=0.7).values.copy()
    half[: mesh.cells_per_axis // 2] = 0.0
    return (lognormal(mesh, 11, scale=0.7), StepFunction(mesh, half), StepFunction.constant(mesh, 0.0),
            generate_weight(mesh, "martingale:seed=5,vol=0.5"), generate_weight(mesh, "martingale:seed=6,vol=0.5"))


class TestPairBatchOracle:
    """``corona_decomposes`` against the parent's one-pair
    ``corona_decompose``, field by field with ==, for pairs that share
    weight objects, a pair whose members are all skipped, and a sigma that
    vanishes on half the box; in one sweep block and in one block per pair."""

    MESHES = [Mesh(1, 0, 6), Mesh(2, 1, 3), Mesh(1, 1, 5, coarse_padding=0)]

    @pytest.mark.parametrize("block", [None, 1], ids=["one-block", "pair-blocks"])
    @pytest.mark.parametrize("mode", ["classic", "fractional"])
    @pytest.mark.parametrize("mesh", MESHES, ids=mesh_id)
    def test_batch_equals_parent(self, monkeypatch, mesh, mode, block):
        if block is not None:
            monkeypatch.setattr(mesh_module, "_FRAME_BLOCK", block)
        u, half, zero, m5, m6 = _batch_weights(mesh)
        pairs = [(u, half), (m5, m6), (zero, m6), (u, u), (m6, m5), (u, half)]
        exps = ExponentTuple(mesh.n, ALPHA, 4.0 / 3.0, 4.0)
        integrals = Counter()
        plan_integrals = StepFunction.plan_integrals
        monkeypatch.setattr(StepFunction, "plan_integrals",
                            lambda f, plan: integrals.update([id(f)]) or plan_integrals(f, plan))
        for shift in mesh.shifts():
            fam = build_sparse(lognormal(mesh, 81), shift, ALPHA)[0]
            roots = _roots(fam)
            for root in sorted({roots[0], roots[len(roots) // 2], roots[-1]}, key=str):
                integrals.clear()
                got = corona_decomposes(fam, root, pairs, exps, mode)
                # one integral per distinct weight object
                assert sorted(integrals.values()) == [1] * 5
                assert len(got) == len(pairs)
                for cd, (w, sigma) in zip(got, pairs):
                    expect = parent_corona_decompose(fam, root, w, sigma, exps, mode)
                    _same_arrays(corona_fields(cd), corona_fields(expect))
                    # the dicts are built on first use only
                    assert not {"slices", "stopping", "pi", "bindex"} & vars(cd).keys()
                    assert list(cd.slices) == list(expect.slices)
                    assert (cd.slices, cd.stopping, cd.pi, cd.bindex) == (
                        expect.slices, expect.stopping, expect.pi, expect.bindex)
                    assert cd.certified
                # every member inside root is skipped where u == 0
                assert len(got[2].index) == 0 and got[2].skipped == len(fam.members_in(root))
        assert corona_decomposes(fam, root, [], exps, mode) == []

    def test_one_pair_fails_alone(self, monkeypatch):
        mesh = Mesh(1, 0, 6)
        u, half, _, m5, m6 = _batch_weights(mesh)
        pairs = [(u, half), (m5, m6), (m6, m5)]
        fam = build_sparse(lognormal(mesh, 81), (0,), ALPHA)[0]
        exps = ExponentTuple(1, ALPHA, 4.0 / 3.0, 4.0)
        broken = parent_corona_decompose(fam, fam.cube(0), m5, m6, exps)
        broken.b += 5
        self.break_pair(monkeypatch, 1)
        got = corona_decomposes(fam, fam.cube(0), pairs, exps)
        assert [type(cd) for cd in got] == [CoronaDecomposition, AssertionError, CoronaDecomposition]
        assert str(got[1]) == parent_message(broken) == "b-slice membership violated"
        assert got[0].certified and got[2].certified
        # the one-pair call raises what the parent raised
        with pytest.raises(AssertionError, match="^b-slice membership violated$"):
            corona_decompose(fam, fam.cube(0), m5, m6, exps)

    def test_verify_names_the_failing_pair(self, tmp_path, monkeypatch):
        pairs = [["constant:c=1", "twovalue:a=2,b=1"], ["martingale:seed=5,vol=0.5", "martingale:seed=6,vol=0.5"],
                 ["twovalue:a=2,b=1", "constant:c=1"]]
        cfg = ExperimentConfig(L=6, alphas=[0.5], n_random_functions=1, pairs=pairs)
        weights = cfg.validate()
        fam = build_sparse(cfg.random_functions(cfg.mesh())[0][1], (0,), cfg.alpha)[0]
        broken = parent_corona_decompose(fam, fam.cube(0), weights[pairs[1][0]], weights[pairs[1][1]], cfg.exps())
        broken.b += 5
        self.break_pair(monkeypatch, 1)
        assert cli.cmd_verify(cfg, tmp_path, weights) == 1
        failures = json.loads((tmp_path / "verify.json").read_text())["failures"]
        assert failures == [{"check": "corona", "instance": pairs[1], "witness": parent_message(broken)}]

    @staticmethod
    def break_pair(monkeypatch, i):
        """Shift every b-index of the i-th decomposition of a batch (or of a
        one-pair call) by 5 before it is certified."""
        certify = corona_module._certify_coronas

        def breaking(cds):
            cds[min(i, len(cds) - 1)].b += 5
            return certify(cds)

        monkeypatch.setattr(corona_module, "_certify_coronas", breaking)
