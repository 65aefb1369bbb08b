"""Acceptance gate: nine criteria, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  The whole file is budgeted to finish in well under
fifteen minutes on a laptop-class machine.
"""

import json
import math
import subprocess
import sys
import time
from collections import Counter

import numpy as np
import pytest

from rieszw.calibration import SLACK, corpus_instance, load_calibration
from rieszw.mesh import DyadicCube, Mesh, StepFunction
from rieszw.normest import (
    RangeConditionError,
    dyadic_testing,
    lsut_sandwich,
    strong_norm_lower,
    thm31_bound_checks,
    thm41_bound_checks,
)
from rieszw.operators import (
    KernelMode,
    compare_pointwise,
    dyadic_riesz,
    dyadic_upper_constant,
    riesz_reference,
    sparse_riesz,
)
from rieszw.orlicz import YoungFunction, generalized_holder, luxemburg_norm
from rieszw.sparse import (
    SparseFamily,
    build_sparse,
    corona_decompose,
    overlap_level_set,
    verify_sparse,
)
from rieszw.weights import ExponentTuple, ap_constant, apq_constant

from conftest import in_box_cubes, lognormal
from test_orlicz import lp_average_oracle

SOB = ExponentTuple(1, 0.5, 4.0 / 3.0, 4.0)
ROOT = DyadicCube((0,), 0, (0,))


def report(num: int, desc: str, ok: bool):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_1_sparsity_and_domination():
    mesh = Mesh(1, 0, 8)
    t0 = time.time()
    ok = True
    for seed in range(200):
        f = lognormal(mesh, seed)
        for alpha in (0.25, 0.5, 0.75):
            fam, C = build_sparse(f, (0,), alpha)
            cert = verify_sparse(fam)
            rep = compare_pointwise(
                dyadic_riesz(f, alpha, (0,)), sparse_riesz(f, alpha, fam)
            )
            ok &= cert.ok and rep.violations == 0
            ok &= rep.max_ratio <= C * (1.0 + 1e-12)
    elapsed = time.time() - t0
    ok &= elapsed < 60.0
    report(1, f"exact sparsity and domination, 200 f x 3 alpha in {elapsed:.1f}s", ok)


def test_criterion_2_overlap_level_sets():
    ok = True
    mesh = Mesh(1, 0, 6)
    for seed in range(20):
        f = lognormal(mesh, 1000 + seed)
        for shift in mesh.shifts():
            fam, _ = build_sparse(f, shift, 0.5)
            root = fam.cubes[0]
            for k in range(1, 13):
                ok &= overlap_level_set(fam, root, k).exact_le_bound
    chain = SparseFamily(mesh, (0,), tuple(DyadicCube((0,), j, (0,)) for j in range(5)))
    for k in range(1, 5):
        rep = overlap_level_set(chain, ROOT, k)
        ok &= rep.exact_le_bound and rep.measure == rep.bound
    report(2, "overlap measure <= 2^-k |R0|, nested chain attains equality", ok)


def test_criterion_3_characteristic_identity():
    mesh = Mesh(1, 0, 6)
    corpus = [lognormal(mesh, 2000 + s, scale=0.5) for s in range(16)]
    vals = np.ones(mesh.cells_per_axis)
    vals[: mesh.cells_per_axis // 2] = 2.0
    corpus.append(StepFunction(mesh, vals))
    corpus.append(StepFunction.constant(mesh, 3.0))
    axis = (np.arange(mesh.cells_per_axis) + 0.5) * mesh.cell_width
    corpus.append(StepFunction(mesh, np.maximum(np.abs(axis - 0.5), mesh.cell_width) ** 0.2))
    corpus.append(StepFunction(mesh, 1.0 + axis))
    assert len(corpus) == 20
    ok = True
    for w in corpus:
        lhs = apq_constant(w, SOB.p, SOB.q).value
        mid = ap_constant(w.map(lambda v: v**SOB.q), SOB.s_p).value ** (1.0 / SOB.q)
        rhs = ap_constant(w.map(lambda v: v**-SOB.p_prime), SOB.s_qprime).value ** (
            1.0 / SOB.p_prime
        )
        ok &= abs(lhs - mid) <= 1e-10 * lhs and abs(lhs - rhs) <= 1e-10 * lhs
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 3))
        alpha = float(rng.uniform(0.05, 0.95)) * n
        p = float(rng.uniform(1.05, 4.0))
        inv_q = 1.0 / p - alpha / n
        if inv_q <= 1e-9:
            continue
        e = ExponentTuple(n, alpha, p, 1.0 / inv_q)
        sp = e.s_p
        ok &= abs(sp / (sp - 1.0) - e.s_qprime) <= 1e-12 * e.s_qprime
    report(3, "A_{p,q} identity to 1e-10 on 20 weights; s(p)' = s(q') to 1e-12", ok)


def test_criterion_4_luxemburg():
    mesh = Mesh(1, 0, 5)
    rng = np.random.default_rng(12)
    cubes = list(in_box_cubes(mesh))
    ok = True
    for i in range(100):
        f = lognormal(mesh, 3000 + i)
        p = float(rng.uniform(1.05, 5.0))
        q = cubes[rng.integers(len(cubes))]
        got = luxemburg_norm(f, q, YoungFunction.power(p))
        ok &= abs(got - lp_average_oracle(f, q, p)) <= 1e-10 * max(got, 1e-300)
    phi = YoungFunction.log_bump(2.0, 1.0)
    for i in range(20):
        f = lognormal(mesh, 3200 + i)
        c = float(rng.uniform(0.1, 10.0))
        nf = luxemburg_norm(f, ROOT, phi)
        ok &= abs(luxemburg_norm(f.map(lambda v: c * v), ROOT, phi) - c * nf) <= 1e-9 * c * nf
        g = StepFunction(mesh, f.values + rng.random(mesh.cells_per_axis))
        ok &= luxemburg_norm(g, ROOT, phi) >= nf * (1.0 - 1e-12)
    phis = [
        YoungFunction.power(2.0),
        YoungFunction.power(3.0),
        YoungFunction.log_bump(2.0, 1.0),
        YoungFunction.log_bump(4.0, 0.5),
        YoungFunction.loglog_bump(2.5, 1.0),
    ]
    for i in range(500):
        f = lognormal(mesh, 4000 + i)
        g = lognormal(mesh, 5000 + i)
        q = cubes[rng.integers(len(cubes))]
        lhs, rhs = generalized_holder(f, g, q, phis[i % len(phis)])
        ok &= lhs <= rhs * (1.0 + 1e-9)
    report(4, "Luxemburg power case 1e-10; homogeneity/monotonicity; Hoelder x500", ok)


def test_criterion_5_reference_accuracy():
    mesh = Mesh(1, 0, 10)
    f = StepFunction.constant(mesh, 1.0)
    centers = (np.arange(mesh.cells_per_axis) + 0.5) * mesh.cell_width
    exact = 2.0 * (np.sqrt(centers) + np.sqrt(1.0 - centers))
    mid = riesz_reference(f, 0.5, KernelMode.MIDPOINT).values
    lo = riesz_reference(f, 0.5, KernelMode.LOWER).values
    hi = riesz_reference(f, 0.5, KernelMode.UPPER).values
    inner = (centers >= 0.05) & (centers <= 0.95)
    ok = bool(np.max(np.abs(mid[inner] - exact[inner]) / exact[inner]) < 2e-3)
    ok &= bool(np.all(lo <= exact + 1e-12) and np.all(exact <= hi + 1e-12))
    report(5, "reference matches 2(sqrt(x)+sqrt(1-x)) to 2e-3; modes bracket", ok)


def test_criterion_6_dyadic_vs_reference():
    mesh = Mesh(1, 0, 6)
    ok = True
    for seed in range(50):
        f = lognormal(mesh, 6000 + seed)
        alpha = (0.25, 0.5, 0.75)[seed % 3]
        C = dyadic_upper_constant(1, alpha)
        ref_u = riesz_reference(f, alpha, KernelMode.UPPER)
        for shift in mesh.shifts():
            rep = compare_pointwise(dyadic_riesz(f, alpha, shift), ref_u)
            ok &= rep.violations == 0 and rep.max_ratio <= C * (1.0 + 1e-12)
    consts = []
    for seed in range(5):
        f, _, _ = corpus_instance(mesh, seed)
        ref = riesz_reference(f, 0.5, KernelMode.MIDPOINT).values
        dy = np.maximum.reduce([dyadic_riesz(f, 0.5, s).values for s in mesh.shifts()])
        consts.append(float(np.max(ref / dy)))
    mean = float(np.mean(consts))
    ok &= all(abs(c - mean) <= 0.1 * mean for c in consts)
    report(6, "dyadic <= C1 * reference(upper) cellwise; lower constant stable 10%", ok)


def test_criterion_7_corona_certification():
    mesh = Mesh(1, 0, 6)
    ok = True
    for seed in range(50):
        f = lognormal(mesh, 7000 + seed)
        u = lognormal(mesh, 7100 + seed, scale=0.7)
        s = lognormal(mesh, 7200 + seed, scale=0.7)
        fam, _ = build_sparse(f, (0,), 0.5)
        root = fam.cubes[0]
        cd = corona_decompose(fam, root, u, s, SOB)
        ok &= cd.certified
        members = set(fam.members_in(root))
        sliced = [q for a in cd.slices for q in cd.slices[a]]
        ok &= len(sliced) == len(set(sliced))
        ok &= len(sliced) + cd.skipped == len(members)
        for a in cd.slices:
            grouped = [q for P in cd.stopping[a] for q in cd.slices[a] if cd.pi[a][q] == P]
            ok &= sorted(grouped, key=str) == sorted(cd.slices[a], key=str)
            ok &= all(aa <= cd.gamma for aa in cd.slices)
    one = StepFunction.constant(mesh, 1.0)
    chain = SparseFamily(mesh, (0,), tuple(DyadicCube((0,), j, (0,)) for j in range(7)))
    cd = corona_decompose(chain, ROOT, one, one, SOB)
    ok &= list(cd.slices) == [-1] and cd.stopping[-1] == {ROOT: 0}
    sizes = Counter(cd.bindex[-1][q] for q in cd.slices[-1] if cd.pi[-1][q] == ROOT)
    ok &= bool(sizes) and max(sizes.values()) <= 2
    report(7, "corona invariants on 50 instances; hand-traced structure", ok)


def test_criterion_8_testing_sandwich_and_envelopes():
    mesh = Mesh(1, 0, 6)
    cal = load_calibration()
    ok = True
    # exact seed-set guarantee: testing <= strong norm lower bound
    for seed in range(8):
        f, u, s = corpus_instance(mesh, seed)
        fam, _ = build_sparse(f, (0,), 0.5)
        testing = dyadic_testing(u, s, SOB, fam)
        extra = []
        for wit in (testing.witness_direct, testing.witness_dual):
            if wit is not None:
                from rieszw.weights import _center_mask

                lo, hi = wit.bounds3(mesh.finest_exponent)
                extra.append(("wit", StepFunction(mesh, _center_mask(mesh, lo, hi))))
        st = strong_norm_lower(u, s, SOB, fam, rng_seed=seed, extra_seeds=extra)
        ok &= testing.direct <= st.value + 1e-8
    # single-cube fixture
    tight = Mesh(1, 0, 3, coarse_padding=0)
    one3 = StepFunction.constant(tight, 1.0)
    single = SparseFamily(tight, (0,), (ROOT,))
    e22 = ExponentTuple(1, 0.5, 2.0, 2.0)
    sw = lsut_sandwich(one3, one3, e22, single)
    ok &= abs(sw.strong.value - 1.0) <= 1e-9
    ok &= abs(sw.testing.direct - 1.0) <= 1e-9
    ok &= abs(sw.r1 - 0.5) <= 1e-9
    # frozen envelopes with 10% slack across 5 reseeded corpora
    env31 = cal["thm31_ratio_max"] * SLACK
    env41 = {"log": cal["thm41_log_ratio_max"] * SLACK,
             "loglog": cal["thm41_loglog_ratio_max"] * SLACK}
    for seed in range(10, 15):
        f, u, s = corpus_instance(mesh, seed)
        fam, _ = build_sparse(f, (0,), 0.5)
        testing = dyadic_testing(u, s, SOB, fam)
        d31, x31 = thm31_bound_checks([(u, s, testing)], SOB, fw_max_level=3)[0]
        ok &= d31.ratio is not None and d31.ratio <= env31
        ok &= x31.ratio is not None and x31.ratio <= env31
        for kind in ("log", "loglog"):
            d41, x41 = thm41_bound_checks([(u, s, testing)], SOB, kind, 1.0)[0]
            worst = max(d41.ratio or 0.0, (x41.ratio if x41 else 0.0) or 0.0)
            ok &= worst <= env41[kind]
    # range-condition refusal
    try:
        thm41_bound_checks([(one3, one3, dyadic_testing(one3, one3, e22, single))], e22)
        ok = False
    except RangeConditionError:
        pass
    report(8, "testing <= norm; single-cube fixture; envelopes x1.1; refusal", ok)


def test_criterion_9_cli_determinism(tmp_path):
    cfg = {
        "L": 4,
        "alphas": [0.5],
        "weights": ["constant:c=1", "twovalue:a=2,b=1"],
        "n_random_functions": 1,
        "betas": [0.2, 0.4],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    ok = True
    for command in ("constants", "verify", "sparse", "corona", "norm", "sandwich", "exponent-fit"):
        outs = []
        for run in ("a", "b"):
            out = tmp_path / command / run
            r = subprocess.run(
                [sys.executable, "-m", "rieszw.cli", command,
                 "--config", str(cfg_path), "--out", str(out)],
                capture_output=True,
                text=True,
            )
            ok &= r.returncode == 0
            outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        ok &= outs[0] == outs[1] and len(outs[0]) > 0
    report(9, "all CLI suites rerun byte-identical", ok)
