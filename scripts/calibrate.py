#!/usr/bin/env python3
"""Measure the calibration envelopes on the frozen corpus and write
src/rieszw/data/calibration.json.  Run from the repository root."""

import json
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from rieszw.calibration import CALIBRATION_MESH, corpus_instance, corpus_pairs
from rieszw.corona import sigma_decay_check
from rieszw.mesh import Mesh
from rieszw.operators import KernelMode, dyadic_riesz, riesz_reference
from rieszw.normest import lsut_sandwich, thm31_bound_checks, thm41_bound_checks
from rieszw.sparse import build_sparse, corona_decompose
from rieszw.weights import ExponentTuple, generate_weight

SEEDS = range(10)
ALPHA, P, Q = 0.5, 4.0 / 3.0, 4.0


def main():
    mesh = Mesh(**CALIBRATION_MESH)
    exps = ExponentTuple(mesh.n, ALPHA, P, Q)
    prop22_lower = []
    thm31_max = 0.0
    thm41_log_max = 0.0
    thm41_loglog_max = 0.0
    r2_values = []
    decay_max = 0.0
    f0, _, _ = corpus_instance(mesh, 0)
    instances = [
        (f"spec:{us}|{ss}", f0, generate_weight(mesh, us), generate_weight(mesh, ss))
        for us, ss in corpus_pairs()
    ]
    for seed in SEEDS:
        f, u, sigma = corpus_instance(mesh, seed)
        instances.append((f"lognormal:{seed}", f, u, sigma))
    for seed, (label, f, u, sigma) in enumerate(instances):
        ref = riesz_reference(f, ALPHA, KernelMode.MIDPOINT).values
        dy = np.maximum.reduce(
            [dyadic_riesz(f, ALPHA, s).values for s in mesh.shifts()]
        )
        prop22_lower.append(float(np.max(ref / dy)))

        S, _ = build_sparse(f, (0,), ALPHA)
        sw = lsut_sandwich(u, sigma, exps, S, rng_seed=seed)
        assert sw.testing_below_norm and sw.r1 is not None and sw.r1 <= 1.0 + 1e-8
        r2_values.append(sw.r2)

        dual31, direct31 = thm31_bound_checks([(u, sigma, sw.testing)], exps, fw_max_level=3)[0]
        thm31_max = max(thm31_max, dual31.ratio, direct31.ratio)
        for kind in ("log", "loglog"):
            dual41, direct41 = thm41_bound_checks([(u, sigma, sw.testing)], exps, kind, 1.0)[0]
            worst = max(dual41.ratio, direct41.ratio if direct41 else 0.0)
            if kind == "log":
                thm41_log_max = max(thm41_log_max, worst)
            else:
                thm41_loglog_max = max(thm41_loglog_max, worst)

        root = S.cubes[0]
        cd = corona_decompose(S, root, u, sigma, exps)
        decay_max = max(decay_max, sigma_decay_check(cd, sigma).worst_scaled)
        print(f"{label}: prop22={prop22_lower[-1]:.4f} r2={sw.r2:.4f} "
              f"thm31<= {thm31_max:.4f} decay<= {decay_max:.4f}")

    data = {
        "version": 1,
        "mesh": CALIBRATION_MESH,
        "exponents": {"alpha": ALPHA, "p": P, "q": Q},
        "seeds": list(SEEDS),
        "prop22_lower": {
            "mean": float(np.mean(prop22_lower)),
            "max": float(np.max(prop22_lower)),
            "min": float(np.min(prop22_lower)),
        },
        "thm31_ratio_max": thm31_max,
        "thm41_log_ratio_max": thm41_log_max,
        "thm41_loglog_ratio_max": thm41_loglog_max,
        "lsut_r2_min": float(np.min(r2_values)),
        "lsut_r2_max": float(np.max(r2_values)),
        "sigma_decay_c1_max": decay_max,
    }
    out = pathlib.Path(__file__).resolve().parents[1] / "src/rieszw/data/calibration.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print("wrote", out)


if __name__ == "__main__":
    main()
