"""The four benchmark workloads: inputs from a seed, the run, and its checks.

``prepare`` runs inside the measured interpreter (see ``child.py``) after
``rieszw`` is imported; it generates the inputs and returns the call that
the benchmark times.  ``check`` runs in the driver on what the call left in
its output directory.  Every call into ``rieszw`` goes through a module
attribute (``operators.riesz_reference``, ``cli.main``) so that the tracer's
patches see it.
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib
import re

SNAPSHOT = pathlib.Path(__file__).resolve().parent / "snapshot.json"

# CLI defaults, reused by the library session so that its exponents match.
ALPHA, P, Q = 0.5, 4.0 / 3.0, 4.0

#: Workload names; why each was chosen is in BENCHMARK.json, and what it
#: should move in predictions.json.
WORKLOADS = ("sandwich-1d", "verify-1d", "constants-2d", "reference-2d")

#: Relative tolerance for floats compared with the snapshot; it admits
#: reordered floating-point sums and bisection end points, not new results.
FLOAT_RTOL = 1e-6
FLOAT_ATOL = 1e-12
#: Integer outputs that must equal the snapshot exactly.
INT_KEYS = ("checks", "size", "corpusSize", "skippedDirect", "skippedDual", "violations")


def load_snapshot() -> dict:
    """Reference outputs per workload and seed, recorded by ``run.py --record-snapshot``."""
    return json.loads(SNAPSHOT.read_text()) if SNAPSHOT.is_file() else {}


def _offset_seeds(spec: str, seed: int) -> str:
    """Shift every ``seed=<k>`` of a weight spec by the workload seed."""
    return re.sub(r"seed=(\d+)", lambda m: f"seed={int(m.group(1)) + seed}", spec)


def cli_config(name: str, seed: int) -> tuple[str, str, dict, int]:
    """(subcommand, --mesh value, config document, --seed value) of a CLI
    workload.  Sizes keep one sample at 1.5 to 3.5 s, so that a 20 s run
    holds five or more samples for its medians."""
    # In the 1-D workloads only the martingale weights follow the seed.  The
    # CLI seed draws the random functions, whose sparse families set the
    # work (sandwich-1d: 76k to 197k integral_box3 calls over seeds 0-2), so
    # it stays 0 and the timed work is the same for every seed.
    if name == "sandwich-1d":
        from rieszw import calibration

        pairs = [[_offset_seeds(u, seed), _offset_seeds(s, seed)] for u, s in calibration.corpus_pairs()]
        return "sandwich", "n=1,J=0,L=5", {"pairs": pairs, "fw_max_level": 1}, 0
    if name == "verify-1d":
        pairs = [["constant:c=1", "twovalue:a=2,b=1"], ["twovalue:a=2,b=1", "constant:c=1"],
                 [f"martingale:seed={5 + seed},vol=0.5", f"martingale:seed={6 + seed},vol=0.5"]]
        return "verify", "n=1,J=0,L=9", {"pairs": pairs}, 0
    if name == "constants-2d":
        weights = ["constant:c=1", "twovalue:a=2,b=1", "power:beta=0.3", f"martingale:seed={5 + seed},vol=0.5"]
        return "constants", "n=2,J=0,L=4", {"weights": weights, "fw_max_level": 1}, seed
    raise KeyError(name)


def prepare(name: str, seed: int, outdir: pathlib.Path):
    """Generate the inputs of one run and return the zero-argument call to
    time; the call returns the run's exit code."""
    if name == "reference-2d":
        return _prepare_reference(seed, outdir)
    from rieszw import cli

    command, mesh, config, cli_seed = cli_config(name, seed)
    cfg_path = outdir / "config.json"
    cfg_path.write_text(json.dumps(config, sort_keys=True))
    argv = [command, "--config", str(cfg_path), "--seed", str(cli_seed), "--jobs", "1",
            "--out", str(outdir / "out"), "--mesh", mesh]
    return lambda: cli.main(argv)


def _prepare_reference(seed: int, outdir: pathlib.Path):
    """Library session: no CLI subcommand reaches ``riesz_reference``."""
    import numpy as np

    from rieszw import calibration, normest, operators, weights
    from rieszw.mesh import Mesh

    big = Mesh(2, 0, 6)
    small = Mesh(2, 0, 3)
    f, _, _ = calibration.corpus_instance(big, seed)
    _, u, sigma = calibration.corpus_instance(small, seed)
    exps = weights.ExponentTuple(2, ALPHA, P, Q)
    out = outdir / "out"

    def run() -> int:
        ref = {m.name: operators.riesz_reference(f, ALPHA, m) for m in operators.KernelMode}
        lo, mid, up = (ref[k].values for k in ("LOWER", "MIDPOINT", "UPPER"))
        C = operators.dyadic_upper_constant(2, ALPHA)
        dyadic = []
        for shift in big.shifts():
            dy = operators.dyadic_riesz(f, ALPHA, shift)
            rep = operators.compare_pointwise(dy, ref["UPPER"])
            dyadic.append({"shift": list(shift), "sum": float(np.sum(dy.values)),
                           "maxRatioToBound": rep.max_ratio / C, "violations": rep.violations,
                           "withinBound": rep.violations == 0 and rep.max_ratio <= C * (1.0 + 1e-12)})
        sawyer = normest.sawyer_testing(u, sigma, exps)
        record = {
            "reference": {k: {"sum": float(np.sum(v.values)), "max": float(np.max(v.values)),
                              "min": float(np.min(v.values))} for k, v in ref.items()},
            "modesOrdered": bool(np.all(lo <= mid) and np.all(mid <= up)),
            "dyadic": dyadic,
            "sawyer": sawyer.to_jsonable(),
        }
        out.mkdir(parents=True, exist_ok=True)
        (out / "reference.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        return 0

    return run


# ---------------------------------------------------------------------------
# Checks


def digests(out: pathlib.Path) -> dict:
    """SHA-256 of every output file, keyed by its name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def output_bytes(out: pathlib.Path) -> int:
    return sum(p.stat().st_size for p in out.iterdir() if p.is_file())


def _leaves(obj, path=""):
    if isinstance(obj, dict):
        for k in sorted(obj):
            yield from _leaves(obj[k], f"{path}/{k}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _leaves(v, f"{path}/{i}")
    else:
        yield path, obj


def observables(out: pathlib.Path) -> dict:
    """The values compared with the snapshot: every float and boolean of the
    JSON outputs and the integers named in ``INT_KEYS``."""
    found = {}
    for p in sorted(out.glob("*.json")):
        for path, v in _leaves(json.loads(p.read_text()), p.name):
            if "/config/" in path:
                continue
            if isinstance(v, (bool, float)) or (isinstance(v, int) and path.rsplit("/", 1)[-1] in INT_KEYS):
                found[path] = v
    return found


_VERDICTS = {
    "verify-1d": re.compile(r"^verify: (\d+) checks, 0 failures \[PASS\]$", re.M),
    "sandwich-1d": re.compile(r"^sandwich: 5 pairs, 0 envelope failures$", re.M),
}


def check(name: str, exit_code: int, stdout: str, out: pathlib.Path, expected: dict | None) -> list[str]:
    """Failed checks of one run (empty when it passed).  ``expected`` holds
    the snapshot observables for this workload and seed, if recorded."""
    failures = []
    if exit_code != 0:
        failures.append(f"exit code {exit_code}")
    verdict = _VERDICTS.get(name)
    if verdict is not None and not verdict.search(stdout):
        failures.append("verdict line missing or not passing")
    if not out.is_dir() or not any(out.iterdir()):
        return failures + ["no output files"]
    got = observables(out)
    if name == "reference-2d":
        if got.get("reference.json/modesOrdered") is not True:
            failures.append("LOWER <= MIDPOINT <= UPPER does not hold cellwise")
        bad = [k for k, v in got.items() if k.endswith("/withinBound") and v is not True]
        if bad or not any(k.endswith("/withinBound") for k in got):
            failures.append(f"dyadic_riesz exceeds dyadic_upper_constant * UPPER: {bad}")
    if expected is not None:
        failures += compare_observables(got, expected)
    return failures


def compare_observables(got: dict, expected: dict) -> list[str]:
    failures = []
    if set(got) != set(expected):
        missing = sorted(set(expected) - set(got))[:3]
        extra = sorted(set(got) - set(expected))[:3]
        failures.append(f"output fields differ from snapshot: missing {missing}, extra {extra}")
    for key in sorted(set(got) & set(expected)):
        a, b = got[key], expected[key]
        if isinstance(b, float) and isinstance(a, (int, float)) and not isinstance(a, bool):
            if not (math.isclose(a, b, rel_tol=FLOAT_RTOL, abs_tol=FLOAT_ATOL)
                    or (math.isnan(a) and math.isnan(b))):
                failures.append(f"{key} = {a!r}, snapshot {b!r}")
        elif a != b:
            failures.append(f"{key} = {a!r}, snapshot {b!r}")
    return failures
