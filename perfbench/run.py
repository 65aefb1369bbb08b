"""rieszw benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --record-snapshot 0,1

Run from the repository root (``src/rieszw`` must be there).  Each sample is
one workload run in a fresh interpreter (``child.py``), one at a time; the
driver starts samples until ``--seconds`` have passed and reports medians.

End-to-end metrics (``--trace 0``):

* ``wall_rel`` / ``cpu_rel``: the workload's wall / CPU time divided by that
  of a fixed reference loop timed in the same process just before and just
  after the workload.  The machine's speed drifts by up to 2x over tens of
  seconds; the ratio cancels that drift, raw seconds do not.  Raw seconds
  are still printed and kept in the run record.
* ``setup_s``: fresh interpreter start plus ``import rieszw, rieszw.cli``,
  from the driver's spawn to the child's first line after the imports.
* ``peak_rss_mb``: peak resident set of the sample process.

Every sample's outputs are checked (``workloads.check``); ``attempted`` and
``failed`` count samples, and ``failed_frac`` = failed / attempted is
printed.  With ``--trace 1`` the first sample runs under the outside-in
tracer and the metrics are the per-layer ones (``LAYER_METRICS``), plus
``trace.overhead_s``: traced wall time minus the median untraced wall time,
the latter scaled to the traced sample's reference-loop speed.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full record (environment,
samples, digests, failures) is written to ``perfbench/runs/<run>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

#: Set-up samples per run: at least this many fresh interpreters are timed.
MIN_SETUP_SAMPLES = 7
#: A sample process that runs longer than this is killed and counted failed.
SAMPLE_TIMEOUT_S = 120.0

E2E_UNITS = {"wall_rel": "x", "cpu_rel": "x", "setup_s": "s", "peak_rss_mb": "MB"}

#: Traced functions whose calls, total and self time are reported.
LAYER_FUNCTIONS = (
    "mesh.integral_box3", "mesh.cube_average",
    "operators.sparse_riesz", "operators.restricted_sparse_riesz", "operators.hl_maximal",
    "operators.riesz_reference", "operators.dyadic_riesz", "operators.compare_pointwise",
    "orlicz.luxemburg_norms",
    "weights.fujii_wilson", "weights.bump_constant", "weights.two_weight_ap", "weights.ap_constant",
    "weights.ainfty_exp", "weights.generate_weight",
    "sparse.overlap_level_set", "sparse.verify_sparse", "sparse.build_sparse", "sparse.corona_decompose",
    "normest.dyadic_testing", "normest.strong_norm_lower", "normest.weak_norm_lower",
    "normest.sawyer_testing",
    "cli.main",
)
LAYER_COUNTS = ("sparse.build_sparse.cubes", "orlicz.luxemburg_norms.cubes", "weights.fujii_wilson.corpus")
LAYER_METRICS = {
    **{f"{fn}.{stat}": unit for fn in LAYER_FUNCTIONS
       for stat, unit in (("calls", "count"), ("total_s", "s"), ("self_s", "s"))},
    **{name: "count" for name in LAYER_COUNTS},
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
}


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], outdir: Path, env: dict | None = None) -> dict:
    """Run ``child.py`` once; return its record plus exit code, output and
    set-up time.  A missing record (crash, timeout) leaves only the code."""
    outdir.mkdir(parents=True, exist_ok=True)
    log = outdir / "stdout.txt"
    cmd = [sys.executable, str(HERE / "child.py"), "--out", str(outdir), *args]
    with log.open("wb") as fh:
        spawn = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        try:
            code = subprocess.run(cmd, cwd=ROOT, env=env or _child_env(), stdout=fh,
                                  stderr=subprocess.STDOUT, timeout=SAMPLE_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            code = -9
    record_path = outdir / "child.json"
    record = json.loads(record_path.read_text()) if record_path.is_file() else {}
    record["process_exit"] = code
    record["stdout"] = log.read_text(errors="replace")
    if "ready_ns" in record:
        record["setup_s"] = (record["ready_ns"] - spawn) * 1e-9
    return record


def evaluate(name: str, record: dict, outdir: Path, expected: dict | None) -> list[str]:
    """Failed checks of one sample: a non-zero exit, a missing record, or a
    failed output check."""
    failures = []
    if "wall_s" not in record:
        failures.append("no timing record")
    if record.get("exit_code", 0) != record["process_exit"]:
        failures.append("exit code mismatch")
    return failures + workloads.check(name, record["process_exit"], record["stdout"], outdir / "out", expected)


def summarize(samples: list[dict]) -> tuple[int, int]:
    """(attempted, failed) over samples."""
    return len(samples), sum(1 for s in samples if s["failures"])


def environment(seed: int, probe: dict) -> dict:
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = dirty = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, check=True).stdout.strip()
            dirty = bool(subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                        cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip())
        except (OSError, subprocess.CalledProcessError):
            pass
    env = {
        "python": platform.python_version(),
        "numpy": probe.get("numpy"),
        "numba_present": probe.get("numba_present"),
        "numba_enabled": probe.get("numba_enabled"),
        "RIESZW_NO_NUMBA": os.environ.get("RIESZW_NO_NUMBA"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "git_commit": commit,
        "git_dirty": dirty,
        "seed": seed,
    }
    if not probe.get("numba_enabled"):
        env["note"] = "numba not in use: only the numpy path is measured"
    return env


def _quartiles(xs: list[float]) -> list[float]:
    if len(xs) < 2:
        return [xs[0]] * 3
    return statistics.quantiles(xs, n=4)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the run record."""
    rundir = HERE / "runs" / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(rundir, ignore_errors=True)
    env = _child_env()
    expected = workloads.load_snapshot().get(name, {}).get(str(seed))
    want = expected["observables"] if expected else None

    # warm-up: compiles bytecode into __pycache__ and probes the environment
    probe = run_child(["--setup-only"], rundir / "probe", env)
    if probe["process_exit"] != 0:
        raise RuntimeError(f"rieszw does not import:\n{probe['stdout']}")
    if not Path(probe["rieszw_file"]).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"imported rieszw from {probe['rieszw_file']}, not from {ROOT / 'src'}")

    samples, setups = [], []
    traced = None
    start = time.monotonic()
    while True:
        idx = len(samples)
        do_trace = trace and traced is None
        outdir = rundir / f"sample-{idx:03d}"
        args = ["--workload", name, "--seed", str(seed)] + (["--trace"] if do_trace else [])
        record = run_child(args, outdir, env)
        record["failures"] = evaluate(name, record, outdir, want)
        if (outdir / "out").is_dir():
            record["digests"] = workloads.digests(outdir / "out")
            record["output_bytes"] = workloads.output_bytes(outdir / "out")
        record["traced"] = do_trace
        if do_trace:
            traced = record
        else:
            if "setup_s" in record:
                setups.append(record["setup_s"])
            if idx > 1:
                shutil.rmtree(outdir / "out", ignore_errors=True)
        samples.append(record)
        if time.monotonic() - start >= seconds and any(not s["traced"] for s in samples):
            break
    while len(setups) < MIN_SETUP_SAMPLES:
        rec = run_child(["--setup-only"], rundir / f"setup-{len(setups):03d}", env)
        if "setup_s" not in rec:
            raise RuntimeError(f"set-up sample failed:\n{rec['stdout']}")
        setups.append(rec["setup_s"])

    timed = [s for s in samples if not s["traced"] and not s["failures"]]
    attempted, failed = summarize(samples)
    stats = {}
    if timed:
        for key in ("wall_rel", "cpu_rel", "wall_s", "cpu_s", "peak_rss_mb"):
            xs = [s[key] for s in timed]
            stats[key] = {"median": statistics.median(xs), "quartiles": _quartiles(xs), "n": len(xs)}
    stats["setup_s"] = {"median": statistics.median(setups), "quartiles": _quartiles(setups), "n": len(setups)}

    drift = []
    if expected is not None:
        for s in samples:
            for fname, digest in s.get("digests", {}).items():
                want = expected["digests"].get(fname)
                if want != digest and fname not in drift:
                    drift.append(fname)

    if trace:
        metrics = layer_metrics(traced, stats)
    else:
        metrics = {k: {"value": stats[k]["median"], "unit": u} for k, u in E2E_UNITS.items() if k in stats}
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(seed, probe),
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
        "stats": stats, "metrics": metrics, "digest_drift": drift,
        "failures": {i: s["failures"] for i, s in enumerate(samples) if s["failures"]},
        "samples": [{k: s.get(k) for k in ("setup_s", "wall_s", "cpu_s", "wall_rel", "cpu_rel", "peak_rss_mb",
                                            "process_exit", "traced", "digests")} for s in samples],
    }
    if traced is not None:
        record["layers"] = traced.get("layers", {})
    (rundir / "result.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return record


def layer_metrics(traced: dict, stats: dict) -> dict:
    layers = traced.get("layers", {})
    counts = traced.get("counts", {})
    metrics = {}
    for key, unit in LAYER_METRICS.items():
        fn, _, stat = key.rpartition(".")
        if key in LAYER_COUNTS:
            value = counts.get(key, 0)
        elif key == "cli.output_bytes":
            value = traced.get("output_bytes", 0) if layers.get("cli.main", {}).get("calls") else 0
        elif key == "trace.overhead_s":
            # untraced time in the traced sample's own machine speed
            untraced = stats.get("wall_rel", {}).get("median", 0.0) * traced.get("ref_wall_s", 0.0)
            value = traced.get("wall_s", 0.0) - untraced
        else:
            value = layers.get(fn, {}).get(stat, 0)
        metrics[key] = {"value": value, "unit": unit}
    return metrics


def _print_run(rec: dict) -> None:
    print(f"== {rec['workload']} seed={rec['seed']} trace={int(rec['trace'])}: "
          f"{rec['attempted']} samples, {rec['failed']} failed, failed_frac={rec['failed_frac']:.3f}")
    for key, st in rec["stats"].items():
        q1, _, q3 = st["quartiles"]
        unit = E2E_UNITS.get(key, "s" if key.endswith("_s") else "")
        print(f"   {key:<12} median {st['median']:.4f} {unit}  (q1 {q1:.4f}, q3 {q3:.4f}, n={st['n']})")
    for i, fails in rec["failures"].items():
        print(f"   sample {i} FAILED: {'; '.join(fails)}")
    if rec["digest_drift"]:
        print(f"   note: output digests differ from the snapshot (not a failure): {rec['digest_drift']}")
    env = rec["environment"]
    print("   env: " + ", ".join(f"{k}={v}" for k, v in env.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-snapshot", metavar="SEEDS",
                        help="record the reference outputs for these comma-separated seeds")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rieszw" / "__init__.py").is_file():
        print(f"perfbench: no rieszw source tree at {ROOT / 'src' / 'rieszw'}", file=sys.stderr)
        return 2
    if args.record_snapshot:
        return record_snapshot([int(s) for s in args.record_snapshot.split(",")])
    if args.workload is None:
        parser.error("--workload is required")
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        runs = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for rec in runs:
        _print_run(rec)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    if len(runs) == 1:
        metrics = runs[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in runs for k, v in r["metrics"].items()}
        print(f"== all workloads: failed_frac={failed / attempted:.3f}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def record_snapshot(seeds: list[int]) -> int:
    """Run every workload once per seed and store its checked outputs."""
    snap = workloads.load_snapshot()
    for name in workloads.WORKLOADS:
        for seed in seeds:
            outdir = HERE / "runs" / "snapshot" / f"{name}-seed{seed}"
            shutil.rmtree(outdir, ignore_errors=True)
            record = run_child(["--workload", name, "--seed", str(seed)], outdir)
            failures = evaluate(name, record, outdir, None)
            if failures:
                print(f"perfbench: {name} seed {seed} fails its checks: {failures}", file=sys.stderr)
                return 1
            snap.setdefault(name, {})[str(seed)] = {
                "observables": workloads.observables(outdir / "out"),
                "digests": workloads.digests(outdir / "out"),
            }
            print(f"recorded {name} seed {seed}")
    workloads.SNAPSHOT.write_text(json.dumps(snap, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
