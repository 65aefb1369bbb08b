"""One measured run in a fresh interpreter; started by ``run.py``.

The interpreter's set-up ends when ``rieszw`` and ``rieszw.cli`` are
imported: ``READY_NS`` is taken there, on the system-wide monotonic clock,
so the driver can subtract its own spawn time.  With ``--setup-only`` the
process records the numeric environment and stops.  Otherwise it generates
the workload's inputs, times the workload call (wall, and CPU of this
process and of any process it waits for) between two timings of the
reference loop, and writes ``child.json`` into ``--out``.  With ``--trace``
the call runs under the tracer and the spans are written out afterwards.
The process exits with the workload's exit code.
"""

import time

import rieszw  # noqa: F401  (the set-up being measured)
import rieszw.cli  # noqa: F401

READY_NS = time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def reference_loop() -> tuple[float, float]:
    """(wall_s, cpu_s) of a fixed mix of interpreter work and small numpy
    calls, like rieszw's per-cube loops.  Every ``wall_rel``/``cpu_rel`` is in
    units of this loop, so it must never change."""
    import numpy as np

    a = np.arange(64.0)
    d = {}
    w0, c0 = time.perf_counter(), time.process_time()
    for i in range(20000):
        b = np.cumsum(a[i % 7:])
        d[i % 97] = float(b[-1]) + i * 0.5
        sum(range(40))
    return time.perf_counter() - w0, time.process_time() - c0


def _cpu_s(resource) -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main() -> int:
    import argparse
    import json
    import pathlib
    import resource

    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True, type=pathlib.Path)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    record = {"ready_ns": READY_NS, "rieszw_file": rieszw.__file__}
    if args.setup_only:
        import importlib.util

        import numpy

        from rieszw import _kernels

        record.update(numpy=numpy.__version__, numba_present=importlib.util.find_spec("numba") is not None,
                      numba_enabled=_kernels.NUMBA_ENABLED)
        (args.out / "child.json").write_text(json.dumps(record))
        return 0

    import tracer
    import workloads

    call = workloads.prepare(args.workload, args.seed, args.out)
    trace = None
    if args.trace:
        trace = tracer.Tracer()
        trace.install(tracer.rieszw_targets())
        call = trace.wrap("workload", call)
    ref_before = reference_loop()
    cpu0 = _cpu_s(resource)
    t0 = time.perf_counter_ns()
    try:
        code = call()
    finally:
        t1 = time.perf_counter_ns()
        cpu1 = _cpu_s(resource)
        if trace is not None:
            trace.uninstall()
    ref_after = reference_loop()
    ref_wall = (ref_before[0] + ref_after[0]) / 2.0
    ref_cpu = (ref_before[1] + ref_after[1]) / 2.0
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    wall, cpu = (t1 - t0) * 1e-9, cpu1 - cpu0
    record.update(wall_s=wall, cpu_s=cpu, wall_rel=wall / ref_wall, cpu_rel=cpu / ref_cpu,
                  ref_wall_s=ref_wall, ref_cpu_s=ref_cpu, peak_rss_mb=max(own, kids) / 1024.0, exit_code=code)
    if trace is not None:
        record["layers"] = trace.summary()
        record["counts"] = trace.counts
        trace.save_spans(args.out / "spans.npz")
    (args.out / "child.json").write_text(json.dumps(record))
    return int(code)


if __name__ == "__main__":
    raise SystemExit(main())
