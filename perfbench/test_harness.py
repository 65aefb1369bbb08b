"""Self-tests of the benchmark harness: python3 -m pytest perfbench -q"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _ticking_clock():
    t = [0]

    def clock():
        t[0] += 7
        return t[0]

    return clock


def test_self_plus_children_equals_parent_total():
    tr = tracer.Tracer(clock=_ticking_clock())
    leaf = tr.wrap("leaf", lambda: None)
    mid = tr.wrap("mid", lambda: (leaf(), leaf()))
    top = tr.wrap("top", lambda: (mid(), leaf(), mid()))
    top()
    dur = [e - s for s, e in zip(tr.start, tr.end)]
    for i, d in enumerate(dur):
        children = sum(dur[j] for j, p in enumerate(tr.parent) if p == i)
        own = d - children
        assert own > 0 and own + children == d
    s = tr.summary()
    assert s["top"]["calls"] == 1 and s["mid"]["calls"] == 2 and s["leaf"]["calls"] == 5
    # top's direct children: both mid calls and one of the five (equal) leaf calls
    direct_leaf = s["leaf"]["total_s"] / 5
    assert s["top"]["self_s"] + s["mid"]["total_s"] + direct_leaf == pytest.approx(s["top"]["total_s"], rel=1e-12)
    assert sum(v["self_s"] for v in s.values()) == pytest.approx(s["top"]["total_s"], rel=1e-12)


def test_recursive_calls_are_not_added_twice_to_total():
    tr = tracer.Tracer(clock=_ticking_clock())

    def fact(n):
        return 1 if n <= 1 else n * wrapped(n - 1)

    wrapped = tr.wrap("fact", fact)
    assert wrapped(4) == 24
    s = tr.summary()["fact"]
    assert s["calls"] == 4
    assert s["total_s"] == pytest.approx((tr.end[0] - tr.start[0]) * 1e-9)
    assert s["self_s"] == pytest.approx(s["total_s"])


def test_install_patches_every_binding_and_uninstall_restores():
    import numpy as np

    import rieszw
    from rieszw import normest, operators, sparse
    from rieszw.mesh import Mesh, StepFunction

    originals = (operators.sparse_riesz, normest.sparse_riesz, rieszw.sparse_riesz, StepFunction.integral_box3)
    assert originals[0] is originals[1] is originals[2]
    tr = tracer.Tracer()
    tr.install(tracer.rieszw_targets())
    try:
        assert operators.sparse_riesz is not originals[0]
        assert normest.sparse_riesz is operators.sparse_riesz is rieszw.sparse_riesz
        assert StepFunction.integral_box3 is not originals[3]
        mesh = Mesh(1, 0, 4)
        f = StepFunction(mesh, np.linspace(1.0, 2.0, mesh.cells_per_axis))
        S, _ = sparse.build_sparse(f, (0,), 0.5)
        normest.sparse_riesz(f, 0.5, S)
    finally:
        tr.uninstall()
    assert (operators.sparse_riesz, normest.sparse_riesz, rieszw.sparse_riesz,
            StepFunction.integral_box3) == originals
    s = tr.summary()
    assert s["operators.sparse_riesz"]["calls"] == 1
    assert s["mesh.integral_box3"]["calls"] > 0
    assert tr.counts["sparse.build_sparse.cubes"] == len(S)


def _failing_reference_output(outdir: Path, modes_ordered: bool) -> None:
    out = outdir / "out"
    out.mkdir(parents=True)
    record = {"modesOrdered": modes_ordered, "dyadic": [{"withinBound": True}]}
    (out / "reference.json").write_text(json.dumps(record))


def test_nonzero_exit_and_failed_check_count_as_failed(tmp_path):
    crashed = run.run_child(["--workload", "no-such-workload", "--seed", "0"], tmp_path / "crash")
    assert crashed["process_exit"] != 0
    crashed["failures"] = run.evaluate("reference-2d", crashed, tmp_path / "crash", None)

    _failing_reference_output(tmp_path / "bad", modes_ordered=False)
    bad = {"process_exit": 0, "exit_code": 0, "wall_s": 1.0, "stdout": ""}
    bad["failures"] = run.evaluate("reference-2d", bad, tmp_path / "bad", None)

    _failing_reference_output(tmp_path / "good", modes_ordered=True)
    good = {"process_exit": 0, "exit_code": 0, "wall_s": 1.0, "stdout": ""}
    good["failures"] = run.evaluate("reference-2d", good, tmp_path / "good", None)

    assert crashed["failures"] and bad["failures"] and not good["failures"]
    assert run.summarize([crashed, bad, good]) == (3, 2)


def test_missing_verdict_line_fails():
    assert workloads.check("verify-1d", 0, "verify: 470 checks, 2 failures [FAIL]\n", Path("/nonexistent"), None)


def test_snapshot_comparison_tolerates_reordering_only():
    expected = {"a.json/value": 1.0, "a.json/size": 7, "a.json/ok": True}
    assert workloads.compare_observables({**expected, "a.json/value": 1.0 + 1e-12}, expected) == []
    assert workloads.compare_observables({**expected, "a.json/value": 1.001}, expected)
    assert workloads.compare_observables({**expected, "a.json/size": 8}, expected)
    assert workloads.compare_observables({**expected, "a.json/ok": False}, expected)


@pytest.mark.parametrize("name", [n for n in workloads.WORKLOADS if n != "reference-2d"])
def test_seed_changes_cli_inputs(name):
    assert workloads.cli_config(name, 0) == workloads.cli_config(name, 0)
    assert workloads.cli_config(name, 0) != workloads.cli_config(name, 1)


def test_seed_changes_every_output_digest():
    snap = workloads.load_snapshot()
    assert set(snap) == set(workloads.WORKLOADS)
    for name, by_seed in snap.items():
        assert {"0", "1"} <= set(by_seed), name
        assert by_seed["0"]["digests"] != by_seed["1"]["digests"], name


def test_layer_metrics_cover_every_traced_name():
    names = {t[0] for t in tracer.rieszw_targets()}
    assert set(run.LAYER_FUNCTIONS) <= names


def test_benchmark_json_matches_the_harness():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in bench["workloads"]) == workloads.WORKLOADS
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.LAYER_METRICS


def test_predictions_cite_existing_metrics():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layer = {m["name"] for m in bench["per_layer"]}
    e2e = {m["name"] for m in bench["end_to_end"]}
    for p in json.loads((HERE / "predictions.json").read_text())["predictions"]:
        assert set(p["per_layer"]) <= layer
        assert set(p["moves"]) <= e2e
        assert set(p["on"]) | set(p["unchanged_on"]) <= set(workloads.WORKLOADS)
