import dataclasses
import json
import math
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from rieszw import cli, mesh as mesh_module, normest
from rieszw.cli import ExperimentConfig
from rieszw.corona import sigma_decay_check
from rieszw.operators import compare_pointwise, dyadic_riesz, sparse_riesz
from rieszw.orlicz import LuxemburgError
from rieszw.sparse import (
    _overlap_reports,
    build_sparse,
    corona_decompose,
    domination_constant,
    verify_sparse,
)
from rieszw.weights import generate_weight

from test_operators import parent_dyadic_riesz, parent_sparse_riesz
from test_sparse import parent_corona_decompose

SMALL = {
    "L": 4,
    "alphas": [0.5],
    "weights": ["constant:c=1", "twovalue:a=2,b=1"],
    "n_random_functions": 1,
    "betas": [0.2, 0.4],
}


def run_cli(tmp_path, command, config=None, extra=()):
    tmp_path.mkdir(parents=True, exist_ok=True)
    args = [sys.executable, "-m", "rieszw.cli", command, "--out", str(tmp_path / "out")]
    if config is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        args += ["--config", str(cfg_path)]
    args += list(extra)
    return subprocess.run(args, capture_output=True, text=True)


def slurp(outdir):
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


class TestExitCodes:
    def test_verify_passes(self, tmp_path):
        r = run_cli(tmp_path, "verify", SMALL)
        assert r.returncode == 0, r.stderr

    def test_constants_pass(self, tmp_path):
        r = run_cli(tmp_path, "constants", SMALL)
        assert r.returncode == 0, r.stderr

    def test_missing_config_file(self, tmp_path):
        r = subprocess.run(
            [sys.executable, "-m", "rieszw.cli", "verify", "--config", "/nonexistent.json"],
            capture_output=True,
            text=True,
        )
        assert r.returncode == 2

    def test_unknown_config_field(self, tmp_path):
        r = run_cli(tmp_path, "verify", {"no_such_field": 1})
        assert r.returncode == 2
        assert "unknown config fields" in r.stderr

    def test_bad_mesh_flag(self, tmp_path):
        r = run_cli(tmp_path, "verify", SMALL, extra=["--mesh", "Z=3"])
        assert r.returncode == 2

    @pytest.mark.parametrize(
        "overrides, mesh",
        [
            ({}, "n=1,J=0,L=30"),
            ({}, "n=3"),
            ({}, "T=-1"),
            ({"alpha": 1.5}, None),
            ({"alphas": [0.5, 1.0]}, None),
            ({"weights": ["bogus:x=1"]}, None),
            ({"seed": -1}, None),
            ({}, "n=1,J=0,L=6,T=55"),
            ({}, "n=1,J=0,L=6,T=57"),
            ({"weights": ["constant:x=5"]}, None),
            ({"weights": ["twovalue:a=2,bb=7"]}, None),
            ({"weights": ["constant:c=1,c=2"]}, None),
            ({"weights": ["twovalue:split=nan"]}, None),
            ({"weights": ["power:beta=inf"]}, None),
            ({"pairs": [["constant:c=1", "twovalue:split=inf"]]}, None),
        ],
        ids=["too-many-cells", "n=3", "negative-padding", "alpha", "alphas-entry", "weight-kind",
             "negative-seed", "corners-past-int64", "level-scale-past-int64", "unknown-weight-parameter",
             "misspelt-weight-parameter", "repeated-weight-parameter", "nan-weight-parameter",
             "inf-weight-parameter", "inf-pair-weight-parameter"],
    )
    def test_invalid_config_exits_2(self, tmp_path, overrides, mesh):
        extra = ["--mesh", mesh] if mesh else []
        r = run_cli(tmp_path, "verify", dict(SMALL, **overrides), extra=extra)
        assert r.returncode == 2
        assert r.stderr.startswith("config error: ")
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize(
        "command, overrides",
        [
            ("sandwich", {"bump_kind": "cubic"}),
            ("sandwich", {"bump_delta": -1}),
            ("sandwich", {"bump_delta": 0}),
            ("sandwich", {"bump_delta": "1"}),
            ("sandwich", {"bump_delta": True}),
            ("constants", {"fw_max_level": "x"}),
            ("constants", {"fw_max_level": True}),
            ("constants", {"fw_max_level": 1.5}),
            ("constants", {"fw_max_level": -1}),
            ("sandwich", {"fw_max_level": -1}),
            ("verify", {"n_random_functions": 2.5}),
            ("verify", {"n_random_functions": -1}),
            ("verify", {"n_random_functions": True}),
            ("constants", {"T": 1.5}),
            ("exponent-fit", {"T": 1.5}),
            ("verify", {"seed": 1.5}),
            ("exponent-fit", {"seed": 1.5}),
            ("constants", {"seed": 1.5}),
            ("verify", {"L": True}),
            ("verify", {"L": 4.5}),
            ("verify", {"n": 1.0}),
            ("verify", {"J": False}),
            ("exponent-fit", {"betas": [0.1, "x"]}),
            ("exponent-fit", {"betas": [True]}),
            ("exponent-fit", {"betas": [float("nan")]}),
            ("exponent-fit", {"betas": [-1.0]}),
            ("exponent-fit", {"betas": [5.0]}),
            ("constants", {"weights": "constant:c=1"}),
            ("constants", {"weights": 5}),
            ("constants", {"alphas": 0.5}),
            ("constants", {"alphas": ["0.5"]}),
            ("constants", {"alphas": [True]}),
            ("constants", {"alpha": "0.5"}),
            ("sandwich", {"p": True}),
            ("sandwich", {"q": "4"}),
            ("sandwich", {"pairs": "ab"}),
            ("exponent-fit", {"betas": 0.5}),
        ],
        ids=["bump-kind", "negative-delta", "zero-delta", "string-delta", "bool-delta", "string-fw-level",
             "bool-fw-level", "float-fw-level", "coarse-fw-level-constants", "coarse-fw-level-sandwich",
             "float-function-count", "negative-function-count",
             "bool-function-count", "float-padding-constants", "float-padding-exponent-fit",
             "float-seed-verify", "float-seed-exponent-fit", "float-seed-constants", "bool-L", "float-L",
             "float-n", "bool-J", "string-beta", "bool-beta", "nan-beta", "non-integrable-beta",
             "non-integrable-dual-beta", "string-weights", "int-weights", "float-alphas", "string-alphas-entry",
             "bool-alphas-entry", "string-alpha", "bool-p", "string-q", "string-pairs", "float-betas"],
    )
    def test_bad_field_exits_2_with_one_line(self, tmp_path, command, overrides):
        r = run_cli(tmp_path, command, dict(SMALL, **overrides))
        assert r.returncode == 2
        [line] = r.stderr.splitlines()
        field = next(iter(overrides))
        assert line.startswith(f"config error: {field} must be ")

    @pytest.mark.parametrize(
        "command, overrides, name",
        [*((command, {"alpha": 1e-17}, "alpha 1e-17") for command in ("sandwich", "norm", "exponent-fit", "corona")),
         *((command, {"alphas": [0.5, 1e-20]}, "alphas entry 1e-20") for command in ("verify", "sparse"))],
    )
    def test_tiny_alpha_exits_2_with_one_line(self, tmp_path, command, overrides, name):
        # 2^-alpha rounds to 1 below alpha ~ 1e-16, and the domination
        # constant 2^(n+1) / (1 - 2^-alpha) would divide by zero
        r = run_cli(tmp_path, command, dict(SMALL, **overrides))
        assert r.returncode == 2
        assert r.stderr.splitlines() == [
            f"config error: {name} is too small: 2^-alpha rounds to 1, so the domination constant is infinite"]

    def test_smallest_alpha_with_finite_constant_validates(self):
        alpha = 2e-16  # 2^-alpha is one ulp below 1
        assert domination_constant(1, alpha) == 4.0 / (1.0 - 2.0**-alpha) < math.inf
        ExperimentConfig(**dict(SMALL, alpha=alpha, alphas=[alpha])).validate()
        with pytest.raises(ValueError, match=r"^alpha = 1e-17 gives 2\^-alpha = 1.0, not below 1: "):
            domination_constant(1, 1e-17)

    @pytest.mark.parametrize("overrides", [{"fw_max_level": None}, {"bump_delta": 2}, {"bump_delta": 0.5},
                                           {"bump_kind": "loglog"}, {"n_random_functions": 0},
                                           {"betas": [-0.5, 0, 0.9]}])
    def test_good_fields_validate(self, overrides):
        cfg = ExperimentConfig(**dict(SMALL, **overrides))
        cfg.validate()
        cfg.validate_command("exponent-fit")

    def test_dual_beta_checked_for_exponent_fit_only(self):
        # with p = 1.2 and q = 1.5 the dual exponent of beta = 0.6 is -2.4,
        # but only exponent-fit generates the power weights
        cfg = ExperimentConfig(**dict(SMALL, p=1.2, q=1.5, alpha=0.3, betas=[0.6]))
        cfg.validate()
        cfg.validate_command("sandwich")
        with pytest.raises(cli.ConfigError, match="integrable power weights"):
            cfg.validate_command("exponent-fit")

    def test_cell_budget_exits_2(self, tmp_path):
        r = run_cli(tmp_path, "verify", extra=["--mesh", "n=1,J=0,L=21"])
        assert r.returncode == 2
        assert r.stderr.splitlines() == [
            "config error: mesh has 2097152 cells, exceeding budget 1048576"]

    def test_unknown_command(self, tmp_path):
        r = run_cli(tmp_path, "frobnicate")
        assert r.returncode == 2

    @pytest.mark.parametrize("command", ["sandwich", "corona", "norm", "verify"])
    def test_no_random_function_exits_2(self, tmp_path, command):
        r = run_cli(tmp_path, command, dict(SMALL, n_random_functions=0))
        assert r.returncode == 2
        assert r.stderr.startswith("config error: ") and "random function" in r.stderr
        assert "Traceback" not in r.stderr

    def test_non_string_out_exits_2(self, tmp_path, monkeypatch, capsys):
        # run_cli always passes --out, which would hide the config field
        (tmp_path / "cfg.json").write_text(json.dumps(dict(SMALL, out=5)))
        monkeypatch.chdir(tmp_path)
        assert cli.main(["constants", "--config", "cfg.json"]) == 2
        assert capsys.readouterr().err.splitlines() == ["config error: out must be a non-empty string; got 5"]
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("out, reason", [("afile", "File exists"), ("afile/sub", "Not a directory")],
                             ids=["file", "under-file"])
    @pytest.mark.parametrize("flag", [True, False], ids=["flag", "config"])
    def test_out_at_a_file_exits_2(self, tmp_path, monkeypatch, capsys, out, reason, flag):
        (tmp_path / "afile").write_text("kept")
        (tmp_path / "cfg.json").write_text(json.dumps(dict(SMALL) if flag else dict(SMALL, out=out)))
        monkeypatch.chdir(tmp_path)
        argv = ["constants", "--config", "cfg.json", *(["--out", out] if flag else [])]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"config error: out {out!r} names a file or a path under one ({reason})"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "cfg.json"]
        assert (tmp_path / "afile").read_text() == "kept"

    def test_constants_with_nothing_to_compute_exits_2(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "cfg.json").write_text(json.dumps(dict(SMALL, weights=[])))
        monkeypatch.chdir(tmp_path)
        assert cli.main(["constants", "--config", "cfg.json", "--out", "out"]) == 2
        assert capsys.readouterr().err.splitlines() == ["config error: constants needs at least one weight or pair"]
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_constants_on_pairs_alone(self, tmp_path, monkeypatch):
        pairs = [["constant:c=1", "twovalue:a=2,b=1"]]
        (tmp_path / "cfg.json").write_text(json.dumps(dict(SMALL, weights=[], pairs=pairs)))
        monkeypatch.chdir(tmp_path)
        assert cli.main(["constants", "--config", "cfg.json", "--out", "out"]) == 0
        records = json.loads((tmp_path / "out" / "constants.json").read_text())["records"]
        assert [r["constant"] for r in records] == ["twoWeightA_s(p)"]

    def test_empty_weight_config_noop(self, tmp_path):
        cfg = dict(SMALL, weights=[], n_random_functions=0)
        r = run_cli(tmp_path, "verify", cfg)
        assert r.returncode == 0


class TestNumericFailures:
    """A command that fails an exact assertion or a Luxemburg bracket, or
    meets a negative, infinite or nan value, exits 1 with one ``error:
    <command>: <message>`` line and no traceback."""

    @pytest.mark.parametrize("module, name, exc", [
        (cli, "lsut_sandwiches", AssertionError("alternating objective decreased (g-step)")),
        (normest, "bump_constants", LuxemburgError("upper bracket not found")),
    ], ids=["assertion", "luxemburg"])
    def test_one_error_line(self, tmp_path, monkeypatch, capsys, module, name, exc):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(module, name, fail)
        (tmp_path / "cfg.json").write_text(json.dumps(SMALL))
        monkeypatch.chdir(tmp_path)
        assert cli.main(["sandwich", "--config", "cfg.json", "--out", "out"]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: sandwich: {exc}"]

    def test_failed_corona_certificate(self, tmp_path):
        # a sigma of 1e308 overflows the slice averages (a numeric extreme
        # the config does not refuse yet)
        pairs = [["twovalue:a=2,b=1", "constant:c=1e308"]]
        r = run_cli(tmp_path, "corona", {"pairs": pairs}, extra=["--mesh", "n=1,J=-1,L=4"])
        assert r.returncode == 1
        assert r.stderr.splitlines()[-1] == "error: corona: slice membership violated"
        assert "Traceback" not in r.stderr

    def test_failed_corona_certificate_writes_no_record(self, tmp_path):
        # the first pair decomposes, the second fails its certificate: the
        # records are written after the loop, so the run leaves none
        pairs = [["constant:c=1", "twovalue:a=2,b=1"], ["twovalue:a=2,b=1", "constant:c=1e308"]]
        r = run_cli(tmp_path, "corona", {"pairs": pairs}, extra=["--mesh", "n=1,J=-1,L=4"])
        assert r.returncode == 1
        assert r.stderr.splitlines()[-1] == "error: corona: slice membership violated"
        assert list((tmp_path / "out").glob("corona-*.json")) == []

    # a subprocess: in-process, the suite's RuntimeWarning filter would turn
    # the overflow warnings before the failure into the failure
    @pytest.mark.parametrize("config, mesh", [
        ({"weights": ["constant:c=1e300"]}, "n=1,J=0,L=5"),
        ({"weights": ["power:center=2"], "p": 1.0000000001}, "n=1,J=0,L=3"),
    ], ids=["huge-weight", "p-near-1"])
    def test_non_finite_value(self, tmp_path, config, mesh):
        r = run_cli(tmp_path, "sandwich", config, extra=["--mesh", mesh])
        assert r.returncode == 1
        assert r.stderr.splitlines()[-1] == "error: sandwich: values must be nonnegative and finite"
        assert "Traceback" not in r.stderr


def test_cli_import_loads_no_fractions():
    # a fresh interpreter: the package's whole import chain, over numpy's
    code = ("import sys, numpy; before = set(sys.modules); import rieszw.cli; "
            "print(sorted({'fractions', 'decimal'} & (set(sys.modules) - before)))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines() == ["[]"]


class TestNegativeBaseExponent:
    def test_constants_on_a_half_box(self, tmp_path):
        # the box [0, 1/2) of J = -1; the default two-value weight splits
        # the box at half its side
        code = cli.main(["constants", "--mesh", "n=1,J=-1,L=4", "--out", str(tmp_path / "out")])
        assert code == 0


class TestVerifyFamilies:
    def test_weight_pairs_reuse_the_built_family(self, tmp_path, monkeypatch):
        assert self.build_calls(tmp_path, monkeypatch, [0.5]) == [((0,), 0.5), ((1,), 0.5)]

    @pytest.mark.parametrize("alphas, expected", [([0.25, 0.75], [((0,), 0.25), ((1,), 0.25)]),
                                                  ([], [((0,), 0.5)])], ids=["without-alpha", "empty"])
    def test_pair_family_whatever_the_alphas(self, tmp_path, monkeypatch, alphas, expected):
        # one family per shift, whatever the alphas; the two weight pairs reuse
        # the aligned one, which only an empty alphas list builds on its own
        assert self.build_calls(tmp_path, monkeypatch, alphas) == expected

    @staticmethod
    def build_calls(tmp_path, monkeypatch, alphas):
        calls = []
        build = cli.build_sparse

        def counting(*args):
            calls.append(args[1:])
            return build(*args)

        monkeypatch.setattr(cli, "build_sparse", counting)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(SMALL, alphas=alphas)))
        code = cli.main(["verify", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == 0
        return calls

    @pytest.mark.parametrize("command", ["verify", "sparse"])
    def test_built_and_certified_once_per_function_and_shift(self, tmp_path, monkeypatch, command):
        counts = Counter()
        for name in ("build_sparse", "verify_sparse"):
            def counting(*args, _fn=getattr(cli, name), _name=name):
                counts[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(cli, name, counting)
        cfg = ExperimentConfig(**dict(SMALL, n_random_functions=2, alphas=[0.25, 0.5, 0.75]))
        weights = cfg.validate()
        (tmp_path / "out").mkdir()
        assert cli._COMMANDS[command](cfg, tmp_path / "out", weights) == 0
        # 2 functions x 2 shifts, not x 3 alphas
        assert counts == {"build_sparse": 4, "verify_sparse": 4}


def _old_cmd_verify(cfg, outdir, weights=None):
    """``cmd_verify`` as it was when every alpha built, certified and
    overlap-checked its own family: the oracle of the shared families."""
    mesh = cfg.mesh()
    exps = cfg.exps()
    failures = []
    checks = 0
    functions = cfg.random_functions(mesh)
    if not functions and not cfg.weight_pairs():
        cli._write_json(outdir / "verify.json", {"config": cfg.echo(), "checks": 0,
                                                 "failures": [], "warning": "empty config; nothing verified"})
        print("verify: nothing to do (empty config)")
        return 0

    pair_key = ((0,) * mesh.n, cfg.alpha)
    pair_family = None  # the weight pairs below use the first function's family at pair_key
    for i, (fname, f) in enumerate(functions):
        for shift in mesh.shifts():
            for alpha in cfg.alphas:
                S, C = build_sparse(f, shift, alpha)
                if i == 0 and (shift, alpha) == pair_key:
                    pair_family = S
                cert = verify_sparse(S)
                checks += 1
                if not cert.ok:
                    failures.append({"check": "sparsity", "instance": [fname, list(shift), alpha],
                                     "witness": cert.violating_cube})
                dy = dyadic_riesz(f, alpha, shift)
                sp = sparse_riesz(f, alpha, S)
                rep = compare_pointwise(dy, sp)
                checks += 1
                if rep.violations or rep.max_ratio > C * (1.0 + 1e-12):
                    failures.append({"check": "domination", "instance": [fname, list(shift), alpha],
                                     "witness": list(rep.argmax)})
                for root in map(S.cube, range(min(2, len(S)))):
                    ks = range(1, 13)
                    for k, overlap in zip(ks, _overlap_reports(S, root, ks)):
                        checks += 1
                        if not overlap.exact_le_bound:
                            failures.append({"check": "overlap-bound",
                                             "instance": [fname, list(shift), alpha, k],
                                             "witness": root})
    for uspec, sspec in cfg.weight_pairs():
        u, s = generate_weight(mesh, uspec), generate_weight(mesh, sspec)
        if pair_family is None:
            pair_family = build_sparse(functions[0][1], *pair_key)[0]
        checks += 1
        try:
            corona_decompose(pair_family, pair_family.cube(0), u, s, exps)
        except AssertionError as exc:
            failures.append({"check": "corona", "instance": [uspec, sspec], "witness": str(exc)})
    cli._write_json(outdir / "verify.json", {"config": cfg.echo(), "checks": checks,
                                             "failures": failures})
    cli._warn_parentless(mesh)
    status = "PASS" if not failures else "FAIL"
    print(f"verify: {checks} checks, {len(failures)} failures [{status}]")
    return 0 if not failures else 1


def _old_cmd_sparse(cfg, outdir, weights=None):
    """``cmd_sparse`` as it was when every alpha built its own family."""
    mesh = cfg.mesh()
    functions = cfg.random_functions(mesh)

    def one(idx, fname, f, shift, alpha):
        S, C = build_sparse(f, shift, alpha)
        cert = verify_sparse(S)
        rep = compare_pointwise(dyadic_riesz(f, alpha, shift), sparse_riesz(f, alpha, S))
        return {
            "index": idx, "function": fname, "shift": list(shift), "alpha": alpha,
            "size": len(S), "dominationConstant": C,
            "worstUnionRatio": cert.worst_union_ratio, "sparsityOk": cert.ok,
            "maxDominationRatio": rep.max_ratio, "family": S.to_jsonable(),
        }

    runs = [(fname, f, shift, alpha) for fname, f in functions
            for shift in mesh.shifts() for alpha in cfg.alphas]
    results = [one(idx, *run) for idx, run in enumerate(runs)]
    rows = [[r["index"], r["function"], r["alpha"], r["size"], r["sparsityOk"],
             r["worstUnionRatio"], r["maxDominationRatio"]] for r in results]
    for r in results:
        cli._write_json(outdir / f"sparse-{r['index']:03d}.json", r)
    cli._write_csv(outdir / "sparse-summary.csv",
                   ["index", "function", "alpha", "size", "ok", "worstUnionRatio", "maxDominationRatio"], rows)
    cli._warn_parentless(mesh)
    return 0 if all(r["sparsityOk"] for r in results) else 1


class TestSharedFamiliesOracle:
    """``verify`` and ``sparse`` build each (function, shift) family once for
    all alphas and write the bytes of the loops that built it per alpha."""

    MESHES = {"1d": dict(n=1, J=0, L=5), "2d": dict(n=2, J=0, L=3),
              # unpadded: the shifted grids' families fail their certificates
              "1d-unpadded": dict(n=1, J=1, L=5, T=0), "2d-unpadded": dict(n=2, J=1, L=3, T=0)}

    @pytest.mark.parametrize("command, old", [("verify", _old_cmd_verify), ("sparse", _old_cmd_sparse)],
                             ids=["verify", "sparse"])
    @pytest.mark.parametrize("mesh", list(MESHES))
    @pytest.mark.parametrize("alphas", [[0.25, 0.5, 0.75], [], [0.5, 0.5], [0.3, 0.7]],
                             ids=["default", "empty", "repeated", "without-alpha"])
    def test_outputs_byte_identical(self, tmp_path, capsys, command, old, mesh, alphas):
        cfg = ExperimentConfig(**self.MESHES[mesh], alphas=alphas, n_random_functions=2,
                               weights=["constant:c=1", "twovalue:a=2,b=1", "power:beta=0.3"])
        weights = cfg.validate()
        runs = []
        for name, cmd in [("new", cli._COMMANDS[command]), ("old", old)]:
            (tmp_path / name).mkdir()
            code = cmd(cfg, tmp_path / name, weights)
            runs.append((code, capsys.readouterr(), slurp(tmp_path / name)))
        assert runs[0] == runs[1]
        if command == "verify" and alphas and "unpadded" in mesh:
            # several failures, so their order is compared too
            assert len(json.loads(runs[0][2]["verify.json"])["failures"]) > 1


def _parent_cmd_verify(cfg, outdir, weights) -> int:
    """``cmd_verify`` as it was when it applied each alpha's operators and
    decomposed each weight pair on its own: the oracle of the batches."""
    mesh = cfg.mesh()
    exps = cfg.exps()
    failures = []
    checks = 0
    functions = cfg.random_functions(mesh)
    if not functions and not cfg.weight_pairs():
        cli._write_json(outdir / "verify.json", {"config": cfg.echo(), "checks": 0,
                                                 "failures": [], "warning": "empty config; nothing verified"})
        print("verify: nothing to do (empty config)")
        return 0

    aligned = (0,) * mesh.n
    pair_family = None  # the weight pairs below use the first function's family on shift 0
    ks = range(1, 13)
    for i, fname, f, shift, S, cert in cli._families(cfg, mesh, functions):
        if i == 0 and shift == aligned:
            pair_family = S
        overlaps = [(root, k, overlap.exact_le_bound) for root in map(S.cube, range(min(2, len(S))))
                    for k, overlap in zip(ks, _overlap_reports(S, root, ks))]
        for alpha in cfg.alphas:
            checks += 1
            if not cert.ok:
                failures.append({"check": "sparsity", "instance": [fname, list(shift), alpha],
                                 "witness": cert.violating_cube})
            dy = parent_dyadic_riesz(f, alpha, shift)
            sp = parent_sparse_riesz(f, alpha, S)
            rep = compare_pointwise(dy, sp)
            checks += 1
            if rep.violations or rep.max_ratio > domination_constant(mesh.n, alpha) * (1.0 + 1e-12):
                failures.append({"check": "domination", "instance": [fname, list(shift), alpha],
                                 "witness": list(rep.argmax)})
            for root, k, ok in overlaps:
                checks += 1
                if not ok:
                    failures.append({"check": "overlap-bound", "instance": [fname, list(shift), alpha, k],
                                     "witness": root})
    pairs = cfg.weight_pairs()
    for uspec, sspec in pairs:
        if pair_family is None:
            pair_family = build_sparse(functions[0][1], aligned, cfg.alpha)[0]
        checks += 1
        try:
            parent_corona_decompose(pair_family, pair_family.cube(0), weights[uspec], weights[sspec], exps)
        except AssertionError as exc:
            failures.append({"check": "corona", "instance": [uspec, sspec], "witness": str(exc)})
    cli._write_json(outdir / "verify.json", {"config": cfg.echo(), "checks": checks,
                                             "failures": failures})
    cli._warn_parentless(mesh)
    status = "PASS" if not failures else "FAIL"
    print(f"verify: {checks} checks, {len(failures)} failures [{status}]")
    return 0 if not failures else 1


def _parent_cmd_sparse(cfg, outdir, weights) -> int:
    """``cmd_sparse`` as it was when it applied each alpha's operators on its own."""
    mesh = cfg.mesh()
    results = []
    for _, fname, f, shift, S, cert in cli._families(cfg, mesh, cfg.random_functions(mesh)):
        family = S.to_jsonable()
        for alpha in cfg.alphas:
            rep = compare_pointwise(parent_dyadic_riesz(f, alpha, shift), parent_sparse_riesz(f, alpha, S))
            results.append({
                "index": len(results), "function": fname, "shift": list(shift), "alpha": alpha,
                "size": len(S), "dominationConstant": domination_constant(mesh.n, alpha),
                "worstUnionRatio": cert.worst_union_ratio, "sparsityOk": cert.ok,
                "maxDominationRatio": rep.max_ratio, "family": family,
            })
    rows = [[r["index"], r["function"], r["alpha"], r["size"], r["sparsityOk"],
             r["worstUnionRatio"], r["maxDominationRatio"]] for r in results]
    for r in results:
        cli._write_json(outdir / f"sparse-{r['index']:03d}.json", r)
    cli._write_csv(outdir / "sparse-summary.csv",
                   ["index", "function", "alpha", "size", "ok", "worstUnionRatio", "maxDominationRatio"], rows)
    cli._warn_parentless(mesh)
    return 0 if all(r["sparsityOk"] for r in results) else 1


def _parent_cmd_corona(cfg, outdir, weights) -> int:
    """``cmd_corona`` as it was when it decomposed each weight pair on its own."""
    mesh = cfg.mesh()
    exps = cfg.exps()
    cal = cli.load_calibration()
    functions = cfg.random_functions(mesh)
    fname, f = functions[0]
    S, _ = build_sparse(f, (0,) * mesh.n, cfg.alpha)
    root = S.cubes[0]
    rows = []
    records = []
    ok = True
    pairs = cfg.weight_pairs()
    for idx, (uspec, sspec) in enumerate(pairs):
        u, s = weights[uspec], weights[sspec]
        cd = parent_corona_decompose(S, root, u, s, exps)
        dec = sigma_decay_check(cd, s)
        envelope = cal["sigma_decay_c1_max"] * cli.SLACK
        # exact c=1 decay against the frozen envelope constant
        decay_ok = all(r.ratio <= 2.0**-r.k * max(envelope, 1.0) + 1e-12 for r in dec.rows if r.k >= 1)
        ok &= decay_ok
        records.append({
            "index": idx, "u": uspec, "sigma": sspec, "family": fname,
            "slices": {str(a): len(qs) for a, qs in cd.slices.items()},
            "skipped": cd.skipped, "gamma": cd.gamma, "certified": cd.certified,
            "decayWorstScaled": dec.worst_scaled, "decayFittedRate": cli._report(dec.fitted_rate),
            "decayReportedExponent": dec.reported_exponent, "decayOk": decay_ok,
        })
        for r in dec.rows:
            rows.append([idx, r.a, r.b, r.P.level, r.k, r.ratio])
        cli._write_json(outdir / f"corona-{idx:03d}.json", records[-1])
    cli._write_csv(outdir / "corona-decay.csv", ["pair", "a", "b", "Plevel", "k", "ratio"], rows)
    cli._write_json(outdir / "corona.json", {"config": cfg.echo(), "records": records})
    return 0 if ok else 1


#: Three weight pairs of which two share their weights, one a weight with itself.
BATCH_PAIRS = [["martingale:seed=5,vol=0.5", "martingale:seed=6,vol=0.5"], ["constant:c=1", "twovalue:a=2,b=1"],
               ["twovalue:a=2,b=1", "twovalue:a=2,b=1"]]


class TestBatchedStagesOracle:
    """``verify``, ``sparse`` and ``corona`` against the parent's commands,
    which applied the operators alpha by alpha and decomposed the weight
    pairs one by one: the same return code, messages and bytes."""

    @pytest.mark.parametrize("command, parent", [("verify", _parent_cmd_verify), ("sparse", _parent_cmd_sparse),
                                                 ("corona", _parent_cmd_corona)], ids=["verify", "sparse", "corona"])
    @pytest.mark.parametrize("mesh", list(TestSharedFamiliesOracle.MESHES))
    @pytest.mark.parametrize("pairs", [BATCH_PAIRS, []], ids=["pairs", "default-pairs"])
    def test_outputs_byte_identical(self, tmp_path, capsys, command, parent, mesh, pairs):
        cfg = ExperimentConfig(**TestSharedFamiliesOracle.MESHES[mesh], pairs=pairs)
        weights = cfg.validate()
        runs = []
        for name, cmd in [("new", cli._COMMANDS[command]), ("parent", parent)]:
            (tmp_path / name).mkdir()
            code = cmd(cfg, tmp_path / name, weights)
            runs.append((code, capsys.readouterr(), slurp(tmp_path / name)))
        assert runs[0] == runs[1]
        if command == "verify" and "unpadded" in mesh:
            # the twelve failures of the shifted grids, in the same order
            assert len(json.loads(runs[0][2]["verify.json"])["failures"]) == 12


class TestOneBatchPerStage:
    """``verify`` and ``sparse`` apply the operators of every alpha with one
    ``dyadic_rieszs`` and one ``sparse_rieszs`` call per family, and
    ``verify`` and ``corona`` decompose every weight pair with one
    ``corona_decomposes`` call per run."""

    @pytest.mark.parametrize("command", ["verify", "sparse", "corona"])
    @pytest.mark.parametrize("count", [1, 3])
    def test_batch_calls(self, tmp_path, monkeypatch, command, count):
        calls = Counter()
        for name in ("dyadic_rieszs", "sparse_rieszs", "corona_decomposes"):
            fn = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda *a, fn=fn, name=name: calls.update([name]) or fn(*a))
        cfg = ExperimentConfig(**dict(SMALL, n_random_functions=2, alphas=[0.25, 0.5, 0.75]),
                               pairs=BATCH_PAIRS[:count])
        weights = cfg.validate()
        assert cli._COMMANDS[command](cfg, tmp_path, weights) == 0
        families = 2 * 2  # functions x shifts
        expected = {"verify": {"dyadic_rieszs": families, "sparse_rieszs": families, "corona_decomposes": 1},
                    "sparse": {"dyadic_rieszs": families, "sparse_rieszs": families},
                    "corona": {"corona_decomposes": 1}}
        assert calls == expected[command]


def _inline_cmd_constants(cfg, outdir, weights) -> int:
    """``cmd_constants`` as it was when it kept its records, rows and finite
    flag in three loops of its own: the oracle of the entry list."""
    exps = cfg.exps()
    rows = []
    records = []
    finite_seen = False
    pairs = cfg.weight_pairs()
    specs = list(dict.fromkeys(cfg.weights))
    fw = dict(zip(specs, cli.fujii_wilsons([weights[spec] for spec in specs], max_level=cfg.fw_max_level)))
    for spec in cfg.weights:
        w = weights[spec]
        entries = [
            ("A_p(s(p))", cli.ap_constant(w, exps.s_p)),
            ("A_inf_exp", cli.ainfty_exp(w)),
            ("FujiiWilson", fw[spec]),
        ]
        for name, rep in entries:
            finite_seen |= math.isfinite(rep.value)
            rows.append([spec, name, rep.value])
            records.append({"weight": spec, "constant": name, "value": cli._report(rep.value),
                            "witness": rep.witness, "corpusSize": rep.corpus_size})
    for uspec, sspec in pairs:
        rep = cli.two_weight_ap(weights[uspec], weights[sspec], exps.s_p)
        finite_seen |= math.isfinite(rep.value)
        rows.append([f"{uspec}|{sspec}", "twoWeightA_s(p)", rep.value])
        records.append({"weight": f"{uspec}|{sspec}", "constant": "twoWeightA_s(p)",
                        "value": cli._report(rep.value), "witness": rep.witness,
                        "corpusSize": rep.corpus_size})
    cli._write_json(outdir / "constants.json", {"config": cfg.echo(), "records": records})
    cli._write_csv(outdir / "constants.csv", ["weight", "constant", "value"], rows)
    return 0 if finite_seen else 3


def _inline_cmd_corona(cfg, outdir, weights) -> int:
    """``cmd_corona`` as it was when it built its own set-up and wrote each
    record in its loop."""
    mesh = cfg.mesh()
    exps = cfg.exps()
    cal = cli.load_calibration()
    functions = cfg.random_functions(mesh)
    fname, f = functions[0]
    S, _ = build_sparse(f, (0,) * mesh.n, cfg.alpha)
    root = S.cube(0)
    rows = []
    records = []
    ok = True
    pairs = cfg.weight_pairs()
    cds = cli.corona_decomposes(S, root, [(weights[u], weights[s]) for u, s in pairs], exps)
    for idx, ((uspec, sspec), cd) in enumerate(zip(pairs, cds)):
        if isinstance(cd, AssertionError):
            raise cd
        dec = sigma_decay_check(cd, weights[sspec])
        envelope = cal["sigma_decay_c1_max"] * cli.SLACK
        # exact c=1 decay against the frozen envelope constant
        decay_ok = all(r.ratio <= 2.0**-r.k * max(envelope, 1.0) + 1e-12 for r in dec.rows if r.k >= 1)
        ok &= decay_ok
        labels, counts = np.unique(cd.a, return_counts=True)
        records.append({
            "index": idx, "u": uspec, "sigma": sspec, "family": fname,
            "slices": dict(zip(map(str, labels.tolist()), counts.tolist())),
            "skipped": cd.skipped, "gamma": cd.gamma, "certified": cd.certified,
            "decayWorstScaled": dec.worst_scaled, "decayFittedRate": cli._report(dec.fitted_rate),
            "decayReportedExponent": dec.reported_exponent, "decayOk": decay_ok,
        })
        for r in dec.rows:
            rows.append([idx, r.a, r.b, r.P.level, r.k, r.ratio])
        cli._write_json(outdir / f"corona-{idx:03d}.json", records[-1])
    cli._write_csv(outdir / "corona-decay.csv", ["pair", "a", "b", "Plevel", "k", "ratio"], rows)
    cli._write_json(outdir / "corona.json", {"config": cfg.echo(), "records": records})
    return 0 if ok else 1


def _inline_cmd_norm(cfg, outdir, weights) -> int:
    """``cmd_norm`` as it was when it built its own set-up and wrote its records
    in a loop of its own."""
    mesh = cfg.mesh()
    exps = cfg.exps()
    fname, f = cfg.random_functions(mesh)[0]
    S, _ = build_sparse(f, (0,) * mesh.n, cfg.alpha)
    specs = cfg.weight_pairs()
    pairs = [(weights[us], weights[ss]) for us, ss in specs]
    testings = normest.dyadic_testings(pairs, exps, S)
    strongs = normest.strong_norm_lowers(pairs, exps, S, rng_seed=cfg.seed)
    weaks = normest.weak_norm_lowers(pairs, exps, S, strongs, rng_seed=cfg.seed)
    results = [{"index": i, "u": us, "sigma": ss, "family": fname, "testing": testing.to_jsonable(),
                "strong": strong.to_jsonable(), "weak": weak.to_jsonable()}
               for i, ((us, ss), testing, strong, weak) in enumerate(zip(specs, testings, strongs, weaks))]
    for r in results:
        cli._write_json(outdir / f"norm-{r['index']:03d}.json", r)
    cli._write_csv(outdir / "norm-summary.csv",
                   ["index", "u", "sigma", "direct", "dual", "strong", "weak"],
                   [[r["index"], r["u"], r["sigma"], r["testing"]["direct"], r["testing"]["dual"],
                     r["strong"]["value"], r["weak"]["value"]] for r in results])
    return 0


def _inline_cmd_sandwich(cfg, outdir, weights) -> int:
    """``cmd_sandwich`` as it was when it built its own set-up, wrote each
    record in its loop and folded each theorem's envelope with ``setdefault``."""
    mesh = cfg.mesh()
    exps = cfg.exps()
    cal = cli.load_calibration()
    fname, f = cfg.random_functions(mesh)[0]
    S, _ = build_sparse(f, (0,) * mesh.n, cfg.alpha)
    specs = cfg.weight_pairs()
    pairs = [(weights[us], weights[ss]) for us, ss in specs]
    sws = cli.lsut_sandwiches(pairs, exps, S, rng_seed=cfg.seed)
    items = [(u, s, sw.testing) for (u, s), sw in zip(pairs, sws)]
    thm31 = cli.thm31_bound_checks(items, exps, cfg.fw_max_level) if exps.sobolev else None
    refused = None
    try:
        thm41 = cli.thm41_bound_checks(items, exps, cfg.bump_kind, cfg.bump_delta)
    except cli.RangeConditionError as exc:
        refused = str(exc)
    rows = []
    records = []
    failures = 0
    for idx, ((uspec, sspec), sw) in enumerate(zip(specs, sws)):
        rec = sw.to_jsonable()
        rec.update({"index": idx, "u": uspec, "sigma": sspec, "family": fname})
        checks = {"testingBelowNorm": sw.testing_below_norm,
                  "r1Ok": bool(sw.r1_ok) if sw.r1_ok is not None else True}
        if sw.r2 is not None:
            checks["r2Envelope"] = (cal["lsut_r2_min"] / cli.SLACK <= sw.r2 <= cal["lsut_r2_max"] * cli.SLACK)
        if thm31 is not None:
            dual31, direct31 = thm31[idx]
            rec["thm31"] = {"dual": dual31.to_jsonable(), "direct": direct31.to_jsonable()}
            for r in (dual31, direct31):
                if r.ratio is not None:
                    checks.setdefault("thm31Envelope", True)
                    checks["thm31Envelope"] &= r.ratio <= cal["thm31_ratio_max"] * cli.SLACK
        if refused is not None:
            rec["thm41"] = {"refused": refused}
        else:
            dual41, direct41 = thm41[idx]
            rec["thm41"] = {"dual": dual41.to_jsonable(),
                            "direct": None if direct41 is None else direct41.to_jsonable()}
            key = f"thm41_{cfg.bump_kind}_ratio_max"
            for r in (dual41, direct41):
                if r is not None and r.ratio is not None:
                    checks.setdefault("thm41Envelope", True)
                    checks["thm41Envelope"] &= r.ratio <= cal[key] * cli.SLACK
        rec["checks"] = checks
        bad = [k for k, v in checks.items() if not v]
        failures += len(bad)
        records.append(rec)
        rows.append([idx, uspec, sspec, rec["r1"], rec["r2"], ";".join(bad) or "ok"])
        cli._write_json(outdir / f"sandwich-{idx:03d}.json", rec)
    cli._write_csv(outdir / "sandwich-summary.csv", ["index", "u", "sigma", "r1", "r2", "verdict"], rows)
    cli._write_json(outdir / "sandwich.json", {"config": cfg.echo(), "records": records})
    print(f"sandwich: {len(records)} pairs, {failures} envelope failures")
    return 0 if failures == 0 else 1


class TestSharedSetupOracle:
    """``constants``, ``corona``, ``norm`` and ``sandwich`` against the
    commands that built their own set-up, wrote their own records and folded
    their own envelopes: the same return code, messages and bytes."""

    INLINE = {"constants": _inline_cmd_constants, "corona": _inline_cmd_corona,
              "norm": _inline_cmd_norm, "sandwich": _inline_cmd_sandwich}
    CONFIGS = {
        "1d": dict(L=4),
        "2d": dict(n=2, L=3),
        "loglog": dict(L=4, bump_kind="loglog"),
        # the direct range condition of Theorem 4.1 fails: its form is None
        "direct-none": dict(L=4, p=1.2, q=1.5, alpha=0.3),
        "envelopes-fail": dict(L=4),
    }
    #: calibration maxima so small that every envelope check fails
    TINY = {"lsut_r2_max": 1e-300, "thm31_ratio_max": 1e-300, "thm41_log_ratio_max": 1e-300,
            "thm41_loglog_ratio_max": 1e-300, "sigma_decay_c1_max": 1e-300}

    @pytest.mark.parametrize("command", list(INLINE))
    @pytest.mark.parametrize("config", list(CONFIGS))
    def test_outputs_byte_identical(self, tmp_path, monkeypatch, capsys, command, config):
        if config == "envelopes-fail":
            cal = cli.load_calibration()
            monkeypatch.setattr(cli, "load_calibration", lambda: {**cal, **self.TINY})
        cfg = ExperimentConfig(**self.CONFIGS[config])
        weights = cfg.validate()
        runs = []
        for name, cmd in [("new", cli._COMMANDS[command]), ("inline", self.INLINE[command])]:
            (tmp_path / name).mkdir()
            code = cmd(cfg, tmp_path / name, weights)
            runs.append((code, capsys.readouterr(), slurp(tmp_path / name)))
        assert runs[0] == runs[1]
        if command != "sandwich":
            return
        records = json.loads(runs[0][2]["sandwich.json"])["records"]
        if config == "envelopes-fail":
            # every envelope fails, in the order the checks are made
            assert runs[0][0] == 1
            verdicts = [row.split(",")[-1] for row in runs[0][2]["sandwich-summary.csv"].decode().splitlines()[1:]]
            assert verdicts == ["r2Envelope;thm31Envelope;thm41Envelope"] * len(records)
        else:
            assert runs[0][0] == 0
        if config == "direct-none":
            assert all(rec["thm41"]["direct"] is None and "thm31" not in rec for rec in records)

    def test_constants_without_a_finite_value(self, tmp_path, monkeypatch, capsys):
        # every constant reads infinite: the same bytes, and both exit 3
        def infinite(rep):
            return dataclasses.replace(rep, value=math.inf)

        for name in ("ap_constant", "ainfty_exp", "two_weight_ap"):
            monkeypatch.setattr(cli, name, lambda *a, fn=getattr(cli, name): infinite(fn(*a)))
        fws = cli.fujii_wilsons
        monkeypatch.setattr(cli, "fujii_wilsons", lambda *a, **k: [infinite(r) for r in fws(*a, **k)])
        cfg = ExperimentConfig(L=4, pairs=[["constant:c=1", "power:beta=0.3"]])
        weights = cfg.validate()
        runs = []
        for name, cmd in [("new", cli.cmd_constants), ("inline", _inline_cmd_constants)]:
            (tmp_path / name).mkdir()
            code = cmd(cfg, tmp_path / name, weights)
            runs.append((code, capsys.readouterr(), slurp(tmp_path / name)))
        assert runs[0] == runs[1]
        assert runs[0][0] == 3
        records = json.loads(runs[0][2]["constants.json"])["records"]
        assert len(records) == 7 and all(rec["value"] is None for rec in records)


def _setdefault_envelope(checks, name, reports, bound):
    """The envelope fold of the inline ``cmd_sandwich``: the oracle of ``cli._envelope``."""
    for r in reports:
        if r is not None and r.ratio is not None:
            checks.setdefault(name, True)
            checks[name] &= r.ratio <= bound


class TestEnvelope:
    """``_envelope`` sets the check that the ``setdefault`` fold set, in the
    same place among the checks, and leaves it out when no ratio is there."""

    @pytest.mark.parametrize("ratios", [[1.0, 2.0], [1.0, 3.0], [None, None], [None, 3.0], [math.nan, 1.0],
                                        [2.0, None], [], [None]])
    @pytest.mark.parametrize("missing", [False, True], ids=["reports", "missing-report"])
    def test_same_checks_as_the_fold(self, ratios, missing):
        reports = [normest.BoundRatio(x, 1.0, 1.0, {}) for x in ratios] + [None] * missing
        got, expect = {"first": True}, {"first": True}
        cli._envelope(got, "env", reports, 2.0)
        _setdefault_envelope(expect, "env", reports, 2.0)
        got["last"] = expect["last"] = False
        assert list(got.items()) == list(expect.items())
        assert ("env" in got) == any(x is not None for x in ratios)


class TestSandwichWeights:
    def test_each_distinct_spec_generated_once(self, tmp_path, monkeypatch):
        # the cyclic default pairs use each of three weights twice; validate
        # generates each once, and the command takes those
        cfg = ExperimentConfig(**dict(SMALL, weights=["constant:c=1", "twovalue:a=2,b=1", "power:beta=0.3"]))
        specs, generate = [], cli.generate_weight
        monkeypatch.setattr(cli, "generate_weight", lambda mesh, spec: specs.append(spec) or generate(mesh, spec))
        (tmp_path / "out").mkdir()
        assert cli.cmd_sandwich(cfg, tmp_path / "out", cfg.validate()) == 0
        assert sorted(specs) == sorted(cfg.weights)


class TestDistinctWeights:
    @pytest.mark.parametrize("command", ["constants", "verify", "corona", "norm"])
    def test_each_distinct_spec_generated_once(self, tmp_path, monkeypatch, command):
        # the weights and the cyclic default pairs name each of three specs
        # three times in constants, and the pairs twice in the others;
        # validate generates each once, and the command takes those
        cfg = ExperimentConfig(**dict(SMALL, weights=["constant:c=1", "twovalue:a=2,b=1", "power:beta=0.3"]))
        specs, generate = [], cli.generate_weight
        monkeypatch.setattr(cli, "generate_weight", lambda mesh, spec: specs.append(spec) or generate(mesh, spec))
        (tmp_path / "out").mkdir()
        assert cli._COMMANDS[command](cfg, tmp_path / "out", cfg.validate()) == 0
        assert sorted(specs) == sorted(cfg.weights)

    def test_validate_generates_each_distinct_spec_once(self, monkeypatch):
        # five specs named in the weights and the pairs, three of them distinct
        pairs = [["constant:c=1", "power:beta=0.3"], ["power:beta=0.3", "twovalue:a=2,b=1"]]
        cfg = ExperimentConfig(**dict(SMALL, pairs=pairs))
        specs, generate = [], cli.generate_weight
        monkeypatch.setattr(cli, "generate_weight", lambda mesh, spec: specs.append(spec) or generate(mesh, spec))
        cfg.validate()
        assert specs == ["constant:c=1", "twovalue:a=2,b=1", "power:beta=0.3"]


class TestOneRunWeights:
    """A run through ``main`` generates each distinct spec once: the
    command uses the weights that ``validate`` made."""

    @pytest.mark.parametrize("command", ["sandwich", "constants"])
    def test_each_distinct_spec_generated_once_per_run(self, tmp_path, monkeypatch, command):
        # four distinct specs named in the weights and the pairs, seven times
        config = dict(SMALL, weights=["constant:c=1", "twovalue:a=2,b=1", "power:beta=0.3"],
                      pairs=[["constant:c=1", "power:beta=0.3"], ["power:beta=-0.3", "constant:c=1"]])
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        specs, generate = [], cli.generate_weight
        monkeypatch.setattr(cli, "generate_weight", lambda mesh, spec: specs.append(spec) or generate(mesh, spec))
        code = cli.main([command, "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")])
        assert code == 0
        assert specs == ["constant:c=1", "twovalue:a=2,b=1", "power:beta=0.3", "power:beta=-0.3"]


    def test_weights_share_the_run_mesh(self):
        cfg = ExperimentConfig(**SMALL)
        mesh = cfg.mesh()
        assert cfg.mesh() is mesh and all(w.mesh is mesh for w in cfg.validate().values())
        cfg.L = 5
        assert cfg.mesh() is not mesh and cfg.mesh().finest_exponent == 5


class TestOnePassPerStage:
    """``sandwich`` and ``norm`` make one testing scan per side, one strong
    seed stream and one weak seed stream per run, whatever the number of
    pairs."""

    @pytest.mark.parametrize("command", ["sandwich", "norm"])
    @pytest.mark.parametrize("count", [1, 2, 5])
    def test_stage_calls(self, tmp_path, monkeypatch, command, count):
        from rieszw import calibration, normest

        calls = []
        for name in ("_testing_sups", "_seed_blocks"):
            fn = getattr(normest, name)
            monkeypatch.setattr(normest, name, lambda pairs, *a, fn=fn, name=name: calls.append(
                (name, len(pairs))) or fn(pairs, *a))
        config = dict(SMALL, pairs=[list(p) for p in calibration.corpus_pairs()[:count]])
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        code = cli.main([command, "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")])
        assert code == 0
        assert calls == [("_testing_sups", count)] * 2 + [("_seed_blocks", count)] * 2


class TestOneBlockBudget:
    """Every block of a run is sized by ``mesh._block_rows`` from
    ``mesh._FRAME_BLOCK``: at a budget of one entry every site asks for
    one-row blocks, and ``verify``, ``sandwich`` and ``constants`` write the
    bytes of the default budget."""

    SITES = {"_testing_sups", "_seed_blocks", "_alpha_frames", "corona_decomposes", "_window_maximal_sums"}

    @pytest.mark.parametrize("mesh", ["n=1,J=0,L=5", "n=2,J=0,L=3"], ids=["1d", "2d"])
    def test_one_row_blocks_byte_identical(self, tmp_path, monkeypatch, capsys, mesh):
        (tmp_path / "cfg.json").write_text(json.dumps(SMALL))

        def run(command, budget):
            out = tmp_path / budget / command
            code = cli.main([command, "--config", str(tmp_path / "cfg.json"), "--mesh", mesh, "--out", str(out)])
            return code, capsys.readouterr(), slurp(out)

        commands = ["verify", "sandwich", "constants"]
        default = [run(command, "default") for command in commands]
        block_rows, rows, sites = mesh_module._block_rows, [], set()

        def recorded(row_entries):
            sites.add(sys._getframe(1).f_code.co_name)
            rows.append(block_rows(row_entries))
            return rows[-1]

        for name, module in list(sys.modules.items()):
            if name.startswith("rieszw") and getattr(module, "_block_rows", None) is block_rows:
                monkeypatch.setattr(module, "_block_rows", recorded)
        monkeypatch.setattr(mesh_module, "_FRAME_BLOCK", 1)
        one_row = [run(command, "one-row") for command in commands]
        assert sites == self.SITES and set(rows) == {1}
        assert [code for code, _, _ in default] == [0, 0, 0]
        assert one_row == default


class TestParentlessWarning:
    """``verify`` and ``sparse`` name, in one stderr line, a mesh whose
    shifted grids have parentless coarsest cubes."""

    @pytest.mark.parametrize("command", ["verify", "sparse"])
    @pytest.mark.parametrize("mesh, lines", [("n=1,J=1,L=4,T=0", 1), ("n=2,J=0,L=2,T=0", 1),
                                             ("n=1,J=1,L=4", 0)])
    def test_one_line(self, tmp_path, capsys, command, mesh, lines):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL))
        cli.main([command, "--config", str(cfg_path), "--mesh", mesh, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert err.count("\n") == lines and err.count("sparsity certificate") == lines


class TestDeterminism:
    @pytest.mark.parametrize("command", ["constants", "sparse", "corona"])
    def test_rerun_byte_identical(self, tmp_path, command):
        r1 = run_cli(tmp_path / "a", command, SMALL)
        r2 = run_cli(tmp_path / "b", command, SMALL)
        assert r1.returncode == 0 and r2.returncode == 0, r1.stderr + r2.stderr
        assert slurp(tmp_path / "a" / "out") == slurp(tmp_path / "b" / "out")

    def test_jobs_do_not_change_output(self, tmp_path):
        r1 = run_cli(tmp_path / "a", "sparse", SMALL)
        r2 = run_cli(tmp_path / "b", "sparse", SMALL, extra=["--jobs", "2"])
        assert r1.returncode == 0 and r2.returncode == 0
        assert slurp(tmp_path / "a" / "out") == slurp(tmp_path / "b" / "out")

    def test_seed_changes_output(self, tmp_path):
        r1 = run_cli(tmp_path / "a", "sparse", SMALL, extra=["--seed", "1"])
        r2 = run_cli(tmp_path / "b", "sparse", SMALL, extra=["--seed", "2"])
        assert r1.returncode == 0 and r2.returncode == 0
        assert slurp(tmp_path / "a" / "out") != slurp(tmp_path / "b" / "out")


class TestConfig:
    def test_round_trip(self):
        cfg = ExperimentConfig(L=5, seed=3, weights=["constant:c=2"])
        back = ExperimentConfig(**cfg.to_dict())
        assert back == cfg

    def test_echo_excludes_run_locations(self):
        d = ExperimentConfig().echo()
        assert "out" not in d and "jobs" not in d
        assert "seed" in d and "L" in d

    def test_flag_overrides(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({"seed": 5}))
        import argparse

        args = argparse.Namespace(
            config=str(cfg_path), seed=9, jobs=None, out=None, mesh="n=1,J=0,L=3,T=2"
        )
        cfg = ExperimentConfig.from_args(args)
        assert cfg.seed == 9 and cfg.L == 3 and cfg.T == 2
