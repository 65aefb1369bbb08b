import json
import subprocess
import sys

import pytest

from rieszw import cli
from rieszw.cli import ExperimentConfig

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
        ],
        ids=["too-many-cells", "n=3", "negative-padding", "alpha", "alphas-entry", "weight-kind",
             "negative-seed"],
    )
    def test_invalid_config_exits_2(self, tmp_path, overrides, mesh):
        extra = ["--mesh", mesh] if mesh else []
        r = run_cli(tmp_path, "verify", dict(SMALL, **overrides), extra=extra)
        assert r.returncode == 2
        assert r.stderr.startswith("config error: ")
        assert "Traceback" not in r.stderr

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

    def test_empty_weight_config_noop(self, tmp_path):
        cfg = dict(SMALL, weights=[], n_random_functions=0)
        r = run_cli(tmp_path, "verify", cfg)
        assert r.returncode == 0


class TestNegativeBaseExponent:
    def test_constants_on_a_half_box(self, tmp_path):
        # the box [0, 1/2) of J = -1; the default two-value weight splits
        # the box at half its side
        code = cli.main(["constants", "--mesh", "n=1,J=-1,L=4", "--out", str(tmp_path / "out")])
        assert code == 0


class TestVerifyFamilies:
    def test_weight_pairs_reuse_the_built_family(self, tmp_path, monkeypatch):
        calls = []
        build = cli.build_sparse

        def counting(*args):
            calls.append(args[1:])
            return build(*args)

        monkeypatch.setattr(cli, "build_sparse", counting)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL))
        code = cli.main(["verify", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == 0
        # one family per shift and alpha; the two weight pairs reuse the aligned one
        assert calls == [((0,), 0.5), ((1,), 0.5)]


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
