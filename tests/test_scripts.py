"""The scripts under ``scripts/`` load as modules: each imports package
names that no other test reaches through them, so a name the package drops
fails here rather than when the script next runs."""

import importlib.util
import pathlib
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("name", ["calibrate", "output_digests"])
def test_script_loads_with_main(name, monkeypatch):
    # each script puts src/ on sys.path when it loads
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(f"scripts_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # never called: calibrate.main rewrites the frozen src/rieszw/data/calibration.json
    assert callable(module.main)
