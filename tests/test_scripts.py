"""The scripts under ``scripts/`` load as modules: each imports package
names that no other test reaches through them, so a name the package drops
fails here rather than when the script next runs.  The digest script's
output is held to the committed digests."""

import importlib.util
import pathlib
import subprocess
import sys

import numpy as np
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


# other Python and numpy versions may round differently
@pytest.mark.skipif(sys.version_info[:2] != (3, 11) or not np.__version__.startswith("2."),
                    reason="scripts/digests.txt is taken on Python 3.11 and numpy 2.x")
def test_digests_match_committed():
    r = subprocess.run([sys.executable, str(SCRIPTS / "output_digests.py")], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout == (SCRIPTS / "digests.txt").read_text()
