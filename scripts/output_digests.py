#!/usr/bin/env python3
"""Run the CLI subcommands on fixed configs and print one SHA-256 digest per
output file, so that two checkouts compare with one ``diff``.

    python3 scripts/output_digests.py > digests.txt

The runs are every subcommand at ``--mesh n=1,J=0,L=6``, the 1-D
``sandwich`` once more with ``{"bump_kind": "loglog"}`` (the only run whose
bump constants use the loglog Young kinds), with ``{"p": 1.2, "q": 1.5,
"alpha": 0.3}`` (the direct range condition of Theorem 4.1 fails, so its
bump constant is the dual one alone and ``thm41`` writes ``"direct":
null``) and at L=8 (its in-box corpus meets 4,599 cells, more than one
Luxemburg bisection call holds),
and the 2-D ``constants``, ``verify``, ``sandwich`` and ``norm`` at ``--mesh
n=2,J=0,L=3``, ``verify`` at ``--mesh n=2,J=-1,L=4`` (a box of side 1/2,
so the coarsest levels' cubes reach past it; the only 2-D run with J < 0), ``constants`` again at ``--mesh n=2,J=1,L=4`` (with the
default ``fw_max_level`` of 3, the ``fujii_wilson`` windows run from 32
cells per axis down to 2), ``constants`` at ``--mesh n=2,J=0,L=5`` on four
different weights with ``fw_max_level`` 4 (the four weights' windows
stacked in one batch per segment, of up to 32 x 32 cells), then ``sparse`` at ``--mesh n=2,J=1,L=3`` (every shift of a
2-D grid with J=1 through the sparse apply) and ``norm`` at ``--mesh
n=1,J=1,L=5,T=0`` (restricted sparse sums on a mesh with no coarse
padding), ``verify`` at that mesh (on shift 1 no level holds a single
cube, so the level sweeps fold no leading level; the run exits 1, see
``EXPECTED_EXIT``), ``verify`` at ``--mesh n=2,J=1,L=3,T=0`` (the only run
whose 2-D grids have many cubes and no parent at the coarsest level; it
exits 1 too), ``sandwich`` at ``n=1,J=1,L=5,T=0`` and at ``--mesh n=2,J=1,L=3`` (the
testing roots and norm seeds of a J=1 box, with and without padding),
``sandwich`` at ``--mesh n=2,J=0,L=6`` (the only run with Luxemburg segments
of more than ``orlicz._LUX_BATCH_CELLS`` cells: nine, of up to 15,876 cells
each, each a bisection call of its own once per block, 72 calls), and
``corona`` at ``--mesh n=1,J=0,L=8`` and ``--mesh n=2,J=1,L=3``
on two fixed weight pairs (deeper stopping trees than the L=6 run, and the
only 2-D corona), and last the 1-D ``sandwich`` at ``--mesh n=1,J=0,L=5`` on
the five calibration corpus pairs with ``fw_max_level`` 1 (the perfbench
``sandwich-1d`` run at seed 0: its packed bump norms fill more than one
Luxemburg bisection call, and one weight is the sigma of two pairs), and
the 1-D ``verify`` at ``--mesh n=1,J=0,L=9`` on three weight pairs (the
perfbench ``verify-1d`` run at seed 0: its three pairs' corona
decompositions share one sweep block); every other setting is the default
config and seed.  Outputs and
the run's config file go to a temporary directory that is removed afterwards; the subcommands' own
messages go to stderr.  Exits 1 if a subcommand exits with 1 or 2 (3, success
with a warning, counts as success), or, for a run in ``EXPECTED_EXIT``, with
any code but the one listed there.
"""

import contextlib
import hashlib
import json
import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from rieszw import calibration, cli

# two pairs whose corona slices hold up to 11 cubes and stop over several
# generations, so the decay tables have nonzero rows for k >= 1
CORONA_PAIRS = {"pairs": [["martingale:seed=5,vol=0.5", "martingale:seed=6,vol=0.5"],
                          ["constant:c=1", "twovalue:a=2,b=1"]]}

# (subcommand, --mesh value, config fields; a run with fields gets a config file)
RUNS = [
    *((cmd, "n=1,J=0,L=6", {}) for cmd in
      ("sandwich", "verify", "constants", "corona", "sparse", "norm", "exponent-fit")),
    ("sandwich", "n=1,J=0,L=6", {"bump_kind": "loglog"}),
    ("sandwich", "n=1,J=0,L=6", {"p": 1.2, "q": 1.5, "alpha": 0.3}),
    ("sandwich", "n=1,J=0,L=8", {}),
    ("constants", "n=2,J=0,L=3", {}),
    ("constants", "n=2,J=1,L=4", {}),
    ("constants", "n=2,J=0,L=5", {"weights": ["constant:c=1", "power:beta=-0.4", "martingale:seed=3,vol=0.6",
                                              "checkerboard:levels=2,ratio=4"], "fw_max_level": 4}),
    ("verify", "n=2,J=0,L=3", {}),
    ("verify", "n=2,J=-1,L=4", {}),
    ("sandwich", "n=2,J=0,L=3", {}),
    ("norm", "n=2,J=0,L=3", {}),
    ("sparse", "n=2,J=1,L=3", {}),
    ("norm", "n=1,J=1,L=5,T=0", {}),
    ("verify", "n=1,J=1,L=5,T=0", {}),
    ("verify", "n=2,J=1,L=3,T=0", {}),
    ("sandwich", "n=1,J=1,L=5,T=0", {}),
    ("sandwich", "n=2,J=1,L=3", {}),
    ("sandwich", "n=2,J=0,L=6", {}),
    *(("corona", mesh, CORONA_PAIRS) for mesh in ("n=1,J=0,L=8", "n=2,J=1,L=3")),
    ("sandwich", "n=1,J=0,L=5", {"pairs": [list(p) for p in calibration.corpus_pairs()], "fw_max_level": 1}),
    ("verify", "n=1,J=0,L=9", {"pairs": [["constant:c=1", "twovalue:a=2,b=1"], ["twovalue:a=2,b=1", "constant:c=1"],
                                         ["martingale:seed=5,vol=0.5", "martingale:seed=6,vol=0.5"]]}),
]

# (subcommand, --mesh value) -> the exit code the run must give.  With no
# coarse padding the coarsest cubes of shift 1 have no parent to bound their
# averages, so six built families fail the sparsity certificate (and their
# overlap bound) and ``verify`` reports 12 failures and exits 1; the 2-D
# J=1 mesh without padding does the same on its shifted grids.
EXPECTED_EXIT = {("verify", "n=1,J=1,L=5,T=0"): 1, ("verify", "n=2,J=1,L=3,T=0"): 1}


def main() -> int:
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        for cmd, mesh, config in RUNS:
            tags = (v if isinstance(v, str) else k for k, v in config.items())
            name = "-".join([cmd, mesh.replace(",", "-").replace("=", ""), *tags])
            argv = [cmd, "--mesh", mesh, "--jobs", "1", "--out", str(root / name)]
            if config:
                cfg_path = root / f"{name}.config.json"
                cfg_path.write_text(json.dumps(config))
                argv += ["--config", str(cfg_path)]
            label = " ".join([cmd, "--mesh", mesh, *(f"{k}={v}" for k, v in config.items())])
            with contextlib.redirect_stdout(sys.stderr):
                code = cli.main(argv)
            print(f"{label}: exit {code}", file=sys.stderr)
            if (cmd, mesh) in EXPECTED_EXIT:
                bad = code != EXPECTED_EXIT[cmd, mesh]
            else:
                bad = code in (1, 2)
            if bad:
                failed.append(label)
        for path in sorted(p for p in root.rglob("*") if p.is_file() and p.parent != root):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(root)}")
    if failed:
        print(f"failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
