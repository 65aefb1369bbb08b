"""Frozen calibration envelopes for the untraced inequality constants.

The suprema hidden in the comparison theorems carry constants the analysis
does not trace, so the only honest contract is empirical: the envelopes in
``data/calibration.json`` were measured once on the frozen corpus below and
are asserted thereafter with 10% slack.  The file is frozen: it is never
regenerated to absorb a change to the operators or constructions, which must
keep passing against it.  ``scripts/calibrate.py`` shows how it was measured.
"""

from __future__ import annotations

import json
from importlib import resources

import numpy as np

from .mesh import Mesh, StepFunction

__all__ = [
    "load_calibration",
    "corpus_instance",
    "corpus_pairs",
    "CALIBRATION_MESH",
    "SLACK",
]

# mesh and exponent frozen with the envelopes; (alpha, p, q) = (1/2, 4/3, 4)
CALIBRATION_MESH = dict(n=1, base_exponent=0, finest_exponent=6)
SLACK = 1.10

_cache: dict | None = None


def load_calibration() -> dict:
    global _cache
    if _cache is None:
        with resources.files("rieszw").joinpath("data/calibration.json").open() as fh:
            _cache = json.load(fh)
    return _cache


def corpus_pairs() -> list[tuple[str, str]]:
    """Generator-based weight pairs the envelopes also cover (the CLI's
    default corpus style)."""
    return [
        ("constant:c=1", "twovalue:a=2,b=1"),
        ("twovalue:a=2,b=1", "constant:c=1"),
        ("power:beta=0.3", "power:beta=-0.3"),
        ("martingale:seed=5,vol=0.5", "martingale:seed=6,vol=0.5"),
        ("checkerboard:levels=2,ratio=4", "constant:c=1"),
    ]


def corpus_instance(mesh: Mesh, seed: int) -> tuple[StepFunction, StepFunction, StepFunction]:
    """The calibration corpus: seeded lognormal (f, u, sigma) triples."""
    rng = np.random.default_rng(1000 + seed)
    shape = (mesh.cells_per_axis,) * mesh.n
    f = StepFunction(mesh, np.exp(rng.standard_normal(shape)))
    u = StepFunction(mesh, np.exp(0.7 * rng.standard_normal(shape)))
    sigma = StepFunction(mesh, np.exp(0.7 * rng.standard_normal(shape)))
    return f, u, sigma
