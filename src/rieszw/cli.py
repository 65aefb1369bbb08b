"""Command-line experiment surface.

Subcommands: constants | verify | sandwich | sparse | corona | norm |
exponent-fit.  Configuration is a single JSON document; flags override
config fields.  All outputs are deterministic: identical config and seed
produce byte-identical files.

Exit codes: 0 success, 1 exact-assertion or envelope failure, 2 config
parse failure, 3 success-with-warning (only infinite verdicts produced).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import pathlib
import sys
from dataclasses import dataclass, field

import numpy as np

from .calibration import SLACK, load_calibration
from .corona import corona_decomposes, sigma_decay_check
from .mesh import DyadicCube, Mesh, StepFunction
from .normest import (
    RangeConditionError,
    dyadic_testings,
    lsut_sandwiches,
    strong_norm_lower,
    strong_norm_lowers,
    thm31_bound_checks,
    thm41_bound_checks,
    weak_norm_lower,
    weak_norm_lowers,
)
from .operators import compare_pointwise, dyadic_rieszs, sparse_rieszs
from .sparse import (
    SparseFamily,
    _overlap_reports,
    build_sparse,
    domination_constant,
    verify_sparse,
)
from .weights import ExponentTuple, ap_constant, ainfty_exp, fujii_wilsons, generate_weight, two_weight_ap

__all__ = ["main", "ExperimentConfig"]


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    """Everything an experiment run depends on; serializes losslessly."""

    n: int = 1
    J: int = 0
    L: int = 6
    T: int = 40
    seed: int = 0
    jobs: int = 1  # reserved: accepted, has no effect
    alpha: float = 0.5
    p: float = 4.0 / 3.0
    q: float = 4.0
    alphas: list = field(default_factory=lambda: [0.25, 0.5, 0.75])
    weights: list = field(default_factory=lambda: ["constant:c=1", "twovalue:a=2,b=1"])
    pairs: list = field(default_factory=list)  # [[uSpec, sigmaSpec], ...]
    n_random_functions: int = 3
    bump_kind: str = "log"
    bump_delta: float = 1.0
    betas: list = field(default_factory=lambda: [0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
    fw_max_level: int | None = 3
    out: str = "rieszw-out"

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "ExperimentConfig":
        """The config file with the flags over it, not yet validated."""
        data = {}
        if args.config:
            try:
                data = json.loads(pathlib.Path(args.config).read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
            if not isinstance(data, dict):
                raise ConfigError("config must be a JSON object")
        unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        cfg = cls(**data)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.jobs is not None:
            cfg.jobs = args.jobs
        if args.out is not None:
            cfg.out = args.out
        if args.mesh is not None:
            for part in args.mesh.split(","):
                k, _, v = part.partition("=")
                if k not in ("n", "J", "L", "T") or not v:
                    raise ConfigError(f"bad --mesh component {part!r}")
                setattr(cfg, k, int(v))
        return cfg

    def validate(self) -> dict:
        """Raise ConfigError unless the mesh, the exponents, the seed, the
        output directory, the random-function count, the bump settings,
        ``fw_max_level``, every alpha, every beta and every weight spec are
        valid, and the list fields are lists.  Returns each distinct spec's
        weight, generated once, on the run's mesh: the weights every command
        takes."""
        # a JSON bool is a Python int: exact type tests keep it out
        for name in ("n", "J", "L", "T", "seed"):
            if type(getattr(self, name)) is not int:
                raise ConfigError(f"{name} must be an integer; got {getattr(self, name)!r}")
        for name in ("weights", "pairs", "alphas", "betas"):
            if type(getattr(self, name)) is not list:
                raise ConfigError(f"{name} must be a list; got {getattr(self, name)!r}")
        for name in ("alpha", "p", "q"):
            if type(getattr(self, name)) not in (int, float):
                raise ConfigError(f"{name} must be a number; got {getattr(self, name)!r}")
        if not (type(self.out) is str and self.out):
            raise ConfigError(f"out must be a non-empty string; got {self.out!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative; got {self.seed}")
        for beta in self.betas:
            if not (type(beta) in (int, float) and math.isfinite(beta)):
                raise ConfigError(f"betas must be finite numbers; got {beta!r}")
        if not (type(self.n_random_functions) is int and self.n_random_functions >= 0):
            raise ConfigError(f"n_random_functions must be an integer >= 0; got {self.n_random_functions!r}")
        if self.bump_kind not in ("log", "loglog"):
            raise ConfigError(f"bump_kind must be 'log' or 'loglog'; got {self.bump_kind!r}")
        if not (type(self.bump_delta) in (int, float) and 0.0 < self.bump_delta < math.inf):
            raise ConfigError(f"bump_delta must be a finite number > 0; got {self.bump_delta!r}")
        # no cube meeting the box is coarser than level -J, so a cap below
        # it would scan nothing and report 0 for a constant that is >= 1
        fw = self.fw_max_level
        if not (fw is None or (type(fw) is int and fw >= -self.J)):
            raise ConfigError(f"fw_max_level must be an integer >= -J = {-self.J} or null; got {fw!r}")
        try:
            mesh = self.mesh()
            self.exps()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        for alpha in self.alphas:
            if type(alpha) not in (int, float):
                raise ConfigError(f"alphas must be numbers; got {alpha!r}")
            if not 0.0 < alpha < self.n:
                raise ConfigError(f"alphas entry {alpha} is outside (0, {self.n})")
        for name, alpha in (("alpha", self.alpha), *(("alphas entry", a) for a in self.alphas)):
            if 2.0**-alpha == 1.0:
                raise ConfigError(f"{name} {alpha!r} is too small: 2^-alpha rounds to 1, "
                                  f"so the domination constant is infinite")
        if any(type(pair) is not list or len(pair) != 2 for pair in self.pairs):
            raise ConfigError("every pairs entry must be [uSpec, sigmaSpec]")
        specs = [*self.weights, *(s for pair in self.pairs for s in pair)]
        for spec in specs:
            if not isinstance(spec, str):
                raise ConfigError(f"weight spec {spec!r} is not a string")
        try:
            return {spec: generate_weight(mesh, spec) for spec in dict.fromkeys(specs)}
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def validate_command(self, command: str) -> None:
        """Raise ConfigError unless the config gives ``command`` what it
        needs: constants a weight or a pair; sandwich, corona and norm build
        their family from the first random function, and so does verify for
        the weight pairs; exponent-fit needs every beta and its dual exponent
        above -n.  The dual exponent depends on p and q, so other commands do
        not test it."""
        if command == "constants" and not (self.weights or self.pairs):
            raise ConfigError("constants needs at least one weight or pair")
        needs_function = command in ("sandwich", "corona", "norm") or (
            command == "verify" and self.weight_pairs()
        )
        if needs_function and self.n_random_functions < 1:
            raise ConfigError(f"{command} needs at least one random function (n_random_functions >= 1)")
        if command == "exponent-fit":
            s_p = self.exps().s_p
            for beta in self.betas:
                # generate_weight's test of both power weights, u and its dual sigma
                if not (beta > -self.n and -beta / (s_p - 1.0) > -self.n):
                    raise ConfigError(f"betas must be exponents of integrable power weights, "
                                      f"beta > -n and -beta/(s(p)-1) > -n; got {beta!r}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def echo(self) -> dict:
        """Config as embedded in output files: everything that affects the
        results (output location and the reserved ``jobs`` field
        deliberately excluded, so reruns stay byte-identical)."""
        d = self.to_dict()
        d.pop("out")
        d.pop("jobs")
        return d

    def mesh(self) -> Mesh:
        """The run's mesh, kept while (n, J, L, T) stay, so validate's weights share it."""
        key = (self.n, self.J, self.L, self.T)
        if getattr(self, "_mesh", (None,))[0] != key:
            self._mesh = (key, Mesh(self.n, self.J, self.L, coarse_padding=self.T))
        return self._mesh[1]

    def exps(self) -> ExponentTuple:
        return ExponentTuple(self.n, self.alpha, self.p, self.q)

    def weight_pairs(self) -> list:
        if self.pairs:
            return [tuple(p) for p in self.pairs]
        specs = self.weights
        return [(specs[i], specs[(i + 1) % len(specs)]) for i in range(len(specs))]

    def random_functions(self, mesh: Mesh) -> list:
        rng = np.random.default_rng(self.seed)
        shape = (mesh.cells_per_axis,) * mesh.n
        return [
            (f"lognormal-{i}", StepFunction(mesh, np.exp(rng.standard_normal(shape))))
            for i in range(self.n_random_functions)
        ]


def _json_default(obj):
    if isinstance(obj, DyadicCube):
        return [list(obj.shift), obj.level, list(obj.coord)]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, StepFunction):
        return None  # witnesses are summarized, not dumped
    raise TypeError(f"not serializable: {type(obj)}")


def _write_json(path: pathlib.Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True, default=_json_default) + "\n")


def _write_csv(path: pathlib.Path, header: list, rows: list) -> None:
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _warn_parentless(mesh: Mesh) -> None:
    """One stderr line if the coarsest level of some shifted grid holds more
    than one cube (as without coarse padding): those cubes have no parent to
    bound their averages, so the families built there may fail the sparsity
    certificate."""
    if any(mesh.level_table(s).single == 0 for s in mesh.shifts()):
        print("warning: the coarsest cubes of a shifted grid have no parent (no coarse "
              "padding); sparse families there may fail the sparsity certificate",
              file=sys.stderr)


def _report(v: float):
    return None if not math.isfinite(v) else v


# ---------------------------------------------------------------------------
# Subcommands


def cmd_constants(cfg: ExperimentConfig, outdir: pathlib.Path, weights: dict) -> int:
    exps = cfg.exps()
    rows = []
    records = []
    finite_seen = False
    pairs = cfg.weight_pairs()
    specs = list(dict.fromkeys(cfg.weights))
    fw = dict(zip(specs, fujii_wilsons([weights[spec] for spec in specs], max_level=cfg.fw_max_level)))
    for spec in cfg.weights:
        w = weights[spec]
        entries = [
            ("A_p(s(p))", ap_constant(w, exps.s_p)),
            ("A_inf_exp", ainfty_exp(w)),
            ("FujiiWilson", fw[spec]),
        ]
        for name, rep in entries:
            finite_seen |= math.isfinite(rep.value)
            rows.append([spec, name, rep.value])
            records.append({"weight": spec, "constant": name, "value": _report(rep.value),
                            "witness": rep.witness, "corpusSize": rep.corpus_size})
    for uspec, sspec in pairs:
        rep = two_weight_ap(weights[uspec], weights[sspec], exps.s_p)
        finite_seen |= math.isfinite(rep.value)
        rows.append([f"{uspec}|{sspec}", "twoWeightA_s(p)", rep.value])
        records.append({"weight": f"{uspec}|{sspec}", "constant": "twoWeightA_s(p)",
                        "value": _report(rep.value), "witness": rep.witness,
                        "corpusSize": rep.corpus_size})
    _write_json(outdir / "constants.json", {"config": cfg.echo(), "records": records})
    _write_csv(outdir / "constants.csv", ["weight", "constant", "value"], rows)
    return 0 if finite_seen else 3


def _families(cfg: ExperimentConfig, mesh: Mesh, functions: list):
    """Each (function, shift) sparse family of ``verify`` and ``sparse``, with
    its certificate, built once for all alphas, in function and shift order:
    the family depends on f and the grid alone, and alpha enters only through
    the domination constant and the operators.  Nothing is built without
    alphas."""
    if not cfg.alphas:
        return
    for i, (fname, f) in enumerate(functions):
        for shift in mesh.shifts():
            S = build_sparse(f, shift, cfg.alphas[0])[0]
            yield i, fname, f, shift, S, verify_sparse(S)


def cmd_verify(cfg: ExperimentConfig, outdir: pathlib.Path, weights: dict) -> int:
    mesh = cfg.mesh()
    exps = cfg.exps()
    failures = []
    checks = 0
    functions = cfg.random_functions(mesh)
    if not functions and not cfg.weight_pairs():
        _write_json(outdir / "verify.json", {"config": cfg.echo(), "checks": 0,
                                             "failures": [], "warning": "empty config; nothing verified"})
        print("verify: nothing to do (empty config)")
        return 0

    aligned = (0,) * mesh.n
    pair_family = None  # the weight pairs below use the first function's family on shift 0
    ks = range(1, 13)
    for i, fname, f, shift, S, cert in _families(cfg, mesh, functions):
        if i == 0 and shift == aligned:
            pair_family = S
        overlaps = [(root, k, overlap.exact_le_bound) for root in map(S.cube, range(min(2, len(S))))
                    for k, overlap in zip(ks, _overlap_reports(S, root, ks))]
        for alpha, dy, sp in zip(cfg.alphas, dyadic_rieszs(f, cfg.alphas, shift), sparse_rieszs(f, cfg.alphas, S)):
            checks += 1
            if not cert.ok:
                failures.append({"check": "sparsity", "instance": [fname, list(shift), alpha],
                                 "witness": cert.violating_cube})
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
    if pairs and pair_family is None:
        pair_family = build_sparse(functions[0][1], aligned, cfg.alpha)[0]
    cds = corona_decomposes(pair_family, pair_family.cube(0), [(weights[u], weights[s]) for u, s in pairs],
                            exps) if pairs else []
    for (uspec, sspec), cd in zip(pairs, cds):
        checks += 1
        if isinstance(cd, AssertionError):
            failures.append({"check": "corona", "instance": [uspec, sspec], "witness": str(cd)})
    _write_json(outdir / "verify.json", {"config": cfg.echo(), "checks": checks,
                                         "failures": failures})
    _warn_parentless(mesh)
    status = "PASS" if not failures else "FAIL"
    print(f"verify: {checks} checks, {len(failures)} failures [{status}]")
    return 0 if not failures else 1


def cmd_sparse(cfg: ExperimentConfig, outdir: pathlib.Path, weights: dict) -> int:
    mesh = cfg.mesh()
    results = []
    for _, fname, f, shift, S, cert in _families(cfg, mesh, cfg.random_functions(mesh)):
        family = S.to_jsonable()
        for alpha, dy, sp in zip(cfg.alphas, dyadic_rieszs(f, cfg.alphas, shift), sparse_rieszs(f, cfg.alphas, S)):
            rep = compare_pointwise(dy, sp)
            results.append({
                "index": len(results), "function": fname, "shift": list(shift), "alpha": alpha,
                "size": len(S), "dominationConstant": domination_constant(mesh.n, alpha),
                "worstUnionRatio": cert.worst_union_ratio, "sparsityOk": cert.ok,
                "maxDominationRatio": rep.max_ratio, "family": family,
            })
    rows = [[r["index"], r["function"], r["alpha"], r["size"], r["sparsityOk"],
             r["worstUnionRatio"], r["maxDominationRatio"]] for r in results]
    for r in results:
        _write_json(outdir / f"sparse-{r['index']:03d}.json", r)
    _write_csv(outdir / "sparse-summary.csv",
               ["index", "function", "alpha", "size", "ok", "worstUnionRatio", "maxDominationRatio"], rows)
    _warn_parentless(mesh)
    return 0 if all(r["sparsityOk"] for r in results) else 1


def cmd_corona(cfg: ExperimentConfig, outdir: pathlib.Path, weights: dict) -> int:
    mesh = cfg.mesh()
    exps = cfg.exps()
    cal = load_calibration()
    functions = cfg.random_functions(mesh)
    fname, f = functions[0]
    S, _ = build_sparse(f, (0,) * mesh.n, cfg.alpha)
    root = S.cubes[0]
    rows = []
    records = []
    ok = True
    pairs = cfg.weight_pairs()
    cds = corona_decomposes(S, root, [(weights[u], weights[s]) for u, s in pairs], exps)
    for idx, ((uspec, sspec), cd) in enumerate(zip(pairs, cds)):
        if isinstance(cd, AssertionError):
            raise cd
        dec = sigma_decay_check(cd, weights[sspec])
        envelope = cal["sigma_decay_c1_max"] * SLACK
        # exact c=1 decay against the frozen envelope constant
        decay_ok = all(r.ratio <= 2.0**-r.k * max(envelope, 1.0) + 1e-12 for r in dec.rows if r.k >= 1)
        ok &= decay_ok
        records.append({
            "index": idx, "u": uspec, "sigma": sspec, "family": fname,
            "slices": {str(a): len(qs) for a, qs in cd.slices.items()},
            "skipped": cd.skipped, "gamma": cd.gamma, "certified": cd.certified,
            "decayWorstScaled": dec.worst_scaled, "decayFittedRate": _report(dec.fitted_rate),
            "decayReportedExponent": dec.reported_exponent, "decayOk": decay_ok,
        })
        for r in dec.rows:
            rows.append([idx, r.a, r.b, r.P.level, r.k, r.ratio])
        _write_json(outdir / f"corona-{idx:03d}.json", records[-1])
    _write_csv(outdir / "corona-decay.csv", ["pair", "a", "b", "Plevel", "k", "ratio"], rows)
    _write_json(outdir / "corona.json", {"config": cfg.echo(), "records": records})
    return 0 if ok else 1


def cmd_norm(cfg: ExperimentConfig, outdir: pathlib.Path, weights: dict) -> int:
    mesh = cfg.mesh()
    exps = cfg.exps()
    fname, f = cfg.random_functions(mesh)[0]
    S, _ = build_sparse(f, (0,) * mesh.n, cfg.alpha)
    specs = cfg.weight_pairs()
    pairs = [(weights[us], weights[ss]) for us, ss in specs]
    testings = dyadic_testings(pairs, exps, S)
    strongs = strong_norm_lowers(pairs, exps, S, rng_seed=cfg.seed)
    weaks = weak_norm_lowers(pairs, exps, S, strongs, rng_seed=cfg.seed)
    results = [{"index": i, "u": us, "sigma": ss, "family": fname, "testing": testing.to_jsonable(),
                "strong": strong.to_jsonable(), "weak": weak.to_jsonable()}
               for i, ((us, ss), testing, strong, weak) in enumerate(zip(specs, testings, strongs, weaks))]
    for r in results:
        _write_json(outdir / f"norm-{r['index']:03d}.json", r)
    _write_csv(outdir / "norm-summary.csv",
               ["index", "u", "sigma", "direct", "dual", "strong", "weak"],
               [[r["index"], r["u"], r["sigma"], r["testing"]["direct"], r["testing"]["dual"],
                 r["strong"]["value"], r["weak"]["value"]] for r in results])
    return 0


def cmd_sandwich(cfg: ExperimentConfig, outdir: pathlib.Path, weights: dict) -> int:
    mesh = cfg.mesh()
    exps = cfg.exps()
    cal = load_calibration()
    fname, f = cfg.random_functions(mesh)[0]
    S, _ = build_sparse(f, (0,) * mesh.n, cfg.alpha)
    specs = cfg.weight_pairs()
    pairs = [(weights[us], weights[ss]) for us, ss in specs]
    sws = lsut_sandwiches(pairs, exps, S, rng_seed=cfg.seed)
    items = [(u, s, sw.testing) for (u, s), sw in zip(pairs, sws)]
    thm31 = thm31_bound_checks(items, exps, cfg.fw_max_level) if exps.sobolev else None
    refused = None
    try:
        thm41 = thm41_bound_checks(items, exps, cfg.bump_kind, cfg.bump_delta)
    except RangeConditionError as exc:
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
            checks["r2Envelope"] = (cal["lsut_r2_min"] / SLACK <= sw.r2 <= cal["lsut_r2_max"] * SLACK)
        if thm31 is not None:
            dual31, direct31 = thm31[idx]
            rec["thm31"] = {"dual": dual31.to_jsonable(), "direct": direct31.to_jsonable()}
            for r in (dual31, direct31):
                if r.ratio is not None:
                    checks.setdefault("thm31Envelope", True)
                    checks["thm31Envelope"] &= r.ratio <= cal["thm31_ratio_max"] * SLACK
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
                    checks["thm41Envelope"] &= r.ratio <= cal[key] * SLACK
        rec["checks"] = checks
        bad = [k for k, v in checks.items() if not v]
        failures += len(bad)
        records.append(rec)
        rows.append([idx, uspec, sspec, rec["r1"], rec["r2"], ";".join(bad) or "ok"])
        _write_json(outdir / f"sandwich-{idx:03d}.json", rec)
    _write_csv(outdir / "sandwich-summary.csv", ["index", "u", "sigma", "r1", "r2", "verdict"], rows)
    _write_json(outdir / "sandwich.json", {"config": cfg.echo(), "records": records})
    print(f"sandwich: {len(records)} pairs, {failures} envelope failures")
    return 0 if failures == 0 else 1


def cmd_exponent_fit(cfg: ExperimentConfig, outdir: pathlib.Path, weights: dict) -> int:
    """Fit log(weak norm estimate) against log of the two-weight
    characteristic over a power-weight ladder u = |x-c|^beta with the
    matched dual weight sigma = u^{1-s'} = |x-c|^{-beta/(s(p)-1)}; the
    slope is reported next to 1 - alpha/n without being asserted."""
    mesh = cfg.mesh()
    exps = cfg.exps()
    xs, ys, rows = [], [], []
    for beta in cfg.betas:
        u = generate_weight(mesh, f"power:beta={beta}")
        s = generate_weight(mesh, f"power:beta={-beta / (exps.s_p - 1.0)}")
        char = two_weight_ap(u, s, exps.s_p).value
        if not math.isfinite(char) or char <= 0.0:
            rows.append([beta, None, None])
            continue
        S, _ = build_sparse(s, (0,) * mesh.n, cfg.alpha)
        strong = strong_norm_lower(u, s, exps, S, rng_seed=cfg.seed)
        est = weak_norm_lower(u, s, exps, S, strong, rng_seed=cfg.seed)
        rows.append([beta, char, est.value])
        if est.value > 0.0:
            xs.append(math.log(char))
            ys.append(math.log(est.value))
    _write_csv(outdir / "exponent-fit.csv", ["beta", "characteristic", "weakNorm"], rows)
    if len(set(xs)) < 2:
        record = {"config": cfg.echo(), "slope": None, "skip": "fewer than two distinct points"}
    else:
        slope = float(np.polyfit(xs, ys, 1)[0])
        record = {"config": cfg.echo(), "slope": slope,
                  "referenceExponent": 1.0 - exps.alpha / exps.n,
                  "note": "slope reported, not asserted"}
    _write_json(outdir / "exponent-fit.json", record)
    print("exponent-fit:", record.get("slope"), "reference:", record.get("referenceExponent"))
    return 0


#: Each command takes the config, the output directory and the weights that
#: ``validate`` made, by spec, so that a run generates each spec once.
_COMMANDS = {
    "constants": cmd_constants,
    "verify": cmd_verify,
    "sandwich": cmd_sandwich,
    "sparse": cmd_sparse,
    "corona": cmd_corona,
    "norm": cmd_norm,
    "exponent-fit": cmd_exponent_fit,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rieszw",
        description="Dyadic/sparse Riesz potential experiment suites.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="JSON config file; flags override its fields")
    parser.add_argument("--seed", type=int, help="RNG seed for all corpora")
    parser.add_argument("--jobs", type=int, help="reserved; accepted and has no effect")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--mesh", help="mesh override, e.g. n=1,J=0,L=8,T=40")
    args = parser.parse_args(argv)
    try:
        cfg = ExperimentConfig.from_args(args)
        weights = cfg.validate()
        cfg.validate_command(args.command)
        outdir = pathlib.Path(cfg.out)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as exc:
            raise ConfigError(f"out {cfg.out!r} names a file or a path under one ({exc.strerror})") from exc
    except (ConfigError, TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return _COMMANDS[args.command](cfg, outdir, weights)


if __name__ == "__main__":
    sys.exit(main())
