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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .calibration import SLACK, load_calibration
from .mesh import DyadicCube, Mesh, StepFunction
from .normest import (
    RangeConditionError,
    dyadic_testing,
    lsut_sandwich,
    strong_norm_lower,
    thm31_bound_check,
    thm41_bound_check,
    weak_norm_lower,
)
from .operators import KernelMode, compare_pointwise, dyadic_riesz, riesz_reference, sparse_riesz
from .sparse import (
    SparseFamily,
    build_sparse,
    corona_decompose,
    overlap_level_set,
    sigma_decay_check,
    verify_sparse,
)
from .weights import ExponentTuple, ap_constant, ainfty_exp, fujii_wilson, generate_weight, two_weight_ap

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
    jobs: int = 1
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
    fw_max_level: int = 3
    out: str = "rieszw-out"

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "ExperimentConfig":
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
        cfg.validate()
        return cfg

    def validate(self) -> None:
        """Raise ConfigError unless the mesh, the exponents, the seed, every
        alpha and every weight spec are valid."""
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative; got {self.seed}")
        try:
            mesh = self.mesh()
            self.exps()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        for alpha in self.alphas:
            if not 0.0 < alpha < self.n:
                raise ConfigError(f"alphas entry {alpha} is outside (0, {self.n})")
        if any(len(pair) != 2 for pair in self.pairs):
            raise ConfigError("every pairs entry must be [uSpec, sigmaSpec]")
        for spec in [*self.weights, *(s for pair in self.pairs for s in pair)]:
            if not isinstance(spec, str):
                raise ConfigError(f"weight spec {spec!r} is not a string")
            try:
                generate_weight(mesh, spec)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def echo(self) -> dict:
        """Config as embedded in output files: everything that affects the
        results (output location and parallelism deliberately excluded, so
        reruns stay byte-identical)."""
        d = self.to_dict()
        d.pop("out")
        d.pop("jobs")
        return d

    def mesh(self) -> Mesh:
        return Mesh(self.n, self.J, self.L, coarse_padding=self.T)

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


def _run_indexed(jobs: int, tasks: list):
    """Run tasks (callables) preserving order; parallel over threads when
    jobs > 1, merged deterministically by index."""
    if jobs <= 1:
        return [t() for t in tasks]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(t) for t in tasks]
        return [f.result() for f in futures]


def _report(v: float):
    return None if not math.isfinite(v) else v


# ---------------------------------------------------------------------------
# Subcommands


def cmd_constants(cfg: ExperimentConfig, outdir: pathlib.Path) -> int:
    mesh = cfg.mesh()
    exps = cfg.exps()
    rows = []
    records = []
    finite_seen = False
    for spec in cfg.weights:
        w = generate_weight(mesh, spec)
        entries = [
            ("A_p(s(p))", ap_constant(w, exps.s_p)),
            ("A_inf_exp", ainfty_exp(w)),
            ("FujiiWilson", fujii_wilson(w, max_level=cfg.fw_max_level)),
        ]
        for name, rep in entries:
            finite_seen |= math.isfinite(rep.value)
            rows.append([spec, name, rep.value])
            records.append({"weight": spec, "constant": name, "value": _report(rep.value),
                            "witness": rep.witness, "corpusSize": rep.corpus_size})
    for uspec, sspec in cfg.weight_pairs():
        u, s = generate_weight(mesh, uspec), generate_weight(mesh, sspec)
        rep = two_weight_ap(u, s, exps.s_p)
        finite_seen |= math.isfinite(rep.value)
        rows.append([f"{uspec}|{sspec}", "twoWeightA_s(p)", rep.value])
        records.append({"weight": f"{uspec}|{sspec}", "constant": "twoWeightA_s(p)",
                        "value": _report(rep.value), "witness": rep.witness,
                        "corpusSize": rep.corpus_size})
    _write_json(outdir / "constants.json", {"config": cfg.echo(), "records": records})
    _write_csv(outdir / "constants.csv", ["weight", "constant", "value"], rows)
    return 0 if finite_seen else 3


def cmd_verify(cfg: ExperimentConfig, outdir: pathlib.Path) -> int:
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

    for fname, f in functions:
        for shift in mesh.shifts():
            for alpha in cfg.alphas:
                S, C = build_sparse(f, shift, alpha)
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
                for root in S.cubes[:2]:
                    for k in range(1, 13):
                        checks += 1
                        if not overlap_level_set(S, root, k).exact_le_bound:
                            failures.append({"check": "overlap-bound",
                                             "instance": [fname, list(shift), alpha, k],
                                             "witness": root})
    for uspec, sspec in cfg.weight_pairs():
        u, s = generate_weight(mesh, uspec), generate_weight(mesh, sspec)
        fname, f = functions[0]
        S, _ = build_sparse(f, (0,) * mesh.n, cfg.alpha)
        checks += 1
        try:
            corona_decompose(S, S.cubes[0], u, s, exps)
        except AssertionError as exc:
            failures.append({"check": "corona", "instance": [uspec, sspec], "witness": str(exc)})
    _write_json(outdir / "verify.json", {"config": cfg.echo(), "checks": checks,
                                         "failures": failures})
    status = "PASS" if not failures else "FAIL"
    print(f"verify: {checks} checks, {len(failures)} failures [{status}]")
    return 0 if not failures else 1


def cmd_sparse(cfg: ExperimentConfig, outdir: pathlib.Path) -> int:
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

    tasks = []
    idx = 0
    for fname, f in functions:
        for shift in mesh.shifts():
            for alpha in cfg.alphas:
                tasks.append((lambda i=idx, fn=fname, ff=f, sh=shift, al=alpha: one(i, fn, ff, sh, al)))
                idx += 1
    results = _run_indexed(cfg.jobs, tasks)
    rows = [[r["index"], r["function"], r["alpha"], r["size"], r["sparsityOk"],
             r["worstUnionRatio"], r["maxDominationRatio"]] for r in results]
    for r in results:
        _write_json(outdir / f"sparse-{r['index']:03d}.json", r)
    _write_csv(outdir / "sparse-summary.csv",
               ["index", "function", "alpha", "size", "ok", "worstUnionRatio", "maxDominationRatio"], rows)
    return 0 if all(r["sparsityOk"] for r in results) else 1


def cmd_corona(cfg: ExperimentConfig, outdir: pathlib.Path) -> int:
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
    for idx, (uspec, sspec) in enumerate(cfg.weight_pairs()):
        u, s = generate_weight(mesh, uspec), generate_weight(mesh, sspec)
        cd = corona_decompose(S, root, u, s, exps)
        dec = sigma_decay_check(cd, s)
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


def cmd_norm(cfg: ExperimentConfig, outdir: pathlib.Path) -> int:
    mesh = cfg.mesh()
    exps = cfg.exps()
    fname, f = cfg.random_functions(mesh)[0]
    S, _ = build_sparse(f, (0,) * mesh.n, cfg.alpha)

    def one(idx, uspec, sspec):
        u, s = generate_weight(mesh, uspec), generate_weight(mesh, sspec)
        testing = dyadic_testing(u, s, exps, S)
        strong = strong_norm_lower(u, s, exps, S, rng_seed=cfg.seed)
        weak = weak_norm_lower(u, s, exps, S, rng_seed=cfg.seed)
        return {"index": idx, "u": uspec, "sigma": sspec, "family": fname,
                "testing": testing.to_jsonable(), "strong": strong.to_jsonable(),
                "weak": weak.to_jsonable()}

    tasks = [(lambda i=i, us=us, ss=ss: one(i, us, ss))
             for i, (us, ss) in enumerate(cfg.weight_pairs())]
    results = _run_indexed(cfg.jobs, tasks)
    for r in results:
        _write_json(outdir / f"norm-{r['index']:03d}.json", r)
    _write_csv(outdir / "norm-summary.csv",
               ["index", "u", "sigma", "direct", "dual", "strong", "weak"],
               [[r["index"], r["u"], r["sigma"], r["testing"]["direct"], r["testing"]["dual"],
                 r["strong"]["value"], r["weak"]["value"]] for r in results])
    return 0


def cmd_sandwich(cfg: ExperimentConfig, outdir: pathlib.Path) -> int:
    mesh = cfg.mesh()
    exps = cfg.exps()
    cal = load_calibration()
    fname, f = cfg.random_functions(mesh)[0]
    S, _ = build_sparse(f, (0,) * mesh.n, cfg.alpha)
    rows = []
    records = []
    failures = 0
    for idx, (uspec, sspec) in enumerate(cfg.weight_pairs()):
        u, s = generate_weight(mesh, uspec), generate_weight(mesh, sspec)
        sw = lsut_sandwich(u, s, exps, S, rng_seed=cfg.seed)
        rec = sw.to_jsonable()
        rec.update({"index": idx, "u": uspec, "sigma": sspec, "family": fname})
        checks = {"testingBelowNorm": sw.testing_below_norm,
                  "r1Ok": bool(sw.r1_ok) if sw.r1_ok is not None else True}
        if sw.r2 is not None:
            checks["r2Envelope"] = (cal["lsut_r2_min"] / SLACK <= sw.r2 <= cal["lsut_r2_max"] * SLACK)
        if exps.sobolev:
            dual31, direct31 = thm31_bound_check(u, s, exps, S, fw_max_level=cfg.fw_max_level)
            rec["thm31"] = {"dual": dual31.to_jsonable(), "direct": direct31.to_jsonable()}
            for r in (dual31, direct31):
                if r.ratio is not None:
                    checks.setdefault("thm31Envelope", True)
                    checks["thm31Envelope"] &= r.ratio <= cal["thm31_ratio_max"] * SLACK
        try:
            dual41, direct41 = thm41_bound_check(u, s, exps, S, cfg.bump_kind, cfg.bump_delta)
            rec["thm41"] = {"dual": dual41.to_jsonable(),
                            "direct": None if direct41 is None else direct41.to_jsonable()}
            key = f"thm41_{cfg.bump_kind}_ratio_max"
            for r in (dual41, direct41):
                if r is not None and r.ratio is not None:
                    checks.setdefault("thm41Envelope", True)
                    checks["thm41Envelope"] &= r.ratio <= cal[key] * SLACK
        except RangeConditionError as exc:
            rec["thm41"] = {"refused": str(exc)}
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


def cmd_exponent_fit(cfg: ExperimentConfig, outdir: pathlib.Path) -> int:
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
        est = weak_norm_lower(u, s, exps, S, rng_seed=cfg.seed)
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
    parser.add_argument("--jobs", type=int, help="experiment-level parallelism")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--mesh", help="mesh override, e.g. n=1,J=0,L=8,T=40")
    args = parser.parse_args(argv)
    try:
        cfg = ExperimentConfig.from_args(args)
    except (ConfigError, TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    outdir = pathlib.Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    return _COMMANDS[args.command](cfg, outdir)


if __name__ == "__main__":
    sys.exit(main())
