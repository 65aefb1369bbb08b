"""Weight characteristics, exponent bookkeeping, and test-weight generators.

Every supremum is taken over the finite corpus of enumerated cubes of both
shifts that lie entirely inside the base box.  Restricting to in-box cubes
is what makes the constants match their continuum values for constant
weights: functions are extended by zero outside the box, so a straddling
cube would see artificial zeros and report a spurious (often infinite)
value.  This corpus is the definitional one for the whole artifact, so the
cross-identities between characteristics hold exactly on it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .mesh import DyadicCube, Mesh, StepFunction
from .orlicz import YoungFunction, _conjugate, luxemburg_norms

__all__ = [
    "ExponentTuple",
    "CharacteristicReport",
    "in_box_cubes",
    "ap_constant",
    "apq_constant",
    "two_weight_ap",
    "fujii_wilson",
    "ainfty_exp",
    "mixed_apq_alpha",
    "bump_constant",
    "range_conditions",
    "generate_weight",
    "parse_weight_spec",
]


@dataclass(frozen=True)
class ExponentTuple:
    """Exponent bookkeeping: dimension, order alpha, and the Lebesgue pair.

    s(p) = 1 + q/p' and its dual s(q') = 1 + p'/q = s(p)'; under the
    Sobolev relation 1/p - 1/q = alpha/n also s(p) = p(n-alpha)/(n-alpha*p).
    """

    n: int
    alpha: float
    p: float
    q: float

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError("n must be 1 or 2")
        if not 0.0 < self.alpha < self.n:
            raise ValueError("alpha must lie in (0, n)")
        if not 1.0 < self.p <= self.q:
            raise ValueError("need 1 < p <= q")
        if self.sobolev:
            sp_alt = self.p * (self.n - self.alpha) / (self.n - self.alpha * self.p)
            if abs(self.s_p - sp_alt) > 1e-12 * max(self.s_p, sp_alt):
                raise AssertionError("Sobolev form of s(p) disagrees")
            if abs(_conjugate(self.s_p) - self.s_qprime) > 1e-12 * self.s_qprime:
                raise AssertionError("s(p)' != s(q')")

    @property
    def p_prime(self) -> float:
        return _conjugate(self.p)

    @property
    def q_prime(self) -> float:
        return _conjugate(self.q)

    @property
    def s_p(self) -> float:
        return 1.0 + self.q / self.p_prime

    @property
    def s_qprime(self) -> float:
        return 1.0 + self.p_prime / self.q

    @property
    def sobolev(self) -> bool:
        return abs(1.0 / self.p - 1.0 / self.q - self.alpha / self.n) <= 1e-12

    @staticmethod
    def sobolev_pair(n: int, alpha: float, p: float) -> "ExponentTuple":
        """The (p, q) pair with 1/p - 1/q = alpha/n."""
        inv_q = 1.0 / p - alpha / n
        if inv_q <= 0.0:
            raise ValueError("Sobolev exponent q is not finite for this (p, alpha)")
        return ExponentTuple(n, alpha, p, 1.0 / inv_q)


@dataclass(frozen=True)
class CharacteristicReport:
    name: str
    value: float  # math.inf encodes the divergent verdict
    witness: DyadicCube | None
    corpus_size: int

    @property
    def finite(self) -> bool:
        return math.isfinite(self.value)


# ---------------------------------------------------------------------------
# Cube corpus


def in_box_cubes(
    mesh: Mesh, with_bounds: bool = False
) -> Iterator[tuple[DyadicCube, tuple, tuple]]:
    """All enumerated cubes of both shifts contained in the base box,
    coarse to fine, aligned shift first."""
    for shift in mesh.shifts():
        for level in mesh.levels():
            coords = mesh.level_cube_coords(shift, level)
            lo, hi = mesh.level_bounds3(shift, level)
            box3 = 3 * mesh.cells_per_axis
            keep = np.all(lo >= 0, axis=1) & np.all(hi <= box3, axis=1)
            for i in np.flatnonzero(keep):
                cube = DyadicCube(shift, level, tuple(int(c) for c in coords[i]))
                if with_bounds:
                    yield cube, tuple(lo[i]), tuple(hi[i])
                else:
                    yield cube


def _scan_levels(mesh: Mesh):
    """Per (shift, level): in-box cube coords and thirds-bounds arrays."""
    box3 = 3 * mesh.cells_per_axis
    for shift in mesh.shifts():
        for level in mesh.levels():
            coords = mesh.level_cube_coords(shift, level)
            lo, hi = mesh.level_bounds3(shift, level)
            keep = np.all(lo >= 0, axis=1) & np.all(hi <= box3, axis=1)
            if not keep.any():
                continue
            yield shift, level, coords[keep], lo[keep], hi[keep]


def _supremum_report(
    name: str, mesh: Mesh, per_level: Callable[[tuple, int, np.ndarray, np.ndarray], np.ndarray]
) -> CharacteristicReport:
    """Generic max-reduction over the in-box corpus.  ``per_level`` maps
    (shift, level, lo, hi) to the per-cube values (may contain inf)."""
    best = -math.inf
    witness = None
    count = 0
    for shift, level, coords, lo, hi in _scan_levels(mesh):
        vals = per_level(shift, level, lo, hi)
        count += len(vals)
        i = int(np.argmax(vals))
        if vals[i] > best:
            best = float(vals[i])
            witness = DyadicCube(shift, level, tuple(int(c) for c in coords[i]))
    if count == 0:
        return CharacteristicReport(name, 0.0, None, 0)
    return CharacteristicReport(name, best, witness, count)


# ---------------------------------------------------------------------------
# Characteristics


def _avg(f: StepFunction, lo, hi, level: int) -> np.ndarray:
    return f.integral_box3(lo, hi) / 2.0 ** (-level * f.mesh.n)


def ap_constant(w: StepFunction, p: float) -> CharacteristicReport:
    """[w]_{A_p} = sup_Q (avg_Q w) (avg_Q w^{1-p'})^{p-1}.

    Cubes where w vanishes on some cell but not all report +inf."""
    if p <= 1.0:
        raise ValueError("need p > 1")
    pp = _conjugate(p)
    pos = w.values > 0.0
    dual = StepFunction(w.mesh, np.where(pos, w.values, 1.0) ** (1.0 - pp) * pos)
    zeros = StepFunction(w.mesh, (~pos).astype(np.float64))

    def per_level(shift, level, lo, hi):
        a = _avg(w, lo, hi, level)
        b = _avg(dual, lo, hi, level)
        z = zeros.integral_box3(lo, hi)
        vals = a * b ** (p - 1.0)
        return np.where((z > 0.0) & (a > 0.0), math.inf, vals)

    return _supremum_report(f"A_{p:g}", w.mesh, per_level)


def apq_constant(w: StepFunction, p: float, q: float) -> CharacteristicReport:
    """[w]_{A_{p,q}} = sup_Q (avg_Q w^q)^{1/q} (avg_Q w^{-p'})^{1/p'}."""
    if not 1.0 < p <= q:
        raise ValueError("need 1 < p <= q")
    pp = _conjugate(p)
    pos = w.values > 0.0
    wq = w.map(lambda v: v**q)
    dual = StepFunction(w.mesh, np.where(pos, w.values, 1.0) ** (-pp) * pos)
    zeros = StepFunction(w.mesh, (~pos).astype(np.float64))

    def per_level(shift, level, lo, hi):
        a = _avg(wq, lo, hi, level)
        b = _avg(dual, lo, hi, level)
        z = zeros.integral_box3(lo, hi)
        vals = a ** (1.0 / q) * b ** (1.0 / pp)
        return np.where((z > 0.0) & (a > 0.0), math.inf, vals)

    return _supremum_report(f"A_{p:g},{q:g}", w.mesh, per_level)


def two_weight_ap(u: StepFunction, sigma: StepFunction, r: float) -> CharacteristicReport:
    """[u, sigma]_{A_r} = sup_Q (avg_Q u)(avg_Q sigma)^{r-1}."""
    if r <= 1.0:
        raise ValueError("need r > 1")

    def per_level(shift, level, lo, hi):
        return _avg(u, lo, hi, level) * _avg(sigma, lo, hi, level) ** (r - 1.0)

    return _supremum_report(f"two-weight A_{r:g}", u.mesh, per_level)


def ainfty_exp(w: StepFunction) -> CharacteristicReport:
    """Exp-log A_infty: sup_Q exp(avg_Q -log w) * (avg_Q w)."""
    if np.any(w.values <= 0.0):
        return CharacteristicReport("A_inf (exp-log)", math.inf, None, 0)
    # -log w may be negative; shift to keep the StepFunction nonnegative
    shift_c = float(np.max(np.log(w.values))) + 1.0
    shifted = StepFunction(w.mesh, -np.log(w.values) + shift_c)

    def per_level(shift, level, lo, hi):
        a = _avg(w, lo, hi, level)
        m = _avg(shifted, lo, hi, level) - shift_c
        return np.exp(m) * a

    return _supremum_report("A_inf (exp-log)", w.mesh, per_level)


def fujii_wilson(w: StepFunction, max_level: int | None = None) -> CharacteristicReport:
    """Fujii-Wilson A_infty': sup_Q (1/w(Q)) * int_Q M(chi_Q w), with M the
    two-shift dyadic maximal function (a constant-factor proxy for the full
    maximal operator).  chi_Q is realized on cells by center membership.
    Cubes with w(Q) = 0 are skipped.  ``max_level`` optionally caps how fine
    the scanned Q go (the inner maximal pass is O(cells * levels) per Q)."""
    from .operators import hl_maximal  # local import to avoid a cycle

    mesh = w.mesh
    best, witness, count = -math.inf, None, 0
    for cube, lo, hi in in_box_cubes(mesh, with_bounds=True):
        if max_level is not None and cube.level > max_level:
            continue
        wq = w.cube_integral(cube)
        if wq <= 0.0:
            continue
        count += 1
        mask = _center_mask(mesh, lo, hi)
        localized = StepFunction(mesh, w.values * mask)
        mloc = hl_maximal(localized)
        val = float(np.sum(mloc.values * mask)) * mesh.cell_volume / wq
        if val > best:
            best, witness = val, cube
    if count == 0:
        return CharacteristicReport("A_inf' (Fujii-Wilson)", 0.0, None, 0)
    return CharacteristicReport("A_inf' (Fujii-Wilson)", best, witness, count)


def _center_mask(mesh: Mesh, lo3, hi3) -> np.ndarray:
    mask = np.zeros((mesh.cells_per_axis,) * mesh.n)
    mask[mesh.center_slices(lo3, hi3)] = 1.0
    return mask


def mixed_apq_alpha(
    u: StepFunction, sigma: StepFunction, exps: ExponentTuple
) -> CharacteristicReport:
    """sup_Q |Q|^{alpha/n + 1/q - 1/p} (avg_Q u)^{1/q} (avg_Q sigma)^{1/p'}."""
    e = exps.alpha / exps.n + 1.0 / exps.q - 1.0 / exps.p

    def per_level(shift, level, lo, hi):
        size = 2.0 ** (-level * exps.n)
        a = _avg(u, lo, hi, level)
        b = _avg(sigma, lo, hi, level)
        return size**e * a ** (1.0 / exps.q) * b ** (1.0 / exps.p_prime)

    return _supremum_report("mixed A_pq^alpha", u.mesh, per_level)


def bump_constant(
    u: StepFunction,
    sigma: StepFunction,
    exps: ExponentTuple,
    phi: YoungFunction,
    psi: YoungFunction,
) -> CharacteristicReport:
    """sup_Q |Q|^{alpha/n + 1/q - 1/p} ||u^{1/q}||_{Phi,Q} ||sigma^{1/p'}||_{Psi,Q}.

    Psi = Power(p') recovers the separated (weak-type) bump form."""
    e = exps.alpha / exps.n + 1.0 / exps.q - 1.0 / exps.p
    uroot = u.map(lambda v: v ** (1.0 / exps.q))
    sroot = sigma.map(lambda v: v ** (1.0 / exps.p_prime))
    mesh = u.mesh
    best, witness, count = -math.inf, None, 0
    for shift, level, coords, lo, hi in _scan_levels(mesh):
        cubes = [DyadicCube(shift, level, tuple(int(c) for c in coords[i])) for i in range(len(coords))]
        nu = luxemburg_norms(uroot, cubes, phi)
        ns = luxemburg_norms(sroot, cubes, psi)
        vals = (2.0 ** (-level * exps.n)) ** e * nu * ns
        count += len(vals)
        i = int(np.argmax(vals))
        if vals[i] > best:
            best, witness = float(vals[i]), cubes[i]
    if count == 0:
        return CharacteristicReport("bump", 0.0, None, 0)
    return CharacteristicReport("bump", best, witness, count)


@dataclass(frozen=True)
class RangeFlags:
    weak: bool  # (p'/q') (1 - alpha/n) >= 1
    strong: bool  # min(q/p, p'/q') (1 - alpha/n) >= 1


def range_conditions(exps: ExponentTuple) -> RangeFlags:
    factor = 1.0 - exps.alpha / exps.n
    ratio = exps.p_prime / exps.q_prime
    return RangeFlags(
        weak=ratio * factor >= 1.0,
        strong=min(exps.q / exps.p, ratio) * factor >= 1.0,
    )


# ---------------------------------------------------------------------------
# Weight generation

_SPEC_RE = re.compile(r"^(\w+)(?::(.*))?$")


def parse_weight_spec(spec: str) -> tuple[str, dict[str, str]]:
    m = _SPEC_RE.match(spec.strip())
    if not m:
        raise ValueError(f"bad weight spec {spec!r}")
    kind = m.group(1).lower()
    params: dict[str, str] = {}
    if m.group(2):
        for part in m.group(2).split(","):
            k, _, v = part.partition("=")
            if not k or not v:
                raise ValueError(f"bad weight spec parameter {part!r} in {spec!r}")
            params[k.strip()] = v.strip()
    return kind, params


def generate_weight(mesh: Mesh, spec: str) -> StepFunction:
    """Build a strictly positive weight from a spec string.

    Grammar (one kind, comma-separated key=value parameters):
      constant:c=1
      twovalue:a=2,b=1,split=0.5
      power:center=0.5,beta=0.3,floor=auto     (floor=auto means one cell)
      martingale:seed=42,vol=0.3               (multiplicative dyadic cascade)
      checkerboard:levels=3,ratio=4
    """
    kind, params = parse_weight_spec(spec)
    N = mesh.cells_per_axis
    h = mesh.cell_width
    if kind == "constant":
        c = float(params.get("c", "1"))
        if c <= 0.0:
            raise ValueError("constant weight must be positive")
        return StepFunction.constant(mesh, c)
    if kind == "twovalue":
        a = float(params.get("a", "2"))
        b = float(params.get("b", "1"))
        split = float(params.get("split", "0.5"))
        if a <= 0.0 or b <= 0.0:
            raise ValueError("twovalue needs positive values")
        axis = (np.arange(N) + 0.5) * h
        line = np.where(axis < split * mesh.box_side, a, b)
        vals = line if mesh.n == 1 else np.broadcast_to(line[:, None], (N, N)).copy()
        return StepFunction(mesh, vals)
    if kind == "power":
        beta = float(params.get("beta", "0.3"))
        if beta <= -mesh.n:
            raise ValueError("beta <= -n is non-integrable")
        floor_s = params.get("floor", "auto")
        floor = h if floor_s == "auto" else float(floor_s)
        if floor <= 0.0:
            raise ValueError("floor must be positive")
        if mesh.n == 1:
            center = float(params.get("center", "0.5"))
            axis = (np.arange(N) + 0.5) * h
            d = np.maximum(np.abs(axis - center), floor)
        else:
            cx, cy = (float(v) for v in params.get("center", "0.5x0.5").split("x"))
            axis = (np.arange(N) + 0.5) * h
            d = np.maximum(np.hypot(axis[:, None] - cx, axis[None, :] - cy), floor)
        return StepFunction(mesh, d**beta)
    if kind == "martingale":
        seed = int(params.get("seed", "0"))
        vol = float(params.get("vol", "0.3"))
        rng = np.random.default_rng(seed)
        vals = np.ones((N,) * mesh.n)
        size = N
        while size > 1:
            size //= 2
            if mesh.n == 1:
                factors = np.exp(vol * rng.standard_normal(N // size))
                vals *= np.repeat(factors, size)
            else:
                k = N // size
                factors = np.exp(vol * rng.standard_normal((k, k)))
                vals *= np.repeat(np.repeat(factors, size, axis=0), size, axis=1)
        return StepFunction(mesh, vals)
    if kind == "checkerboard":
        levels = int(params.get("levels", "2"))
        ratio = float(params.get("ratio", "4"))
        if ratio <= 0.0:
            raise ValueError("ratio must be positive")
        blocks = 1 << levels
        if blocks > N:
            raise ValueError("checkerboard finer than the mesh")
        size = N // blocks
        idx = np.arange(N) // size
        if mesh.n == 1:
            parity = idx % 2
        else:
            parity = (idx[:, None] + idx[None, :]) % 2
        return StepFunction(mesh, np.where(parity == 0, 1.0, ratio))
    raise ValueError(f"unknown weight kind {kind!r}")
