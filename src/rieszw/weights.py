"""Weight characteristics, exponent bookkeeping, and test-weight generators.

Every supremum is taken over the finite corpus of enumerated cubes of both
shifts that lie entirely inside the base box.  Restricting to in-box cubes
is what makes the constants match their continuum values for constant
weights: functions are extended by zero outside the box, so a straddling
cube would see artificial zeros and report a spurious (often infinite)
value.  This corpus is the definitional one for the whole artifact, so the
cross-identities between characteristics hold exactly on it.

The mesh keeps the corpus as one table (``Mesh.corpus``), and each
characteristic is one array pass over it rather than one pass per level;
the values, witnesses and counts equal those of a per-level scan.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .mesh import BoxPlan, DyadicCube, Mesh, StepFunction, _block_rows, _containing_coord
from .orlicz import YoungFunction, _conjugate, _luxemburg_blocks

__all__ = [
    "ExponentTuple",
    "CharacteristicReport",
    "ap_constant",
    "apq_constant",
    "two_weight_ap",
    "fujii_wilson",
    "fujii_wilsons",
    "ainfty_exp",
    "mixed_apq_alpha",
    "bump_constant",
    "bump_constants",
    "range_conditions",
    "generate_weight",
    "parse_weight_spec",
]


@dataclass(frozen=True)
class ExponentTuple:
    """Exponent bookkeeping: dimension, order alpha, and the Lebesgue pair.

    s(p) = 1 + q/p' and its dual s(q') = 1 + p'/q = s(p)'; under the
    Sobolev relation 1/p - 1/q = alpha/n also s(p) = p(n-alpha)/(n-alpha*p)
    = q(n-alpha)/n.
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
            # p(n-alpha)/(n-alpha*p) in the form q(n-alpha)/n (n - alpha*p = np/q),
            # which does not cancel near the q = inf edge
            sp_alt = self.q * (self.n - self.alpha) / self.n
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
#
# Each characteristic is one array pass over the mesh's in-box corpus
# (``Mesh.corpus``): one ``plan_integrals`` per function on the corpus plan
# the mesh keeps (``Mesh.corpus_plan``), so the corners of the corpus boxes
# are worked out once per mesh, not once per function, and the integrals
# once per function (``StepFunction._corpus_integrals``); per-level scalars
# (cube volumes, |Q|^e) as Python pow tables indexed by level.  Every step
# is elementwise, so the values equal a per-level scan's bit for bit.

def _per_cube(mesh: Mesh, table) -> np.ndarray:
    """A per-level table (entry ``k - coarsest_level``) spread over the corpus."""
    return np.asarray(table)[mesh.corpus.level - mesh.coarsest_level]


def _avg(f: StepFunction) -> np.ndarray:
    """avg_Q f for every corpus cube Q."""
    mesh = f.mesh
    return f._corpus_integrals() / _per_cube(mesh, mesh.level_factors(mesh.n))


def _supremum_report(name: str, mesh: Mesh, vals: np.ndarray) -> CharacteristicReport:
    """Max-reduction of per-cube values over the corpus (may contain inf).

    The witness is the first maximum in corpus order.  A (shift, level)
    segment holding a NaN is left out, as the per-level reduction left it
    out: its argmax is the NaN, which beats nothing."""
    c = mesh.corpus
    nan = np.isnan(vals)
    if nan.any():
        dropped = np.repeat(np.logical_or.reduceat(nan, c.starts), c.ends - c.starts)
        vals = np.where(dropped, -math.inf, vals)
    i = int(np.argmax(vals))
    if not vals[i] > -math.inf:
        return CharacteristicReport(name, -math.inf, None, len(vals))
    return CharacteristicReport(name, float(vals[i]), c.cube(i), len(vals))


# ---------------------------------------------------------------------------
# Characteristics


def _dual_averages(w: StepFunction, expo: float) -> tuple[np.ndarray, np.ndarray]:
    """(avg_Q w^expo, |Q n {w = 0}|) for every corpus cube Q, with w^expo
    read as 0 where w = 0."""
    pos = w.values > 0.0
    dual = StepFunction(w.mesh, np.where(pos, w.values, 1.0) ** expo * pos)
    zeros = StepFunction(w.mesh, (~pos).astype(np.float64))
    return _avg(dual), zeros.plan_integrals(w.mesh.corpus_plan)


def ap_constant(w: StepFunction, p: float) -> CharacteristicReport:
    """[w]_{A_p} = sup_Q (avg_Q w) (avg_Q w^{1-p'})^{p-1}.

    Cubes where w vanishes on some cell but not all report +inf."""
    if p <= 1.0:
        raise ValueError("need p > 1")
    a, (b, z) = _avg(w), _dual_averages(w, 1.0 - _conjugate(p))
    vals = np.where((z > 0.0) & (a > 0.0), math.inf, a * b ** (p - 1.0))
    return _supremum_report(f"A_{p:g}", w.mesh, vals)


def apq_constant(w: StepFunction, p: float, q: float) -> CharacteristicReport:
    """[w]_{A_{p,q}} = sup_Q (avg_Q w^q)^{1/q} (avg_Q w^{-p'})^{1/p'}."""
    if not 1.0 < p <= q:
        raise ValueError("need 1 < p <= q")
    pp = _conjugate(p)
    a, (b, z) = _avg(w.map(lambda v: v**q)), _dual_averages(w, -pp)
    vals = np.where((z > 0.0) & (a > 0.0), math.inf, a ** (1.0 / q) * b ** (1.0 / pp))
    return _supremum_report(f"A_{p:g},{q:g}", w.mesh, vals)


def two_weight_ap(u: StepFunction, sigma: StepFunction, r: float) -> CharacteristicReport:
    """[u, sigma]_{A_r} = sup_Q (avg_Q u)(avg_Q sigma)^{r-1}."""
    if r <= 1.0:
        raise ValueError("need r > 1")
    return _supremum_report(f"two-weight A_{r:g}", u.mesh, _avg(u) * _avg(sigma) ** (r - 1.0))


def ainfty_exp(w: StepFunction) -> CharacteristicReport:
    """Exp-log A_infty: sup_Q exp(avg_Q -log w) * (avg_Q w)."""
    if np.any(w.values <= 0.0):
        return CharacteristicReport("A_inf (exp-log)", math.inf, None, 0)
    # -log w may be negative; shift to keep the StepFunction nonnegative
    shift_c = float(np.max(np.log(w.values))) + 1.0
    shifted = StepFunction(w.mesh, -np.log(w.values) + shift_c)
    a = _avg(w)
    m = _avg(shifted) - shift_c
    return _supremum_report("A_inf (exp-log)", w.mesh, np.exp(m) * a)


def fujii_wilson(w: StepFunction, max_level: int | None = None) -> CharacteristicReport:
    """Fujii-Wilson A_infty': sup_Q (1/w(Q)) * int_Q M(chi_Q w), with M the
    two-shift dyadic maximal function (a constant-factor proxy for the full
    maximal operator).  chi_Q is realized on cells by center membership.
    Cubes with w(Q) = 0 are skipped.  ``max_level`` optionally caps how fine
    the scanned Q go.  This is ``fujii_wilsons`` of one weight."""
    return fujii_wilsons([w], max_level)[0]


def fujii_wilsons(ws: Sequence[StepFunction], max_level: int | None = None) -> list[CharacteristicReport]:
    """``fujii_wilson`` of each weight of ``ws`` (one mesh): one batch per
    corpus segment (shift, level k) over the centre windows of its cubes
    of positive w(Q), those of every weight stacked as rows, on one box
    layout that the batch builds (``_window_maximal_sums``).  A window has
    2^(L-k) cells per axis and its sweep starts at Q's level.  Each report
    equals that of one ``hl_maximal`` per cube."""
    if not ws:
        return []
    mesh = ws[0].mesh
    c = mesh.corpus
    values = np.stack([w.values.reshape(-1) for w in ws])
    # per scanned cube of positive w(Q): its weight, its corpus index and its value
    parts = [(np.zeros(0, dtype=np.int64),) * 2 + (np.zeros(0),)]
    for segment, (a, b) in enumerate(zip(c.starts.tolist(), c.ends.tolist())):
        if max_level is not None and c.segments[segment][1] > max_level:
            continue
        wq = np.stack([w._corpus_integrals()[a:b] for w in ws])
        which, rows = np.nonzero(wq > 0.0)
        if len(rows):
            sums = _window_maximal_sums(mesh, values, which, a + rows)
            parts.append((which, a + rows, sums * mesh.cell_volume / wq[which, rows]))
    which, picked, vals = (np.concatenate(x) for x in zip(*parts))
    # the first strict maximum in scan order; a NaN never improves on it
    vals = np.where(np.isnan(vals), -math.inf, vals)
    out = []
    for i in range(len(ws)):
        v, at = vals[which == i], picked[which == i]
        if not len(v):
            out.append(CharacteristicReport("A_inf' (Fujii-Wilson)", 0.0, None, 0))
            continue
        j = int(np.argmax(v))
        witness = c.cube(int(at[j])) if v[j] > -math.inf else None
        out.append(CharacteristicReport("A_inf' (Fujii-Wilson)", float(v[j]), witness, len(v)))
    return out


def _along(x: np.ndarray, axis: int, n: int) -> np.ndarray:
    """Values along one axis (the last of ``x``), shaped to broadcast into a
    window's (width,) * n."""
    return x.reshape(*x.shape[:-1], *(-1 if b == axis else 1 for b in range(n)))


def _window_maximal_sums(mesh: Mesh, values: np.ndarray, which: np.ndarray, at: np.ndarray) -> np.ndarray:
    """sum over the cells of M(chi_Q w), for each corpus cube Q at ``at``
    (all of one segment), with w the flat cell values ``values[which]`` of
    that row's weight, equal bit for bit to the full-frame sum of
    ``hl_maximal(w * mask_Q) * mask_Q``.  Rows are independent.

    * Only the centre window of Q matters, and w * chi_Q vanishes outside
      it, so the windows' prefix sums equal the full frame's there, and a
      corner outside the window may be clamped to its edge: beyond it the
      frame adds exact zeros.
    * Each sweep starts at Q's level k.  Q covers each window cell wholly,
      or by 2/3 of its width on a shifted axis, so a level-(k-1) cube of
      any grid (volume 2^n |Q|) averages at most (3/4)^n times Q's own
      value, which every window cell sees.  Every grid's
      ``Mesh.maximal_levels`` start is at most -J <= k.
    * The windows of a segment differ by multiples of 2^(L-k) cells, which
      maps every grid at level >= k onto itself, so one box layout, found
      over the first window with window-relative corners, serves every
      window, and each box is formed as ``integral_box3`` forms it.
    * Each window's maxima go into a zero full-frame row, so the row sum
      adds the terms of the full-frame sum in its order."""
    c = mesh.corpus
    n, N, L = mesh.n, mesh.cells_per_axis, mesh.finest_exponent
    level = int(c.level[at[0]])
    width = 1 << (L - level)
    steps = [(t, j) for t in mesh.shifts() for j in range(level, L + 1)]
    flags = np.array([t for t, _ in steps], dtype=np.int64)
    levels = np.array([j for _, j in steps], dtype=np.int64)
    scale = 1 << (L - levels)
    offset = (1 - 2 * (levels % 2))[:, None] * flags  # (steps, n) sign times shift flag
    # per axis and step, the coordinate of the cube over each cell of the
    # first window, (steps, width)
    i0 = mesh.center_window(c.lo3[at], c.hi3[at])[0]
    coord = [_containing_coord(i0[0, axis] + np.arange(width), flags[:, axis, None], levels[:, None], L)
             for axis in range(n)]
    # the boxes of a step run row-major over the cubes it meets per axis,
    # with corners relative to the window
    runs = np.stack([m[:, -1] - m[:, 0] + 1 for m in coord], axis=1)
    step, pos = mesh.window_cells(np.zeros_like(runs), runs)
    lo = [(3 * (m[step, 0] + pos[axis]) + offset[step, axis]) * scale[step] - 3 * i0[0, axis]
          for axis, m in enumerate(coord)]
    plan = BoxPlan(lo, [x + 3 * scale[step] for x in lo], (width,) * n)
    factor = np.array([2.0 ** (-j * n) for j in levels.tolist()])[step]
    # each window cell reads its cube's box, step by step: per axis, the
    # cube's place in the run times the step's row-major stride, plus the
    # step's first box
    boxes = runs.prod(axis=1)
    stride = np.cumprod(runs[:, ::-1], axis=1)[:, ::-1] // runs
    offsets = [(m - m[:, :1]) * stride[:, axis, None] for axis, m in enumerate(coord)]
    offsets[0] += (np.cumsum(boxes) - boxes)[:, None]
    cell_boxes = sum(_along(x, axis, n) for axis, x in enumerate(offsets))
    # the full-frame index of each window cell, row-major: its window's
    # first cell's plus its own relative to that
    within = np.ravel_multi_index(np.indices((width,) * n), (N,) * n).reshape(-1)
    flat = np.ravel_multi_index(tuple(i0.T), (N,) * n)[:, None] + within
    sums = np.empty(len(at))
    # a row counts the larger of its full frame and twice its box sums
    block = _block_rows(max(2 * len(factor), N**n))
    for a in range(0, len(at), block):
        index = flat[a : a + block]
        window = values[which[a : a + block, None], index].reshape(len(index), *plan.size)
        v = plan.sums(window)
        v = v * mesh.cell_volume / factor
        v = np.where(v > 0.0, v, 0.0)
        out = np.zeros(window.shape)
        for box in cell_boxes:
            np.maximum(out, v.take(box, axis=1), out=out)
        # each window's maxima in its own zero full-frame row
        frame = np.zeros((len(index), N**n))
        frame[np.arange(len(index))[:, None], index] = out.reshape(len(index), -1)
        sums[a : a + block] = np.sum(frame, axis=1)
    return sums


def _center_mask(mesh: Mesh, lo3, hi3) -> np.ndarray:
    """1.0 on the cells whose centre lies in the box [lo3, hi3) (thirds
    units, shape (..., n)), 0.0 elsewhere, with shape (..., N, ..., N): one
    frame per box."""
    i0, i1 = mesh.center_window(np.asarray(lo3), np.asarray(hi3))
    n, N = mesh.n, mesh.cells_per_axis
    cell = np.arange(N)
    mask = True
    for axis in range(n):
        inside = (cell >= i0[..., axis, None]) & (cell < i1[..., axis, None])
        mask = mask & inside.reshape(*i0.shape[:-1], *(N if a == axis else 1 for a in range(n)))
    return mask.astype(np.float64)


def _size_powers(mesh: Mesh, n: int, e: float) -> np.ndarray:
    """|Q|^e for every corpus cube Q, by Python pow per level."""
    return _per_cube(mesh, [v**e for v in mesh.level_factors(n).tolist()])


def mixed_apq_alpha(
    u: StepFunction, sigma: StepFunction, exps: ExponentTuple
) -> CharacteristicReport:
    """sup_Q |Q|^{alpha/n + 1/q - 1/p} (avg_Q u)^{1/q} (avg_Q sigma)^{1/p'}."""
    e = exps.alpha / exps.n + 1.0 / exps.q - 1.0 / exps.p
    a, b = _avg(u), _avg(sigma)
    vals = _size_powers(u.mesh, exps.n, e) * a ** (1.0 / exps.q) * b ** (1.0 / exps.p_prime)
    return _supremum_report("mixed A_pq^alpha", u.mesh, vals)


def bump_constant(
    u: StepFunction,
    sigma: StepFunction,
    exps: ExponentTuple,
    phi: YoungFunction,
    psi: YoungFunction,
) -> CharacteristicReport:
    """sup_Q |Q|^{alpha/n + 1/q - 1/p} ||u^{1/q}||_{Phi,Q} ||sigma^{1/p'}||_{Psi,Q}.

    Psi = Power(p') recovers the separated (weak-type) bump form."""
    return bump_constants([(u, sigma)], exps, [(phi, psi)])[0][0]


def bump_constants(
    weights: Sequence[tuple[StepFunction, StepFunction]],
    exps: ExponentTuple,
    pairs: Sequence[tuple[YoungFunction, YoungFunction]],
) -> list[list[CharacteristicReport]]:
    """``bump_constant`` of each (u, sigma) of ``weights`` (one mesh) under
    each (Phi, Psi) of ``pairs``: entry [i][j] is weights[i] under pairs[j].

    Every norm comes from one packed Luxemburg bisection over the corpus,
    one segment per corpus level (``orlicz._luxemburg_blocks``).  The
    blocks go by Young function: per (Phi, Psi), u^{1/q} under Phi for each
    distinct u object, then sigma^{1/p'} under Psi for each distinct sigma,
    so a bisection call holds at most four runs of Young functions whatever
    the number of weight pairs."""
    if not weights:
        return []
    e = exps.alpha / exps.n + 1.0 / exps.q - 1.0 / exps.p
    us, ss = ({w: i for i, w in enumerate(dict.fromkeys(side))} for side in zip(*weights))
    uroots = [u.map(lambda v: v ** (1.0 / exps.q)) for u in us]
    sroots = [sigma.map(lambda v: v ** (1.0 / exps.p_prime)) for sigma in ss]
    blocks = [(f, young) for phi, psi in pairs for young, side in ((phi, uroots), (psi, sroots)) for f in side]
    mesh = uroots[0].mesh
    c = mesh.corpus
    norms = _luxemburg_blocks(blocks, c.lo3, c.hi3, c.starts)
    size = _size_powers(mesh, exps.n, e)
    m = len(us) + len(ss)
    return [[_supremum_report("bump", mesh, size * norms[j * m + us[u]] * norms[j * m + len(us) + ss[sigma]])
             for j in range(len(pairs))] for u, sigma in weights]


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
            if k.strip() in params:
                raise ValueError(f"repeated weight spec parameter {k.strip()!r} in {spec!r}")
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

    A key the kind does not read, or a repeated key, is refused.
    """
    kind, params = parse_weight_spec(spec)
    keys = {"constant": {"c"}, "twovalue": {"a", "b", "split"}, "power": {"beta", "floor", "center"},
            "martingale": {"seed", "vol"}, "checkerboard": {"levels", "ratio"}}
    for k in params:
        if kind in keys and k not in keys[kind]:
            raise ValueError(f"unknown parameter {k!r} of weight kind {kind!r} in {spec!r}")

    def number(key: str, default: str, count: int = 1):
        """Parameter ``key`` (``default`` if absent) as a finite float, or
        as ``count`` finite floats joined by 'x'."""
        text = params.get(key, default)
        values = [float(v) for v in (text.split("x") if count > 1 else (text,))]
        if not all(map(math.isfinite, values)):
            raise ValueError(f"weight spec parameter {key}={text} is not finite in {spec!r}")
        return values if count > 1 else values[0]

    N = mesh.cells_per_axis
    h = mesh.cell_width
    if kind == "constant":
        c = number("c", "1")
        if c <= 0.0:
            raise ValueError("constant weight must be positive")
        return StepFunction.constant(mesh, c)
    if kind == "twovalue":
        a, b, split = number("a", "2"), number("b", "1"), number("split", "0.5")
        if a <= 0.0 or b <= 0.0:
            raise ValueError("twovalue needs positive values")
        axis = (np.arange(N) + 0.5) * h
        line = np.where(axis < split * mesh.box_side, a, b)
        vals = line if mesh.n == 1 else np.broadcast_to(line[:, None], (N, N)).copy()
        return StepFunction(mesh, vals)
    if kind == "power":
        beta = number("beta", "0.3")
        if beta <= -mesh.n:
            raise ValueError("beta <= -n is non-integrable")
        floor = h if params.get("floor", "auto") == "auto" else number("floor", "auto")
        if floor <= 0.0:
            raise ValueError("floor must be positive")
        axis = (np.arange(N) + 0.5) * h
        if mesh.n == 1:
            d = np.maximum(np.abs(axis - number("center", "0.5")), floor)
        else:
            cx, cy = number("center", "0.5x0.5", 2)
            d = np.maximum(np.hypot(axis[:, None] - cx, axis[None, :] - cy), floor)
        return StepFunction(mesh, d**beta)
    if kind == "martingale":
        seed = int(params.get("seed", "0"))
        vol = number("vol", "0.3")
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
        ratio = number("ratio", "4")
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
