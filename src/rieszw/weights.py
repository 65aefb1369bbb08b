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

import numpy as np

from .mesh import DyadicCube, Mesh, StepFunction, _box_sums, _containing_coord, _prefix_sums
from .orlicz import YoungFunction, _conjugate, luxemburg_norms

__all__ = [
    "ExponentTuple",
    "CharacteristicReport",
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
#
# Each characteristic is one array pass over the mesh's in-box corpus
# (``Mesh.corpus``): one ``integral_box3`` per function, per-level scalars
# (cube volumes, |Q|^e) as Python pow tables indexed by level.  Every step
# is elementwise, so the values equal a per-level scan's bit for bit.

#: Cells per Luxemburg batch in ``bump_constant``: consecutive levels share
#: one bisection up to this many cells, and a larger level runs alone.
#: Batching a whole large corpus at once was slower and took more memory.
_LUX_BATCH_CELLS = 1 << 12


def _per_cube(mesh: Mesh, table) -> np.ndarray:
    """A per-level table (entry ``k - coarsest_level``) spread over the corpus."""
    return np.asarray(table)[mesh.corpus.level - mesh.coarsest_level]


def _avg(f: StepFunction) -> np.ndarray:
    """avg_Q f for every corpus cube Q."""
    mesh = f.mesh
    c = mesh.corpus
    return f.integral_box3(c.lo3, c.hi3) / _per_cube(mesh, mesh.level_factors(mesh.n))


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


def ap_constant(w: StepFunction, p: float) -> CharacteristicReport:
    """[w]_{A_p} = sup_Q (avg_Q w) (avg_Q w^{1-p'})^{p-1}.

    Cubes where w vanishes on some cell but not all report +inf."""
    if p <= 1.0:
        raise ValueError("need p > 1")
    pp = _conjugate(p)
    pos = w.values > 0.0
    dual = StepFunction(w.mesh, np.where(pos, w.values, 1.0) ** (1.0 - pp) * pos)
    zeros = StepFunction(w.mesh, (~pos).astype(np.float64))
    a, b = _avg(w), _avg(dual)
    z = zeros.integral_box3(w.mesh.corpus.lo3, w.mesh.corpus.hi3)
    vals = np.where((z > 0.0) & (a > 0.0), math.inf, a * b ** (p - 1.0))
    return _supremum_report(f"A_{p:g}", w.mesh, vals)


def apq_constant(w: StepFunction, p: float, q: float) -> CharacteristicReport:
    """[w]_{A_{p,q}} = sup_Q (avg_Q w^q)^{1/q} (avg_Q w^{-p'})^{1/p'}."""
    if not 1.0 < p <= q:
        raise ValueError("need 1 < p <= q")
    pp = _conjugate(p)
    pos = w.values > 0.0
    wq = w.map(lambda v: v**q)
    dual = StepFunction(w.mesh, np.where(pos, w.values, 1.0) ** (-pp) * pos)
    zeros = StepFunction(w.mesh, (~pos).astype(np.float64))
    a, b = _avg(wq), _avg(dual)
    z = zeros.integral_box3(w.mesh.corpus.lo3, w.mesh.corpus.hi3)
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


#: Entries per block of stacked full frames (``fujii_wilson``'s final sums,
#: ``sawyer_testing``'s padded transforms, the indicator seeds): batches
#: this small hold the per-frame call overhead down without adding to the
#: peak memory of a run.
_FRAME_BLOCK = 1 << 12


def fujii_wilson(w: StepFunction, max_level: int | None = None) -> CharacteristicReport:
    """Fujii-Wilson A_infty': sup_Q (1/w(Q)) * int_Q M(chi_Q w), with M the
    two-shift dyadic maximal function (a constant-factor proxy for the full
    maximal operator).  chi_Q is realized on cells by center membership.
    Cubes with w(Q) = 0 are skipped.  ``max_level`` optionally caps how fine
    the scanned Q go.

    The scan runs one corpus segment (shift, level k) at a time, as one
    batch over the centre windows of its cubes (``_window_maximal_sums``).
    A window has 2^(L-k) cells per axis, and its maximal sweep starts at
    Q's own level, so a segment costs O(cells * (L - k + 1)) per sweep
    shift, plus one full-frame row per cube for the final sums.  The
    values, witness and count equal those of one ``hl_maximal`` on the full
    mesh per cube."""
    mesh = w.mesh
    c = mesh.corpus
    scan = np.flatnonzero(c.level <= max_level) if max_level is not None else np.arange(len(c.level))
    wq = np.zeros(len(c.level))
    wq[scan] = w.integral_box3(c.lo3[scan], c.hi3[scan])
    picked, vals = [], []
    for (_, level), a, b in zip(c.segments, c.starts.tolist(), c.ends.tolist()):
        cubes = a + np.flatnonzero(wq[a:b] > 0.0)
        if len(cubes):
            sums = _window_maximal_sums(w, level, c.lo3[cubes], c.hi3[cubes])
            picked.append(cubes)
            vals.append(sums * mesh.cell_volume / wq[cubes])
    if not picked:
        return CharacteristicReport("A_inf' (Fujii-Wilson)", 0.0, None, 0)
    picked, vals = np.concatenate(picked), np.concatenate(vals)
    # the first strict maximum in scan order; a NaN never improves on it
    vals = np.where(np.isnan(vals), -math.inf, vals)
    i = int(np.argmax(vals))
    witness = c.cube(int(picked[i])) if vals[i] > -math.inf else None
    return CharacteristicReport("A_inf' (Fujii-Wilson)", float(vals[i]), witness, len(picked))


def _window_maximal_sums(w: StepFunction, level: int, lo3, hi3) -> np.ndarray:
    """sum over the cells of M(chi_Q w), for in-box cubes Q of one segment
    (``lo3``/``hi3`` of shape (count, n)), equal bit for bit to the full-
    frame sum of ``hl_maximal(w * mask_Q) * mask_Q``.

    * Only the centre window of Q matters, and w * chi_Q vanishes outside
      it, so the windows' prefix sums equal the full frame's there, and a
      corner outside the window may be clamped to its edge: beyond it the
      frame adds exact zeros.
    * Each sweep starts at Q's level k.  Q covers each window cell wholly,
      or by 2/3 of its width on a shifted axis, so a level-(k-1) cube of
      any grid (volume 2^n |Q|) averages at most (3/4)^n times Q's own
      value, which every window cell sees.  Every grid's
      ``Mesh.maximal_levels`` start is at most -J <= k.
    * The windows differ by multiples of 2^(L-k) cells, which maps every
      grid at level >= k onto itself, so one box layout, found over the
      first window with window-relative corners, serves the whole stack;
      each box is formed as ``integral_box3`` forms it.
    * Each window's maxima go into a zero full-frame row, so the row sum
      adds the terms of the full-frame sum in its order."""
    mesh = w.mesh
    n, N, L = mesh.n, mesh.cells_per_axis, mesh.finest_exponent
    width = 1 << (L - level)
    count = len(lo3)

    def along(axis, x):
        """Values along one axis (the last of ``x``), shaped to broadcast
        into a window's (width,) * n."""
        return x.reshape(*x.shape[:-1], *(-1 if b == axis else 1 for b in range(n)))

    steps = [(t, j) for t in mesh.shifts() for j in range(level, L + 1)]
    flags = np.array([t for t, _ in steps], dtype=np.int64)
    levels = np.array([j for _, j in steps], dtype=np.int64)
    scale = 1 << (L - levels)
    offset = (1 - 2 * (levels % 2))[:, None] * flags  # (steps, n) sign times shift flag
    # per axis: the cells of each window, (count, width), and per step the
    # coordinate of the cube over each cell of the first window, (steps, width)
    i0 = mesh.center_window(lo3, hi3)[0]
    cells = [i0[:, a, None] + np.arange(width) for a in range(n)]
    coord = [_containing_coord(ix[0], flags[:, a, None], levels[:, None], L)
             for a, ix in enumerate(cells)]
    # the boxes of a step run row-major over the cubes it meets per axis,
    # with corners relative to the window
    runs = np.stack([m[:, -1] - m[:, 0] + 1 for m in coord], axis=1)
    step, pos = mesh.window_cells(np.zeros_like(runs), runs)
    lo = [(3 * (m[step, 0] + pos[a]) + offset[step, a]) * scale[step] - 3 * i0[0, a]
          for a, m in enumerate(coord)]
    hi = [x + 3 * scale[step] for x in lo]
    window = w.values[tuple(along(a, ix) for a, ix in enumerate(cells))]
    factor = np.array([2.0 ** (-j * n) for j in levels.tolist()])
    v = _box_sums(_prefix_sums(window, n), window, lo, hi)
    v = v * mesh.cell_volume / factor[step]
    v = np.where(v > 0.0, v, 0.0)
    # each window cell reads its cube's box, step by step: per axis, the
    # cube's place in the run times the step's row-major stride
    boxes = runs.prod(axis=1)
    stride = np.cumprod(runs[:, ::-1], axis=1)[:, ::-1] // runs
    offsets = [(m - m[:, :1]) * stride[:, a, None] for a, m in enumerate(coord)]
    offsets[0] += (np.cumsum(boxes) - boxes)[:, None]
    out = np.zeros(window.shape)
    for box in sum(along(a, x) for a, x in enumerate(offsets)):
        np.maximum(out, v[:, box], out=out)
    # each window's maxima in its own zero full-frame row
    flat = np.ravel_multi_index(tuple(along(a, ix) for a, ix in enumerate(cells)), (N,) * n)
    flat, out = flat.reshape(count, -1), out.reshape(count, -1)
    sums = np.empty(count)
    block = max(1, _FRAME_BLOCK // N**n)
    for a in range(0, count, block):
        b = min(a + block, count)
        frame = np.zeros((b - a, N**n))
        frame[np.arange(b - a)[:, None], flat[a:b]] = out[a:b]
        sums[a:b] = np.sum(frame, axis=1)
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

    Psi = Power(p') recovers the separated (weak-type) bump form.  The
    corpus levels go to ``luxemburg_norms`` as segments, in batches of at
    most ``_LUX_BATCH_CELLS`` cells."""
    e = exps.alpha / exps.n + 1.0 / exps.q - 1.0 / exps.p
    uroot = u.map(lambda v: v ** (1.0 / exps.q))
    sroot = sigma.map(lambda v: v ** (1.0 / exps.p_prime))
    c = u.mesh.corpus
    nu, ns = np.empty(len(c.level)), np.empty(len(c.level))
    for a, b, starts in _luxemburg_batches(c):
        nu[a:b] = luxemburg_norms(uroot, c.lo3[a:b], c.hi3[a:b], phi, starts)
        ns[a:b] = luxemburg_norms(sroot, c.lo3[a:b], c.hi3[a:b], psi, starts)
    return _supremum_report("bump", u.mesh, _size_powers(u.mesh, exps.n, e) * nu * ns)


def _luxemburg_batches(c):
    """Runs of consecutive corpus segments with at most ``_LUX_BATCH_CELLS``
    cells in all (a larger segment runs alone), as (first cube, end cube,
    segment starts counted from the first cube)."""
    # an in-box cube meets prod over axes of (hi3 + 2) // 3 - lo3 // 3 cells
    cells = np.add.reduceat(np.prod((c.hi3 + 2) // 3 - c.lo3 // 3, axis=1), c.starts)
    edges, total = [0], 0
    for s, k in enumerate(cells.tolist()):
        if total and total + k > _LUX_BATCH_CELLS:
            edges.append(s)
            total = 0
        total += k
    edges.append(len(cells))
    starts, ends = c.starts.tolist(), c.ends.tolist()
    for s0, s1 in zip(edges, edges[1:]):
        yield starts[s0], ends[s1 - 1], c.starts[s0:s1] - starts[s0]


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
