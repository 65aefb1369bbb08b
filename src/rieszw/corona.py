"""The corona decomposition of a sparse family's members under a weight
pair, its certificate, and the sigma decay over its level sets.

``corona_decomposes`` decomposes the members inside one root for every
weight pair of a run at once: one box plan over those members, and one
sweep down the forest's member levels whose rows are the (pair, slice)
keys.  ``sparse.corona_decompose`` is its one-pair call.  The certificate
and the b-group generations climb ``forest.parent``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .mesh import BoxPlan, DyadicCube, StepFunction, _block_rows, _sweep
from .sparse import SparseFamily, _ilog_lt
from .weights import ExponentTuple

__all__ = [
    "CoronaDecomposition",
    "DecayRow",
    "DecayReport",
    "corona_decomposes",
    "sigma_decay_check",
]


@dataclass
class CoronaDecomposition:
    """The members inside ``root`` that belong to a slice, as parallel arrays
    in the family's coarse-to-fine order: ``index`` into ``family.forest``,
    the slice ``a``, the position ``up`` of the stopping parent (its own if
    the member stops), the stopping ``generation`` (-1 if it does not stop),
    the b-index ``b`` and the averages.  ``slices``, ``stopping``, ``pi``
    and ``bindex`` key the same decomposition by slice and cube; each is
    built from the arrays on first use and kept."""

    exps: ExponentTuple
    family: SparseFamily
    root: DyadicCube
    mode: str  # "classic" or "fractional"
    index: np.ndarray  # (M,) int64, increasing
    a: np.ndarray
    up: np.ndarray
    generation: np.ndarray
    b: np.ndarray
    u_avg: np.ndarray
    sigma_avg: np.ndarray
    fracavg: np.ndarray  # |Q|^{alpha/n} avg_Q u
    skipped: int
    gamma: float  # every slice index satisfies a <= gamma
    certified: bool = False

    @functools.cached_property
    def _members(self) -> tuple[tuple[DyadicCube, ...], dict[int, list[int]]]:
        """The members as cubes, and each slice's positions among them, the
        slices in order of first member: members come coarse to fine, so
        every slice is in (level, coord) order."""
        cubes = self.family._cubes_at(self.index)
        return cubes, {s: np.flatnonzero(self.a == s).tolist() for s in dict.fromkeys(self.a.tolist())}

    @functools.cached_property
    def slices(self) -> dict[int, list[DyadicCube]]:
        cubes, at = self._members
        return {s: [cubes[j] for j in js] for s, js in at.items()}

    @functools.cached_property
    def stopping(self) -> dict[int, dict[DyadicCube, int]]:
        """Per slice, stopping cube -> generation (0-based)."""
        (cubes, at), gens = self._members, self.generation.tolist()
        return {s: {cubes[j]: gens[j] for j in js if gens[j] >= 0} for s, js in at.items()}

    @functools.cached_property
    def pi(self) -> dict[int, dict[DyadicCube, DyadicCube]]:
        """Per slice, cube -> its stopping parent."""
        (cubes, at), up = self._members, self.up.tolist()
        return {s: {cubes[j]: cubes[up[j]] for j in js} for s, js in at.items()}

    @functools.cached_property
    def bindex(self) -> dict[int, dict[DyadicCube, int]]:
        (cubes, at), bs = self._members, self.b.tolist()
        return {s: {cubes[j]: bs[j] for j in js} for s, js in at.items()}


def _slicing_values(exps: ExponentTuple, mode: str, u_avg, sigma_avg, volume) -> np.ndarray:
    """(avg_Q u)^{1/q} (avg_Q sigma)^{1/p'}, times |Q|^{alpha/n + 1/q - 1/p}
    in fractional mode; a Python float pow per cube, which an array power
    does not match in the last bit."""
    e = exps.alpha / exps.n + 1.0 / exps.q - 1.0 / exps.p if mode == "fractional" else 0.0
    return np.array([ua ** (1.0 / exps.q) * sa ** (1.0 / exps.p_prime) * vol**e
                     for ua, sa, vol in zip(u_avg.tolist(), sigma_avg.tolist(), volume.tolist())])


def _fractional_averages(exps: ExponentTuple, u_avg, volume) -> np.ndarray:
    """|Q|^{alpha/n} avg_Q u, a Python float pow per cube."""
    return np.array([w ** (exps.alpha / exps.n) * ua for w, ua in zip(volume.tolist(), u_avg.tolist())])


def _climb(parent: np.ndarray, start: np.ndarray, key: np.ndarray, key_at: np.ndarray):
    """For members with forest indices ``start``: the finest strict forest
    ancestor i with key_at[i] == key (-1 if none) and the number of such
    ancestors.  Keys are >= 0, and key_at is -1 where nothing matches; the
    climb takes one step up ``parent`` per round, at most depth rounds."""
    near = np.full(len(start), -1, dtype=np.int64)
    count = np.zeros(len(start), dtype=np.int64)
    cur = parent[start]
    live = np.flatnonzero(cur >= 0)
    while len(live):
        hit = key_at[cur[live]] == key[live]
        count[live] += hit
        first = live[hit & (near[live] < 0)]
        near[first] = cur[first]
        cur[live] = parent[cur[live]]
        live = live[cur[live] >= 0]
    return near, count


def corona_decomposes(
    family: SparseFamily,
    root: DyadicCube,
    pairs: Sequence[tuple[StepFunction, StepFunction]],
    exps: ExponentTuple,
    mode: str = "classic",
) -> list:
    """``sparse.corona_decompose(family, root, u, sigma, exps, mode)`` of every
    weight pair (u, sigma) of ``pairs``, in order: each pair's certified
    decomposition, or the ``AssertionError`` of the first check of its
    certificate that it fails.

    The members inside root share one box plan, and each distinct weight
    object is integrated over it once.  One sweep down the forest's member
    levels carries, for every pair, slice and member, the finest stopping
    member of that slice at or above it and their count, in O(|S| * rows),
    a row per (pair, slice): a stopping cube's generation counts the
    coarser stopping cubes of its slice.  Each row reads its own pair's
    fractional averages, so every array equals a one-pair call's."""
    if mode not in ("classic", "fractional"):
        raise ValueError("mode must be 'classic' or 'fractional'")
    mesh, t = family.mesh, family.forest
    inside = np.flatnonzero(family.contained_in(root))
    if not len(pairs):
        return []
    plan = BoxPlan(t.lo3[inside].T, t.hi3[inside].T, (mesh.cells_per_axis,) * mesh.n)
    distinct = {id(w): w for pair in pairs for w in pair}
    ints = {k: w.plan_integrals(plan) for k, w in distinct.items()}
    vol_in = t.volume[inside]
    U = np.array([ints[id(u)] for u, _ in pairs]) / vol_in
    S = np.array([ints[id(s)] for _, s in pairs]) / vol_in
    # the kept members, pair by pair and in member order within a pair
    pair, col = np.nonzero((U > 0.0) & (S > 0.0))
    index, vol, u_avg, s_avg = inside[col], vol_in[col], U[pair, col], S[pair, col]
    cb = np.append(0, np.cumsum(np.bincount(pair, minlength=len(pairs))))
    spans = list(zip(cb[:-1].tolist(), cb[1:].tolist()))
    # pair by pair, so that their Python floats are held for one pair at a time
    v = np.concatenate([_slicing_values(exps, mode, u_avg[lo:hi], s_avg[lo:hi], vol[lo:hi]) for lo, hi in spans])
    fracavg = np.concatenate([_fractional_averages(exps, u_avg[lo:hi], vol[lo:hi]) for lo, hi in spans])
    a = _ilog_lt(v, 2.0)
    # one row per (pair, slice), numbered pair by pair; a member is keyed by
    # its pair's block of m + 1 entries, whose last stands for no member, and
    # its forest index there
    span = a.max(initial=0) - a.min(initial=0) + 1
    codes, row = np.unique(pair * span + (a - a.min(initial=0)), return_inverse=True)
    rb = np.append(0, np.cumsum(np.bincount(codes // span, minlength=len(pairs))))
    m = len(t.level)
    gkey = pair * (m + 1) + index
    frac = np.zeros(len(pairs) * (m + 1))
    frac[gkey] = fracavg

    def step(p, own, out):
        stops = (own[0] >= 0) & ((p[0] < 0) | (frac[own[0]] > 2.0 * frac[p[0]]))
        out[0], out[1] = np.where(stops, own[0], p[0]), p[1] + stops

    # per row and forest index: the finest stopping member at or above it
    # (-1 if none), and their count; a member's own entry starts as itself.
    # A block's pairs are sized as if each held the most rows of any
    near, count = np.zeros((2, len(index)), dtype=np.int64)
    per = _block_rows((m + 1) * max(np.diff(rb).max(), 1))
    for s0 in range(0, len(pairs), per):
        s1 = min(s0 + per, len(pairs))
        c0, c1 = cb[s0], cb[s1]
        r, j = row[c0:c1] - rb[s0], index[c0:c1]
        x = np.zeros((2, rb[s1] - rb[s0], m + 1), dtype=np.int64)
        x[0] = -1
        x[0, r, j] = gkey[c0:c1]
        near[c0:c1], count[c0:c1] = _sweep(x, 0, t.runs, t.up, step)[:, r, j]
    stops = near == gkey
    up = np.where(stops, np.arange(len(index)), np.searchsorted(gkey, near))
    b = -_ilog_lt(fracavg / fracavg[up], 2.0)
    up -= cb[pair]
    generation = np.where(stops, count - 1, -1)
    cds = []
    for lo, hi in spans:
        # v(Q)^q is the slicing product per cube, so log2 of its sup over the
        # decomposed cubes bounds every slice index a from above
        vmax = float(v[lo:hi].max(initial=0.0))
        gamma = math.log2(vmax) if vmax > 0.0 else -math.inf
        cds.append(CoronaDecomposition(
            exps, family, root, mode, index[lo:hi], a[lo:hi], up[lo:hi], generation[lo:hi], b[lo:hi],
            u_avg[lo:hi], s_avg[lo:hi], fracavg[lo:hi], len(inside) - hi + lo, gamma))
    return [cd if msg is None else AssertionError(msg) for cd, msg in zip(cds, _certify_coronas(cds))]


def _certify_coronas(cds: Sequence[CoronaDecomposition]) -> list:
    """Every invariant of each decomposition of ``cds`` (of one family),
    recomputed from its arrays in O(M * depth) for all
    of them at once: per decomposition, the message of the first check it
    fails, or None, with ``certified`` set where none fails.  The arrays are
    concatenated, each member at a position ``g`` there, and the climb runs
    on one copy of the forest per decomposition."""
    t, P = cds[0].family.forest, len(cds)
    index, a, up, gen, b, f = (np.concatenate([getattr(cd, k) for cd in cds]) for k in (
        "index", "a", "up", "generation", "b", "fracavg"))
    sizes = np.array([len(cd.index) for cd in cds], dtype=np.int64)
    pair = np.repeat(np.arange(P), sizes)
    first = (np.cumsum(sizes) - sizes)[pair]
    own = np.arange(len(index))
    m = len(t.level)
    # a stopping parent outside its decomposition reads the first member
    # instead, and fails the containment check
    stray = (up < 0) | (up >= sizes[pair])
    g = first + np.where(stray, 0, up)
    v = np.concatenate([_slicing_values(cd.exps, cd.mode, cd.u_avg, cd.sigma_avg, t.volume[cd.index]) for cd in cds])
    # the finest stopping cube of each member's slice that strictly contains
    # it, climbed in the decomposition's own copy of the forest, and its
    # position; where there is none, the decomposition's first member
    at = pair * m + index
    key = np.unique(a, return_inverse=True)[1]
    stop_key = np.full(P * m, -1, dtype=np.int64)
    stop_key[at[gen >= 0]] = key[gen >= 0]
    parents = np.where(t.parent >= 0, t.parent + m * np.arange(P)[:, None], -1).ravel()
    anc, count = _climb(parents, at, key, stop_key)
    position = np.zeros(P * m, dtype=np.int64)
    position[at] = own
    p = np.where(anc >= 0, position[anc], first)
    # per check, in order, the members that fail it; every inequality
    # compares ratios of fractional averages, which a common factor leaves
    # unchanged, so the last check recomputes them
    checks = [
        ("slice index exceeds the characteristic bound", a > np.array([cd.gamma for cd in cds])[pair]),
        ("slices are not disjoint", (np.diff(pair, prepend=-1) == 0) & (np.diff(index, prepend=0) <= 0)),
        ("slice membership violated", ~((np.ldexp(1.0, a) < v) & (v <= np.ldexp(1.0, a + 1)))),
        ("stopping parent does not contain its cube",
         stray | ~np.all((t.lo3[index[g]] <= t.lo3[index]) & (t.hi3[index] <= t.hi3[index[g]]), axis=1)),
        ("stopping parent is not the finest stopping ancestor",
         up != np.where(gen >= 0, own, np.where(anc >= 0, p, first - 1)) - first),
        ("stopping generation bookkeeping broken", (gen >= 0) & (gen != count)),
        ("stopping inequality violated", (gen > 0) & ~(f > 2.0 * f[p])),
        ("reverse inequality violated", (g != own) & (f > 2.0 * f[g])),
        ("b-slice membership violated", ~((np.ldexp(f[g], -b) < f) & (f <= np.ldexp(f[g], 1 - b)))),
        ("fractional averages disagree with u_avg",
         f != np.concatenate([_fractional_averages(cd.exps, cd.u_avg, t.volume[cd.index]) for cd in cds])),
    ]
    fails = np.array([np.bincount(pair[bad], minlength=P) > 0 for _, bad in checks]).T.tolist()
    for cd, hit in zip(cds, fails):
        cd.certified = not any(hit)
    return [None if cd.certified else checks[hit.index(True)][0] for cd, hit in zip(cds, fails)]


# ---------------------------------------------------------------------------
# Sigma decay over the corona level sets


@dataclass(frozen=True)
class DecayRow:
    a: int
    b: int
    P: DyadicCube
    k: int
    ratio: float  # sigma(F^a_b(k,P)) / sigma(P)


@dataclass(frozen=True)
class DecayReport:
    rows: tuple[DecayRow, ...]
    worst_scaled: float  # max over k >= 1 of ratio * 2^k (c = 1 decay)
    fitted_rate: float  # least-squares slope of -log2(max_k ratio) vs k
    reported_exponent: float  # the proof's stronger rate, reported only
    skipped: int


#: The last generation k of the decay table.
_DECAY_KMAX = 10


def sigma_decay_check(cd: CoronaDecomposition, sigma: StepFunction) -> DecayReport:
    """sigma(F^a_b(k,P))/sigma(P) for k = 0.._DECAY_KMAX.

    F^a_b(k,P) is the (k+1)-st generation union of the containment forest
    of Q^a_b(P), so sigma(F) is an exact sum of disjoint cube integrals.
    The decay exponent asserted downstream is c = 1 (provable from the
    overlap lemma plus the two-sided comparability of the frozen averages);
    the proof's composite exponent is reported, not asserted."""
    t, index = cd.family.forest, cd.index
    mass = sigma.integral_box3(t.lo3[index], t.hi3[index])
    # every Q^a_b(P), numbered in (a, P, b) order, with P a member position
    groups, group = np.unique(np.stack([cd.a, cd.up, cd.b], axis=1), axis=0, return_inverse=True)
    group = group.ravel()
    group_of = np.full(len(t.level), -1, dtype=np.int64)
    group_of[index] = group
    # a member's generation in its group counts the group's members among
    # its forest ancestors, itself included
    gen = _climb(t.parent, index, group, group_of)[1] + 1
    # sigma(F^a_b(k, P)) for k = gen - 1, added in member order from 0.0 as
    # sum() adds the group's cubes
    K = _DECAY_KMAX + 1
    near = gen <= K
    sums = np.bincount(group[near] * K + gen[near] - 1, weights=mass[near],
                       minlength=len(groups) * K).reshape(-1, K)
    sp = mass[groups[:, 1]]
    kept = sp > 0.0
    ratio = sums[kept] / sp[kept, None]
    tops = cd.family._cubes_at(index[groups[kept, 1]])
    rows = tuple(
        DecayRow(a, b, top, k, r)
        for (a, _, b), top, rs in zip(groups[kept].tolist(), tops, ratio.tolist())
        for k, r in enumerate(rs)
    )
    skipped = int(np.count_nonzero((cd.generation >= 0) & (mass <= 0.0)))
    per_k = ratio.max(axis=0, initial=0.0)
    worst = float((per_k[1:] * np.ldexp(1.0, np.arange(1, K))).max(initial=0.0))
    ks = np.flatnonzero(per_k > 0.0)
    ks = ks[ks >= 1]
    if len(ks) >= 2:
        fitted = float(-np.polyfit(ks.astype(np.float64), np.log2(per_k[ks]), 1)[0])
    else:
        fitted = math.inf
    exps = cd.exps
    reported = 1.0 + (exps.p_prime / exps.q_prime) * exps.alpha / exps.n
    return DecayReport(rows, worst, fitted, reported, skipped)
