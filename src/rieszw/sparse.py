"""Sparse families, their certificates, overlap level sets, the corona
decomposition, and Carleson-sequence checks.

All measure arithmetic on unions of grid cubes is exact: cubes of one grid
are nested or disjoint, cube corners are integer multiples of h/3, and cube
volumes are integers in units of (h/3)^n.  A family keeps its members'
positions in the grid's level table; their containment forest
(:attr:`SparseFamily.forest`) comes from sweeps (``mesh._sweep``) down the
table's parent positions, and their candidate roots from marking the
members' table parents level by level, fine to coarse.  The
certificates sum integer volumes over the forest's children and generations
instead of testing cubes pairwise.  A sparse sum, and the corona's stopping
parents and generations, are sweeps down the forest's member levels; the
corona certificate and the b-group generations climb ``forest.parent``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .mesh import DyadicCube, LevelTable, Mesh, StepFunction, _sweep
from .weights import ExponentTuple

__all__ = [
    "SparseFamily",
    "SparsityCertificate",
    "OverlapReport",
    "CoronaDecomposition",
    "build_sparse",
    "verify_sparse",
    "overlap_level_set",
    "corona_decompose",
    "carleson_check",
    "carleson_embedding_check",
    "sigma_decay_check",
    "domination_constant",
]


def _vol3(n: int, L: int, level: int) -> int:
    """Volume of a level cube in units of (2^-L / 3)^n, as a Python int
    (it exceeds int64 for coarse padding levels in 2-D)."""
    return (3 << (L - level)) ** n


class Forest(NamedTuple):
    """The containment forest of a family's m members, in their coarse-to-fine
    order, swept down the parents of the grid's level table; index m stands
    for no member in ``owner`` and ``up``.  ``up``, ``head`` and ``runs``
    lay the forest out for ``mesh._sweep``: the first ``head`` runs hold one
    member each, each the parent of the next."""

    level: np.ndarray  # (m,) int64
    lo3: np.ndarray  # (m, n) int64 lower corners, thirds of the finest cell width
    hi3: np.ndarray  # (m, n) int64 upper corners
    volume: np.ndarray  # (m,) 2^(-level * n)
    parent: np.ndarray  # (m,) int64 finest strictly containing member, -1 if maximal
    depth: np.ndarray  # (m,) int64 members containing it, itself included
    owner: np.ndarray  # cells' shape, int64: the deepest member containing the cell centre, or m
    up: np.ndarray  # (m,) int64 parent, or m where maximal
    head: int  # leading member levels that form one chain
    runs: tuple[tuple[int, int], ...]  # (start, stop) of each member level, coarse to fine


class Roots(NamedTuple):
    """A family's candidate testing roots: its members and all their grid
    ancestors, coarse to fine, then in ``Mesh.level_cube_coords`` order."""

    level: np.ndarray  # (r,) int64
    coords: np.ndarray  # (r, n) int64 integer coordinates
    lo3: np.ndarray  # (r, n) int64 lower corners, thirds of the finest cell width
    hi3: np.ndarray  # (r, n) int64 upper corners


@dataclass(frozen=True)
class SparseFamily:
    """A set of cubes from one shifted grid of the mesh.

    Sparsity itself is a property certified by :func:`verify_sparse`, not a
    constructor invariant, so that failing fixtures can be represented."""

    mesh: Mesh
    shift: tuple[int, ...]
    cubes: tuple[DyadicCube, ...]
    #: (m,) int64, read-only: each member's position in ``mesh.level_table(shift)``
    positions: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pos = _table_positions(self.mesh, self.shift, self.cubes)
        # keep a canonical coarse-to-fine order: table order is (level, coord) order
        order = np.argsort(pos, kind="stable")
        pos = pos[order]
        dup = order[1:][pos[1:] == pos[:-1]]
        if len(dup):
            raise ValueError(f"duplicate cube {self.cubes[dup.min()]}")
        object.__setattr__(self, "cubes", tuple(map(self.cubes.__getitem__, order.tolist())))
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)

    def __len__(self) -> int:
        return len(self.cubes)

    @functools.cached_property
    def forest(self) -> Forest:
        """The members' geometry and forest, computed once per family.

        ``slot`` holds the member index at each table position, -1 elsewhere.
        The members over a table cube form one chain, whose deepest has the
        largest index, so one max and one sum swept down the table's parents
        (``LevelTable.sweep``) give each cube the deepest member at or above
        it (``near``) and their count.  A member's forest parent is ``near``
        at its table parent, and a cell's owner is ``near`` at the finest
        cube over its centre."""
        mesh, pos = self.mesh, self.positions
        t = mesh.level_table(self.shift)
        m = len(pos)
        slot = np.full(len(t.parent), -1, dtype=np.int64)
        slot[pos] = np.arange(m)
        count = t.sweep((slot >= 0).astype(np.int64), np.add)
        near = t.sweep(slot, np.maximum)
        level = t.level[pos]
        up = t.parent[pos]
        parent = np.where(up >= 0, near[up], -1)
        owner = near[t.cells]
        owner[owner < 0] = m
        cuts = np.flatnonzero(np.diff(level, prepend=level[:1] - 1, append=level[-1:] + 1))
        starts, ends = cuts[:-1], cuts[1:]
        # the leading one-member levels whose member is the next one's parent
        chained = (ends - starts == 1) & (parent[starts] == starts - 1)
        out = Forest(level, t.lo3[pos], t.hi3[pos], np.ldexp(1.0, -mesh.n * level),
                     parent, count[pos], owner, np.where(parent < 0, m, parent),
                     int(np.cumprod(chained).sum()), tuple(zip(starts.tolist(), ends.tolist())))
        for x in out[:-2]:
            x.setflags(write=False)
        return out

    @functools.cached_property
    def roots(self) -> Roots:
        """The candidate testing roots, cut from the level table once per
        family: the only cubes R on which the restricted sparse operator is
        nonzero.  The members are marked, then the table parents of the
        marked cubes, level by level from the finest, and last the head of
        one-cube levels above the coarsest mark; the marked positions are
        in the required order."""
        t = self.mesh.level_table(self.shift)
        mark = np.zeros(len(t.parent), dtype=bool)
        mark[self.positions] = True
        for a, b in reversed(t.runs):
            mark[t.parent[a:b][mark[a:b]]] = True
        mark[:t.head] = np.logical_or.accumulate(mark[:t.head][::-1])[::-1]
        r = np.flatnonzero(mark)
        out = Roots(t.level[r], t.coords[r], t.lo3[r], t.hi3[r])
        for x in out:
            x.setflags(write=False)
        return out

    def contained_in(self, root: DyadicCube) -> np.ndarray:
        """Boolean mask over the members: those contained in the root cube."""
        if root.shift != self.shift:
            raise ValueError("containment is only defined within one grid")
        lo, hi = root.bounds3(self.mesh.finest_exponent)
        a = self.forest
        return np.all(a.lo3 >= lo, axis=1) & np.all(a.hi3 <= hi, axis=1)

    def members_in(self, root: DyadicCube) -> list[DyadicCube]:
        """Members contained in the root cube (the root included if present)."""
        return [self.cubes[i] for i in np.flatnonzero(self.contained_in(root))]

    def to_jsonable(self) -> dict:
        return {
            "shift": list(self.shift),
            "cubes": [[q.level, *q.coord] for q in self.cubes],
        }

    @staticmethod
    def from_jsonable(mesh: Mesh, data: dict) -> "SparseFamily":
        shift = tuple(int(s) for s in data["shift"])
        cubes = tuple(
            DyadicCube(shift, int(row[0]), tuple(int(c) for c in row[1:]))
            for row in data["cubes"]
        )
        return SparseFamily(mesh, shift, cubes)


@dataclass(frozen=True)
class SparsityCertificate:
    ok: bool
    worst_union_ratio: float  # max over Q of |union of strict subcubes| / |Q|
    worst_cube: DyadicCube | None
    violating_cube: DyadicCube | None
    size: int


def verify_sparse(family: SparseFamily) -> SparsityCertificate:
    """Exact check that |union of strict S-subcubes| <= |Q|/2 for every
    member (equivalently |Q| <= 2|E(Q)|), in integer thirds units.

    The maximal strict subcubes of Q are its forest children, so the union
    is the sum of their volumes, kept as Python ints.  Pairwise disjointness
    of the sets E(Q) is structural (cubes of one grid are nested or
    disjoint) and is checked in O(|S|): every forest parent contains its
    child, and no member's children exceed its volume."""
    mesh, a = family.mesh, family.forest
    child = np.flatnonzero(a.parent >= 0)
    up = a.parent[child]
    if not (
        np.all(a.level[up] < a.level[child])
        and np.all(a.lo3[up] <= a.lo3[child])
        and np.all(a.hi3[child] <= a.hi3[up])
    ):
        raise AssertionError("a forest parent does not contain its child")
    levels, inverse = np.unique(a.level, return_inverse=True)
    table = [_vol3(mesh.n, mesh.finest_exponent, k) for k in levels.tolist()]
    vol = np.array(table, dtype=object)[inverse]
    union = np.zeros(len(vol), dtype=object)
    np.add.at(union, up, vol[child])
    if np.any(union > vol):
        raise AssertionError("the children of a member overlap")
    ratio = union / vol
    worst, worst_cube = 0.0, None
    if len(ratio) and ratio.max() > 0.0:
        i = int(np.argmax(ratio))  # the first maximum in member order
        worst, worst_cube = ratio[i], family.cubes[i]
    bad = np.flatnonzero(2 * union > vol)
    violating = family.cubes[bad[0]] if len(bad) else None
    return SparsityCertificate(
        violating is None, worst, worst_cube, violating, len(family)
    )


# ---------------------------------------------------------------------------
# Prop-2.4-style construction


def domination_constant(n: int, alpha: float) -> float:
    """The traced constant C with I^D f <= C * I^S f for the built family."""
    return 2.0 ** (n + 1) / (1.0 - 2.0**-alpha)


def _ilog_lt(x: np.ndarray, base: float) -> np.ndarray:
    """Largest integer k with base^k < x, elementwise (x > 0 finite), for a
    base that is a power of two; exact, from the binary exponent of x.

    With x = m * 2^e, m in [1/2, 1), the largest j with 2^j < x is e - 1,
    or e - 2 when x is itself a power of two (m = 1/2)."""
    bm, be = math.frexp(base)
    if bm != 0.5 or be < 2:
        raise ValueError("base must be a power of two >= 2")
    m, e = np.frexp(x)
    return (e.astype(np.int64) - 1 - (m == 0.5)) // (be - 1)


#: The slice key of a cube whose average is not positive: below every index.
_NO_KEY = np.iinfo(np.int64).min


def build_sparse(
    f: StepFunction, shift: Sequence[int], alpha: float
) -> tuple[SparseFamily, float]:
    """The union over k of the maximal enumerated cubes with average
    > a^k, a = 2^(n+1), together with the explicit constant C for which
    dyadic_riesz(f) <= C * sparse_riesz(f, S) holds at every cell.

    A cube Q is maximal at threshold a^k iff a^k >= (max average over its
    enumerated ancestors) and a^k < avg_Q; so Q belongs to some slice iff
    the slice index of its ancestor-max is strictly below its own.  This
    reproduces every S_k without scanning thresholds one by one.

    The slice index ``_ilog_lt(., a)`` is monotone, so the index of the
    ancestor-max average is the max of the ancestors' indices: each cube
    takes its key (its average's index, or the least int64 if the average
    is not positive), the max of the keys at and above each cube is swept
    down the parents of the grid's level table, and a cube is a member iff
    that max at its parent is below its key.  The averages are one box-sum
    call over the table."""
    mesh = f.mesh
    if not 0.0 < alpha < mesh.n:
        raise ValueError("alpha must lie in (0, n)")
    if f.total() <= 0.0:
        raise ValueError("f must not vanish identically")
    t = mesh.level_table(shift)
    avg = f.integral_box3(t.lo3, t.hi3) / t.volume
    pos = avg > 0.0
    key = np.where(pos, _ilog_lt(np.where(pos, avg, 1.0), 2.0 ** (mesh.n + 1)), _NO_KEY)
    top = t.sweep(key.copy(), np.maximum)
    anc = np.where(t.parent >= 0, top[t.parent], _NO_KEY)  # the strict-ancestor max
    member = np.flatnonzero(anc < key)  # never where avg <= 0: key is least there
    level = t.level[member]
    shift = tuple(shift)
    cubes = tuple(DyadicCube(shift, k, tuple(c))
                  for k, c in zip(level.tolist(), t.coords[member].tolist()))
    return SparseFamily(mesh, shift, cubes), domination_constant(mesh.n, alpha)


def _table_positions(mesh: Mesh, shift: tuple[int, ...], cubes: Sequence[DyadicCube]) -> np.ndarray:
    """Each cube's position in ``mesh.level_table(shift)``, in the given
    order: its level's start plus the row-major offset of its coordinates
    from the level's first cube.  ``ValueError`` if a cube has another
    shift, or names the first cube whose level or coordinates lie outside
    the table."""
    if set(map(attrgetter("shift"), cubes)) - {shift}:
        raise ValueError("all members must carry the family shift")
    t = mesh.level_table(shift)
    m = len(cubes)
    j = _int64(list(map(attrgetter("level"), cubes))) - mesh.coarsest_level
    bad = np.flatnonzero((j < 0) | (j >= len(t.starts)))
    if len(bad):
        raise ValueError(f"cube level {cubes[bad[0]].level} outside the mesh range")
    first = t.coords[t.starts]
    shape = (t.coords[t.ends - 1] - first + 1)[j]
    off = _int64(list(map(attrgetter("coord"), cubes))).reshape(m, mesh.n) - first[j]
    bad = np.flatnonzero(np.any((off < 0) | (off >= shape), axis=1))
    if len(bad):
        raise ValueError(f"cube {cubes[bad[0]]} is not in the enumeration")
    pos = off[:, 0]
    for axis in range(1, mesh.n):
        pos = pos * shape[:, axis] + off[:, axis]
    return pos + t.starts[j]


def _int64(values: list) -> np.ndarray:
    """Python ints as an int64 array; if one overflows, each is first
    clipped to +-2^62, which keeps it outside every level table."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.clip(np.array(values, dtype=object), -(1 << 62), 1 << 62).astype(np.int64)


def _ancestor_levels(t: LevelTable, pos: np.ndarray) -> list:
    """For the cubes at the given positions of a level table: per level,
    coarse to fine while some cube is that fine, the mask of those cubes,
    the sorted table positions of their ancestors there, and each masked
    cube's place among them.  The ancestors come from one climb up
    ``t.parent``, fine to coarse."""
    j = np.searchsorted(t.starts, pos, side="right") - 1
    cur = pos.copy()
    out = []
    for k in range(int(j.max(initial=-1)), -1, -1):
        below = j >= k
        idx, inv = np.unique(cur[below], return_inverse=True)
        out.append((below, idx, inv))
        cur[below] = t.parent[cur[below]]
    return out[::-1]


# ---------------------------------------------------------------------------
# Overlap level sets (exact)


@dataclass(frozen=True)
class OverlapReport:
    measure: float  # |{x in R0 : sum of chi_Q > k}|
    bound: float  # 2^-k |R0|
    generation_cubes: tuple[DyadicCube, ...]  # maximal cubes k+1 levels down
    exact_le_bound: bool  # integer-arithmetic comparison


def overlap_level_set(family: SparseFamily, root: DyadicCube, k: int) -> OverlapReport:
    """Exact measure of the k-fold overlap set of the members inside root.

    The set {sum chi_Q > k} is the disjoint union of the generation-(k+1)
    cubes of the containment forest restricted to root, so its measure is an
    exact integer sum in thirds units.  A member inside root has generation
    depth - c there, where c counts the members strictly containing root."""
    return _overlap_reports(family, root, (k,))[0]


def _overlap_reports(family: SparseFamily, root: DyadicCube, ks) -> list[OverlapReport]:
    """``overlap_level_set(family, root, k)`` for every k of ``ks``, with
    the members inside root and their generations there found once: one
    stable sort groups them by generation in member order, and one count
    over (generation, level) times the per-level volumes, an exact product
    of Python ints, gives every generation's volume."""
    if any(k < 1 for k in ks):
        raise ValueError("need k >= 1")
    mesh, a = family.mesh, family.forest
    n, L = mesh.n, mesh.finest_exponent
    lo, hi = root.bounds3(L)
    above = (a.level < root.level) & np.all(a.lo3 <= lo, axis=1) & np.all(a.hi3 >= hi, axis=1)
    inside = np.flatnonzero(family.contained_in(root))
    generation = a.depth[inside] - np.count_nonzero(above)
    order = np.argsort(generation, kind="stable")
    inside, generation = inside[order], generation[order]
    width = len(mesh.levels())
    rows = max(int(generation.max(initial=0)), max(ks, default=0) + 1) + 1
    counts = np.bincount(generation * width + (a.level[inside] - mesh.coarsest_level),
                         minlength=rows * width).reshape(rows, width)
    j = np.flatnonzero(counts.any(axis=0))
    vol3 = np.array([_vol3(n, L, mesh.coarsest_level + i) for i in j.tolist()], dtype=object)
    totals = counts[:, j].astype(object).dot(vol3).tolist()
    cut = np.searchsorted(generation, np.arange(rows + 1))
    root3 = _vol3(n, L, root.level)
    cell_vol = (mesh.cell_width / 3.0) ** n
    out = []
    for k in ks:
        idx = inside[cut[k + 1] : cut[k + 2]]
        total3 = totals[k + 1]
        out.append(OverlapReport(
            measure=total3 * cell_vol,
            bound=2.0**-k * root3 * cell_vol,
            generation_cubes=tuple(family.cubes[i] for i in idx.tolist()),
            exact_le_bound=(total3 << k) <= root3,
        ))
    return out


# ---------------------------------------------------------------------------
# Corona decomposition


@dataclass
class CoronaDecomposition:
    """The members inside ``root`` that belong to a slice, as parallel arrays
    in the family's coarse-to-fine order: ``index`` into ``family.forest``,
    the slice ``a``, the position ``up`` of the stopping parent (its own if
    the member stops), the stopping ``generation`` (-1 if it does not stop),
    the b-index ``b`` and the averages.  ``slices``, ``stopping``, ``pi``
    and ``bindex`` key the same decomposition by slice and cube; they are
    built once, from the arrays."""

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
    slices: dict[int, list[DyadicCube]]
    stopping: dict[int, dict[DyadicCube, int]]  # cube -> generation (0-based)
    pi: dict[int, dict[DyadicCube, DyadicCube]]
    bindex: dict[int, dict[DyadicCube, int]]
    certified: bool = False


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


def corona_decompose(
    family: SparseFamily,
    root: DyadicCube,
    u: StepFunction,
    sigma: StepFunction,
    exps: ExponentTuple,
    mode: str = "classic",
) -> CoronaDecomposition:
    """Corona decomposition of the members inside root.

    Slices: 2^a < (avg_Q u)^{1/q} (avg_Q sigma)^{1/p'} <= 2^{a+1}; in
    fractional mode the slicing quantity carries the extra factor
    |Q|^{alpha/n + 1/q - 1/p}.  Stopping cubes: coarse-to-fine first hit of
    |Q|^{alpha/n} avg_Q u > 2 |P|^{alpha/n} avg_P u against the finest
    stopping ancestor P.  Cubes with vanishing u- or sigma-average belong
    to no slice and are counted in ``skipped``.

    One sweep down the forest's member levels carries, for every member
    and slice, the finest stopping member of that slice at or above it and
    their count, in O(|S| * slices): a stopping cube's generation counts
    the coarser stopping cubes of its slice."""
    if mode not in ("classic", "fractional"):
        raise ValueError("mode must be 'classic' or 'fractional'")
    t = family.forest
    index = np.flatnonzero(family.contained_in(root))
    vol = t.volume[index]
    u_avg = u.integral_box3(t.lo3[index], t.hi3[index]) / vol
    s_avg = sigma.integral_box3(t.lo3[index], t.hi3[index]) / vol
    keep = (u_avg > 0.0) & (s_avg > 0.0)
    skipped = int(np.count_nonzero(~keep))
    index, vol, u_avg, s_avg = index[keep], vol[keep], u_avg[keep], s_avg[keep]
    v = _slicing_values(exps, mode, u_avg, s_avg, vol)
    fracavg = _fractional_averages(exps, u_avg, vol)
    a = _ilog_lt(v, 2.0)
    keys, key = np.unique(a, return_inverse=True)
    m = len(t.level)
    frac = np.zeros(m + 1)  # by forest index; entry m stands for no member
    frac[index] = fracavg
    # per slice key and forest index: the finest stopping member at or above
    # it (-1 if none), and their count; a member's own entry starts as itself
    x = np.zeros((2, len(keys), m + 1), dtype=np.int64)
    x[0] = -1
    x[0, key, index] = index

    def step(p, own, out):
        stops = (own[0] >= 0) & ((p[0] < 0) | (frac[own[0]] > 2.0 * frac[p[0]]))
        out[0], out[1] = np.where(stops, own[0], p[0]), p[1] + stops

    near, count = _sweep(x, 0, t.runs, t.up, step)[:, key, index]
    stops = near == index
    up = np.where(stops, np.arange(len(index)), np.searchsorted(index, near))
    generation = np.where(stops, count - 1, -1)
    b = -_ilog_lt(fracavg / fracavg[up], 2.0)
    # v(Q)^q is the slicing product per cube, so log2 of its sup over the
    # decomposed cubes bounds every slice index a from above
    vmax = float(v.max(initial=0.0))
    gamma = math.log2(vmax) if vmax > 0.0 else -math.inf
    # members come coarse to fine, so every slice is in (level, coord) order
    cubes = [family.cubes[i] for i in index.tolist()]
    parents, gens, bs = [cubes[p] for p in up.tolist()], generation.tolist(), b.tolist()
    slices, stopping, pi, bindex = {}, {}, {}, {}
    for s in dict.fromkeys(a.tolist()):
        at = np.flatnonzero(a == s).tolist()
        slices[s] = [cubes[i] for i in at]
        stopping[s] = {cubes[i]: gens[i] for i in at if gens[i] >= 0}
        pi[s] = {cubes[i]: parents[i] for i in at}
        bindex[s] = {cubes[i]: bs[i] for i in at}
    cd = CoronaDecomposition(exps, family, root, mode, index, a, up, generation, b, u_avg,
                             s_avg, fracavg, skipped, gamma, slices, stopping, pi, bindex)
    _certify_corona(cd)
    return cd


def _certify_corona(cd: CoronaDecomposition):
    """Every invariant of the decomposition, recomputed from its arrays in
    O(M * depth)."""
    t, index, a, up, gen, f = cd.family.forest, cd.index, cd.a, cd.up, cd.generation, cd.fracavg
    own = np.arange(len(up))
    if np.any(a > cd.gamma):
        raise AssertionError("slice index exceeds the characteristic bound")
    if np.any(np.diff(index) <= 0):
        raise AssertionError("slices are not disjoint")
    v = _slicing_values(cd.exps, cd.mode, cd.u_avg, cd.sigma_avg, t.volume[index])
    if not np.all((np.ldexp(1.0, a) < v) & (v <= np.ldexp(1.0, a + 1))):
        raise AssertionError("slice membership violated")
    if np.any((up < 0) | (up >= len(up))) or not np.all(
        (t.lo3[index[up]] <= t.lo3[index]) & (t.hi3[index] <= t.hi3[index[up]])
    ):
        raise AssertionError("stopping parent does not contain its cube")
    # the finest stopping cube of each member's slice that strictly contains it
    key = np.unique(a, return_inverse=True)[1]
    stop_key = np.full(len(t.level), -1, dtype=np.int64)
    stop_key[index[gen >= 0]] = key[gen >= 0]
    anc, count = _climb(t.parent, index, key, stop_key)
    p = np.searchsorted(index, anc)  # unused where anc < 0
    if not np.array_equal(up, np.where(gen >= 0, own, np.where(anc >= 0, p, -1))):
        raise AssertionError("stopping parent is not the finest stopping ancestor")
    if np.any((gen >= 0) & (gen != count)):
        raise AssertionError("stopping generation bookkeeping broken")
    if np.any((gen > 0) & ~(f > 2.0 * f[p])):
        raise AssertionError("stopping inequality violated")
    if np.any((up != own) & (f > 2.0 * f[up])):
        raise AssertionError("reverse inequality violated")
    if not np.all((np.ldexp(f[up], -cd.b) < f) & (f <= np.ldexp(f[up], 1 - cd.b))):
        raise AssertionError("b-slice membership violated")
    # every check above compares ratios of fractional averages, which a
    # common factor leaves unchanged
    if not np.array_equal(f, _fractional_averages(cd.exps, cd.u_avg, t.volume[index])):
        raise AssertionError("fractional averages disagree with u_avg")
    cd.certified = True


# ---------------------------------------------------------------------------
# Carleson sequences


@dataclass(frozen=True)
class CarlesonReport:
    constant: float  # smallest A with sum_{Q subseteq R} c_Q <= A mu(R)
    witness: DyadicCube | None
    ok: bool | None = None  # verdict against a proposed A, if one was given


def carleson_check(
    c: Mapping[DyadicCube, float], mu: StepFunction, mesh: Mesh, A: float | None = None
) -> CarlesonReport:
    """Smallest A validating the Carleson condition over all enumerated
    same-shift cubes R, with an optional verdict against a proposed A.
    Only ancestors of support cubes can attain the supremum, so the scan
    is restricted to those."""
    support = [(q, v) for q, v in c.items() if v > 0.0]
    if not support:
        return CarlesonReport(0.0, None, None if A is None else True)
    shift = support[0][0].shift
    if any(q.shift != shift for q, _ in support):
        raise ValueError("Carleson sequence must live on a single grid")
    pos = _table_positions(mesh, shift, [q for q, _ in support])
    weight = np.array([v for _, v in support], dtype=np.float64)
    best, witness = 0.0, None
    t = mesh.level_table(shift)
    for below, idx, inv in _ancestor_levels(t, pos):
        # each ancestor's total is summed in support order from 0, as sum() is
        totals = np.bincount(inv, weights=weight[below])
        muR = mu.integral_box3(t.lo3[idx], t.hi3[idx])
        with np.errstate(divide="ignore"):
            vals = np.where(muR <= 0.0, math.inf, totals / muR)
        i = int(np.argmax(vals))
        if vals[i] > best:
            best = float(vals[i])
            witness = DyadicCube(shift, int(t.level[idx[i]]), tuple(t.coords[idx[i]].tolist()))
    return CarlesonReport(best, witness, None if A is None else best <= A)


def carleson_embedding_check(
    c: Mapping[DyadicCube, float],
    mu: StepFunction,
    f: StepFunction,
    exps: ExponentTuple,
) -> tuple[float, float]:
    """(lhs, rhs) of the Carleson embedding bound:
    lhs = (sum c_Q a_{alpha,mu}(f,Q)^q)^{1/q} with
    a_{alpha,mu}(f,Q) = mu(Q)^{alpha/n - 1} * int_Q f dmu, and
    rhs = A^{1/q} ||M^D_{alpha,mu} f||_{L^q(mu)}.  Cubes with mu(Q) = 0
    contribute 0 to the left side.  The maximal function runs over the grid
    the sequence lives on."""
    from .operators import frac_maximal_weighted

    mesh = f.mesh
    shifts = {q.shift for q, v in c.items() if v > 0.0}
    if len(shifts) > 1:
        raise ValueError("Carleson sequence must live on a single grid")
    shift = shifts.pop() if shifts else (0,) * mesh.n
    fmu = StepFunction(mesh, f.values * mu.values)
    total = 0.0
    for q, cq in c.items():
        if cq <= 0.0:
            continue
        muq = mu.cube_integral(q)
        if muq <= 0.0:
            continue
        aq = muq ** (exps.alpha / exps.n - 1.0) * fmu.cube_integral(q)
        total += cq * aq**exps.q
    lhs = total ** (1.0 / exps.q)
    A = carleson_check(c, mu, mesh).constant
    m = frac_maximal_weighted(f, mu, exps.alpha, shift)
    rhs = A ** (1.0 / exps.q) * m.lp_norm(exps.q, weight=mu)
    return lhs, rhs


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
    rows = tuple(
        DecayRow(a, b, cd.family.cubes[index[P]], k, r)
        for (a, P, b), rs in zip(groups[kept].tolist(), ratio.tolist())
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
