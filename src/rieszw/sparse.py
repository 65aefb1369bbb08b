"""Sparse families, their certificates, overlap level sets, and
Carleson-sequence checks; the corona decomposition is in ``rieszw.corona``,
and ``corona_decompose`` here is its one-pair call.

All measure arithmetic on unions of grid cubes is exact: cubes of one grid
are nested or disjoint, cube corners are integer multiples of h/3, and cube
volumes are integers in units of (h/3)^n.  A family is its members'
positions in the grid's level table; it builds ``DyadicCube`` objects only
for JSON, witnesses and functions that take one cube.  The members'
forest (:attr:`SparseFamily.forest`) comes from sweeps (``mesh._sweep``)
down the table's parents, their candidate roots from marking the members'
table parents level by level, fine to coarse, and their box plan
(:attr:`SparseFamily.plan`) is kept for every sparse apply.  The
certificates sum integer volumes over the forest's children and generations
instead of testing cubes pairwise.  A sparse sum is a sweep down the
forest's member levels.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

import numpy as np

from .mesh import BoxPlan, DyadicCube, LevelTable, Mesh, StepFunction
from .weights import ExponentTuple

if TYPE_CHECKING:
    from .corona import CoronaDecomposition

__all__ = [
    "SparseFamily",
    "SparsityCertificate",
    "OverlapReport",
    "build_sparse",
    "verify_sparse",
    "overlap_level_set",
    "corona_decompose",
    "carleson_check",
    "carleson_embedding_check",
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


@dataclass(frozen=True, init=False, eq=False)
class SparseFamily:
    """A set of cubes from one shifted grid of the mesh, as table positions.

    Sparsity itself is a property certified by :func:`verify_sparse`, not a
    constructor invariant, so that failing fixtures can be represented."""

    mesh: Mesh
    shift: tuple[int, ...]
    #: (m,) int64, read-only, increasing: the positions in ``mesh.level_table(shift)``
    positions: np.ndarray

    def __init__(self, mesh: Mesh, shift: Sequence[int], cubes: Sequence[DyadicCube]):
        pos = _table_positions(mesh, shift, cubes)
        order = np.argsort(pos, kind="stable")
        pos = pos[order]
        dup = order[1:][pos[1:] == pos[:-1]]
        if len(dup):
            raise ValueError(f"duplicate cube {cubes[dup.min()]}")
        pos.setflags(write=False)
        vars(self).update(mesh=mesh, shift=shift, positions=pos)

    @classmethod
    def _at(cls, mesh: Mesh, shift: tuple[int, ...], positions: np.ndarray) -> "SparseFamily":
        """The family at increasing table positions, which are not checked."""
        family = object.__new__(cls)
        positions.setflags(write=False)
        vars(family).update(mesh=mesh, shift=shift, positions=positions)
        return family

    def _key(self):
        return self.mesh, self.shift, self.positions.tobytes()

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __len__(self) -> int:
        return len(self.positions)

    def _cubes_at(self, idx) -> tuple[DyadicCube, ...]:
        """The members at indices ``idx`` (an index array or a slice) as
        cubes, built from the level table alone."""
        t, pos = self.mesh.level_table(self.shift), self.positions[idx]
        rows = zip(t.level[pos].tolist(), t.coords[pos].tolist())
        return tuple(DyadicCube(self.shift, k, tuple(c)) for k, c in rows)

    @functools.cached_property
    def cubes(self) -> tuple[DyadicCube, ...]:
        """The members as cubes, built on first use."""
        return self._cubes_at(slice(None))

    def cube(self, i: int) -> DyadicCube:
        """Member ``i`` as a cube."""
        return self._cubes_at([i])[0]

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
    def plan(self) -> BoxPlan:
        """The ``BoxPlan`` of the members on the mesh's full frame, built on
        first use: every sparse apply integrates the same member boxes."""
        a = self.forest
        return BoxPlan(a.lo3.T, a.hi3.T, (self.mesh.cells_per_axis,) * self.mesh.n)

    @functools.cached_property
    def roots(self) -> np.ndarray:
        """The candidate testing roots (the members and their ancestors) as
        increasing level-table positions, found once per family, read-only:
        the only cubes R on which the restricted sparse operator is nonzero.
        The members are marked, then the table parents of the marked cubes,
        level by level from the finest, and last the head of one-cube
        levels above the coarsest mark."""
        t = self.mesh.level_table(self.shift)
        mark = np.zeros(len(t.parent), dtype=bool)
        mark[self.positions] = True
        for a, b in reversed(t.runs):
            mark[t.parent[a:b][mark[a:b]]] = True
        mark[:t.head] = np.logical_or.accumulate(mark[:t.head][::-1])[::-1]
        r = np.flatnonzero(mark)
        r.setflags(write=False)
        return r

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
        """The family of ``to_jsonable``; rejects a shift or row not of n or 1 + n ints."""
        shift, rows = data["shift"], data["cubes"]
        for what, row, size in [("family shift", shift, mesh.n), *(("cube row", r, 1 + mesh.n) for r in rows)]:
            if not (isinstance(row, list) and len(row) == size and all(type(x) is int for x in row)):
                raise ValueError(f"{what} {row!r} is not {size} integers")
        shift = tuple(shift)
        return SparseFamily(mesh, shift, tuple(DyadicCube(shift, r[0], tuple(r[1:])) for r in rows))


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
        worst, worst_cube = ratio[i], family.cube(i)
    bad = np.flatnonzero(2 * union > vol)
    violating = family.cube(bad[0]) if len(bad) else None
    return SparsityCertificate(
        violating is None, worst, worst_cube, violating, len(family)
    )


# ---------------------------------------------------------------------------
# Prop-2.4-style construction


def domination_constant(n: int, alpha: float) -> float:
    """The traced constant C with I^D f <= C * I^S f for the built family;
    ``ValueError`` where 2^-alpha is not below 1 in double precision (alpha
    below about 1e-16), which leaves C infinite."""
    gap = 1.0 - 2.0**-alpha
    if not gap > 0.0:
        raise ValueError(f"alpha = {alpha!r} gives 2^-alpha = {2.0**-alpha!r}, not below 1: "
                         f"the domination constant 2^(n+1) / (1 - 2^-alpha) is infinite")
    return 2.0 ** (n + 1) / gap


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
    return SparseFamily._at(mesh, tuple(shift), member), domination_constant(mesh.n, alpha)


def _table_positions(mesh: Mesh, shift: tuple[int, ...], cubes: Sequence[DyadicCube]) -> np.ndarray:
    """Each cube's position in ``mesh.level_table(shift)``, in the given
    order: its level's start plus the row-major offset of its coordinates
    from the level's first cube.  ``ValueError`` if a cube has another
    shift, or names the first cube with other than n coordinates, or whose
    level or coordinates lie outside the table."""
    if set(map(attrgetter("shift"), cubes)) - {shift}:
        raise ValueError("all members must carry the family shift")
    if bad := [q for q in cubes if len(q.coord) != mesh.n]:
        raise ValueError(f"cube {bad[0]} has {len(bad[0].coord)} coordinates, not {mesh.n}")
    t = mesh.level_table(shift)
    j = _int64(list(map(attrgetter("level"), cubes))) - mesh.coarsest_level
    if len(bad := np.flatnonzero((j < 0) | (j >= len(t.starts)))):
        raise ValueError(f"cube level {cubes[bad[0]].level} outside the mesh range")
    first = t.coords[t.starts]
    shape = (t.coords[t.ends - 1] - first + 1)[j]
    off = _int64(list(map(attrgetter("coord"), cubes))).reshape(len(cubes), mesh.n) - first[j]
    if len(bad := np.flatnonzero(np.any((off < 0) | (off >= shape), axis=1))):
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
            generation_cubes=family._cubes_at(idx),
            exact_le_bound=(total3 << k) <= root3,
        ))
    return out


# ---------------------------------------------------------------------------
# Corona decomposition (``rieszw.corona``)


def corona_decompose(
    family: SparseFamily,
    root: DyadicCube,
    u: StepFunction,
    sigma: StepFunction,
    exps: ExponentTuple,
    mode: str = "classic",
) -> CoronaDecomposition:
    """Corona decomposition of the members inside root
    (``corona.corona_decomposes`` of the one pair).

    Slices: 2^a < (avg_Q u)^{1/q} (avg_Q sigma)^{1/p'} <= 2^{a+1}; in
    fractional mode the slicing quantity carries the extra factor
    |Q|^{alpha/n + 1/q - 1/p}.  Stopping cubes: coarse-to-fine first hit of
    |Q|^{alpha/n} avg_Q u > 2 |P|^{alpha/n} avg_P u against the finest
    stopping ancestor P.  Cubes with vanishing u- or sigma-average belong
    to no slice and are counted in ``skipped``.  ``AssertionError`` if the
    decomposition fails its certificate."""
    from .corona import corona_decomposes

    cd = corona_decomposes(family, root, [(u, sigma)], exps, mode)[0]
    if isinstance(cd, AssertionError):
        raise cd
    return cd


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
