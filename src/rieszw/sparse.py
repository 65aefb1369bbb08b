"""Sparse families, their certificates, overlap level sets, the corona
decomposition, and Carleson-sequence checks.

All measure arithmetic on unions of grid cubes is exact: cubes of one grid
are nested or disjoint, cube corners are integer multiples of h/3, and cube
volumes are integers in units of (h/3)^n.  The members of a family form one
containment forest (:attr:`SparseFamily.forest`), found level by level in
O(|S| * levels); the certificates sum integer volumes over its children and
generations instead of testing cubes pairwise, and a sparse sum is a sum
down the chain of members over each cell centre.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .mesh import DyadicCube, Mesh, StepFunction
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
    order; index m stands for no member in ``owner`` and ``chain``."""

    level: np.ndarray  # (m,) int64
    lo3: np.ndarray  # (m, n) int64 lower corners, thirds of the finest cell width
    hi3: np.ndarray  # (m, n) int64 upper corners
    volume: np.ndarray  # (m,) 2^(-level * n)
    parent: np.ndarray  # (m,) int64 finest strictly containing member, -1 if maximal
    depth: np.ndarray  # (m,) int64 members containing it, itself included
    owner: np.ndarray  # cells' shape, int64: the deepest member containing the cell centre, or m
    chain: np.ndarray  # (max depth, m + 1) int64: each member's ancestors, then itself, coarse to fine, front-padded with m


@dataclass(frozen=True)
class SparseFamily:
    """A set of cubes from one shifted grid of the mesh.

    Sparsity itself is a property certified by :func:`verify_sparse`, not a
    constructor invariant, so that failing fixtures can be represented."""

    mesh: Mesh
    shift: tuple[int, ...]
    cubes: tuple[DyadicCube, ...]

    def __post_init__(self):
        levels = self.mesh.levels()
        seen = set()
        for q in self.cubes:
            if q.shift != self.shift:
                raise ValueError("all members must carry the family shift")
            if q.level not in levels:
                raise ValueError(f"cube level {q.level} outside the mesh range")
            for m, r in zip(q.coord, self.mesh.coord_range(self.shift, q.level)):
                if not (r.start <= m < r.stop):
                    raise ValueError(f"cube {q} is not in the enumeration")
            if q in seen:
                raise ValueError(f"duplicate cube {q}")
            seen.add(q)
        # keep a canonical coarse-to-fine order
        object.__setattr__(
            self, "cubes", tuple(sorted(self.cubes, key=lambda c: (c.level, c.coord)))
        )

    def __len__(self) -> int:
        return len(self.cubes)

    @functools.cached_property
    def forest(self) -> Forest:
        """The members' geometry and forest, computed once per family.

        Members are level-contiguous and coordinate-sorted, so for each
        member level k the finer members' lower corners are floored to the
        level-k lattice and looked up among the level-k members by binary
        search; the finest level with a hit gives the parent.  The members
        over a cell centre form one chain, so its deepest has the largest
        index: the owner is a running max of each level's painted indices."""
        mesh = self.mesh
        level = np.array([q.level for q in self.cubes], dtype=np.int64)
        lo3, hi3 = mesh.bounds3(self.cubes)
        m = len(level)
        parent = np.full(m, -1, dtype=np.int64)
        depth = np.ones(m, dtype=np.int64)
        owner = np.full((mesh.cells_per_axis,) * mesh.n, -1, dtype=np.int64)
        levels, starts = np.unique(level, return_index=True)
        for k, start, stop in zip(levels.tolist(), starts.tolist(), [*starts[1:].tolist(), m]):
            here = _flat_index(mesh, self.shift, k, lo3[start:stop])
            there = _flat_index(mesh, self.shift, k, lo3[stop:])
            pos = np.minimum(np.searchsorted(here, there), len(here) - 1)
            hit = here[pos] == there
            parent[stop:][hit] = start + pos[hit]
            depth[stop:] += hit
            g = mesh.grid(self.shift)[k - mesh.coarsest_level]
            slot = np.full(math.prod(g.shape), -1, dtype=np.int64)
            slot[here] = np.arange(start, stop)
            np.maximum(owner, g.gather(slot), out=owner)
        owner[owner < 0] = m
        up = np.append(np.where(parent < 0, m, parent), m)
        chain = np.empty((int(depth.max(initial=1)), m + 1), dtype=np.int64)
        chain[-1] = np.arange(m + 1)
        for r in range(len(chain) - 2, -1, -1):
            chain[r] = up[chain[r + 1]]
        out = Forest(level, lo3, hi3, np.ldexp(1.0, -mesh.n * level), parent, depth, owner, chain)
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


def build_sparse(
    f: StepFunction, shift: Sequence[int], alpha: float
) -> tuple[SparseFamily, float]:
    """The union over k of the maximal enumerated cubes with average
    > a^k, a = 2^(n+1), together with the explicit constant C for which
    dyadic_riesz(f) <= C * sparse_riesz(f, S) holds at every cell.

    A cube Q is maximal at threshold a^k iff a^k >= (max average over its
    enumerated ancestors) and a^k < avg_Q; so Q belongs to some slice iff
    the slice index of its ancestor-max is strictly below its own.  This
    reproduces every S_k without scanning thresholds one by one."""
    mesh = f.mesh
    shift = tuple(shift)
    if not 0.0 < alpha < mesh.n:
        raise ValueError("alpha must lie in (0, n)")
    if f.total() <= 0.0:
        raise ValueError("f must not vanish identically")
    a = 2.0 ** (mesh.n + 1)
    cubes: list[DyadicCube] = []
    prev = None  # the coarser level's averages and ancestor maxima
    for g in mesh.grid(shift):
        avg = f.integral_box3(g.lo3, g.hi3) / 2.0 ** (-g.level * mesh.n)
        if prev is None:
            anc = np.zeros(len(avg))
        else:
            pidx = _flat_index(mesh, shift, prev["level"], g.lo3)
            anc = np.maximum(prev["anc"][pidx], prev["avg"][pidx])
        pos = avg > 0.0
        member = pos.copy()
        both = pos & (anc > 0.0)
        if both.any():
            ka = _ilog_lt(np.where(both, anc, 1.0), a)
            kv = _ilog_lt(np.where(both, avg, 1.0), a)
            member[both] = ka[both] < kv[both]
        for i in np.flatnonzero(member):
            cubes.append(DyadicCube(shift, g.level, tuple(int(c) for c in g.coords[i])))
        prev = {"avg": avg, "anc": anc, "level": g.level}
    family = SparseFamily(mesh, shift, tuple(cubes))
    return family, domination_constant(mesh.n, alpha)


def _flat_index(mesh: Mesh, shift, level: int, lo3: np.ndarray) -> np.ndarray:
    """Row-major index, in ``Mesh.level_cube_coords`` order, of the level
    cube that contains each thirds-unit point of ``lo3`` (shape (m, n))."""
    scale = 1 << (mesh.finest_exponent - level)
    sgn = 1 if level % 2 == 0 else -1
    coord = (lo3 // scale - sgn * np.asarray(shift, dtype=np.int64)) // 3
    idx = np.zeros(len(coord), dtype=np.int64)
    for axis, r in enumerate(mesh.coord_range(tuple(shift), level)):
        idx = idx * len(r) + (coord[:, axis] - r.start)
    return idx


def _ancestor_levels(mesh: Mesh, shift, level: np.ndarray, lo3: np.ndarray):
    """For grid cubes with the given levels and lower corners: per grid
    level k, coarse to fine while some cube has level >= k, yield the level
    table, the mask of those cubes, the sorted flat indices of their level-k
    ancestors, and each masked cube's position among them."""
    for g in mesh.grid(shift):
        below = level >= g.level
        if not below.any():
            return
        idx, inv = np.unique(_flat_index(mesh, shift, g.level, lo3[below]), return_inverse=True)
        yield g, below, idx, inv


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
    if k < 1:
        raise ValueError("need k >= 1")
    mesh, a = family.mesh, family.forest
    n, L = mesh.n, mesh.finest_exponent
    inside = family.contained_in(root)
    lo, hi = root.bounds3(L)
    above = (a.level < root.level) & np.all(a.lo3 <= lo, axis=1) & np.all(a.hi3 >= hi, axis=1)
    idx = np.flatnonzero(inside & (a.depth == np.count_nonzero(above) + k + 1))
    gen_cubes = tuple(family.cubes[i] for i in idx)
    levels, counts = np.unique(a.level[idx], return_counts=True)
    total3 = sum(c * _vol3(n, L, j) for j, c in zip(levels.tolist(), counts.tolist()))
    root3 = _vol3(n, L, root.level)
    cell_vol = (mesh.cell_width / 3.0) ** n
    return OverlapReport(
        measure=total3 * cell_vol,
        bound=2.0**-k * root3 * cell_vol,
        generation_cubes=gen_cubes,
        exact_le_bound=(total3 << k) <= root3,
    )


# ---------------------------------------------------------------------------
# Corona decomposition


@dataclass
class CoronaDecomposition:
    exps: ExponentTuple
    mesh: Mesh
    root: DyadicCube
    mode: str  # "classic" or "fractional"
    slices: dict[int, list[DyadicCube]]
    stopping: dict[int, dict[DyadicCube, int]]  # cube -> generation (0-based)
    pi: dict[int, dict[DyadicCube, DyadicCube]]
    bindex: dict[int, dict[DyadicCube, int]]
    fracavg: dict[DyadicCube, float]
    u_avg: dict[DyadicCube, float]
    sigma_avg: dict[DyadicCube, float]
    skipped: int
    gamma: float  # every slice index satisfies a <= gamma
    forest_parent: dict[DyadicCube, DyadicCube]  # member -> its forest parent, both inside root
    certified: bool = False

    @functools.cached_property
    def _groups(self) -> dict[tuple[int, DyadicCube], list[DyadicCube]]:
        """Every Q^a(P), keyed by (a, P), in slice order."""
        out: dict[tuple[int, DyadicCube], list[DyadicCube]] = {}
        for a, cubes in self.slices.items():
            for q in cubes:
                out.setdefault((a, self.pi[a][q]), []).append(q)
        return out

    def group(self, a: int, P: DyadicCube) -> list[DyadicCube]:
        """Q^a(P): the cubes of slice a whose stopping parent is P."""
        return list(self._groups.get((a, P), ()))

    def bgroup(self, a: int, P: DyadicCube, b: int) -> list[DyadicCube]:
        """Q^a_b(P)."""
        return [q for q in self.group(a, P) if self.bindex[a][q] == b]

    def bvalues(self, a: int, P: DyadicCube) -> list[int]:
        return sorted({self.bindex[a][q] for q in self.group(a, P)})


def _nearest(up: Mapping[DyadicCube, DyadicCube], q: DyadicCube, keep) -> DyadicCube | None:
    """The finest strict forest ancestor of q that lies in keep, or None."""
    p = up.get(q)
    while p is not None and p not in keep:
        p = up.get(p)
    return p


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
    to no slice and are counted in ``skipped``."""
    if mode not in ("classic", "fractional"):
        raise ValueError("mode must be 'classic' or 'fractional'")
    mesh = family.mesh
    inside = family.contained_in(root)
    members = [family.cubes[i] for i in np.flatnonzero(inside)]
    up = {
        family.cubes[i]: family.cubes[p]
        for i, p in enumerate(family.forest.parent.tolist())
        if p >= 0 and inside[i] and inside[p]
    }
    e = exps.alpha / exps.n + 1.0 / exps.q - 1.0 / exps.p
    fracavg: dict[DyadicCube, float] = {}
    u_avg: dict[DyadicCube, float] = {}
    s_avg: dict[DyadicCube, float] = {}
    skipped = 0
    vmax = 0.0
    values: list[float] = []
    for q in members:
        ua = u.cube_average(q)
        sa = sigma.cube_average(q)
        if ua <= 0.0 or sa <= 0.0:
            skipped += 1
            continue
        v = ua ** (1.0 / exps.q) * sa ** (1.0 / exps.p_prime)
        if mode == "fractional":
            v *= q.volume**e
        vmax = max(vmax, v)
        values.append(v)
        fracavg[q] = q.volume ** (exps.alpha / exps.n) * ua
        u_avg[q] = ua
        s_avg[q] = sa
    # members come coarse to fine, so every slice is in (level, coord) order
    slices: dict[int, list[DyadicCube]] = {}
    for q, a in zip(fracavg, _ilog_lt(np.array(values), 2.0).tolist()):
        slices.setdefault(a, []).append(q)
    stopping: dict[int, dict[DyadicCube, int]] = {}
    pi: dict[int, dict[DyadicCube, DyadicCube]] = {}
    bindex: dict[int, dict[DyadicCube, int]] = {}
    for a, cubes in slices.items():
        stop_a: dict[DyadicCube, int] = {}
        pi_a: dict[DyadicCube, DyadicCube] = {}
        for q in cubes:
            parent = _nearest(up, q, stop_a)
            if parent is None:
                stop_a[q] = 0
                pi_a[q] = q
            elif fracavg[q] > 2.0 * fracavg[parent]:
                stop_a[q] = stop_a[parent] + 1
                pi_a[q] = q
            else:
                pi_a[q] = parent
        b = -_ilog_lt(np.array([fracavg[q] / fracavg[pi_a[q]] for q in cubes]), 2.0)
        if np.any(b < 0):
            raise AssertionError("reverse inequality violated in b-slicing")
        stopping[a] = stop_a
        pi[a] = pi_a
        bindex[a] = dict(zip(cubes, b.tolist()))
    # v(Q)^q is the slicing product per cube, so log2 of its sup over the
    # decomposed cubes bounds every slice index a from above
    gamma = math.log2(vmax) if vmax > 0.0 else -math.inf
    cd = CoronaDecomposition(
        exps=exps,
        mesh=mesh,
        root=root,
        mode=mode,
        slices=slices,
        stopping=stopping,
        pi=pi,
        bindex=bindex,
        fracavg=fracavg,
        u_avg=u_avg,
        sigma_avg=s_avg,
        skipped=skipped,
        gamma=gamma,
        forest_parent=up,
    )
    _certify_corona(cd, mode, exps)
    return cd


def _certify_corona(cd: CoronaDecomposition, mode: str, exps: ExponentTuple):
    """All four structural invariants, by direct recomputation."""
    seen: set[DyadicCube] = set()
    for a, cubes in cd.slices.items():
        if a > cd.gamma:
            raise AssertionError("slice index exceeds the characteristic bound")
        for q in cubes:
            if q in seen:
                raise AssertionError("slices are not disjoint")
            seen.add(q)
            v = cd.u_avg[q] ** (1.0 / exps.q) * cd.sigma_avg[q] ** (1.0 / exps.p_prime)
            if mode == "fractional":
                e = exps.alpha / exps.n + 1.0 / exps.q - 1.0 / exps.p
                v *= q.volume**e
            if not (2.0**a < v <= 2.0 ** (a + 1)):
                raise AssertionError("slice membership violated")
            P = cd.pi[a][q]
            if not (P == q or P.contains_cube(q)):
                raise AssertionError("stopping parent does not contain its cube")
            if cd.fracavg[q] > 2.0 * cd.fracavg[P] and P != q:
                raise AssertionError("reverse inequality violated")
            b = cd.bindex[a][q]
            lo = 2.0**-b * cd.fracavg[P]
            hi = 2.0 ** (-b + 1) * cd.fracavg[P]
            if not (lo < cd.fracavg[q] <= hi):
                raise AssertionError("b-slice membership violated")
        for q, gen in cd.stopping[a].items():
            if gen == 0:
                continue
            # the stopping inequality against the finest coarser stopping cube
            anc = [p for p in cd.stopping[a] if p != q and p.contains_cube(q)]
            P = max(anc, key=lambda c: c.level)
            if not cd.fracavg[q] > 2.0 * cd.fracavg[P]:
                raise AssertionError("stopping inequality violated")
            if cd.stopping[a][P] != gen - 1:
                raise AssertionError("stopping generation bookkeeping broken")
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
    level = np.array([q.level for q, _ in support])
    lo3, _ = mesh.bounds3([q for q, _ in support])
    weight = np.array([v for _, v in support], dtype=np.float64)
    best, witness = 0.0, None
    for g, below, idx, inv in _ancestor_levels(mesh, shift, level, lo3):
        # each ancestor's total is summed in support order from 0, as sum() is
        totals = np.bincount(inv, weights=weight[below])
        muR = mu.integral_box3(g.lo3[idx], g.hi3[idx])
        with np.errstate(divide="ignore"):
            vals = np.where(muR <= 0.0, math.inf, totals / muR)
        i = int(np.argmax(vals))
        if vals[i] > best:
            best = float(vals[i])
            witness = DyadicCube(shift, g.level, tuple(g.coords[idx[i]].tolist()))
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


def sigma_decay_check(
    cd: CoronaDecomposition,
    sigma: StepFunction,
    kmax: int = 10,
) -> DecayReport:
    """sigma(F^a_b(k,P))/sigma(P) for k = 0..kmax.

    F^a_b(k,P) is the (k+1)-st generation union of the containment forest
    of Q^a_b(P), so sigma(F) is an exact sum of disjoint cube integrals.
    The decay exponent asserted downstream is c = 1 (provable from the
    overlap lemma plus the two-sided comparability of the frozen averages);
    the proof's composite exponent is reported, not asserted."""
    rows: list[DecayRow] = []
    worst = 0.0
    skipped = 0
    for a in sorted(cd.slices):
        for P in sorted(cd.stopping[a], key=lambda c: (c.level, c.coord)):
            sp = sigma.cube_integral(P)
            if sp <= 0.0:
                skipped += 1
                continue
            for b in cd.bvalues(a, P):
                # generations of Q^a_b(P); its cubes come coarse to fine
                gen: dict[DyadicCube, int] = {}
                for q in cd.bgroup(a, P, b):
                    p = _nearest(cd.forest_parent, q, gen)
                    gen[q] = 1 if p is None else gen[p] + 1
                for k in range(0, kmax + 1):
                    sf = sum(sigma.cube_integral(q) for q, g in gen.items() if g == k + 1)
                    ratio = sf / sp
                    rows.append(DecayRow(a, b, P, k, ratio))
                    if k >= 1:
                        worst = max(worst, ratio * 2.0**k)
    kmaxratio: dict[int, float] = {}
    for row in rows:
        kmaxratio[row.k] = max(kmaxratio.get(row.k, 0.0), row.ratio)
    pts = [(k, r) for k, r in kmaxratio.items() if k >= 1 and r > 0.0]
    if len(pts) >= 2:
        ks = np.array([p[0] for p in pts], dtype=np.float64)
        ys = np.log2([p[1] for p in pts])
        fitted = float(-np.polyfit(ks, ys, 1)[0])
    else:
        fitted = math.inf
    exps = cd.exps
    reported = 1.0 + (exps.p_prime / exps.q_prime) * exps.alpha / exps.n
    return DecayReport(tuple(rows), worst, fitted, reported, skipped)
