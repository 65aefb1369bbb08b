import ast
import itertools
import pathlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rieszw.mesh import DyadicCube, LevelTable, Mesh, StepFunction
import rieszw
from rieszw.mesh import BoxPlan, NonFiniteError, _checked, _containing_coord, _prefix_sums
from rieszw.operators import dyadic_riesz
from rieszw.sparse import build_sparse

from conftest import _flat_index, level_bounds3, level_grids, lognormal
from reference_geometry import (
    CoveringError,
    contains_cube,
    contains_point,
    coord_range,
    covering_shifted_cube,
    cube_containing_cell,
    enumerate_cubes,
    intersects_cube,
    level_cube_coords,
    lower,
)


def lowers(cubes):
    return sorted(lower(c)[0] for c in cubes)


class TestEnumeration:
    def test_unit_interval_two_levels(self):
        mesh = Mesh(1, 0, 1, coarse_padding=0)
        cubes = enumerate_cubes(mesh, (0,))
        assert len(cubes) == 3
        assert [(c.level, lower(c)[0], c.side) for c in cubes] == [
            (0, 0.0, 1.0),
            (1, 0.0, 0.5),
            (1, 0.5, 0.5),
        ]

    def test_one_padding_level_adds_parent(self):
        mesh = Mesh(1, 0, 0, coarse_padding=1)
        cubes = enumerate_cubes(mesh, (0,))
        assert [(c.level, lower(c)[0], c.side) for c in cubes] == [
            (-1, 0.0, 2.0),
            (0, 0.0, 1.0),
        ]

    def test_shifted_grid_from_formula(self):
        # 2^{-k}([0,1) + m + (-1)^k/3) intersected with [0,1)
        mesh = Mesh(1, 0, 1, coarse_padding=0)
        cubes = enumerate_cubes(mesh, (1,))
        by_level = {}
        for c in cubes:
            by_level.setdefault(c.level, []).append(c)
        assert lowers(by_level[0]) == pytest.approx([-2 / 3, 1 / 3])
        assert lowers(by_level[1]) == pytest.approx([-1 / 6, 1 / 3, 5 / 6])
        for c in cubes:
            lo = lower(c)[0]
            assert lo < 1.0 and lo + c.side > 0.0

    def test_invalid_shift_rejected(self):
        mesh = Mesh(1, 0, 1)
        with pytest.raises(ValueError):
            enumerate_cubes(mesh, (2,))


class TestCovering:
    def test_covers_with_bounded_side(self):
        mesh = Mesh(1, 0, 4)
        shift, cube = covering_shifted_cube(mesh, [0.4], [0.9])
        assert cube.shift == shift
        assert lower(cube)[0] <= 0.4 and lower(cube)[0] + cube.side >= 0.9
        assert cube.side <= 6 * 0.5

    def test_shift_required_when_no_aligned_cube_fits(self):
        # [0.4, 1.1) straddles the level-0 boundary at 1; only the shifted
        # grid has a cube of side <= 6 * 0.7 containing it
        mesh = Mesh(1, 1, 4)
        shift, cube = covering_shifted_cube(mesh, [0.4], [1.1])
        assert shift == (1,)
        assert lower(cube)[0] <= 0.4 and lower(cube)[0] + cube.side >= 1.1

    def test_already_dyadic(self):
        mesh = Mesh(1, 0, 4)
        shift, cube = covering_shifted_cube(mesh, [0], [1])
        assert shift == (0,) and cube == DyadicCube((0,), 0, (0,))

    def test_awkward_box(self):
        mesh = Mesh(1, 0, 4)
        _, cube = covering_shifted_cube(mesh, [Fraction(26, 100)], [Fraction(51, 100)])
        assert cube.side <= 6 * 0.25
        assert lower(cube)[0] <= 0.26 and lower(cube)[0] + cube.side >= 0.51

    def test_no_admissible_level(self):
        mesh = Mesh(1, 0, 2, coarse_padding=0)
        with pytest.raises(CoveringError):
            # needs a level coarser than the truncation allows
            covering_shifted_cube(mesh, [0], [Fraction(9, 2)])


class TestStepFunction:
    def test_constant_integrals(self):
        mesh = Mesh(1, 0, 3)
        f = StepFunction.constant(mesh, 1.0)
        half = DyadicCube((0,), 1, (0,))
        assert f.cube_integral(half) == pytest.approx(0.5)
        assert f.cube_average(half) == pytest.approx(1.0)
        # padding cube: zero extension outside the base box
        pad = DyadicCube((0,), -1, (0,))
        assert f.cube_integral(pad) == pytest.approx(1.0)
        assert f.cube_average(pad) == pytest.approx(0.5)

    def test_piecewise_integral(self):
        mesh = Mesh(1, 0, 3)
        vals = np.zeros(8)
        vals[:4] = 2.0
        f = StepFunction(mesh, vals)
        root = DyadicCube((0,), 0, (0,))
        assert f.cube_integral(root) == pytest.approx(1.0)
        assert f.cube_average(root) == pytest.approx(1.0)

    def test_rejects_negative_and_bad_shape(self):
        mesh = Mesh(1, 0, 2)
        with pytest.raises(ValueError):
            StepFunction(mesh, -np.ones(4))
        with pytest.raises(ValueError):
            StepFunction(mesh, np.ones(5))

    def test_immutable(self):
        mesh = Mesh(1, 0, 2)
        f = StepFunction.constant(mesh, 1.0)
        with pytest.raises(AttributeError):
            f.values = np.zeros(4)

    def test_prefix_integral_matches_bruteforce_2d(self):
        mesh = Mesh(2, 0, 3)
        f = lognormal(mesh, 3)
        rng = np.random.default_rng(0)
        for _ in range(40):
            lo = rng.integers(0, 24, size=2)
            hi = lo + rng.integers(1, 25 - lo)
            # brute force: thirds-resolution Riemann sum
            fine = np.repeat(np.repeat(f.values, 3, axis=0), 3, axis=1)
            brute = fine[lo[0] : hi[0], lo[1] : hi[1]].sum() * (mesh.cell_width / 3) ** 2
            got = float(f.integral_box3(lo, hi))
            assert got == pytest.approx(brute, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2])
    def test_batched_box_sums_equal_each_frame(self, n):
        # a stack of frames with a leading batch axis and one corner set for
        # all of them, boxes reaching past every edge: each row is that
        # frame's own integral_box3
        mesh = Mesh(n, 0, 3)
        rng = np.random.default_rng(5)
        frames = [lognormal(mesh, 40 + i) for i in range(4)]
        stack = np.stack([f.values for f in frames])
        lo = rng.integers(-5, 24, size=(30, n))
        hi = lo + rng.integers(0, 30, size=(30, n))
        assert (lo < 0).any() and (hi > 24).any()
        got = BoxPlan(list(lo.T), list(hi.T), stack.shape[-n:]).sums(stack)
        assert got.shape == (4, 30)
        for i, f in enumerate(frames):
            assert np.array_equal(got[i] * mesh.cell_volume, f.integral_box3(lo, hi))


CUBE1 = st.builds(
    lambda sh, k, m: DyadicCube((sh,), k, (m,)),
    st.integers(0, 1),
    st.integers(-3, 4),
    st.integers(-4, 4),
)


class TestCubeGeometry:
    @given(CUBE1, CUBE1)
    @settings(max_examples=300, deadline=None)
    def test_nesting_trichotomy(self, a, b):
        # same grid: two cubes are disjoint or nested, never partial overlap
        if a.shift != b.shift:
            return
        if intersects_cube(a, b):
            assert contains_cube(a, b) or contains_cube(b, a)

    @given(CUBE1)
    @settings(max_examples=100, deadline=None)
    def test_bounds3_match_float_corners(self, c):
        lo3, hi3 = c.bounds3(6)
        third = 2.0**-6 / 3.0
        assert lo3[0] * third == pytest.approx(lower(c)[0], abs=1e-12)
        assert (hi3[0] - lo3[0]) * third == pytest.approx(c.side, rel=1e-12)

    def test_parent_contains_children_exactly(self):
        mesh = Mesh(1, 0, 4)
        f = lognormal(mesh, 9)
        for shift in mesh.shifts():
            for level in range(-1, 4):
                for coord in coord_range(mesh, shift, level)[0]:
                    parent = DyadicCube(shift, level, (coord,))
                    kids = [
                        c
                        for c in (
                            DyadicCube(shift, level + 1, (m,))
                            for m in range(2 * coord - 3, 2 * coord + 4)
                        )
                        if contains_cube(parent, c)
                    ]
                    assert len(kids) == 2
                    total = sum(f.cube_integral(c) for c in kids)
                    assert total == pytest.approx(f.cube_integral(parent), rel=1e-12, abs=1e-15)

    def test_cube_containing_cell_center(self):
        mesh = Mesh(1, 0, 4)
        h = mesh.cell_width
        for shift in mesh.shifts():
            for level in (-2, 0, 2, 4):
                for i in range(mesh.cells_per_axis):
                    cube = cube_containing_cell(mesh, shift, level, (i,))
                    assert contains_point(cube, ((i + 0.5) * h,))

    def test_mesh_validation(self):
        with pytest.raises(ValueError):
            Mesh(3, 0, 2)
        with pytest.raises(ValueError):
            Mesh(1, 0, -1)
        with pytest.raises(ValueError):
            Mesh(2, 0, 11)  # 2^22 cells exceeds the dense-operator budget

    def test_cell_budget(self):
        # 2^20 cells is the budget: one level finer is refused
        assert Mesh(1, 0, 20).total_cells == 1 << 20
        with pytest.raises(ValueError, match="exceeding budget"):
            Mesh(1, 0, 21)

    @pytest.mark.parametrize("n, J, L", [(1, 0, 6), (1, 1, 5), (2, 0, 6), (2, 1, 3)])
    def test_thirds_corners_fit_int64(self, n, J, L):
        # the coarsest cube's corners reach 3 * 2^(J+L+T) thirds units: at
        # J + L + T = 60 its centre window is the whole frame and it holds
        # the box's integral; one padding level more is refused
        mesh = Mesh(n, J, L, coarse_padding=60 - J - L)
        N = mesh.cells_per_axis
        ones = StepFunction.constant(mesh, 1.0)
        for shift in mesh.shifts():
            t = mesh.level_table(shift)
            assert t.level[0] == mesh.coarsest_level and t.single > 0
            i0, i1 = mesh.center_window(t.lo3[0], t.hi3[0])
            assert i0.tolist() == [0] * n and i1.tolist() == [N] * n
            assert ones.integral_box3(t.lo3[0], t.hi3[0]) == mesh.box_side**n
        with pytest.raises(ValueError, match=r"J \+ L \+ T <= 60"):
            Mesh(n, J, L, coarse_padding=61 - J - L)

    def test_box_side_below_one(self):
        # J < 0 is valid while J + L >= 0: the box is smaller than [0, 1)^n
        assert Mesh(1, -1, 5).box_side == 0.5
        assert Mesh(2, -3, 3).box_side == 0.125
        assert [Mesh(1, J, 2).box_side for J in (0, 1, 4)] == [1.0, 2.0, 16.0]


TABLE_MESHES = [
    Mesh(1, 0, 4),
    Mesh(1, 1, 3),
    Mesh(2, 0, 2),
    Mesh(2, 1, 2),
    Mesh(1, 0, 4, coarse_padding=0),
    Mesh(1, 1, 3, coarse_padding=0),
    Mesh(2, 0, 2, coarse_padding=0),
    Mesh(2, 1, 2, coarse_padding=0),
]


def climb(t, pos, steps):
    """The table position ``steps`` levels up ``t.parent`` from each of ``pos``."""
    for _ in range(steps):
        pos = t.parent[pos]
    return pos


class TestLevelTable:
    """``Mesh.level_table`` against the per-level arrays and the scalar
    ``cube_containing_cell``, at every shift and level."""

    @pytest.mark.parametrize(
        "mesh",
        TABLE_MESHES,
        ids=lambda m: f"n{m.n}-J{m.base_exponent}-L{m.finest_exponent}-T{m.coarse_padding}",
    )
    def test_table_matches_scalar_geometry(self, mesh):
        N = mesh.cells_per_axis
        L = mesh.finest_exponent
        box3 = 3 * N
        for shift in mesh.shifts():
            t = mesh.level_table(shift)
            assert mesh.level_table(list(shift)) is t
            assert t.level.tolist() == sorted(t.level.tolist())
            assert np.unique(t.level).tolist() == list(mesh.levels())
            assert t.cells.shape == (N,) * mesh.n and t.cells.dtype == np.int64
            for k, a, b in zip(mesh.levels(), t.starts.tolist(), t.ends.tolist()):
                coords = level_cube_coords(mesh, shift, k)
                lo3, hi3 = level_bounds3(mesh, shift, k)
                assert np.array_equal(t.coords[a:b], coords)
                assert np.array_equal(t.lo3[a:b], lo3) and np.array_equal(t.hi3[a:b], hi3)
                assert np.all(t.level[a:b] == k)
                inside = np.all(lo3 >= 0, axis=1) & np.all(hi3 <= box3, axis=1)
                assert np.array_equal(t.in_box[a:b], inside)
                assert t.volume[a:b].tolist() == [2.0 ** (-k * mesh.n)] * (b - a)
                # the level-k cube over each cell centre, L - k steps up
                # from the finest
                painted = climb(t, t.cells, L - k)
                assert np.all((a <= painted) & (painted < b))
                for cell in itertools.product(range(N), repeat=mesh.n):
                    cube = cube_containing_cell(mesh, shift, k, cell)
                    assert tuple(t.coords[painted[cell]].tolist()) == cube.coord

    @pytest.mark.parametrize(
        "mesh",
        [Mesh(n, J, L, coarse_padding=T) for n, L in ((1, 4), (2, 2)) for J in (0, 1) for T in (0, 40)],
        ids=lambda m: f"n{m.n}-J{m.base_exponent}-L{m.finest_exponent}-T{m.coarse_padding}",
    )
    def test_table_equals_per_level_builder(self, mesh):
        L = mesh.finest_exponent
        for shift in mesh.shifts():
            t = mesh.level_table(shift)
            assert len(t.starts) == len(mesh.levels())
            for g, a, b in zip(level_grids(mesh, shift), t.starts.tolist(), t.ends.tolist()):
                for x, y in zip((t.coords[a:b], t.lo3[a:b], t.hi3[a:b], t.in_box[a:b]),
                                (g.coords, g.lo3, g.hi3, g.in_box)):
                    assert x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x, y)
                assert t.level[a:b].tolist() == [g.level] * (b - a)
                assert t.volume[a:b].tolist() == [2.0 ** (-g.level * mesh.n)] * (b - a)
                assert np.array_equal(climb(t, t.cells, L - g.level) - a, g.gather(np.arange(b - a)))
            for x in (t.coords, t.lo3, t.hi3, t.level, t.in_box, t.volume, t.starts, t.parent, t.cells):
                assert not x.flags.writeable
            assert (t.level.dtype, t.volume.dtype) == (np.int64, np.float64)

    @pytest.mark.parametrize(
        "mesh",
        TABLE_MESHES,
        ids=lambda m: f"n{m.n}-J{m.base_exponent}-L{m.finest_exponent}-T{m.coarse_padding}",
    )
    def test_whole_table(self, mesh):
        """The level runs of the arrays, each cube's parent position, and
        the count of leading one-cube levels."""
        for shift in mesh.shifts():
            t = mesh.level_table(shift)
            sizes = [len(level_cube_coords(mesh, shift, k)) for k in mesh.levels()]
            assert t.ends.tolist() == np.cumsum(sizes).tolist()
            for k, a, b in zip(mesh.levels(), t.starts.tolist(), t.ends.tolist()):
                if k == mesh.coarsest_level:
                    assert np.all(t.parent[a:b] == -1)
                else:
                    expect = _flat_index(mesh, shift, k - 1, t.lo3[a:b]) + t.starts[k - mesh.coarsest_level - 1]
                    assert np.array_equal(t.parent[a:b], expect)
                    assert np.all(t.lo3[t.parent[a:b]] <= t.lo3[a:b])
                    assert np.all(t.hi3[a:b] <= t.hi3[t.parent[a:b]])
            assert sizes[: t.single] == [1] * t.single and 1 not in sizes[t.single :]

    @pytest.mark.parametrize(
        "mesh",
        TABLE_MESHES,
        ids=lambda m: f"n{m.n}-J{m.base_exponent}-L{m.finest_exponent}-T{m.coarse_padding}",
    )
    def test_maximal_levels_start_at_finest_one_cube_level(self, mesh):
        for shift in mesh.shifts():
            sizes = np.diff(mesh.level_table(shift).ends, prepend=0).tolist()
            one = [k for k, size in zip(mesh.levels(), sizes) if size == 1]
            expect = range(one[-1], mesh.finest_exponent + 1) if one else mesh.levels()
            assert mesh.maximal_levels(shift) == expect

    def test_flag_out_of_range_rejected(self):
        mesh = Mesh(1, 0, 4)
        with pytest.raises(ValueError, match=r"invalid shift \(2,\)"):
            dyadic_riesz(lognormal(mesh, 1), 0.5, (2,))
        with pytest.raises(ValueError, match="invalid shift"):
            mesh.level_table((2,))

    def test_negative_flag_rejected(self):
        mesh = Mesh(1, 0, 4)
        with pytest.raises(ValueError, match=r"invalid shift \(-1,\)"):
            build_sparse(lognormal(mesh, 2), (-1,), 0.5)
        with pytest.raises(ValueError, match="invalid shift"):
            mesh.level_table((-1,))

    def test_wrong_length_shift_rejected(self):
        line, square = Mesh(1, 0, 4), Mesh(2, 0, 2)
        with pytest.raises(ValueError, match=r"invalid shift \(0, 1\)"):
            dyadic_riesz(lognormal(line, 3), 0.5, (0, 1))
        with pytest.raises(ValueError, match=r"invalid shift \(1,\)"):
            build_sparse(lognormal(square, 4), (1,), 0.5)
        assert not line._tables and not square._tables


def direct_level_table(mesh: Mesh, shift: tuple[int, ...]) -> LevelTable:
    """The n-generic build that the 2-D product of line tables replaced,
    copied as its oracle: every cube of every level worked out on its own."""
    L = mesh.finest_exponent
    levels = np.arange(mesh.coarsest_level, L + 1)
    scale = np.array([1 << (L - k) for k in levels.tolist()], dtype=np.int64)
    offset = (1 - 2 * (levels % 2))[:, None] * np.asarray(shift, dtype=np.int64)
    box3 = 3 * mesh.cells_per_axis
    m_lo = -((2 + offset) // 3)
    counts = ((box3 - 1) // scale[:, None] - offset) // 3 - m_lo + 1  # (levels, n)
    level_of, index = mesh.window_cells(m_lo, counts)
    coords = np.stack(index, axis=1)
    del index
    cube_scale = scale[level_of, None]
    lo3 = 3 * coords
    lo3 += offset[level_of]
    lo3 *= cube_scale
    hi3 = lo3 + 3 * cube_scale
    del cube_scale
    in_box = np.all(lo3 >= 0, axis=1) & np.all(hi3 <= box3, axis=1)
    sizes = counts.prod(axis=1)
    starts = np.cumsum(sizes) - sizes
    up = np.maximum(level_of - 1, 0)
    coarse = lo3 // scale[up, None]
    coarse -= offset[up]
    coarse //= 3
    coarse -= m_lo[up]
    parent = coarse[:, 0].copy()
    for axis in range(1, mesh.n):
        parent *= counts[up, axis]
        parent += coarse[:, axis]
    parent += starts[up]
    parent[level_of == 0] = -1
    del coarse, up
    cells = 0
    for axis, flag in enumerate(shift):
        row = _containing_coord(np.arange(mesh.cells_per_axis), flag, L, L) - m_lo[-1, axis]
        cells = cells * counts[-1, axis] + row.reshape((-1,) + (1,) * (mesh.n - 1 - axis))
    cells += starts[-1]
    volume = np.ldexp(1.0, -mesh.n * levels)[level_of]
    level_of += mesh.coarsest_level
    out = LevelTable(coords, lo3, hi3, level_of, in_box, volume, starts, parent, cells,
                     int(np.count_nonzero(sizes == 1)))
    for x in out[:-1]:
        x.setflags(write=False)
    return out


class TestTableCubes:
    """``Mesh.table_cubes`` against cubes built one by one from the table,
    as each caller built them before."""

    @pytest.mark.parametrize("mesh", TABLE_MESHES, ids=str)
    def test_positions_and_slices(self, mesh):
        for shift in mesh.shifts():
            t = mesh.level_table(shift)
            expect = tuple(DyadicCube(shift, int(t.level[p]), tuple(t.coords[p].tolist()))
                           for p in range(len(t.level)))
            assert mesh.table_cubes(shift, slice(None)) == expect
            assert mesh.table_cubes(list(shift), np.arange(1, len(expect), 3)) == expect[1::3]
            assert mesh.table_cubes(shift, [len(expect) - 1, 0]) == (expect[-1], expect[0])
            assert mesh.table_cubes(shift, np.zeros(0, dtype=np.intp)) == ()
            for q in mesh.table_cubes(shift, slice(None)):
                assert type(q.shift) is tuple and type(q.level) is int
                assert all(type(c) is int for c in q.coord)


ORACLE_GRID = [(J, L, T) for J in (-3, -1, 0, 1, 2) for L in range(-1, 9) if J + L >= 0 for T in (0, 1, 2, 3, 40)]


class TestProductTableOracle:
    """Every level table against the direct build, field by field with ==,
    dtype, shape, layout and write flag included: a 2-D table is the
    product of two line tables, and a line table is built directly."""

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("J, L, T", ORACLE_GRID, ids=[f"J{J}-L{L}-T{T}" for J, L, T in ORACLE_GRID])
    def test_table_equals_direct_build(self, n, J, L, T):
        mesh = Mesh(n, J, L, coarse_padding=T)
        for shift in mesh.shifts():
            got, expect = mesh.level_table(shift), direct_level_table(mesh, shift)
            for name, x, y in zip(LevelTable._fields, got, expect):
                if isinstance(y, np.ndarray):
                    assert (x.dtype, x.shape, x.flags.writeable, x.flags.c_contiguous) == (
                        y.dtype, y.shape, y.flags.writeable, y.flags.c_contiguous), name
                    assert np.array_equal(x, y), name
                else:
                    assert type(x) is type(y) and x == y, name
            del got, expect, mesh._tables[shift]  # one large table pair alive at a time

    def test_four_shifts_make_two_line_builds(self, monkeypatch):
        # every table build goes through _line_table, so two calls, both on
        # the 1-D mesh, mean two line builds and no direct 2-D build
        builds = []
        line_table = Mesh._line_table
        monkeypatch.setattr(Mesh, "_line_table",
                            lambda mesh, flag: builds.append((mesh.n, flag)) or line_table(mesh, flag))
        mesh = Mesh(2, 1, 3)
        tables = [mesh.level_table(shift) for shift in mesh.shifts()]
        assert sorted(builds) == [(1, 0), (1, 1)]
        assert all(mesh.level_table(shift) is t for shift, t in zip(mesh.shifts(), tables))
        assert len(builds) == 2
        assert mesh._line == Mesh(1, 1, 3) and mesh._line is mesh._line


class TestCorpusTable:
    """``Mesh.corpus`` against the in-box slices of the level tables."""

    @pytest.mark.parametrize(
        "mesh",
        TABLE_MESHES,
        ids=lambda m: f"n{m.n}-J{m.base_exponent}-L{m.finest_exponent}-T{m.coarse_padding}",
    )
    def test_corpus_is_the_in_box_slices(self, mesh):
        c = mesh.corpus
        assert mesh.corpus is c
        parts = [(s, g) for s in mesh.shifts() for g in level_grids(mesh, s) if g.in_box.any()]
        assert list(c.segments) == [(s, g.level) for s, g in parts]
        sizes = [int(g.in_box.sum()) for _, g in parts]
        assert c.starts.tolist() == (np.cumsum(sizes) - sizes).tolist()
        assert c.ends.tolist() == np.cumsum(sizes).tolist()
        for name in ("coords", "lo3", "hi3"):
            expect = np.concatenate([getattr(g, name)[g.in_box] for _, g in parts])
            assert np.array_equal(getattr(c, name), expect)
        assert np.array_equal(c.level, np.repeat([g.level for _, g in parts], sizes))
        for a in c[:5]:
            assert not a.flags.writeable
        cubes = [DyadicCube(s, g.level, tuple(x)) for s, g in parts for x in g.coords[g.in_box].tolist()]
        assert [c.cube(i) for i in range(len(cubes))] == cubes
        lo3, hi3 = mesh.bounds3(cubes)
        assert np.all(lo3 >= 0) and np.all(hi3 <= 3 * mesh.cells_per_axis)

    def test_level_factors_are_python_pow(self):
        mesh = Mesh(1, 0, 5)
        for alpha in (0.3, 0.5, 1, 2):
            table = mesh.level_factors(alpha)
            assert mesh.level_factors(alpha) is table and not table.flags.writeable
            assert table.tolist() == [2.0 ** (-k * alpha) for k in mesh.levels()]


# ---------------------------------------------------------------------------
# BoxPlan against the box sums it replaced


def parent_prefix_sums(values: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """Prefix sums of cell values over their last ``n`` axes, each with a
    leading zero per axis; leading axes are a batch of frames.  1-d: (S,);
    2-d: (P, RP, CP), the full sums and the sums along each row and each
    column.  Each is a running ``cumsum``, so frames that agree on a window
    and are zero outside it have the window's own prefix sums there."""
    lead, shape = values.shape[:-n], values.shape[-n:]
    if n == 1:
        S = np.zeros((*lead, shape[0] + 1))
        np.cumsum(values, axis=-1, out=S[..., 1:])
        return (S,)
    rows, cols = shape
    P = np.zeros((*lead, rows + 1, cols + 1))
    np.cumsum(np.cumsum(values, axis=-2), axis=-1, out=P[..., 1:, 1:])
    RP = np.zeros((*lead, rows, cols + 1))
    np.cumsum(values, axis=-1, out=RP[..., 1:])
    CP = np.zeros((*lead, rows + 1, cols))
    np.cumsum(values, axis=-2, out=CP[..., 1:, :])
    return P, RP, CP


def parent_axis_terms(x3: np.ndarray, size: int):
    """A corner coordinate (thirds units) clamped to a frame axis of
    ``size`` cells: its whole cells, the fraction of the next one, and that
    cell's index kept inside the frame."""
    i, r = np.divmod(np.minimum(np.maximum(x3, 0), 3 * size), 3)
    return i, r / 3.0, np.minimum(i, size - 1)


def parent_corner(pref, values, terms, batch):
    """Integral of the cells over [0, x) per axis, in cell volumes, from
    each axis's ``_axis_terms``."""
    if len(terms) == 1:
        ((i, fx, iv),) = terms
        return pref[0][(*batch, i)] + fx * values[(*batch, iv)]
    P, RP, CP = pref
    (i, fx, iv), (j, fy, jv) = terms
    return (P[(*batch, i, j)] + fx * RP[(*batch, iv, j)] + fy * CP[(*batch, i, jv)]
            + fx * fy * values[(*batch, iv, jv)])


def parent_box_sums(pref, values, lo3, hi3) -> np.ndarray:
    """Sums of the cell values over boxes [lo3, hi3), in cell volumes and
    clipped at zero, from the ``_prefix_sums`` of ``values``.  ``lo3`` and
    ``hi3`` hold one integer corner array per axis (thirds units, clamped
    to the frame here), all broadcast together.  If ``values`` has more
    axes than there are corner arrays, the leading ones are a batch of
    frames that share the corners, and the sums gain those axes in front."""
    size = values.shape[-len(lo3):]
    # an Ellipsis spans the batch axes, and indexes faster than an index array
    batch = (Ellipsis,) if values.ndim > len(lo3) else ()
    lo = [parent_axis_terms(x, m) for x, m in zip(lo3, size)]
    hi = [parent_axis_terms(x, m) for x, m in zip(hi3, size)]
    if len(lo) == 1:
        out = parent_corner(pref, values, hi, batch) - parent_corner(pref, values, lo, batch)
    else:
        (x0, y0), (x1, y1) = lo, hi
        out = (parent_corner(pref, values, (x1, y1), batch) - parent_corner(pref, values, (x0, y1), batch)
               - parent_corner(pref, values, (x1, y0), batch) + parent_corner(pref, values, (x0, y0), batch))
    return np.maximum(out, 0.0)


def assert_same_bits(got, expect):
    """``==`` on the int64 views, so that the sign of a zero counts."""
    got, expect = np.asarray(got, dtype=np.float64), np.asarray(expect, dtype=np.float64)
    assert got.shape == expect.shape
    assert np.array_equal(got.reshape(-1).view(np.int64), expect.reshape(-1).view(np.int64))


PLAN_MESHES = [Mesh(n, J, L, coarse_padding=T) for n, L in ((1, 5), (2, 3)) for J in (0, 1) for T in (0, 40)]


def plan_box_sets(mesh, rng):
    """(label, lo3, hi3) box sets of shape (count, n): every level table,
    the corpus, random boxes reaching past every frame edge (some empty or
    inverted), every one-cell box, and boxes inside the left half of the
    frame, where ``half_zero`` vanishes."""
    n, N = mesh.n, mesh.cells_per_axis
    sets = [(f"table{t}", mesh.level_table(t).lo3, mesh.level_table(t).hi3) for t in mesh.shifts()]
    sets.append(("corpus", mesh.corpus.lo3, mesh.corpus.hi3))
    lo = rng.integers(-7, 3 * N + 4, size=(300, n))
    hi = lo + rng.integers(-3, 3 * N + 10, size=(300, n))
    assert (lo < 0).any() and (hi > 3 * N).any() and (hi <= lo).any()
    sets.append(("random", lo, hi))
    cells = np.stack([g.ravel() for g in np.meshgrid(*[np.arange(N)] * n, indexing="ij")], axis=1)
    sets.append(("one-cell", 3 * cells, 3 * cells + 3))
    lo = rng.integers(0, 3 * (N // 2), size=(50, n))
    lo[:, 1:] = rng.integers(0, 3 * N, size=(50, n - 1))
    hi = lo + rng.integers(0, 4, size=(50, n))
    hi[:, 0] = np.minimum(hi[:, 0], 3 * (N // 2))
    sets.append(("zero-mass", lo, hi))
    return sets


class TestBoxPlanOracle:
    """``BoxPlan``, the one-off plan of ``integral_box3`` and the corpus
    plan against the parent's ``_box_sums``, ``==`` bit for bit."""

    @pytest.mark.parametrize("mesh", PLAN_MESHES, ids=lambda m: f"n{m.n}-J{m.base_exponent}-T{m.coarse_padding}")
    def test_single_frames(self, mesh):
        n, N = mesh.n, mesh.cells_per_axis
        rng = np.random.default_rng(11)
        half_zero = lognormal(mesh, 12).values.copy()
        half_zero[: N // 2] = 0.0
        frames = [lognormal(mesh, 13).values, half_zero, np.zeros((N,) * n)]
        for label, lo3, hi3 in plan_box_sets(mesh, rng):
            lo, hi = list(lo3.T), list(hi3.T)
            plan = BoxPlan(lo, hi, (N,) * n)
            for values in frames:
                expect = parent_box_sums(parent_prefix_sums(values, n), values, lo, hi)
                assert_same_bits(plan.sums(values), expect)
                got = StepFunction(mesh, values).integral_box3(lo3, hi3)
                assert_same_bits(got, expect * mesh.cell_volume)
            if label == "zero-mass":
                assert np.all(plan.sums(half_zero) == 0.0)
        for values in frames:
            f = StepFunction(mesh, values)
            assert_same_bits(f.plan_integrals(mesh.corpus_plan), f.integral_box3(mesh.corpus.lo3, mesh.corpus.hi3))

    @pytest.mark.parametrize("mesh", PLAN_MESHES, ids=lambda m: f"n{m.n}-J{m.base_exponent}-T{m.coarse_padding}")
    def test_batched_frames(self, mesh):
        n, N = mesh.n, mesh.cells_per_axis
        rng = np.random.default_rng(14)
        stack = np.stack([lognormal(mesh, 50 + i).values for i in range(30)])
        stack[1, : N // 2] = 0.0
        stack[2] = 0.0
        for _, lo3, hi3 in plan_box_sets(mesh, rng):
            lo, hi = list(lo3.T), list(hi3.T)
            plan = BoxPlan(lo, hi, (N,) * n)
            for rows in (1, 4, 30):
                values = stack[:rows]
                pref = _prefix_sums(values, n)
                expect = parent_box_sums(parent_prefix_sums(values, n), values, lo, hi)
                assert expect.shape == (rows, len(lo3))
                assert_same_bits(plan.sums(values), expect)
                assert_same_bits(BoxPlan(lo, hi, values.shape[-n:])._sums(pref), expect)

    @pytest.mark.parametrize("rows", [None, 1, 4])
    @pytest.mark.parametrize("n", [1, 2])
    def test_prefix_table_holds_the_parent_sums(self, n, rows):
        # each table is the parent's array, padded by its last row or column
        for mesh in (Mesh(n, 0, 0), Mesh(n, 0, 3)):
            N = mesh.cells_per_axis
            lead = () if rows is None else (rows,)
            values = np.exp(np.random.default_rng(17).standard_normal((*lead, *(N,) * n)))
            table = _prefix_sums(values, n)
            assert table.shape == (2**n, *lead, (N + 1) ** n)
            table = table.reshape(2**n, *lead, *(N + 1,) * n)
            if n == 1:
                (S,) = parent_prefix_sums(values, n)
                padded = [S, np.concatenate([values, values[..., -1:]], axis=-1)]
            else:
                P, RP, CP = parent_prefix_sums(values, n)
                V = np.concatenate([values, values[..., -1:, :]], axis=-2)
                padded = [P, np.concatenate([RP, RP[..., -1:, :]], axis=-2),
                          np.concatenate([CP, CP[..., -1:]], axis=-1), np.concatenate([V, V[..., -1:]], axis=-1)]
            for k, expect in enumerate(padded):
                assert_same_bits(table[k], expect)

    @pytest.mark.parametrize("n", [1, 2])
    def test_broadcast_and_scalar_corners(self, n):
        mesh = Mesh(n, 0, 3)
        N = mesh.cells_per_axis
        rng = np.random.default_rng(15)
        f = lognormal(mesh, 16)
        pref = parent_prefix_sums(f.values, n)
        # per axis, lower corners along one axis and upper corners along another
        lo = [rng.integers(-4, 3 * N, size=(5, 1)) for _ in range(n)]
        hi = [rng.integers(0, 3 * N + 4, size=(1, 7)) for _ in range(n)]
        got = BoxPlan(lo, hi, (N,) * n).sums(f.values)
        assert got.shape == (5, 7)
        assert_same_bits(got, parent_box_sums(pref, f.values, lo, hi))
        lo, hi = rng.integers(0, 3 * N, size=n), rng.integers(0, 3 * N, size=n) + 3
        expect = parent_box_sums(pref, f.values, list(lo), list(hi))
        assert_same_bits(f.integral_box3(lo, hi), expect * mesh.cell_volume)
        assert np.ndim(f.integral_box3(lo, hi)) == 0

    @pytest.mark.parametrize("n", [1, 2])
    def test_corpus_integrals_are_kept_and_read_only(self, n):
        mesh = Mesh(n, 1, 3)
        f = lognormal(mesh, 5)
        ints = f._corpus_integrals()
        assert f._corpus_integrals() is ints and not ints.flags.writeable
        assert_same_bits(ints, f.plan_integrals(mesh.corpus_plan))
        assert_same_bits(ints, f.integral_box3(mesh.corpus.lo3, mesh.corpus.hi3))

    def test_corpus_plan_is_cached_and_read_only(self):
        mesh = Mesh(2, 0, 3)
        plan = mesh.corpus_plan
        assert mesh.corpus_plan is plan
        assert plan.shape == (len(mesh.corpus.level),) and plan.size == (8, 8)
        for corner in plan.corners:
            for a in corner:
                assert not a.flags.writeable


# ---------------------------------------------------------------------------
# The prefix table is the mesh module's own


PREFIX_TABLE_NAMES = {"_prefix_sums", "_prefixes", "_pref", "_sums"}


def _identifiers(tree: ast.AST):
    """(name, line) of every identifier and attribute name in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name, node.lineno
            if node.asname:
                yield node.asname, node.lineno
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, ast.arg):
            yield node.arg, node.lineno
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg, node.lineno


def test_prefix_table_stays_in_mesh():
    # whole names only: ``weights._window_maximal_sums`` is no table access
    src = pathlib.Path(rieszw.__file__).parent
    modules = sorted(p for p in src.glob("*.py") if p.name != "mesh.py")
    assert len(modules) > 5
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line} {name}" for name, line in _identifiers(tree) if name in PREFIX_TABLE_NAMES]
    assert not found



@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1.0])
def test_checked_refuses_with_non_finite_error(value):
    with pytest.raises(NonFiniteError, match="values must be nonnegative and finite"):
        _checked(np.array([[1.0, 0.0], [2.0, value]]))
