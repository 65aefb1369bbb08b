import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rieszw.mesh import (
    CoveringError,
    DyadicCube,
    Mesh,
    StepFunction,
    covering_shifted_cube,
    enumerate_cubes,
)
from rieszw.mesh import _box_sums, _prefix_sums
from rieszw.operators import dyadic_riesz
from rieszw.sparse import build_sparse

from conftest import _flat_index, level_bounds3, level_grids, lognormal


def lowers(cubes):
    return sorted(c.lower()[0] for c in cubes)


class TestEnumeration:
    def test_unit_interval_two_levels(self):
        mesh = Mesh(1, 0, 1, coarse_padding=0)
        cubes = enumerate_cubes(mesh, (0,))
        assert len(cubes) == 3
        assert [(c.level, c.lower()[0], c.side) for c in cubes] == [
            (0, 0.0, 1.0),
            (1, 0.0, 0.5),
            (1, 0.5, 0.5),
        ]

    def test_one_padding_level_adds_parent(self):
        mesh = Mesh(1, 0, 0, coarse_padding=1)
        cubes = enumerate_cubes(mesh, (0,))
        assert [(c.level, c.lower()[0], c.side) for c in cubes] == [
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
            lo = c.lower()[0]
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
        assert cube.lower()[0] <= 0.4 and cube.lower()[0] + cube.side >= 0.9
        assert cube.side <= 6 * 0.5

    def test_shift_required_when_no_aligned_cube_fits(self):
        # [0.4, 1.1) straddles the level-0 boundary at 1; only the shifted
        # grid has a cube of side <= 6 * 0.7 containing it
        mesh = Mesh(1, 1, 4)
        shift, cube = covering_shifted_cube(mesh, [0.4], [1.1])
        assert shift == (1,)
        assert cube.lower()[0] <= 0.4 and cube.lower()[0] + cube.side >= 1.1

    def test_already_dyadic(self):
        mesh = Mesh(1, 0, 4)
        shift, cube = covering_shifted_cube(mesh, [0], [1])
        assert shift == (0,) and cube == DyadicCube((0,), 0, (0,))

    def test_awkward_box(self):
        mesh = Mesh(1, 0, 4)
        _, cube = covering_shifted_cube(mesh, [Fraction(26, 100)], [Fraction(51, 100)])
        assert cube.side <= 6 * 0.25
        assert cube.lower()[0] <= 0.26 and cube.lower()[0] + cube.side >= 0.51

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
        # a stack of frames with a leading batch axis, boxes reaching past
        # every edge: each frame's sums are its own integral_box3's
        mesh = Mesh(n, 0, 3)
        rng = np.random.default_rng(5)
        frames = [lognormal(mesh, 40 + i) for i in range(4)]
        stack = np.stack([f.values for f in frames])
        lo = rng.integers(-5, 24, size=(4, 30, n))
        hi = lo + rng.integers(0, 30, size=(4, 30, n))
        got = _box_sums(_prefix_sums(stack, n), stack, [lo[..., a] for a in range(n)],
                        [hi[..., a] for a in range(n)], (np.arange(4)[:, None],))
        for i, f in enumerate(frames):
            expect = f.integral_box3(lo[i], hi[i])
            assert np.array_equal(got[i] * mesh.cell_volume, expect)


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
        if a.intersects_cube(b):
            assert a.contains_cube(b) or b.contains_cube(a)

    @given(CUBE1)
    @settings(max_examples=100, deadline=None)
    def test_bounds3_match_float_corners(self, c):
        lo3, hi3 = c.bounds3(6)
        third = 2.0**-6 / 3.0
        assert lo3[0] * third == pytest.approx(c.lower()[0], abs=1e-12)
        assert (hi3[0] - lo3[0]) * third == pytest.approx(c.side, rel=1e-12)

    def test_parent_contains_children_exactly(self):
        mesh = Mesh(1, 0, 4)
        f = lognormal(mesh, 9)
        for shift in mesh.shifts():
            for level in range(-1, 4):
                for coord in mesh.coord_range(shift, level)[0]:
                    parent = DyadicCube(shift, level, (coord,))
                    kids = [
                        c
                        for c in (
                            DyadicCube(shift, level + 1, (m,))
                            for m in range(2 * coord - 3, 2 * coord + 4)
                        )
                        if parent.contains_cube(c)
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
                    cube = mesh.cube_containing_cell(shift, level, (i,))
                    assert cube.contains_point(((i + 0.5) * h,))

    def test_mesh_validation(self):
        with pytest.raises(ValueError):
            Mesh(3, 0, 2)
        with pytest.raises(ValueError):
            Mesh(1, 0, -1)
        with pytest.raises(ValueError):
            Mesh(2, 0, 11)  # 2^22 cells exceeds the dense-operator budget

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
                coords = mesh.level_cube_coords(shift, k)
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
                    cube = mesh.cube_containing_cell(shift, k, cell)
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
            sizes = [len(mesh.level_cube_coords(shift, k)) for k in mesh.levels()]
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
        assert all(mesh.contains_cube(q) for q in cubes)

    def test_level_factors_are_python_pow(self):
        mesh = Mesh(1, 0, 5)
        for alpha in (0.3, 0.5, 1, 2):
            table = mesh.level_factors(alpha)
            assert mesh.level_factors(alpha) is table and not table.flags.writeable
            assert table.tolist() == [2.0 ** (-k * alpha) for k in mesh.levels()]
