import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rieszw.mesh import (
    CoveringError,
    DyadicCube,
    LevelGrid,
    Mesh,
    StepFunction,
    covering_shifted_cube,
    enumerate_cubes,
)
from rieszw.mesh import _box_sums, _prefix_sums
from rieszw.operators import dyadic_riesz
from rieszw.sparse import build_sparse

from conftest import _flat_index, level_bounds3, lognormal


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


def per_level_grid(mesh, shift, level):
    """One ``LevelGrid`` as ``Mesh.grid`` built it a level at a time."""
    coords = mesh.level_cube_coords(shift, level)
    scale = 1 << (mesh.finest_exponent - level)
    sgn = 1 if level % 2 == 0 else -1
    lo3 = (3 * coords + sgn * np.asarray(shift, dtype=np.int64)) * scale
    hi3 = lo3 + 3 * scale
    box3 = 3 * mesh.cells_per_axis
    in_box = np.all(lo3 >= 0, axis=1) & np.all(hi3 <= box3, axis=1)
    shape = tuple(len(r) for r in mesh.coord_range(shift, level))
    cell_cube = []
    for axis, count in enumerate(shape):
        if count == 1:
            cell_cube.append(np.zeros(mesh.cells_per_axis, dtype=np.int64))
            continue
        line = np.arange(count) * math.prod(shape[axis + 1 :])
        i0, i1 = mesh.center_window(lo3[line, axis], hi3[line, axis])
        cell_cube.append(np.repeat(np.arange(count), np.maximum(i1 - i0, 0)))
    return LevelGrid(level, coords, lo3, hi3, in_box, shape, tuple(cell_cube))


class TestLevelTable:
    """``Mesh.grid`` against the per-level arrays and the scalar
    ``cube_containing_cell``, at every shift and level."""

    @pytest.mark.parametrize(
        "mesh",
        TABLE_MESHES,
        ids=lambda m: f"n{m.n}-J{m.base_exponent}-L{m.finest_exponent}-T{m.coarse_padding}",
    )
    def test_table_matches_scalar_geometry(self, mesh):
        N = mesh.cells_per_axis
        box3 = 3 * N
        for shift in mesh.shifts():
            table = mesh.grid(shift)
            assert mesh.grid(list(shift)) is table
            assert [g.level for g in table] == list(mesh.levels())
            for g in table:
                k = g.level
                coords = mesh.level_cube_coords(shift, k)
                lo3, hi3 = level_bounds3(mesh, shift, k)
                assert np.array_equal(g.coords, coords)
                assert np.array_equal(g.lo3, lo3) and np.array_equal(g.hi3, hi3)
                assert g.shape == tuple(len(r) for r in mesh.coord_range(shift, k))
                inside = np.all(lo3 >= 0, axis=1) & np.all(hi3 <= box3, axis=1)
                assert np.array_equal(g.in_box, inside)
                for a in (g.coords, g.lo3, g.hi3, g.in_box, *g.cell_cube):
                    assert not a.flags.writeable
                assert [len(ix) for ix in g.cell_cube] == [N] * mesh.n
                painted = g.gather(np.arange(len(coords)))
                for cell in itertools.product(range(N), repeat=mesh.n):
                    cube = mesh.cube_containing_cell(shift, k, cell)
                    assert tuple(coords[painted[cell]]) == cube.coord

    @pytest.mark.parametrize(
        "mesh",
        [Mesh(n, J, L, coarse_padding=T) for n, L in ((1, 4), (2, 2)) for J in (0, 1) for T in (0, 40)],
        ids=lambda m: f"n{m.n}-J{m.base_exponent}-L{m.finest_exponent}-T{m.coarse_padding}",
    )
    def test_table_equals_per_level_builder(self, mesh):
        for shift in mesh.shifts():
            table = mesh.grid(shift)
            assert len(table) == len(mesh.levels())
            for g in table:
                expect = per_level_grid(mesh, shift, g.level)
                assert type(g.level) is int and g.level == expect.level
                assert g.shape == expect.shape and all(type(m) is int for m in g.shape)
                for a, b in zip((g.coords, g.lo3, g.hi3, g.in_box, *g.cell_cube),
                                (expect.coords, expect.lo3, expect.hi3, expect.in_box, *expect.cell_cube)):
                    assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
                    assert not a.flags.writeable

    @pytest.mark.parametrize(
        "mesh",
        TABLE_MESHES,
        ids=lambda m: f"n{m.n}-J{m.base_exponent}-L{m.finest_exponent}-T{m.coarse_padding}",
    )
    def test_whole_table(self, mesh):
        """The whole arrays under the level entries, each cube's parent
        position, the volumes and the count of leading one-cube levels."""
        for shift in mesh.shifts():
            t = mesh.level_table(shift)
            assert mesh.level_table(list(shift)) is t and mesh.grid(shift) is t.grids
            assert t.ends.tolist() == np.cumsum([len(g.coords) for g in t.grids]).tolist()
            for a in (t.coords, t.lo3, t.hi3, t.starts, t.parent):
                assert not a.flags.writeable
            prev = None
            for g, a, b in zip(t.grids, t.starts.tolist(), t.ends.tolist()):
                for whole, part in ((t.coords, g.coords), (t.lo3, g.lo3), (t.hi3, g.hi3)):
                    assert np.shares_memory(whole, part) and np.array_equal(whole[a:b], part)
                if prev is None:
                    assert np.all(t.parent[a:b] == -1)
                else:
                    expect = _flat_index(mesh, shift, prev.level, g.lo3) + t.starts[g.level - mesh.coarsest_level - 1]
                    assert np.array_equal(t.parent[a:b], expect)
                    assert np.all(t.lo3[t.parent[a:b]] <= g.lo3) and np.all(g.hi3 <= t.hi3[t.parent[a:b]])
                assert t.volume[a:b].tolist() == [2.0 ** (-g.level * mesh.n)] * (b - a)
                prev = g
            sizes = [len(g.coords) for g in t.grids]
            assert sizes[: t.single] == [1] * t.single and 1 not in sizes[t.single :]

    @pytest.mark.parametrize(
        "mesh",
        TABLE_MESHES,
        ids=lambda m: f"n{m.n}-J{m.base_exponent}-L{m.finest_exponent}-T{m.coarse_padding}",
    )
    def test_maximal_levels_start_at_finest_one_cube_level(self, mesh):
        for shift in mesh.shifts():
            one = [g.level for g in mesh.grid(shift) if len(g.coords) == 1]
            expect = range(one[-1], mesh.finest_exponent + 1) if one else mesh.levels()
            assert mesh.maximal_levels(shift) == expect

    def test_flag_out_of_range_rejected(self):
        mesh = Mesh(1, 0, 4)
        with pytest.raises(ValueError, match=r"invalid shift \(2,\)"):
            dyadic_riesz(lognormal(mesh, 1), 0.5, (2,))
        with pytest.raises(ValueError, match="invalid shift"):
            mesh.grid((2,))

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

    def test_single_cube_axes_share_one_array(self):
        mesh = Mesh(2, 0, 2)
        single = [ix for s in mesh.shifts() for g in mesh.grid(s) for ix in g.cell_cube
                  if g.shape == (1, 1)]
        assert len(single) > 2 and all(ix is single[0] for ix in single)



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
        parts = [(s, g) for s in mesh.shifts() for g in mesh.grid(s) if g.in_box.any()]
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
