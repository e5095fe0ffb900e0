import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amipoly.lattice import (
    LatticePolygon,
    RadicalSum,
    Record,
    boundary_point_count,
    interior_point_count,
    is_perfect_square,
    radical_sum_is_rational,
    squared_side_lengths,
    three_radical_sum_is_rational,
    twice_area,
    two_radical_sum_is_rational,
)

from amipoly.matching import SearchReport, ShapeFingerprint, ShapeRecord
from amipoly.rectangles import PartnerSolution, RectSides
from amipoly.triangles import HeronianTriangle, TriangleSides

from _oracles import LATTICE_MAPS, direct_boundary_count, direct_interior_count, floor_sqrt_scaled


def tri(*coords):
    return LatticePolygon.from_coords(coords)


UNIT_SQUARE = LatticePolygon.from_coords([(0, 0), (1, 0), (1, 1), (0, 1)])


class TestTwiceArea:
    def test_companion_triangle(self):
        assert twice_area(tri((0, 0), (24, 7), (24, 10))) == 72

    def test_half_unit_triangle(self):
        assert twice_area(tri((0, 0), (1, 0), (0, 1))) == 1

    def test_collinear_is_zero(self):
        assert twice_area(tri((0, 0), (2, 4), (1, 2))) == 0

    def test_rectangle(self):
        assert twice_area(LatticePolygon.from_coords([(0, 0), (7, 0), (7, 10), (0, 10)])) == 140

    def test_orientation_independent(self):
        cw = tri((0, 0), (0, 9), (12, 0))
        ccw = tri((0, 0), (12, 0), (0, 9))
        assert twice_area(cw) == twice_area(ccw) == 108


class TestPointCounts:
    def test_unit_square_boundary(self):
        assert boundary_point_count(UNIT_SQUARE) == 4

    def test_unit_square_interior(self):
        assert interior_point_count(UNIT_SQUARE) == 0

    def test_right_triangle_boundary(self):
        # golden value from the direct point-by-point oracle
        verts = [(0, 0), (0, 9), (12, 0)]
        assert direct_boundary_count(verts) == 24
        assert boundary_point_count(tri(*verts)) == 24

    def test_tall_sliver_boundary(self):
        verts = [(0, 0), (24, 7), (24, 10)]
        assert direct_boundary_count(verts) == 6
        assert boundary_point_count(tri(*verts)) == 6

    def test_right_triangle_interior(self):
        verts = [(0, 0), (0, 9), (12, 0)]
        assert direct_interior_count(verts) == 43
        assert interior_point_count(tri(*verts)) == 43

    def test_tall_sliver_interior(self):
        verts = [(0, 0), (24, 7), (24, 10)]
        assert interior_point_count(tri(*verts)) == direct_interior_count(verts) == 34

    def test_half_unit_interior(self):
        assert interior_point_count(tri((0, 0), (1, 0), (0, 1))) == 0

    def test_degenerate_rejected(self):
        degenerate = tri((0, 0), (2, 4), (1, 2))
        with pytest.raises(ValueError):
            boundary_point_count(degenerate)
        with pytest.raises(ValueError):
            interior_point_count(degenerate)

    def test_axis_parallel_4gons_are_rectangles_or_degenerate(self):
        # the point counts have no rectangle test of their own: every axis-parallel
        # 4-gon on the grid is a rectangle or is rejected for its zero area.
        grid = [(x, y) for x in range(-2, 3) for y in range(-2, 3)]
        along_axis = {p: [q for q in grid if q != p and (q[0] == p[0] or q[1] == p[1])] for p in grid}
        kinds = {"rectangle": 0, "degenerate": 0}
        for v0 in grid:
            for v1 in along_axis[v0]:
                for v2 in along_axis[v1]:
                    for v3 in along_axis[v2]:
                        if v3 not in along_axis[v0]:
                            continue
                        vertices = (v0, v1, v2, v3)
                        try:
                            boundary_point_count(LatticePolygon.from_coords(vertices))
                        except ValueError as exc:
                            assert str(exc) == "degenerate polygon: twice_area is 0"
                            kinds["degenerate"] += 1
                            continue
                        # four distinct corners of a box, joined along its sides
                        xs, ys = {x for x, _ in vertices}, {y for _, y in vertices}
                        assert len(xs) == len(ys) == len(set(vertices)) - 2 == 2
                        kinds["rectangle"] += 1
        assert kinds["rectangle"] and kinds["degenerate"]


class TestSides:
    def test_squared_sides_sliver(self):
        assert squared_side_lengths(tri((0, 0), (24, 7), (24, 10))) == [625, 9, 676]

    def test_squared_sides_right(self):
        assert squared_side_lengths(tri((0, 0), (0, 9), (12, 0))) == [81, 225, 144]

    def test_squared_sides_square(self):
        assert squared_side_lengths(UNIT_SQUARE) == [1, 1, 1, 1]


class TestPolygonValidation:
    def test_too_few_vertices(self):
        with pytest.raises(ValueError):
            LatticePolygon.from_coords([(0, 0), (1, 1)])

    def test_repeated_consecutive_vertex(self):
        with pytest.raises(ValueError):
            LatticePolygon.from_coords([(0, 0), (0, 0), (1, 1)])

    def test_wraparound_repeat(self):
        with pytest.raises(ValueError):
            LatticePolygon.from_coords([(0, 0), (1, 0), (0, 0)])

    @pytest.mark.parametrize("build", [LatticePolygon.from_coords, LatticePolygon])
    @pytest.mark.parametrize("x, y", [(0.5, 1), (1, 2.0)])
    def test_non_integer_coordinates(self, build, x, y):
        with pytest.raises(TypeError, match="lattice coordinates must be integers"):
            build([(0, 0), (x, y), (0, 3)])

    @pytest.mark.parametrize("build", [LatticePolygon.from_coords, LatticePolygon])
    def test_bool_coordinates(self, build):
        with pytest.raises(TypeError, match="lattice coordinates must be integers"):
            build([(0, 0), (True, False), (0, 3)])


class TestRadicalSums:
    def test_two_squares(self):
        r = RadicalSum.of(4, 9)
        assert radical_sum_is_rational(r)

    def test_two_non_squares(self):
        assert not radical_sum_is_rational(RadicalSum.of(2, 8))

    def test_triangle_perimeter_radicals(self):
        r = RadicalSum.of(81, 225, 144)
        assert radical_sum_is_rational(r)

    def test_three_non_squares(self):
        assert not radical_sum_is_rational(RadicalSum.of(2, 3, 6))

    def test_three_non_squares_numeric_bound(self):
        # sqrt(2)+sqrt(3)+sqrt(6) lies strictly between 5 and 6, so it is not
        # an integer; 40 scaled digits leave the floor-sum error below 3 ulps.
        v = floor_sqrt_scaled(2) + floor_sqrt_scaled(3) + floor_sqrt_scaled(6)
        scale = 10**40
        assert 5 * scale < v and v + 3 < 6 * scale

    def test_elementary_two_path_examples(self):
        assert two_radical_sum_is_rational(4, 9)
        assert not two_radical_sum_is_rational(2, 8)
        # product is a square but the sum is 3*sqrt(2): second squaring catches it
        assert not two_radical_sum_is_rational(2, 2)
        # x + y + 2*isqrt(x*y) is the square 9 or 25: only the product test refuses them
        assert not two_radical_sum_is_rational(2, 3)
        assert not two_radical_sum_is_rational(5, 8)

    def test_elementary_three_path_examples(self):
        assert three_radical_sum_is_rational(81, 225, 144)
        assert not three_radical_sum_is_rational(2, 3, 6)
        assert not three_radical_sum_is_rational(2, 8, 50)
        # 2 + sqrt(6): sqrt(1) + sqrt(1) is rational, but 6 is not a square
        assert not three_radical_sum_is_rational(1, 1, 6)

    def test_bad_radicand(self):
        with pytest.raises(ValueError, match="at least one radicand"):
            RadicalSum(())
        with pytest.raises(ValueError):
            RadicalSum.of(0)
        with pytest.raises(ValueError):
            RadicalSum.of(4, -9)
        with pytest.raises(ValueError):
            two_radical_sum_is_rational(0, 4)

    def test_multiset_is_canonical(self):
        assert RadicalSum.of(9, 4).radicands == (4, 9)

    def test_bool_radicand_rejected(self):
        # True == 1 is a perfect square, so a bool would read as rational
        with pytest.raises(ValueError):
            RadicalSum.of(True, 4)
        with pytest.raises(ValueError):
            RadicalSum((4, False))

    @pytest.mark.parametrize(
        "check, radicands",
        [
            (two_radical_sum_is_rational, (True, 4)),
            (three_radical_sum_is_rational, (True, True, 4)),
            (two_radical_sum_is_rational, (2.0, 8)),
        ],
    )
    def test_elementary_paths_take_the_radical_sum_rule(self, check, radicands):
        with pytest.raises(ValueError, match="radicand must be a positive integer"):
            check(*radicands)
        with pytest.raises(ValueError, match="radicand must be a positive integer"):
            RadicalSum(radicands)


@given(
    p=st.integers(-50, 50),
    q=st.integers(-50, 50),
    r=st.integers(-50, 50),
    s=st.integers(-50, 50),
)
def test_shoelace_matches_cross_product(p, q, r, s):
    expected = abs(p * s - q * r)
    if (p, q) == (0, 0) or (r, s) == (0, 0) or (p, q) == (r, s):
        return  # not a polygon
    assert twice_area(tri((0, 0), (p, q), (r, s))) == expected


coord = st.integers(-20, 20)


@settings(max_examples=200)
@given(ax=coord, ay=coord, bx=coord, by=coord, cx=coord, cy=coord)
def test_pick_identity_against_scan(ax, ay, bx, by, cx, cy):
    verts = [(ax, ay), (bx, by), (cx, cy)]
    if len({tuple(v) for v in verts}) < 3:
        return
    poly = tri(*verts)
    doubled = twice_area(poly)
    if doubled == 0:
        return
    b = boundary_point_count(poly)
    i = interior_point_count(poly)
    assert b == direct_boundary_count(verts)
    assert i == direct_interior_count(verts)
    assert doubled == 2 * i + b - 2


@settings(max_examples=200)
@given(
    ax=coord, ay=coord, bx=coord, by=coord, cx=coord, cy=coord,
    sym=st.sampled_from(LATTICE_MAPS),
    tx=st.integers(-30, 30), ty=st.integers(-30, 30),
)
def test_symmetry_invariance(ax, ay, bx, by, cx, cy, sym, tx, ty):
    verts = [(ax, ay), (bx, by), (cx, cy)]
    if len({tuple(v) for v in verts}) < 3:
        return
    poly = tri(*verts)
    moved = LatticePolygon.from_coords(
        (x + tx, y + ty) for x, y in (sym(*v) for v in poly.vertices)
    )
    assert twice_area(moved) == twice_area(poly)
    assert sorted(squared_side_lengths(moved)) == sorted(squared_side_lengths(poly))
    if twice_area(poly) > 0:
        assert boundary_point_count(moved) == boundary_point_count(poly)


@given(roots=st.lists(st.integers(1, 40), min_size=1, max_size=6))
def test_all_square_radicands_sum_to_integer(roots):
    r = RadicalSum.of(*(k * k for k in roots))
    assert radical_sum_is_rational(r)


@given(
    radicands=st.lists(st.integers(1, 2000), min_size=1, max_size=6),
    non_square=st.integers(2, 2000),
)
def test_any_non_square_radicand_makes_sum_irrational(radicands, non_square):
    if is_perfect_square(non_square):
        non_square += 1  # 2..2001 always contains a non-square neighbour
    if is_perfect_square(non_square):
        return
    r = RadicalSum.of(non_square, *radicands)
    assert not radical_sum_is_rational(r)


SRC = Path(__file__).resolve().parents[1] / "src"


def plain(cls, *fields):
    """A record of a class with the default constructor, and the fields it was given."""
    return cls(*fields), fields


# Two records of each class, given in field-tuple order, and the fields of each.
RECORD_CASES = {
    "RectSides": lambda: [(RectSides(2, 13), (2, 13)), (RectSides(3, 10), (3, 10))],
    "TriangleSides": lambda: [
        (TriangleSides(3, 25, 26), (3, 25, 26)),
        (TriangleSides(9, 12, 15), (9, 12, 15)),
    ],
    "HeronianTriangle": lambda: [
        (HeronianTriangle(TriangleSides(5, 5, 6), 12), (TriangleSides(5, 5, 6), 12)),
        (HeronianTriangle(TriangleSides(5, 5, 8), 12), (TriangleSides(5, 5, 8), 12)),
    ],
    "ShapeRecord": lambda: [
        (ShapeRecord((1, 34)), ((1, 34), 34, 70)),
        (ShapeRecord((7, 10)), ((7, 10), 70, 34)),
    ],
    "ShapeFingerprint": lambda: [
        plain(ShapeFingerprint, 18, 18, "equable-rectangles:3x6"),
        plain(ShapeFingerprint, 34, 70, "rectangles:1x34"),
    ],
    "PartnerSolution": lambda: [
        plain(PartnerSolution, "non-integer", None, None),
        plain(PartnerSolution, "solved", 10, 13),
    ],
    "SearchReport": lambda: [
        plain(SearchReport, "equable-rectangles", 6, 2, (), (ShapeRecord((3, 6)), ShapeRecord((4, 4))), ()),
        plain(SearchReport, "rectangles", None, 0, ((ShapeRecord((1, 34)), ShapeRecord((7, 10))),), (), ()),
    ],
}


class TestRecords:
    def test_cli_import_loads_neither_dataclasses_nor_inspect(self):
        """Nor, after a command has run, argparse, gettext or locale; nor json,
        even after a command prints JSON."""
        probe = (
            "import sys; from amipoly.cli import main; "
            "main(['verify', 'all', '--format', 'table']); "
            "main(['verify', 'all', '--format', 'csv']); "
            "main(['tri', 'embed', '3', '25', '26', '--format', 'json']); "
            "print(sorted({'argparse', 'csv', 'dataclasses', 'gettext', 'inspect', 'json', 'locale'}"
            " & set(sys.modules)))"
        )
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        lines = out.stdout.splitlines()
        assert lines[-1] == "[]"

    @pytest.mark.parametrize("name", RECORD_CASES)
    def test_unequal_to_its_field_tuple(self, name):
        for record, fields in RECORD_CASES[name]():
            assert record != fields and fields != record
            assert tuple(getattr(record, field) for field in type(record).__slots__) == fields

    def test_unequal_across_classes_with_equal_fields(self):
        class Pair(Record):
            __slots__ = ("short", "long")

        assert RectSides(2, 13) != Pair(2, 13)

    @pytest.mark.parametrize("name", RECORD_CASES)
    def test_assignment_raises(self, name):
        record, _ = RECORD_CASES[name]()[0]
        field = type(record).__slots__[0]
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.extra = 1

    @pytest.mark.parametrize("name", RECORD_CASES)
    def test_hash_agrees_with_equality(self, name):
        (first, _), (second, _) = RECORD_CASES[name]()
        (again, _), _ = RECORD_CASES[name]()
        assert first is not again and first == again and hash(first) == hash(again)
        assert first != second
        assert len({first, again, second}) == 2

    @pytest.mark.parametrize("name", RECORD_CASES)
    def test_sorted_order_is_field_tuple_order(self, name):
        cases = RECORD_CASES[name]()
        records = [record for record, _ in cases]
        assert sorted(reversed(records)) == records
        assert records[0] < records[1] and records[1] > records[0]
        assert records[0] <= records[0] >= records[0]
        assert sorted(fields for _, fields in cases) == [fields for _, fields in cases]
        with pytest.raises(TypeError):
            records[0] < cases[0][1]

    @pytest.mark.parametrize("name", RECORD_CASES)
    def test_repr(self, name):
        record, _ = RECORD_CASES[name]()[0]
        assert repr(record).startswith(f"{name}(")
        assert repr(RectSides(2, 13)) == "RectSides(short=2, long=13)"

    def test_construction_validates(self):
        with pytest.raises(ValueError):
            RectSides(3, 2)
        with pytest.raises(ValueError):
            TriangleSides(1, 2, 3)
        with pytest.raises(ValueError):
            HeronianTriangle(TriangleSides(5, 5, 6), 13)
        with pytest.raises(TypeError, match="ShapeFingerprint takes 3 fields, got 2"):
            ShapeFingerprint(1, 2)
