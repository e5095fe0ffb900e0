import tracemalloc
from fractions import Fraction
from math import isqrt

import pytest

import amipoly.rectangles as rect_mod
from amipoly.rectangles import (
    RectAmicablePair,
    RectSides,
    _partner_quadratic,
    brute_force_pairs,
    enumerate_by_divisors,
    equable_rectangles,
    perimeter_dominant,
    small_side_candidates,
    solve_partner,
)

from _oracles import naive_equable_rectangles, naive_rect_pairs, naive_small_side_candidates

THE_FIVE = [
    ((1, 34), (7, 10)),
    ((1, 38), (6, 13)),
    ((1, 54), (5, 22)),
    ((2, 10), (4, 6)),
    ((2, 13), (3, 10)),
]


def as_tuples(pairs):
    return [((p.first.short, p.first.long), (p.second.short, p.second.long)) for p in pairs]


class TestRectSides:
    def test_canonicalising_constructor(self):
        assert RectSides.of(10, 2) == RectSides(2, 10)

    def test_area_perimeter(self):
        r = RectSides(3, 6)
        assert r.area() == 18
        assert r.perimeter() == 18

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            RectSides(10, 2)
        with pytest.raises(ValueError):
            RectSides(0, 5)


class TestPerimeterDominance:
    def test_square_four(self):
        assert perimeter_dominant(RectSides(4, 4))  # 16 <= 16

    def test_three_by_four(self):
        assert perimeter_dominant(RectSides(3, 4))  # 12 <= 14

    def test_five_by_five(self):
        assert not perimeter_dominant(RectSides(5, 5))  # 25 > 20


class TestSmallSideCandidates:
    def test_at_100(self):
        assert small_side_candidates(100) == [1, 2]

    def test_at_200(self):
        assert small_side_candidates(200) == [1, 2]

    @pytest.mark.parametrize("max_side", [*range(4, 121), 300])
    def test_equals_full_scan(self, max_side):
        assert small_side_candidates(max_side) == naive_small_side_candidates(max_side)

    def test_dominant_member_with_a_partner_is_in_the_oracle(self):
        """The lemma small_side_candidates rests on: a dominant rectangle with a
        partner other than itself has short side 1 or 2, a partner whose long
        side is below its own, and an area within the oracle's 4*max_side."""
        seen = set()
        for a in range(1, 301):
            for b in range(a, 301):
                partner = _partner_quadratic(a, b)
                if not perimeter_dominant(RectSides(a, b)) or partner in (None, (a, b)):
                    continue
                assert a in (1, 2) and partner[1] < b and a * b <= 4 * b, (a, b, partner)
                seen.add((a, b))
        assert {(1, 34), (1, 38), (1, 54), (2, 10), (2, 13)} <= seen

    @pytest.mark.parametrize("max_side, visited", [(200, 1889), (600, 6959)])
    def test_oracle_visits_only_areas_a_perimeter_can_match(self, monkeypatch, max_side, visited):
        """brute_force_pairs solves a partner only for the rectangles with area
        <= 4*max_side, not for all max_side*(max_side + 1)/2 of them."""
        calls = []
        real = rect_mod._partner_quadratic
        monkeypatch.setattr(rect_mod, "_partner_quadratic", lambda a, b: calls.append((a, b)) or real(a, b))
        brute_force_pairs(max_side)
        assert len(calls) == len(set(calls)) == visited
        assert max(a * b for a, b in calls) <= 4 * max_side

    def test_odd_area_has_no_partner(self):
        # odd area can never equal an (even) partner perimeter
        for r in (RectSides(3, 3), RectSides(3, 5)):
            assert r.area() % 2 == 1
            assert _partner_quadratic(r.short, r.long) is None

    def test_three_by_four_has_no_integer_partner(self):
        # x + y = 6 and x*y = 14 has no integer solutions
        assert _partner_quadratic(3, 4) is None
        assert [
            (x, 6 - x) for x in range(-20, 21) if x * (6 - x) == 14
        ] == []

    def test_partner_quadratic_equals_scan(self):
        # A square discriminant always gives a partner, so _partner_quadratic
        # tests neither parity nor the sign of the smaller side.
        for a in range(1, 61):
            for b in range(a, 61):
                r = RectSides(a, b)
                p = r.perimeter()
                scan = [
                    (x, p // x)
                    for x in range(1, isqrt(p) + 1)
                    if p % x == 0 and 2 * (x + p // x) == r.area()
                ]
                assert _partner_quadratic(a, b) == (scan[0] if scan else None), r

    def test_self_partnered_shapes_excluded(self):
        assert _partner_quadratic(4, 4) == (4, 4)
        assert _partner_quadratic(3, 6) == (3, 6)
        assert 3 not in small_side_candidates(200)
        assert 4 not in small_side_candidates(200)

    def test_bound_too_small(self):
        with pytest.raises(ValueError):
            small_side_candidates(3)


class TestClosedForm:
    @pytest.mark.parametrize(
        "a,x,expected",
        [
            (1, 7, (34, 10)),
            (1, 5, (54, 22)),
            (2, 3, (13, 10)),
            (1, 4, None),
            (2, 2, None),
            (1, 1, None),
        ],
    )
    def test_examples(self, a, x, expected):
        status, b, y = solve_partner(a, x)
        assert ((b, y) if status == "solved" else None) == expected

    def test_statuses(self):
        assert solve_partner(1, 4) == ("singular", None, None)
        assert solve_partner(1, 1) == ("non-positive", None, None)
        assert solve_partner(3, 4) == ("non-integer", None, None)
        assert solve_partner(3, 2) == ("solved", 10, 13)

    @pytest.mark.parametrize("a, x", [(0, 5), (1, 0)])
    def test_rejects_nonpositive_input(self, a, x):
        with pytest.raises(ValueError):
            solve_partner(a, x)

    def test_divisor_branch_raw_values(self):
        # every divisor case solves, so enumerate_by_divisors skips none
        # a = 1: d = x - 4 runs over the divisors of 18
        ds = [1, 2, 3, 6, 9, 18]
        got = [solve_partner(1, d + 4) for d in ds]
        assert {status for status, _, _ in got} == {"solved"}
        assert [y for _, _, y in got] == [22, 13, 10, 7, 6, 5] == [4 + 18 // d for d in ds]
        assert [b for _, b, _ in got] == [54, 38, 34, 34, 38, 54] == [2 * d + 16 + 36 // d for d in ds]
        # a = 2: d = x - 2 runs over the divisors of 8
        ds = [1, 2, 4, 8]
        got = [solve_partner(2, d + 2) for d in ds]
        assert {status for status, _, _ in got} == {"solved"}
        assert [y for _, _, y in got] == [10, 6, 4, 3] == [2 + 8 // d for d in ds]
        assert [b for _, b, _ in got] == [13, 10, 10, 13] == [d + 4 + 8 // d for d in ds]

    def test_solved_exactly_when_cramer_gives_positive_integers(self):
        # solve_partner re-checks nothing: Cramer's values satisfy both
        # equations identically, so a positive integer pair is a solution
        for a in range(1, 101):
            for x in range(1, 101):
                status, sb, sy = solve_partner(a, x)
                det = a * x - 4
                if det == 0:
                    assert (status, sb, sy) == ("singular", None, None)
                    continue
                b = Fraction(2 * x * x + 4 * a, det)
                y = Fraction(2 * a * a + 4 * x, det)
                cramer_ok = all(v.denominator == 1 and v > 0 for v in (b, y))
                assert (status == "solved") == cramer_ok
                if cramer_ok:
                    assert (sb, sy) == (b, y)
                    assert a * sb == 2 * (x + sy) and 2 * (a + sb) == x * sy
                else:
                    assert (sb, sy) == (None, None)

    def test_y_formula_matches_specialisations_exactly(self):
        # the Cramer expression (2a^2+4x)/(ax-4) agrees with the single-short-
        # side reductions (4x+2)/(x-4) and (2x+4)/(x-2) as exact rationals
        for x in range(1, 501):
            if x != 4:
                assert Fraction(2 + 4 * x, x - 4) == Fraction(4 * x + 2, x - 4)
            if x != 2:
                assert Fraction(8 + 4 * x, 2 * x - 4) == Fraction(2 * x + 4, x - 2)

    def test_plausible_variant_formula_is_wrong(self):
        # (4x+4a)/(ax-4) looks like a symmetric candidate for y but fails the
        # defining equations; the Cramer value is the one that re-verifies.
        a, x = 1, 5
        variant_y = (4 * x + 4 * a) // (a * x - 4)
        _, b, y = solve_partner(a, x)
        assert (b, y) == (54, 22)
        assert variant_y == 24
        assert a * b == 2 * (x + y) and 2 * (a + b) == x * y
        assert a * b != 2 * (x + variant_y)


class TestEnumeration:
    def test_divisor_enumeration_returns_the_five(self):
        assert as_tuples(enumerate_by_divisors()) == THE_FIVE

    def test_brute_force_small_bounds(self):
        assert brute_force_pairs(9) == []
        with pytest.raises(ValueError):
            brute_force_pairs(0)
        assert as_tuples(brute_force_pairs(10)) == [((2, 10), (4, 6))]
        assert as_tuples(brute_force_pairs(54)) == THE_FIVE

    @pytest.mark.parametrize("max_side", [9, 10, 12, 13, 33, 34, 37, 38, 53, 54, 300])
    def test_equals_unpruned_join(self, max_side):
        assert as_tuples(brute_force_pairs(max_side)) == naive_rect_pairs(max_side)

    def test_short_sides_above_two_have_no_partner(self):
        """The completeness proof in enumerate_by_divisors' docstring: with
        3 <= a <= b, (a - 2)(b - 2) <= 7 leaves nine rectangles, and the only
        partners among them are the equable 3x6 and 4x4, each itself."""
        rows = [(a, b) for a in range(3, 30) for b in range(a, 30) if (a - 2) * (b - 2) <= 7]
        assert rows == [(3, b) for b in range(3, 10)] + [(4, 4), (4, 5)]
        partners = {row: _partner_quadratic(*row) for row in rows}
        assert {row: p for row, p in partners.items() if p} == {(3, 6): (3, 6), (4, 4): (4, 4)}

    def test_oracle_holds_no_table(self):
        """The oracle keeps only its pairs, nothing per scanned rectangle: 27,952
        rectangles with area <= 8,000 would take megabytes in any table."""
        tracemalloc.start()
        try:
            pairs = brute_force_pairs(2000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pairs == enumerate_by_divisors()
        assert peak < 100_000


class TestEquableRectangles:
    def test_up_to_ten(self):
        assert equable_rectangles(10) == [RectSides(3, 6), RectSides(4, 4)]

    def test_up_to_three(self):
        assert equable_rectangles(3) == []

    def test_three_by_six(self):
        r = RectSides(3, 6)
        assert r.area() == r.perimeter() == 18

    def test_characterising_equation(self):
        # area = perimeter is exactly (a-2)(b-2) = 4
        for r in equable_rectangles(100):
            assert (r.short - 2) * (r.long - 2) == 4

    def test_closed_form_equals_scan(self):
        for n in range(1, 201):
            got = [(r.short, r.long) for r in equable_rectangles(n)]
            assert got == naive_equable_rectangles(n), n

    def test_large_bound_and_bad_bound(self):
        assert equable_rectangles(10**12) == [RectSides(3, 6), RectSides(4, 4)]
        with pytest.raises(ValueError):
            equable_rectangles(0)


class TestPairCertificates:
    # no cross equality holds, or only area 34 = perimeter 34, or only 70 = 70
    @pytest.mark.parametrize("second", [(3, 4), (8, 9), (5, 14)])
    def test_bad_pair_rejected(self, second):
        with pytest.raises(ValueError):
            RectAmicablePair(RectSides(1, 34), RectSides(*second))

    def test_self_pair_rejected(self):
        with pytest.raises(ValueError):
            RectAmicablePair(RectSides(4, 4), RectSides(4, 4))

    def test_unordered_storage(self):
        p = RectAmicablePair.of(RectSides(7, 10), RectSides(1, 34))
        assert p.first == RectSides(1, 34)
        with pytest.raises(ValueError):
            RectAmicablePair(RectSides(7, 10), RectSides(1, 34))
