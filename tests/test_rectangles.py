from fractions import Fraction
from math import isqrt

import pytest

from amipoly.rectangles import (
    PartnerSolution,
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

    def test_odd_area_has_no_partner(self):
        # odd area can never equal an (even) partner perimeter
        for r in (RectSides(3, 3), RectSides(3, 5)):
            assert r.area() % 2 == 1
            assert _partner_quadratic(r) is None

    def test_three_by_four_has_no_integer_partner(self):
        # x + y = 6 and x*y = 14 has no integer solutions
        assert _partner_quadratic(RectSides(3, 4)) is None
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
                    RectSides(x, p // x)
                    for x in range(1, isqrt(p) + 1)
                    if p % x == 0 and 2 * (x + p // x) == r.area()
                ]
                assert _partner_quadratic(r) == (scan[0] if scan else None), r

    def test_self_partnered_shapes_excluded(self):
        assert _partner_quadratic(RectSides(4, 4)) == RectSides(4, 4)
        assert _partner_quadratic(RectSides(3, 6)) == RectSides(3, 6)
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
        sol = solve_partner(a, x)
        assert ((sol.b, sol.y) if sol.solved else None) == expected

    def test_statuses(self):
        assert solve_partner(1, 4) == PartnerSolution("singular")
        assert solve_partner(1, 1) == PartnerSolution("non-positive")
        assert solve_partner(3, 4) == PartnerSolution("non-integer")
        assert solve_partner(3, 2) == PartnerSolution("solved", b=10, y=13)

    def test_rejects_nonpositive_input(self):
        with pytest.raises(ValueError):
            solve_partner(0, 5)

    def test_divisor_branch_raw_values(self):
        # every divisor case solves, so enumerate_by_divisors skips none
        # a = 1: d = x - 4 runs over the divisors of 18
        ds = [1, 2, 3, 6, 9, 18]
        got = [solve_partner(1, d + 4) for d in ds]
        assert [g.y for g in got] == [22, 13, 10, 7, 6, 5] == [4 + 18 // d for d in ds]
        assert [g.b for g in got] == [54, 38, 34, 34, 38, 54] == [2 * d + 16 + 36 // d for d in ds]
        # a = 2: d = x - 2 runs over the divisors of 8
        ds = [1, 2, 4, 8]
        got = [solve_partner(2, d + 2) for d in ds]
        assert [g.y for g in got] == [10, 6, 4, 3] == [2 + 8 // d for d in ds]
        assert [g.b for g in got] == [13, 10, 10, 13] == [d + 4 + 8 // d for d in ds]

    def test_solved_exactly_when_cramer_gives_positive_integers(self):
        # solve_partner re-checks nothing: Cramer's values satisfy both
        # equations identically, so a positive integer pair is a solution
        for a in range(1, 101):
            for x in range(1, 101):
                sol = solve_partner(a, x)
                det = a * x - 4
                if det == 0:
                    assert sol.status == "singular"
                    continue
                b = Fraction(2 * x * x + 4 * a, det)
                y = Fraction(2 * a * a + 4 * x, det)
                cramer_ok = all(v.denominator == 1 and v > 0 for v in (b, y))
                assert sol.solved == cramer_ok
                if sol.solved:
                    assert (sol.b, sol.y) == (b, y)
                    assert a * sol.b == 2 * (x + sol.y) and 2 * (a + sol.b) == x * sol.y

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
        sol = solve_partner(a, x)
        b, y = sol.b, sol.y
        assert (b, y) == (54, 22)
        assert variant_y == 24
        assert a * b == 2 * (x + y) and 2 * (a + b) == x * y
        assert a * b != 2 * (x + variant_y)


class TestEnumeration:
    def test_divisor_enumeration_returns_the_five(self):
        assert as_tuples(enumerate_by_divisors()) == THE_FIVE

    def test_brute_force_small_bounds(self):
        assert brute_force_pairs(9) == []
        assert as_tuples(brute_force_pairs(10)) == [((2, 10), (4, 6))]
        assert as_tuples(brute_force_pairs(54)) == THE_FIVE

    def test_oracle_equivalence(self):
        assert brute_force_pairs(200) == enumerate_by_divisors()

    @pytest.mark.parametrize("max_side", [9, 10, 37, 53, 54, 300])
    def test_equals_unpruned_join(self, max_side):
        assert as_tuples(brute_force_pairs(max_side)) == naive_rect_pairs(max_side)

    def test_cross_equalities_on_every_pair(self):
        for p in brute_force_pairs(100):
            assert p.first.area() == p.second.perimeter()
            assert p.second.area() == p.first.perimeter()

    def test_dominant_member_filter(self):
        for p in brute_force_pairs(200):
            dominant = [r for r in (p.first, p.second) if perimeter_dominant(r)]
            assert dominant
            assert all(r.short in (1, 2) for r in dominant)

    def test_no_self_pairs_and_equables_excluded(self):
        pairs = brute_force_pairs(200)
        in_pairs = {r for p in pairs for r in (p.first, p.second)}
        for r in equable_rectangles(200):
            assert r not in in_pairs
        for p in pairs:
            assert p.first != p.second


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
    def test_bad_pair_rejected(self):
        with pytest.raises(ValueError):
            RectAmicablePair(RectSides(1, 2), RectSides(3, 4))

    def test_self_pair_rejected(self):
        with pytest.raises(ValueError):
            RectAmicablePair(RectSides(4, 4), RectSides(4, 4))

    def test_unordered_storage(self):
        p = RectAmicablePair.of(RectSides(7, 10), RectSides(1, 34))
        assert p.first == RectSides(1, 34)
        with pytest.raises(ValueError):
            RectAmicablePair(RectSides(7, 10), RectSides(1, 34))
