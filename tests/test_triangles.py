import ast
import itertools
from pathlib import Path

import pytest

from amipoly.lattice import LatticePoint, squared_side_lengths
from amipoly.triangles import (
    HeronianTriangle,
    TriangleSides,
    as_heronian,
    embed_triangle,
    enumerate_heronian,
    find_amicable_triangle_pairs,
    find_equable_triangles,
    sum_two_squares_reps,
)

import _oracles
from _oracles import (
    LATTICE_MAPS,
    naive_canonical_placement,
    naive_embedding_candidates,
    naive_equable_triangles,
    naive_heronian_triples,
    naive_two_squares,
)

# golden values produced by the definitional brute-force scan, in
# enumeration order (perimeter, then sides)
EQUABLE_TRIPLES = [(6, 8, 10), (5, 12, 13), (9, 10, 17), (7, 15, 20), (6, 25, 29)]
THE_PAIR = ((3, 25, 26), (9, 12, 15))
# every heronian triangle up to perimeter 60, and large multiples of four
# primitive ones, so that c^2 has many sum-of-two-squares representations
EMBEDDING_CASES = sorted((a, b, c) for a, b, c, _ in naive_heronian_triples(60)) + [
    tuple(k * s for s in base)
    for base in ((13, 14, 15), (9, 10, 17), (5, 12, 13), (3, 4, 5))
    for k in (5 * 13 * 17, 2 * 3 * 7)
]


class TestTriangleSides:
    def test_constructor_sorts(self):
        assert TriangleSides.of(26, 3, 25) == TriangleSides(3, 25, 26)

    def test_triangle_inequality_strict(self):
        with pytest.raises(ValueError):
            TriangleSides(1, 1, 3)
        with pytest.raises(ValueError):
            TriangleSides(1, 2, 3)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            TriangleSides(5, 4, 3)

    def test_canonicalisation_idempotent(self):
        t = TriangleSides.of(15, 9, 12)
        assert TriangleSides.of(*t.as_tuple()) == t


class TestHeron:
    def test_right_triangle(self):
        assert TriangleSides(3, 4, 5).sixteen_area_sq() == 576

    def test_sliver(self):
        assert TriangleSides(3, 25, 26).sixteen_area_sq() == 20736

    def test_unit(self):
        assert TriangleSides(1, 1, 1).sixteen_area_sq() == 3

    def test_as_heronian_present(self):
        assert as_heronian(TriangleSides(9, 12, 15)).area == 54
        assert as_heronian(TriangleSides(3, 4, 5)).area == 6
        assert as_heronian(TriangleSides(3, 25, 26)).area == 36

    def test_as_heronian_absent(self):
        assert as_heronian(TriangleSides(2, 3, 4)) is None  # 16*Area^2 = 135

    def test_quarter_integer_area_rejected(self):
        # at odd perimeter the four Heron factors are odd and sum to 2 (mod 4),
        # so their product is 3 (mod 4) and never a square
        t = TriangleSides(1, 1, 1)
        assert t.perimeter() % 2 == 1
        assert as_heronian(t) is None

    def test_odd_perimeter_product_is_never_square(self):
        # why as_heronian needs no test that the root is divisible by 4: a
        # square is 0 or 1 (mod 4)
        odd = 0
        for a in range(1, 101):
            for b in range(a, (301 - a) // 2 + 1):
                for c in range(b + (a + 1) % 2, min(a + b - 1, 301 - a - b) + 1, 2):
                    p = a + b + c
                    v = p * (-a + b + c) * (a - b + c) * (a + b - c)
                    assert v % 4 == 3, (a, b, c)
                    odd += 1
        assert odd == 98500  # every triangle with odd perimeter <= 301

    def test_certificate_checked(self):
        with pytest.raises(ValueError):
            HeronianTriangle(TriangleSides(3, 4, 5), 7)


class TestEnumeration:
    def test_smallest(self):
        got = enumerate_heronian(12)
        assert [h.sides.as_tuple() for h in got] == [(3, 4, 5)]

    def test_two_smallest(self):
        got = enumerate_heronian(16)
        assert [(h.sides.as_tuple(), h.area) for h in got] == [((3, 4, 5), 6), ((5, 5, 6), 12)]

    def test_contains_the_pair_members(self):
        triples = {h.sides.as_tuple() for h in enumerate_heronian(54)}
        assert {(3, 25, 26), (9, 12, 15)} <= triples

    def test_sorted_by_perimeter_then_sides(self):
        got = enumerate_heronian(60)
        keys = [(h.perimeter(), h.sides.a, h.sides.b) for h in got]
        assert keys == sorted(keys)

    def test_bound_too_small(self):
        with pytest.raises(ValueError):
            enumerate_heronian(2)

    @staticmethod
    def as_set(triangles):
        return {(*h.sides.as_tuple(), h.area) for h in triangles}

    def test_equals_definitional_scan_up_to_60(self):
        for p in range(3, 61):
            assert self.as_set(enumerate_heronian(p)) == naive_heronian_triples(p), p

    @pytest.mark.parametrize("max_perimeter", [200, 300])
    def test_equals_definitional_scan(self, max_perimeter):
        got = enumerate_heronian(max_perimeter)
        assert len(got) == len(self.as_set(got))
        assert self.as_set(got) == naive_heronian_triples(max_perimeter)


class TestAmicablePairs:
    def test_unique_pair_at_desk_scale(self):
        got = find_amicable_triangle_pairs(120)
        assert [(a.sides.as_tuple(), b.sides.as_tuple()) for a, b in got] == [THE_PAIR]
        (a, b), = got
        assert a.area == b.perimeter() == 36
        assert b.area == a.perimeter() == 54

    def test_empty_below_partner_perimeter(self):
        assert find_amicable_triangle_pairs(30) == []

    def test_found_once_both_members_fit(self):
        assert len(find_amicable_triangle_pairs(54)) == 1

    def test_join_equals_quadratic_scan(self):
        triangles = enumerate_heronian(120)
        naive = set()
        for h, g in itertools.combinations(triangles, 2):
            if h.area == g.perimeter() and g.area == h.perimeter():
                naive.add((min(h, g), max(h, g)))
        assert set(find_amicable_triangle_pairs(120)) == naive

    def test_cross_equalities_re_verified(self):
        for a, b in find_amicable_triangle_pairs(120):
            assert a.area == b.perimeter() and b.area == a.perimeter()


class TestEquableTriangles:
    def test_the_five(self):
        got = find_equable_triangles(200)
        assert [h.sides.as_tuple() for h in got] == EQUABLE_TRIPLES
        for h in got:
            assert h.area == h.perimeter()

    def test_none_below_isoperimetric_floor(self):
        # area <= perimeter^2 / (12*sqrt(3)) forces perimeter > 20 when equal
        assert find_equable_triangles(20) == []

    def test_closed_form_equals_scan(self):
        # The scan at 300 holds the scan at every smaller bound: its triangles
        # of perimeter <= p.
        scanned = naive_equable_triangles(300)
        for p in range(3, 301):
            got = [h.sides.as_tuple() for h in find_equable_triangles(p)]
            assert got == [t for t in scanned if sum(t) <= p], p
        assert len(find_equable_triangles(10**12)) == 5
        with pytest.raises(ValueError):
            find_equable_triangles(2)


class TestSumTwoSquares:
    def test_twenty_five(self):
        assert [(p.x, p.y) for p in sum_two_squares_reps(25)] == [
            (0, 5), (3, 4), (4, 3), (5, 0),
        ]

    def test_two(self):
        assert [(p.x, p.y) for p in sum_two_squares_reps(2)] == [(1, 1)]

    def test_625(self):
        got = {(p.x, p.y) for p in sum_two_squares_reps(625)}
        assert {(7, 24), (15, 20), (20, 15), (24, 7), (0, 25), (25, 0)} <= got

    def test_defining_property(self):
        for n in range(0, 500):
            for p in sum_two_squares_reps(n):
                assert p.x >= 0 and p.y >= 0 and p.x * p.x + p.y * p.y == n

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sum_two_squares_reps(-1)

    def test_equals_scan(self):
        # every n up to 20000, then squares of products with repeated primes = 1 (mod 4)
        big = [m * m for m in (5**3 * 29, 2 * 3 * 5 * 5 * 13 * 37, 7 * 11 * 13 * 13)]
        for n in (*range(0, 20001), *big, 2**7 * 5**3 * 9 * 13, 3 * 5**4):
            assert [(p.x, p.y) for p in sum_two_squares_reps(n)] == naive_two_squares(n), n

    def test_signed_squares_equal_sign_completed_scan(self):
        for m in range(1, 2501):
            got = [(p.x, p.y) for p in sum_two_squares_reps(m * m)]
            assert got == naive_two_squares(m * m), m


class TestEmbedding:
    def test_right_triangle_certificate(self):
        emb = embed_triangle(as_heronian(TriangleSides(9, 12, 15)))
        assert emb.twice_area() == 108
        assert sorted(emb.squared_sides()) == [81, 144, 225]

    def test_sliver_certificate(self):
        emb = embed_triangle(as_heronian(TriangleSides(3, 25, 26)))
        assert emb.twice_area() == 72
        assert sorted(emb.squared_sides()) == [9, 625, 676]

    def test_three_four_five(self):
        emb = embed_triangle(as_heronian(TriangleSides(3, 4, 5)))
        assert sorted(emb.squared_sides()) == [9, 16, 25]
        assert emb.twice_area() == 12

    def test_origin_pinned(self):
        emb = embed_triangle(as_heronian(TriangleSides(5, 5, 6)))
        assert emb.v0 == LatticePoint(0, 0)

    def test_heron_shoelace_agreement_up_to_60(self):
        for h in enumerate_heronian(60):
            emb = embed_triangle(h)
            assert emb.twice_area() == 2 * h.area

    def test_embedding_realises_integer_sides(self):
        for h in enumerate_heronian(60):
            emb = embed_triangle(h)
            squared = squared_side_lengths(emb.as_polygon())
            assert sorted(squared) == [s * s for s in h.sides.as_tuple()]

    @pytest.mark.parametrize("sides", EMBEDDING_CASES, ids=str)
    def test_equals_canonical_pairwise_scan(self, sides):
        emb = embed_triangle(as_heronian(TriangleSides(*sides)))
        want = naive_canonical_placement(naive_embedding_candidates(*sides))
        assert ((emb.v1.x, emb.v1.y), (emb.v2.x, emb.v2.y)) == want

    @pytest.mark.parametrize("sides", EMBEDDING_CASES, ids=str)
    def test_lattice_symmetries_map_candidates_onto_themselves(self, sides):
        candidates = set(naive_embedding_candidates(*sides))
        for f in LATTICE_MAPS:
            assert {(f(*p), f(*q)) for p, q in candidates} == candidates

    def test_deterministic(self):
        h = as_heronian(TriangleSides(9, 12, 15))
        assert embed_triangle(h) == embed_triangle(h)

    def test_mirrored_candidates_canonicalise_identically(self):
        h = as_heronian(TriangleSides(3, 25, 26))
        emb = embed_triangle(h)
        v1, v2 = (emb.v1.x, emb.v1.y), (emb.v2.x, emb.v2.y)
        for f in LATTICE_MAPS:
            assert naive_canonical_placement([(f(*v1), f(*v2))]) == (v1, v2)

    def test_embedding_certificate_rejects_mismatch(self):
        h = as_heronian(TriangleSides(3, 4, 5))
        from amipoly.triangles import TriangleEmbedding

        with pytest.raises(ValueError):
            TriangleEmbedding(
                h, LatticePoint(0, 0), LatticePoint(5, 0), LatticePoint(0, 5)
            )


def test_oracles_import_nothing_from_amipoly():
    # an oracle that shared code with the library would check it against itself
    modules = []
    for node in ast.walk(ast.parse(Path(_oracles.__file__).read_text())):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules.append(node.module or "")
    assert "math" in modules
    assert [m for m in modules if m.split(".")[0] == "amipoly"] == []
