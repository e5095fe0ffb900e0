import ast
import itertools
import sys
from collections import Counter
from math import isqrt
from pathlib import Path

import pytest

import amipoly.triangles as tri_mod
from amipoly.lattice import CertificateError, LatticePolygon
from amipoly.triangles import (
    HeronianTriangle,
    TriangleSides,
    _square_classes,
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
    signed_square_sums,
)

# golden values produced by the definitional brute-force scan, in
# enumeration order (perimeter, then sides)
EQUABLE_TRIPLES = [(6, 8, 10), (5, 12, 13), (9, 10, 17), (7, 15, 20), (6, 25, 29)]
# every heronian triangle up to perimeter 60, and large multiples of four
# primitive ones, so that c^2 has many sum-of-two-squares representations
EMBEDDING_CASES = sorted((a, b, c) for a, b, c, _ in naive_heronian_triples(60)) + [
    tuple(k * s for s in base)
    for base in ((13, 14, 15), (9, 10, 17), (5, 12, 13), (3, 4, 5))
    for k in (5 * 13 * 17, 2 * 3 * 7)
]


class TestTriangleSides:
    def test_constructor_sorts(self):
        t = TriangleSides(26, 3, 25)
        assert t.as_tuple() == (3, 25, 26)
        assert t == TriangleSides(3, 25, 26)

    def test_triangle_inequality_strict(self):
        with pytest.raises(ValueError):
            TriangleSides(1, 1, 3)
        with pytest.raises(ValueError):
            TriangleSides(1, 2, 3)

    def test_sorts_and_rejects_side_zero(self):
        assert TriangleSides(5, 4, 3) == TriangleSides(3, 4, 5)
        for sides in ((0, 3, 4), (4, 0, 3), (4, 3, 0)):
            with pytest.raises(ValueError, match=r"^sides must satisfy 1 <= a <= b <= c, got 0x3x4$"):
                TriangleSides(*sides)

    def test_canonicalisation_idempotent(self):
        t = TriangleSides(15, 9, 12)
        assert TriangleSides(*t.as_tuple()) == t

    @pytest.mark.parametrize("sides", EMBEDDING_CASES, ids=str)
    def test_order_never_matters(self, sides):
        """Every order of the sides builds the sorted record, and a side of 0 in
        any position still raises."""
        for order in itertools.permutations(sides):
            assert TriangleSides(*order) == TriangleSides(*sides)
        for zeroed in itertools.permutations((0, *sides[1:])):
            with pytest.raises(ValueError):
                TriangleSides(*zeroed)


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

    @pytest.mark.parametrize("area", [7, -6])  # (-6)^2 = 6^2
    def test_certificate_checked(self, area):
        with pytest.raises(ValueError):
            HeronianTriangle(TriangleSides(3, 4, 5), area)


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

    def test_equals_definitional_scan_up_to_120(self):
        for p in range(3, 121):
            assert self.as_set(enumerate_heronian(p)) == naive_heronian_triples(p), p

    @pytest.mark.parametrize("max_perimeter", [200, 300, 600])
    def test_equals_definitional_scan(self, max_perimeter):
        got = enumerate_heronian(max_perimeter)
        assert len(got) == len(self.as_set(got))
        assert self.as_set(got) == naive_heronian_triples(max_perimeter)

    def test_square_classes_equal_definition(self):
        # m is n divided by its largest square divisor k^2
        classes = _square_classes(2000)
        assert len(classes) == 2001
        for n in range(1, 2001):
            k = max(d for d in range(1, isqrt(n) + 1) if n % (d * d) == 0)
            assert classes[n] == (n // (k * k), k), n

    def test_isqrt_calls_grow_sub_cubically(self, monkeypatch):
        # a count, not a time: the walk over tangent lengths makes 234,216
        # isqrt calls at 1000, a scan over side triples 3,482,597
        calls = 0

        def counting_isqrt(n):
            nonlocal calls
            calls += 1
            return isqrt(n)

        monkeypatch.setattr("amipoly.triangles.isqrt", counting_isqrt)
        assert len(enumerate_heronian(1000)) == 3946
        assert calls < 400_000


class TestAmicablePairs:
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
    """sum_two_squares_reps(c) is every (x, y) with x^2 + y^2 = c^2, each once.

    signed_square_sums lists each point once, so equality with it after a
    sort also rules out a repeated point."""

    def test_three_four_five(self):
        assert sorted(sum_two_squares_reps(5)) == [
            (-5, 0), (-4, -3), (-4, 3), (-3, -4), (-3, 4), (0, -5),
            (0, 5), (3, -4), (3, 4), (4, -3), (4, 3), (5, 0),
        ]

    def test_twenty_five(self):
        got = sum_two_squares_reps(25)
        assert len(got) == 20
        assert {(7, 24), (15, 20), (20, 15), (24, 7), (0, 25), (25, 0), (-7, -24)} <= set(got)

    def test_equals_scan(self):
        for c in range(1, 3001):
            assert sorted(sum_two_squares_reps(c)) == signed_square_sums(c * c), c

    def test_repeated_split_primes_equal_scan(self):
        for c in (5**3 * 29, 2 * 3 * 5 * 5 * 13 * 37, 7 * 11 * 13 * 13):
            assert sorted(sum_two_squares_reps(c)) == signed_square_sums(c * c), c

    def test_no_split_prime_leaves_the_axes(self):
        # 2 and the primes 3 (mod 4) each give c's real factor up to a unit
        for c in (2**10 * 3 * 7 * 11 * 19 * 23, 2**40, 3**20):
            assert sorted(sum_two_squares_reps(c)) == [(-c, 0), (0, -c), (0, c), (c, 0)], c

    @pytest.mark.parametrize(
        "c, count",
        # r2(c^2) = 4 * prod(2e + 1) over the primes p^e || c with p = 1 (mod 4)
        [(10**12, 4 * 25), (5**17, 4 * 35), (13**10 * 17 * 3**4, 4 * 21 * 3)],
    )
    def test_count_and_norm_beyond_the_scan(self, c, count):
        got = sum_two_squares_reps(c)
        assert len(set(got)) == len(got) == count
        assert all(x * x + y * y == c * c for x, y in got)

    def test_split_is_not_a_search(self):
        """Both capped embeddings' longest sides are primes p = 5 (mod 8), for
        which 2 is a non-residue: each split takes one Euler test, one root and
        a Euclid run.  A search over x = 1, 2, ... would make about 1.4 * 10**6
        calls here, and the profile hook sees every Python and C call, whatever
        form a search would take."""
        calls = Counter()

        def count(frame, event, arg):
            if event == "call":
                calls[frame.f_code.co_name] += 1
            elif event == "c_call":
                calls[arg.__name__] += 1

        sys.setprofile(count)
        try:
            for c in (999987891037, 999998001157):
                sum_two_squares_reps(c)
        finally:
            sys.setprofile(None)
        assert calls["pow"] == 4
        assert sum(calls.values()) < 50, calls

    @pytest.mark.parametrize("c", [0, -1, -5])
    def test_c_below_one_rejected(self, c):
        with pytest.raises(ValueError, match="c must be at least 1"):
            sum_two_squares_reps(c)


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
        assert emb.vertices[0] == (0, 0)

    def test_heron_shoelace_agreement_up_to_60(self):
        for h in enumerate_heronian(60):
            emb = embed_triangle(h)
            assert emb.twice_area() == 2 * h.area

    def test_embedding_realises_integer_sides(self):
        for h in enumerate_heronian(60):
            emb = embed_triangle(h)
            squared = emb.squared_sides()
            assert sorted(squared) == [s * s for s in h.sides.as_tuple()]

    @pytest.mark.parametrize("sides", EMBEDDING_CASES, ids=str)
    def test_equals_canonical_pairwise_scan(self, sides):
        emb = embed_triangle(as_heronian(TriangleSides(*sides)))
        want = naive_canonical_placement(naive_embedding_candidates(*sides))
        assert emb.vertices[1:] == want

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
        _, v1, v2 = emb.vertices
        for f in LATTICE_MAPS:
            assert naive_canonical_placement([(f(*v1), f(*v2))]) == (v1, v2)

    # (c^2, 0) is off the circle of radius c; for 3x4x5 it gives the placement
    # (0, 0), (16, -12), (25, 0), whose squared sides are 225, 400 and 625
    @pytest.mark.parametrize("sides", [TriangleSides(3, 4, 5), TriangleSides(3, 25, 26)], ids=str)
    def test_embedding_certificate_rejects_mismatch(self, monkeypatch, sides):
        monkeypatch.setattr(tri_mod, "sum_two_squares_reps", lambda c: [(c * c, 0)])
        with pytest.raises(CertificateError, match=f"embedding does not realise the sides {sides}$"):
            embed_triangle(as_heronian(sides))

    def test_one_polygon_per_embedding(self, monkeypatch):
        built = []
        real = LatticePolygon.__init__

        def spy(self, vertices):
            built.append(vertices)
            real(self, vertices)

        monkeypatch.setattr(LatticePolygon, "__init__", spy)
        emb = embed_triangle(as_heronian(TriangleSides(3, 25, 26)))
        assert (emb.squared_sides(), emb.twice_area()) == ([676, 9, 625], 72)
        assert built == [((0, 0), (-24, -10), (-24, -7))]


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


def test_each_name_has_one_import_path():
    # a module that imports f with "from .m import f" and also reads m.f
    # reaches f two ways, and a fault patched into m reaches only one of them
    scanned, both = [], []
    for path in sorted(Path(tri_mod.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        direct = {
            (node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names
        }
        scanned.append(path.name)
        both += [
            f"{path.name}:{node.lineno} {node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and (node.value.id, node.attr) in direct
        ]
    assert {"cli.py", "matching.py", "triangles.py"} <= set(scanned)
    assert both == []
