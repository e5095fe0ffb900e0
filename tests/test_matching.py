import contextlib
import copy
import functools
import io
import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amipoly.matching as matching_mod
import amipoly.rectangles as rect_mod
import amipoly.triangles as tri_mod
from amipoly.cli import main
from amipoly.lattice import CertificateError
from amipoly.matching import (
    BOUNDS,
    FAMILIES,
    ShapeFingerprint,
    ShapeRecord,
    VERIFICATION_CHECKS,
    assemble_report,
    match_amicable,
    report_from_dict,
    search_report,
)
from amipoly.rectangles import RectSides, equable_rectangles
from amipoly.triangles import (
    TriangleSides,
    as_heronian,
    enumerate_heronian,
    find_equable_triangles,
    match_amicable_triangles,
)

from _oracles import naive_amicable_scan, naive_heronian_triples

MUTATED_COMMANDS = (
    "verify all --format json",
    "tri search --max-perimeter 150 --format json",
    "tri equable --max-perimeter 200 --format json",
    "rect oracle --max-side 60 --format json",
)
DELETE = object()  # the mutation that removes a key or list item
REVERSE = object()  # the edit that reverses a list

RECT_PAIR_SIDES = [
    ((1, 34), (7, 10)),
    ((1, 38), (6, 13)),
    ((1, 54), (5, 22)),
    ((2, 10), (4, 6)),
    ((2, 13), (3, 10)),
]


def rect_fp(a, b):
    return ShapeFingerprint(a * b, 2 * (a + b), f"rectangles:{a}x{b}")


def rec(sides):
    """The ShapeRecord of a rectangle's two sides or a heronian triangle's three."""
    if len(sides) == 2:
        return ShapeRecord(RectSides(*sides))
    return ShapeRecord(as_heronian(TriangleSides(*sides)))


def pair_ids(pairs):
    return {(s.shape_id, t.shape_id) for s, t in pairs}


def stub_searches(monkeypatch) -> list:
    """Replace each search a report can run with a stub that only records its
    name; returns the list of names, which stays empty if none ran."""
    calls = []
    for module, name in (
        (tri_mod, "enumerate_heronian"),
        (rect_mod, "brute_force_pairs"),
        (tri_mod, "find_equable_triangles"),
        (rect_mod, "equable_rectangles"),
    ):
        monkeypatch.setattr(module, name, lambda *a, name=name: calls.append(name))
    return calls


class TestMatchAmicable:
    def test_known_rectangles_among_decoys(self):
        shapes = [rect_fp(a, b) for sides in RECT_PAIR_SIDES for a, b in sides]
        # decoys with area = perimeter + 1 can never satisfy either cross
        # equality against each other; huge values avoid the real shapes
        decoys = [
            ShapeFingerprint(10_000 + k + 1, 10_000 + k, f"decoy:{k}")
            for k in range(1000)
        ]
        got = match_amicable(shapes + decoys)
        want = {
            (f"rectangles:{a1}x{b1}", f"rectangles:{a2}x{b2}")
            for (a1, b1), (a2, b2) in RECT_PAIR_SIDES
        }
        assert pair_ids(got) == want

    def test_equable_shape_never_pairs_with_itself(self):
        assert match_amicable([rect_fp(4, 4)]) == []

    def test_two_distinct_equable_shapes_pair(self):
        rect = rect_fp(3, 6)  # area = perimeter = 18
        tri = ShapeFingerprint(18, 18, "triangles:example-18")
        got = match_amicable([rect, tri])
        assert len(got) == 1
        assert {got[0][0].shape_id, got[0][1].shape_id} == {rect.shape_id, tri.shape_id}

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            match_amicable([rect_fp(4, 6), rect_fp(4, 6)])

    @settings(max_examples=100)
    @given(
        values=st.lists(
            st.tuples(st.integers(1, 25), st.integers(1, 25)), min_size=0, max_size=60
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_permutation_invariance(self, values, seed):
        shapes = [
            ShapeFingerprint(a, p, f"id:{i}") for i, (a, p) in enumerate(values)
        ]
        shuffled = shapes[:]
        random.Random(seed).shuffle(shuffled)
        assert match_amicable(shapes) == match_amicable(shuffled)

    def test_equable_shapes_never_pair(self):
        # why equable reports pass no pairs: their area = perimeter values differ
        triangles = [ShapeRecord(h) for h in find_equable_triangles(1000)]
        rectangles = [ShapeRecord(r) for r in equable_rectangles(1000)]
        for shapes, values in ((triangles, [24, 30, 36, 42, 60]), (rectangles, [16, 18])):
            assert sorted(s.area for s in shapes) == values
            assert match_amicable(shapes) == []

    def test_no_self_pairs_even_when_equable(self):
        shapes = [ShapeFingerprint(7, 7, f"eq:{k}") for k in range(5)]
        got = match_amicable(shapes)
        assert all(s.shape_id != t.shape_id for s, t in got)
        assert len(got) == 10  # all cross pairs of 5 distinct equable shapes

    def test_triangle_join_equals_naive_scan(self):
        def fingerprints(triangles):
            return [ShapeFingerprint(h.area, h.perimeter(), str(h.sides)) for h in triangles]

        def by_ids(pairs, shape_id):
            return sorted(tuple(sorted((shape_id(s), shape_id(t)))) for s, t in pairs)

        def tri_id(h):
            return str(h.sides)

        def fp_id(s):
            return s.shape_id

        heronian = enumerate_heronian(300)
        assert len(heronian) == 532
        got = match_amicable_triangles(heronian)
        assert got == sorted(got) and all(g < h for g, h in got)
        assert by_ids(got, tri_id) == by_ids(naive_amicable_scan(fingerprints(heronian)), fp_id)
        assert ("3x25x26", "9x12x15") in by_ids(got, tri_id)

        # each equable key crosses itself, and repeats must not pair with their copies
        pair = [as_heronian(TriangleSides(*sides)) for sides in ((3, 25, 26), (9, 12, 15))]
        equable = find_equable_triangles(60)
        listed = [*pair, *equable, equable[2], pair[1], pair[0]]
        got = match_amicable_triangles(listed)
        assert got == [tuple(pair)]
        assert by_ids(got, tri_id) == by_ids(naive_amicable_scan(fingerprints(listed)), fp_id)

        records = [ShapeRecord(h) for h in dict.fromkeys(listed)]
        assert len(records) == 7
        assert by_ids(match_amicable(records), fp_id) == by_ids(got, tri_id)


# Sides that make no shape: wrong counts, unsorted, non-positive, degenerate, not heronian.
BAD_SIDES = [
    (), (5,), (1, 2, 3, 4), (13, 1), (0, 5), (5, 4, 3), (1, 2, 3), (2, 3, 4),
    (1.5, 2), (True, 5), (3.0, 4.0, 5.0), ("3", "4"),
]
# Every command that prints a report, at its default bound and at its cap.
REPORT_COMMANDS = (
    "verify all", "rect enumerate",
    "rect oracle", "rect oracle --max-side 20000",
    "tri search", "tri search --max-perimeter 3000",
    "tri equable", "tri equable --max-perimeter 3000",
    "equable rect", "equable rect --max-side 20000",
)


class TestShapeRecord:
    def test_triangles_are_the_heronian_triples(self):
        want = {(a, b, c): (area, a + b + c) for a, b, c, area in naive_heronian_triples(60)}
        got = {}
        for a in range(1, 61):
            for b in range(a, 61 - a):
                for c in range(b, min(a + b, 61 - a - b)):
                    heronian = as_heronian(TriangleSides(a, b, c))
                    if heronian is not None:
                        record = ShapeRecord(heronian)
                        got[a, b, c] = (record.area, record.perimeter)
        assert got == want

    def test_rectangles(self):
        for a in range(1, 31):
            for b in range(a, 31):
                record = ShapeRecord(RectSides(a, b))
                assert (record.area, record.perimeter) == (a * b, 2 * (a + b))

    @pytest.mark.parametrize(
        "sides", [*BAD_SIDES, TriangleSides(2, 3, 4), None, ShapeFingerprint(34, 70, "1x34")]
    )
    def test_bad_sides_rejected(self, sides):
        """Only a RectSides or a HeronianTriangle makes a record, never raw sides."""
        with pytest.raises(TypeError):
            ShapeRecord(sides)

    @pytest.mark.parametrize("command", REPORT_COMMANDS)
    def test_every_listed_record_agrees_with_its_sides(self, command):
        """Each listed area and perimeter, worked out here from the sides alone."""
        d = canonical_report(command + " --format json")
        records = [*d.get("shapes", ()), *(p[k] for p in d["pairs"] for k in ("first", "second"))]
        assert records
        for record in records:
            sides, area, perimeter = record["sides"], record["area"], record["perimeter"]
            if len(sides) == 2:
                a, b = sides
                assert (area, perimeter) == (a * b, 2 * (a + b))
            else:
                a, b, c = sides
                assert 16 * area * area == (a + b + c) * (-a + b + c) * (a - b + c) * (a + b - c)
                assert perimeter == a + b + c

    @pytest.mark.parametrize("sides", BAD_SIDES)
    @pytest.mark.parametrize(
        "command, path",
        [
            ("verify all --format json", ("pairs", 0, "first")),
            ("equable rect --format json", ("shapes", 0)),
        ],
    )
    def test_bad_sides_rejected_on_read_back(self, sides, command, path):
        with pytest.raises(CertificateError):
            report_from_dict(edited(canonical_report(command), (*path, "sides"), list(sides)))


class TestAssembleReport:
    def test_empty_inputs(self):
        report = assemble_report("rectangles", 10, [], [], 55)
        assert report.shapes_scanned == 55  # the count search_report passes in
        assert report.pairs == ()

    @pytest.mark.parametrize(
        "family, bound, shapes, pairs",
        [
            ("rectangles", 10, [], [((1, 2), (3, 4))]),
            ("rectangles", 10, [], [((4, 4), (4, 4))]),  # its cross equalities hold at 16
            ("rectangles", 100, [], [((1, 34), (8, 9))]),  # only 34 = 34 holds
            ("rectangles", 100, [], [((1, 34), (5, 14))]),  # only 70 = 70 holds
            ("triangles", 100, [], [((1, 34), (7, 10))]),
            ("rectangles", 100, [], [((1, 34), (7, 10))] * 2),
            ("rectangles", 10, [(3, 4, 5)], []),
            ("rectangles", 100, [], [((4, 8), (4, 13, 15))]),  # amicable: 32, 24 and 24, 32
            ("equable-rectangles", 10, [(2, 3)], []),
            ("equable-rectangles", 10, [(4, 4)] * 2, []),
        ],
        ids=["cross-equalities-fail", "self-pair", "only-first-area-crosses",
             "only-second-area-crosses", "rectangles-in-triangles-report", "repeated-pair",
             "triangle-in-rectangles-report", "triangle-second-in-rectangles-report",
             "not-equable", "repeated-shape"],
    )
    def test_false_certificate_rejected(self, family, bound, shapes, pairs):
        shapes = [rec(sides) for sides in shapes]
        pairs = [(rec(a), rec(b)) for a, b in pairs]
        with pytest.raises(CertificateError):
            assemble_report(family, bound, shapes, pairs, 0)

    def test_orders_and_sorts_pairs(self):
        pairs = [
            (rec((7, 10)), rec((1, 34))),
            (rec((4, 6)), rec((2, 10))),
        ]
        report = assemble_report("rectangles", 54, [], pairs, 1485)
        assert [(p[0].sides, p[1].sides) for p in report.pairs] == [
            ((1, 34), (7, 10)),
            ((2, 10), (4, 6)),
        ]

    def test_equable_family_keeps_shapes(self):
        shapes = [rec((4, 4)), rec((3, 6))]
        report = assemble_report("equable-rectangles", 10, shapes, [], 2)
        assert [s.sides for s in report.shapes] == [(3, 6), (4, 4)]

    def test_pair_family_refuses_shape_list(self):
        with pytest.raises(CertificateError, match="a rectangles report lists pairs, not shapes"):
            assemble_report("rectangles", 10, [rec((2, 3))], [], 55)

    @pytest.mark.parametrize(
        "pair, bound, message",
        [
            (((1, 34), (7, 10)), 20, "1x34 lies beyond the bound 20"),
            (((1, 34), (8, 40)), 35, "8x40 lies beyond the bound 35"),
        ],
        ids=["first", "second"],
    )
    def test_rectangle_measured_by_its_long_side(self, pair, bound, message):
        # every short side is within the bound; the named rectangle's long side is not
        pair = tuple(rec(sides) for sides in pair)
        with pytest.raises(CertificateError, match=message):
            assemble_report("rectangles", bound, [], [pair], 210)

    def test_deterministic_serialisation(self):
        pairs = [(rec((1, 34)), rec((7, 10)))]
        r1 = assemble_report("rectangles", 54, [], pairs, 1485)
        r2 = assemble_report("rectangles", 54, [], pairs, 1485)
        assert json.dumps(r1.to_canonical_dict(), sort_keys=True) == json.dumps(
            r2.to_canonical_dict(), sort_keys=True
        )


class TestSearchReport:
    @pytest.mark.parametrize("bound", [54.0, True])
    def test_bound_must_be_an_int(self, bound):
        with pytest.raises(CertificateError):
            search_report("rectangles", bound)

    def test_unknown_family_rejected(self):
        with pytest.raises(CertificateError, match="unknown family"):
            search_report("hexagons", 10)

    @pytest.mark.parametrize(
        "family", ["rectangles", "triangles", "equable-rectangles", "equable-triangles"]
    )
    def test_bound_above_its_cap_refused_before_any_search(self, monkeypatch, family):
        calls = stub_searches(monkeypatch)
        greatest = BOUNDS[FAMILIES[family][0]][1]
        with pytest.raises(CertificateError, match=f"cannot have the bound {greatest + 1}"):
            search_report(family, greatest + 1)
        assert calls == []

    @pytest.mark.parametrize("family", ["rectangles", "triangles", "verification"])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_overlong_bound_refused_by_its_size(self, monkeypatch, family, sign):
        """From CPython 3.10.7 on, repr refuses an int of over 4,300 digits;
        the refusal names the bit length of 10**5000 instead, and starts no
        search."""
        calls = stub_searches(monkeypatch)
        shown = re.escape("-" * (sign < 0) + "<16610-bit int>")
        with pytest.raises(CertificateError, match=f"cannot have the bound {shown}$"):
            search_report(family, sign * 10**5000)
        assert calls == []

    @pytest.mark.parametrize(
        "family, bound, scanned",
        [
            ("rectangles", None, 0),  # the divisor enumeration scans no rectangle
            ("rectangles", 10, 55),  # every canonical rectangle within the bound
            ("triangles", 150, 154),  # the heronian triangles within the bound
            ("equable-rectangles", 10, 2),  # its own shapes
            ("equable-triangles", 200, 5),
            ("verification", None, 20_205),  # rect_count(200) + 105 heronian triangles
        ],
    )
    def test_scan_count(self, family, bound, scanned):
        assert search_report(family, bound).shapes_scanned == scanned


class TestRoundTrip:
    def test_round_trip(self):
        report = search_report("rectangles", 54)  # all five pairs
        rebuilt = report_from_dict(json.loads(json.dumps(report.to_canonical_dict())))
        assert rebuilt.pairs == report.pairs
        assert rebuilt.checks == report.checks
        assert rebuilt.bound == 54
        verification = report_from_dict(canonical_report("verify all --format json"))
        rebuilt = report_from_dict(json.loads(json.dumps(verification.to_canonical_dict())))
        assert rebuilt.pairs == verification.pairs
        assert rebuilt.checks == verification.checks
        assert [name for name, _ in rebuilt.checks] == list(VERIFICATION_CHECKS)

    def test_shape_ids_stable(self):
        assert rec((2, 13)).shape_id == "2x13"
        assert rec((9, 12, 15)).shape_id == "9x12x15"

    def test_every_command_report_reads_back(self):
        """At the default bound and at each family's cap too, so no bound a
        command accepts prints a report that read-back refuses."""
        for command in (
            *MUTATED_COMMANDS,
            "tri search --format json",
            "tri search --max-perimeter 3000 --format json",
            "rect oracle --max-side 20000 --format json",
        ):
            d = canonical_report(command)
            assert report_from_dict(d).to_canonical_dict() == d

    def test_triangle_search_at_1000_reads_back_with_its_counts(self):
        """3,946 heronian triangles to perimeter 1000, and still the one pair."""
        report = report_from_dict(canonical_report("tri search --max-perimeter 1000 --format json"))
        assert (report.shapes_scanned, len(report.pairs)) == (3946, 1)

    @pytest.mark.parametrize("shape", ["circular", "nested 100000 deep"])
    def test_unencodable_pairs_rejected(self, shape):
        d = canonical_report("rect oracle --max-side 60 --format json")
        if shape == "circular":
            d["pairs"] = [d]
        else:
            for _ in range(100_000):
                d["pairs"] = [d["pairs"]]
        with pytest.raises(CertificateError, match="malformed report"):
            report_from_dict(d)

    @pytest.mark.parametrize(
        "path",
        [("shapes_scanned",), ("pairs", 0, "first", "area"), ("family",), ("bound",)],
        ids=lambda path: ".".join(map(str, path)),
    )
    def test_overlong_int_rejected(self, path):
        """A 4,301-digit int anywhere raises CertificateError, never a bare
        ValueError: from CPython 3.10.7 on json and repr refuse to print it,
        and before that it is a mismatch or a bound out of range."""
        d = edited(canonical_report(RECT), path, 10**4300)
        with pytest.raises(CertificateError):
            report_from_dict(d)

    def test_search_refusal_passes_through(self):
        """Read-back raises search_report's own refusal, not a malformed-report
        error that wraps it."""
        d = canonical_report("tri search --max-perimeter 150 --format json")
        d["bound"] = -(10**5000)
        with pytest.raises(CertificateError, match=r"^a triangles report cannot have the bound -<16610-bit int>$"):
            report_from_dict(d)

    @pytest.mark.parametrize("scanned", [1, 20_204, 20_206])
    def test_verification_scan_count_re_derived(self, scanned):
        """rect_count(200) = 20,100 rectangles and 105 heronian triangles to perimeter 120."""
        d = canonical_report("verify all --format json")
        assert report_from_dict(d).shapes_scanned == 20_205
        d["shapes_scanned"] = scanned
        with pytest.raises(CertificateError, match="scans 20205 shapes"):
            report_from_dict(d)

    @pytest.mark.parametrize(
        "command",
        [
            "tri search --max-perimeter 150 --format json",
            "tri equable --format json",
            "equable rect --format json",
        ],
    )
    def test_null_bound_only_on_exact_families(self, command):
        """Only the rectangles' divisor enumeration and verify all are bound-free."""
        d = canonical_report(command)
        d["bound"] = None
        with pytest.raises(CertificateError, match="cannot have the bound None"):
            report_from_dict(d)

    @pytest.mark.parametrize(
        "command, edit",
        [
            *(("verify all", lambda d, i=i: d["pairs"].pop(i)) for i in range(6)),
            ("verify all", lambda d: d["pairs"].clear()),
            ("verify all", lambda d: d["checks"][0].update(status="fail")),
            ("rect enumerate", lambda d: d["pairs"].pop(2)),
            ("rect enumerate", lambda d: d["pairs"].clear()),
            ("rect oracle --max-side 60", lambda d: d["pairs"].pop(0)),
            ("rect oracle --max-side 60", lambda d: d["pairs"].clear()),
            ("tri search --max-perimeter 150", lambda d: d["pairs"].clear()),
            ("tri search --max-perimeter 150", lambda d: d.update(bound=149)),
            ("tri search --max-perimeter 150", lambda d: d.update(shapes_scanned=153)),
        ],
        ids=[*(f"verify-all-pair-{i}-deleted" for i in range(6)), "verify-all-no-pairs",
             "verify-all-check-fails", "rect-enumerate-pair-deleted", "rect-enumerate-no-pairs",
             "rect-oracle-pair-deleted", "rect-oracle-no-pairs", "tri-search-no-pairs",
             "tri-search-bound-149", "tri-search-scans-153"],
    )
    def test_report_is_its_searchs_answer(self, command, edit):
        d = canonical_report(command + " --format json")
        assert report_from_dict(d).to_canonical_dict() == d
        edit(d)
        with pytest.raises(CertificateError, match="report differs from search_report"):
            report_from_dict(d)

    def test_read_back_runs_its_search_once(self, monkeypatch):
        """Reading back a report runs its own search once, at its stated bound;
        verify all's runs at its fixed bounds."""
        commands = {
            "verify all --format json": [("brute_force_pairs", 200), ("enumerate_heronian", 120)],
            "tri search --max-perimeter 150 --format json": [("enumerate_heronian", 150)],
            "rect oracle --max-side 60 --format json": [("brute_force_pairs", 60)],
        }
        reports = {command: canonical_report(command) for command in commands}
        calls = []
        for module, name in ((tri_mod, "enumerate_heronian"), (rect_mod, "brute_force_pairs")):
            real = getattr(module, name)
            spy = lambda bound, name=name, real=real: calls.append((name, bound)) or real(bound)
            monkeypatch.setattr(module, name, spy)
        for command, searches in commands.items():
            calls.clear()
            report_from_dict(reports[command])
            assert calls == searches

    @pytest.mark.parametrize(
        "command, bound",
        [
            ("tri search --max-perimeter 30", 1),
            ("tri search --max-perimeter 30", 2),
            ("tri search --max-perimeter 30", 10**12),
            ("rect oracle --max-side 60", 10**12),
            ("tri search --max-perimeter 30", 3001),
            ("rect oracle --max-side 60", 20001),
            ("tri equable", 10**12),
            ("equable rect", 10**12),
            ("tri search --max-perimeter 30", True),
            ("tri search --max-perimeter 30", 54.0),
            ("rect oracle --max-side 60", True),
            ("rect oracle --max-side 60", 54.0),
            # pytest's own ids would print these 5,001-digit ints
            pytest.param("tri search --max-perimeter 30", 10**5000, id="tri-10**5000"),
            pytest.param("tri search --max-perimeter 30", -10**5000, id="tri--10**5000"),
            pytest.param("rect oracle --max-side 60", 10**5000, id="rect-10**5000"),
            pytest.param("rect oracle --max-side 60", -10**5000, id="rect--10**5000"),
        ],
    )
    def test_forged_bound_refused_before_any_search(self, monkeypatch, command, bound):
        """A bound below the least shape, above its family's cap, not an int
        or too long to print raises CertificateError and starts no search,
        equable closed forms included.  The search at 30 finds no pair, so no
        listed shape lies beyond bound 1 or 2."""
        d = canonical_report(command + " --format json")
        d["bound"] = bound
        calls = stub_searches(monkeypatch)
        with pytest.raises(CertificateError):
            report_from_dict(d)
        assert calls == []

    @pytest.mark.parametrize("command", ["verify all", "rect enumerate", "rect oracle --max-side 60"])
    def test_read_back_assembles_once(self, monkeypatch, command):
        """Every report is rebuilt by its one search: one assemble_report call."""
        d = canonical_report(command + " --format json")
        calls = []
        real = matching_mod.assemble_report
        monkeypatch.setattr(
            matching_mod, "assemble_report", lambda *a, **kw: calls.append(a[0]) or real(*a, **kw)
        )
        assert report_from_dict(d).to_canonical_dict() == d
        assert calls == [d["family"]]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_single_mutation_rejected_or_read_back_exactly(self, data):
        d = canonical_report(data.draw(st.sampled_from(MUTATED_COMMANDS)))
        path = data.draw(st.sampled_from(node_paths(d)))
        mutation = data.draw(
            st.just(DELETE) | st.none() | st.integers() | st.floats()
            | st.booleans() | st.text(max_size=5) | st.just([]) | st.just({})
        )
        d = edited(d, path, mutation)
        try:
            report = report_from_dict(d)
        except CertificateError:
            return
        assert report.to_canonical_dict() == d


# The tamper tests of read-back: the single-edit gate makes every edit of one
# node of each command's JSON report, and a second test makes each HAND_PICKED edit
# of those reports, one row at a time.  A node is
# deleted; a non-empty list is emptied or its first item doubled; an int is
# moved by 1 either way, set to 0, to its float or to null; a bool is flipped,
# "x" is appended to a str and a null set to 1.  Each command maps to its
# number of distinct single edits (an edit that changes nothing is none).
GATE_COMMANDS = {
    "rect enumerate --format json": 295,
    "rect oracle --max-side 60 --format json": 300,
    "tri search --max-perimeter 150 --format json": 87,
    "tri equable --format json": 189,
    "equable rect --format json": 75,
    "verify all --format json": 407,
}
# The edits that still read back: (command, path, edit, why).  An edit is
# "delete", "empty", "double" or the JSON text of the new value.  Each is a
# true report, as its search gives the same answer at the edited bound.
# Adding a row loosens the gate.
READS_BACK = [
    ("tri search --max-perimeter 150 --format json", ("bound",), "151",
     "true: no heronian triangle has an odd perimeter"),
    *(("tri equable --format json", ("bound",), n, "true: the closed form lists the same shapes")
      for n in ("119", "121")),
    *(("equable rect --format json", ("bound",), n, "true: the closed form lists the same shapes")
      for n in ("199", "201")),
]
RECT = "rect oracle --max-side 60 --format json"
VERIFY = "verify all --format json"
# Edits that single_edits does not make: (command, path, the node's new value
# or REVERSE); the empty path is the whole report.  Adding a row tightens the gate.
HAND_PICKED = [
    (RECT, ("pairs", 0, "second"), {"sides": [7, 11], "area": 77, "perimeter": 36}),
    (RECT, ("pairs", 0, "first", "sides", 0), True),
    (RECT, ("pairs", 0, "second", "sides", 0), "7"),
    (RECT, ("pairs", 0, "first", "sides", 1), 34.9),
    (RECT, ("pairs", 0, "second", "perimeter"), 34.5),
    *((RECT, ("shapes_scanned",), n) for n in (12.0, False, -5)),
    *((RECT, ("bound",), n) for n in (54.5, 7, 53)),
    # A bound below one, with the pairs and scan count a search at it would give.
    *((RECT, (), {"family": "rectangles", "bound": n, "shapes_scanned": n * (n + 1) // 2,
                  "pairs": [], "checks": []}) for n in (0, -3)),
    (RECT, ("pairs",), [{"first": {"sides": [3, 25, 26], "area": 36, "perimeter": 54},
                         "second": {"sides": [9, 12, 15], "area": 54, "perimeter": 36}}]),
    (RECT, ("pairs",), REVERSE),
    (RECT, ("pairs", 0), {"first": {"sides": [7, 10], "area": 70, "perimeter": 34},
                          "second": {"sides": [1, 34], "area": 34, "perimeter": 70}}),
    (RECT, ("checks",), [{"name": "demo", "status": "pass"}]),
    (RECT, ("shapes",), [{"sides": [2, 3], "area": 6, "perimeter": 10}]),
    (RECT, ("elapsed",), 0.5),
    (VERIFY, ("checks",), REVERSE),
    (VERIFY, ("checks", 0, "name"), 5),
    (VERIFY, ("checks", 7, "name"), "tri-pair-cross-equalities"),
    # The bound moved below a listed shape: 3x25x26, 6x25x29 and 3x6.
    ("tri search --max-perimeter 150 --format json", ("bound",), 53),
    ("tri equable --format json", ("bound",), 59),
    ("equable rect --format json", ("bound",), 5),
    # A bound on a bound-free report, and scan counts no single edit reaches.
    *((VERIFY, ("bound",), n) for n in (7, 1000)),
    (RECT, ("shapes_scanned",), 3),
    ("tri search --max-perimeter 150 --format json", ("shapes_scanned",), 30.0),
    ("rect enumerate --format json", ("shapes_scanned",), 3),
    ("tri equable --format json", ("shapes_scanned",), 3),
    (VERIFY, ("checks", 0, "status"), "maybe"),
    # Each report relabelled with another family.
    (RECT, ("family",), "triangles"),
    ("rect enumerate --format json", ("family",), "verification"),
    ("tri search --max-perimeter 150 --format json", ("family",), "rectangles"),
    ("tri equable --format json", ("family",), "equable-rectangles"),
    ("equable rect --format json", ("family",), "equable-triangles"),
    (VERIFY, ("family",), "rectangles"),
    # A true shape record that is not equable, in an equable list.
    ("equable rect --format json", ("shapes", 0), {"sides": [3, 7], "area": 21, "perimeter": 20}),
    ("tri equable --format json", ("shapes", 0), {"sides": [3, 4, 5], "area": 6, "perimeter": 12}),
]


def edited(d, path: tuple, value):
    """A copy of d with its node at path deleted (DELETE), reversed (REVERSE) or
    set to value, a key being added if need be; at the empty path d itself is replaced."""
    if not path:
        return None if value is DELETE else copy.deepcopy(value)
    d = copy.deepcopy(d)
    parent = d
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    elif value is REVERSE:
        parent[path[-1]].reverse()
    else:
        parent[path[-1]] = copy.deepcopy(value)
    return d


def single_edits(d: dict) -> dict:
    """(path, edit) -> the edited copy of d, for every edit of every node below its root."""
    edits = {}
    for path in node_paths(d)[1:]:
        node = d
        for key in path:
            node = node[key]
        values = [("delete", DELETE)]
        if isinstance(node, list) and node:
            values += [("empty", []), ("double", [node[0], *node])]
        if type(node) is int:
            values += [(None, v) for v in (node + 1, node - 1, 0, float(node), None)]
        elif type(node) is bool:
            values.append((None, not node))
        elif isinstance(node, str):
            values.append((None, node + "x"))
        elif node is None:
            values.append((None, 1))
        for edit, value in values:
            edit = edit or json.dumps(value)
            if edit != json.dumps(node) and (path, edit) not in edits:
                edits[path, edit] = edited(d, path, value)
    return edits


@pytest.mark.parametrize("command", GATE_COMMANDS)
def test_single_edit_rejected_unless_listed(command):
    """Every single edit of a command's report raises CertificateError, except
    those READS_BACK lists with the reason each still reads back."""
    edits = single_edits(canonical_report(command))
    assert len(edits) == GATE_COMMANDS[command]
    read_back = set()
    for key, edit in edits.items():
        try:
            report_from_dict(edit)
        except CertificateError:
            continue
        read_back.add(key)
    assert read_back == {(path, edit) for cmd, path, edit, _ in READS_BACK if cmd == command}


@functools.cache
def _single_edit_keys(command: str) -> frozenset:
    return frozenset(single_edits(canonical_report(command)))


def _hand_picked_id(row) -> str:
    command, path, value = row
    if value is REVERSE:
        value = "reversed"
    elif not path:
        value = f"a report at bound {value['bound']}"
    elif isinstance(value, (dict, list)):
        value = f"a {type(value).__name__} of {len(value)}"
    else:
        value = json.dumps(value)
    return f"{command.removesuffix(' --format json')}: /{'/'.join(map(str, path))} = {value}"


@pytest.mark.parametrize("command, path, value", HAND_PICKED, ids=map(_hand_picked_id, HAND_PICKED))
def test_hand_picked_edit_rejected(command, path, value):
    """Each HAND_PICKED edit, one the single-edit gate does not make, raises CertificateError."""
    assert (path, "reverse" if value is REVERSE else json.dumps(value)) not in _single_edit_keys(command)
    d = canonical_report(command)
    with pytest.raises(CertificateError):
        report_from_dict(edited(d, path, value))


@functools.cache
def _stdout(command: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(command.split()) == 0
    return out.getvalue()


def canonical_report(command: str) -> dict:
    """A fresh parse of the JSON a command prints; the command runs once."""
    return json.loads(_stdout(command))


def node_paths(node, path=()) -> list[tuple]:
    """The path of node and of every key or list item below it."""
    paths = [path]
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        items = ()
    for key, child in items:
        paths.extend(node_paths(child, path + (key,)))
    return paths
