import contextlib
import copy
import functools
import io
import json
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amipoly.cli import main
from amipoly.matching import (
    CertificateError,
    SearchReport,
    ShapeFingerprint,
    ShapeRecord,
    VERIFICATION_CHECKS,
    assemble_report,
    match_amicable,
    report_from_dict,
)
from amipoly.rectangles import equable_rectangles
from amipoly.triangles import find_equable_triangles

from _oracles import naive_amicable_scan, naive_heronian_triples

MUTATED_COMMANDS = (
    "verify all --format json",
    "tri search --max-perimeter 150 --format json",
    "tri equable --max-perimeter 200 --format json",
    "rect oracle --max-side 60 --format json",
)
DELETE = object()  # the mutation that removes a key or list item

RECT_PAIR_SIDES = [
    ((1, 34), (7, 10)),
    ((1, 38), (6, 13)),
    ((1, 54), (5, 22)),
    ((2, 10), (4, 6)),
    ((2, 13), (3, 10)),
]


def rect_fp(a, b):
    return ShapeFingerprint(a * b, 2 * (a + b), f"rectangles:{a}x{b}")


def pair_ids(pairs):
    return {(s.shape_id, t.shape_id) for s, t in pairs}


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

    def test_join_equals_quadratic_scan_randomised(self):
        rng = random.Random(4242)
        for trial in range(40):
            n = rng.randint(2, 300)
            shapes = [
                ShapeFingerprint(rng.randint(1, 40), rng.randint(1, 40), f"s{trial}:{k}")
                for k in range(n)
            ]
            assert match_amicable(shapes) == naive_amicable_scan(shapes)

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
        triangles = [ShapeRecord(h.sides.as_tuple()) for h in find_equable_triangles(1000)]
        rectangles = [ShapeRecord((r.short, r.long)) for r in equable_rectangles(1000)]
        for shapes, values in ((triangles, [24, 30, 36, 42, 60]), (rectangles, [16, 18])):
            assert sorted(s.area for s in shapes) == values
            assert match_amicable(shapes) == []

    def test_no_self_pairs_even_when_equable(self):
        shapes = [ShapeFingerprint(7, 7, f"eq:{k}") for k in range(5)]
        got = match_amicable(shapes)
        assert all(s.shape_id != t.shape_id for s, t in got)
        assert len(got) == 10  # all cross pairs of 5 distinct equable shapes


# Sides that make no ShapeRecord: wrong counts, unsorted, non-positive, degenerate, not heronian.
BAD_SIDES = [
    (), (5,), (1, 2, 3, 4), (13, 1), (0, 5), (5, 4, 3), (1, 2, 3), (2, 3, 4),
    (1.5, 2), (True, 5), (3.0, 4.0, 5.0), ("3", "4"),
]


class TestShapeRecord:
    def test_triangles_are_the_heronian_triples(self):
        want = {(a, b, c): (area, a + b + c) for a, b, c, area in naive_heronian_triples(60)}
        got = {}
        for a in range(1, 61):
            for b in range(a, 61 - a):
                for c in range(b, min(a + b, 61 - a - b)):
                    try:
                        rec = ShapeRecord((a, b, c))
                    except CertificateError:
                        continue
                    got[a, b, c] = (rec.area, rec.perimeter)
        assert got == want

    def test_rectangles(self):
        for a in range(1, 31):
            for b in range(a, 31):
                rec = ShapeRecord((a, b))
                assert (rec.area, rec.perimeter) == (a * b, 2 * (a + b))

    @pytest.mark.parametrize("sides", BAD_SIDES)
    def test_bad_sides_rejected(self, sides):
        with pytest.raises(CertificateError):
            ShapeRecord(sides)

    @pytest.mark.parametrize("sides", BAD_SIDES)
    @pytest.mark.parametrize(
        "command, path",
        [
            ("verify all --format json", ("pairs", 0, "first")),
            ("equable rect --format json", ("shapes", 0)),
        ],
    )
    def test_bad_sides_rejected_on_read_back(self, sides, command, path):
        d = canonical_report(command)
        target = d
        for key in path:
            target = target[key]
        target["sides"] = list(sides)
        with pytest.raises(CertificateError):
            report_from_dict(d)

    def test_pickle_and_copy_rebuild_from_sides(self):
        for rec in (ShapeRecord((1, 34)), ShapeRecord((3, 25, 26))):
            assert pickle.loads(pickle.dumps(rec)) == rec
            assert copy.copy(rec) == rec
            assert copy.deepcopy(rec) == rec


class TestAssembleReport:
    def test_empty_inputs(self):
        report = assemble_report("rectangles", 10, [], [])
        assert report.shapes_scanned == 55  # every rectangle within the bound
        assert report.pairs == ()

    def test_reverifies_pairs(self):
        bad = (ShapeRecord((1, 2)), ShapeRecord((3, 4)))
        with pytest.raises(CertificateError):
            assemble_report("rectangles", 10, [], [bad])

    def test_orders_and_sorts_pairs(self):
        pairs = [
            (ShapeRecord((7, 10)), ShapeRecord((1, 34))),
            (ShapeRecord((4, 6)), ShapeRecord((2, 10))),
        ]
        report = assemble_report("rectangles", 54, [], pairs)
        assert [(p[0].sides, p[1].sides) for p in report.pairs] == [
            ((1, 34), (7, 10)),
            ((2, 10), (4, 6)),
        ]

    def test_equable_family_keeps_shapes(self):
        shapes = [ShapeRecord((4, 4)), ShapeRecord((3, 6))]
        report = assemble_report("equable-rectangles", 10, shapes, [])
        assert [s.sides for s in report.shapes] == [(3, 6), (4, 4)]

    def test_pair_family_drops_shape_list(self):
        report = assemble_report("rectangles", 10, [ShapeRecord((2, 3))], [])
        assert report.shapes == ()
        assert report.shapes_scanned == 55  # every rectangle within the bound

    def test_inconsistent_shape_rejected(self):
        with pytest.raises(CertificateError):
            assemble_report("rectangles", 10, [ShapeRecord((3, 4, 5))], [])
        with pytest.raises(CertificateError):
            assemble_report("equable-rectangles", 10, [ShapeRecord((2, 3))], [])

    @pytest.mark.parametrize("bound", [54.0, True])
    def test_bound_must_be_an_int(self, bound):
        with pytest.raises(CertificateError):
            assemble_report("rectangles", bound, [], [])

    @pytest.mark.parametrize("scanned", [7.0, True, -1])
    def test_scan_count_must_be_a_non_negative_int(self, scanned):
        with pytest.raises(CertificateError):
            assemble_report("triangles", 10, [], [], shapes_scanned=scanned)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            assemble_report("hexagons", 10, [], [])

    def test_deterministic_serialisation(self):
        pairs = [(ShapeRecord((1, 34)), ShapeRecord((7, 10)))]
        r1 = assemble_report("rectangles", 54, [], pairs)
        r2 = assemble_report("rectangles", 54, [], pairs)
        assert json.dumps(r1.to_canonical_dict(), sort_keys=True) == json.dumps(
            r2.to_canonical_dict(), sort_keys=True
        )


class TestRoundTrip:
    def report(self):
        pairs = [(ShapeRecord((1, 34)), ShapeRecord((7, 10)))]
        return assemble_report("rectangles", 54, [], pairs)

    def test_round_trip(self):
        report = self.report()
        rebuilt = report_from_dict(json.loads(json.dumps(report.to_canonical_dict())))
        assert rebuilt.pairs == report.pairs
        assert rebuilt.checks == report.checks
        assert rebuilt.bound == 54
        verification = report_from_dict(canonical_report("verify all --format json"))
        rebuilt = report_from_dict(json.loads(json.dumps(verification.to_canonical_dict())))
        assert rebuilt.pairs == verification.pairs
        assert rebuilt.checks == verification.checks
        assert [name for name, _ in rebuilt.checks] == list(VERIFICATION_CHECKS)

    def test_tampered_area_detected(self):
        d = self.report().to_canonical_dict()
        d["pairs"][0]["first"]["area"] = 35
        with pytest.raises(CertificateError):
            report_from_dict(d)

    def test_tampered_cross_equality_detected(self):
        d = self.report().to_canonical_dict()
        d["pairs"][0]["second"] = {"sides": [7, 11], "area": 77, "perimeter": 36}
        with pytest.raises(CertificateError):
            report_from_dict(d)

    @pytest.mark.parametrize(
        "path, value",
        [
            (("pairs", 0, "first", "sides", 1), 34.9),
            (("pairs", 0, "first", "sides", 0), True),
            (("pairs", 0, "second", "sides", 0), "7"),
            (("pairs", 0, "first", "area"), 34.0),
            (("pairs", 0, "second", "perimeter"), 34.5),
            (("shapes_scanned",), 12.0),
            (("shapes_scanned",), False),
            (("shapes_scanned",), -5),
            (("bound",), 54.5),
        ],
    )
    def test_inexact_number_rejected(self, path, value):
        d = self.report().to_canonical_dict()
        target = d
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(CertificateError):
            report_from_dict(d)

    def test_nonpositive_dimensions_detected(self):
        with pytest.raises(CertificateError):
            ShapeRecord((0, 5))

    def test_shape_ids_stable(self):
        assert ShapeRecord((2, 13)).shape_id == "2x13"
        assert ShapeRecord((9, 12, 15)).shape_id == "9x12x15"

    def test_every_command_report_reads_back(self):
        for command in MUTATED_COMMANDS:
            d = canonical_report(command)
            assert report_from_dict(d).to_canonical_dict() == d

    def test_duplicated_pair_rejected(self):
        d = self.report().to_canonical_dict()
        d["pairs"].append(copy.deepcopy(d["pairs"][0]))
        with pytest.raises(CertificateError):
            report_from_dict(d)

    def test_triangle_pair_in_rectangles_report_rejected(self):
        d = self.report().to_canonical_dict()
        d["pairs"] = [
            {
                "first": {"sides": [3, 25, 26], "area": 36, "perimeter": 54},
                "second": {"sides": [9, 12, 15], "area": 54, "perimeter": 36},
            }
        ]
        with pytest.raises(CertificateError):
            report_from_dict(d)

    def test_reversed_pair_order_rejected(self):
        pairs = [
            (ShapeRecord((1, 34)), ShapeRecord((7, 10))),
            (ShapeRecord((2, 10)), ShapeRecord((4, 6))),
        ]
        d = assemble_report("rectangles", 54, [], pairs).to_canonical_dict()
        d["pairs"].reverse()
        with pytest.raises(CertificateError):
            report_from_dict(d)

    def test_swapped_members_rejected(self):
        d = self.report().to_canonical_dict()
        pair = d["pairs"][0]
        pair["first"], pair["second"] = pair["second"], pair["first"]
        with pytest.raises(CertificateError):
            report_from_dict(d)

    def test_unknown_check_status_rejected(self):
        d = canonical_report("verify all --format json")
        d["checks"][0]["status"] = "maybe"
        with pytest.raises(CertificateError):
            report_from_dict(d)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda checks: checks.clear(),
            lambda checks: checks.pop(3),
            lambda checks: checks.reverse(),
            lambda checks: checks[0].update(name=5),
            lambda checks: checks[-1].update(name="tri-pair-cross-equalities"),
        ],
        ids=["empty", "deleted", "reordered", "non-string-name", "renamed"],
    )
    def test_verification_report_carries_the_fixed_checks(self, edit):
        d = canonical_report("verify all --format json")
        edit(d["checks"])
        with pytest.raises(CertificateError):
            report_from_dict(d)

    def test_checks_on_other_family_rejected(self):
        d = self.report().to_canonical_dict()
        d["checks"] = [{"name": "demo", "status": "pass"}]
        with pytest.raises(CertificateError):
            report_from_dict(d)

    @pytest.mark.parametrize(
        "command, bound",
        [
            ("rect oracle --max-side 60 --format json", 7),
            ("rect oracle --max-side 60 --format json", 53),
            ("tri search --max-perimeter 60 --format json", 53),
            ("tri equable --max-perimeter 200 --format json", 59),
            ("equable rect --format json", 5),
        ],
    )
    def test_shape_beyond_bound_rejected(self, command, bound):
        d = canonical_report(command)
        d["bound"] = bound
        with pytest.raises(CertificateError):
            report_from_dict(d)

    @pytest.mark.parametrize("bound", [7, 1000])
    def test_bound_on_verification_report_rejected(self, bound):
        d = canonical_report("verify all --format json")
        d["bound"] = bound
        with pytest.raises(CertificateError):
            report_from_dict(d)

    @pytest.mark.parametrize("scanned", [3, 1829, 1831])
    def test_rectangles_scan_count_tied_to_bound(self, scanned):
        d = canonical_report("rect oracle --max-side 60 --format json")
        assert d["shapes_scanned"] == 60 * 61 // 2
        d["shapes_scanned"] = scanned
        with pytest.raises(CertificateError):
            report_from_dict(d)

    @pytest.mark.parametrize("scanned", [30.0, 154.0])
    def test_triangles_scan_count_must_be_an_int(self, scanned):
        """A triangles report passes its count through, so only its type is checked."""
        d = canonical_report("tri search --max-perimeter 150 --format json")
        assert d["shapes_scanned"] == 154
        d["shapes_scanned"] = scanned
        with pytest.raises(CertificateError):
            report_from_dict(d)

    @pytest.mark.parametrize("scanned", [1, 20_204, 20_206])
    def test_verification_scan_count_re_derived(self, scanned):
        """rect_count(200) = 20,100 rectangles and 105 heronian triangles to perimeter 120."""
        d = canonical_report("verify all --format json")
        assert report_from_dict(d).shapes_scanned == 20_205
        d["shapes_scanned"] = scanned
        with pytest.raises(CertificateError, match="scans 20205 shapes"):
            report_from_dict(d)

    def test_exact_rectangles_report_scans_nothing(self):
        d = canonical_report("rect enumerate --format json")
        assert d["bound"] is None and d["shapes_scanned"] == 0
        d["shapes_scanned"] = 3
        with pytest.raises(CertificateError):
            report_from_dict(d)

    @pytest.mark.parametrize(
        "command", ["equable rect --format json", "tri equable --max-perimeter 200 --format json"]
    )
    def test_equable_scan_count_is_the_shape_count(self, command):
        d = canonical_report(command)
        assert d["shapes_scanned"] == len(d["shapes"])
        d["shapes_scanned"] = 3
        with pytest.raises(CertificateError):
            report_from_dict(d)

    @pytest.mark.parametrize("bound, scanned", [(0, 0), (-3, 3)])
    def test_bound_below_one_rejected(self, bound, scanned):
        d = canonical_report("rect oracle --max-side 60 --format json")
        d.update(bound=bound, shapes_scanned=scanned, pairs=[])
        with pytest.raises(CertificateError):
            report_from_dict(d)

    def test_conflicting_scan_count_rejected_on_assembly(self):
        with pytest.raises(CertificateError):
            assemble_report("rectangles", 10, [], [], shapes_scanned=54)
        assert assemble_report("rectangles", 10, [], [], shapes_scanned=55).shapes_scanned == 55
        assert assemble_report("triangles", 10, [], [], shapes_scanned=7).shapes_scanned == 7

    def test_shape_list_on_pair_report_rejected(self):
        d = self.report().to_canonical_dict()
        d["shapes"] = [{"sides": [2, 3], "area": 6, "perimeter": 10}]
        with pytest.raises(CertificateError):
            report_from_dict(d)

    def test_unknown_key_rejected(self):
        d = self.report().to_canonical_dict()
        d["elapsed"] = 0.5
        with pytest.raises(CertificateError):
            report_from_dict(d)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_single_mutation_rejected_or_read_back_exactly(self, data):
        d = canonical_report(data.draw(st.sampled_from(MUTATED_COMMANDS)))
        path = data.draw(st.sampled_from(node_paths(d)))
        mutation = data.draw(
            st.just(DELETE) | st.none() | st.integers() | st.floats()
            | st.booleans() | st.text(max_size=5) | st.just([]) | st.just({})
        )
        if not path:
            d = None if mutation is DELETE else mutation
        else:
            parent = d
            for key in path[:-1]:
                parent = parent[key]
            if mutation is DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = mutation
        try:
            report = report_from_dict(d)
        except CertificateError:
            return
        assert report.to_canonical_dict() == d


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
