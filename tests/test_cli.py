import ast
import hashlib
import json
import os
import string
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import amipoly.rectangles as rect_mod
import amipoly.triangles as tri_mod
from amipoly import cli
from amipoly.cli import main
from amipoly.matching import report_from_dict
from amipoly.triangles import TriangleSides

from test_golden import GOLDEN, GOLDEN_NO_RESULT

SRC = Path(__file__).resolve().parents[1] / "src"

THE_FIVE = [
    ([1, 34], [7, 10]),
    ([1, 38], [6, 13]),
    ([1, 54], [5, 22]),
    ([2, 10], [4, 6]),
    ([2, 13], [3, 10]),
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


class TestRectEnumerate:
    def test_json_lists_the_five(self, capsys):
        code, payload, _ = run_json(capsys, "rect", "enumerate", "--format", "json")
        assert code == 0
        got = [(p["first"]["sides"], p["second"]["sides"]) for p in payload["pairs"]]
        assert got == THE_FIVE
        assert payload["family"] == "rectangles"
        assert payload["bound"] is None

    def test_csv_five_rows_plus_header(self, capsys):
        code, out, _ = run_cli(capsys, "rect", "enumerate", "--format", "csv")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "family,a,b,x,y,area1,perim1,area2,perim2"
        assert len(lines) == 6
        assert lines[1] == "rectangles,1,34,7,10,34,70,70,34"

    def test_table_lists_first_pair_first(self, capsys):
        code, out, _ = run_cli(capsys, "rect", "enumerate")
        assert code == 0
        rows = [l for l in out.splitlines() if "x" in l and "1x34" in l]
        assert rows and rows[0].split()[:2] == ["1x34", "7x10"]

    def test_json_round_trips(self, capsys):
        _, payload, _ = run_json(capsys, "rect", "enumerate", "--format", "json")
        report = report_from_dict(payload)
        assert len(report.pairs) == 5


class TestRectSolve:
    def test_solution(self, capsys):
        code, payload, _ = run_json(capsys, "rect", "solve", "-a", "1", "-x", "7", "--format", "json")
        assert code == 0
        assert (payload["b"], payload["y"]) == (34, 10)
        assert payload["first"]["sides"] == [1, 34]
        assert payload["second"]["sides"] == [7, 10]

    def test_singular(self, capsys):
        code, payload, _ = run_json(capsys, "rect", "solve", "-a", "1", "-x", "4", "--format", "json")
        assert code == 2
        assert payload["status"] == "no-solution"
        assert payload["reason"] == "singular"
        assert payload["first"] is None

    def test_non_integer(self, capsys):
        code, payload, _ = run_json(capsys, "rect", "solve", "-a", "3", "-x", "4", "--format", "json")
        assert code == 2
        assert payload["reason"] == "non-integer"

    def test_non_positive(self, capsys):
        code, payload, _ = run_json(capsys, "rect", "solve", "-a", "1", "-x", "1", "--format", "json")
        assert code == 2
        assert payload["reason"] == "non-positive"

    def test_swapped_roles_still_solve(self, capsys):
        code, payload, _ = run_json(capsys, "rect", "solve", "-a", "3", "-x", "2", "--format", "json")
        assert code == 0
        assert (payload["b"], payload["y"]) == (10, 13)

    # The command solves the linear system, and an equable rectangle (3x6 or
    # 4x4) is its own solution: reported as solved, though it is no amicable pair.
    @pytest.mark.parametrize(
        "a, x, sides",
        [("3", "3", [3, 6]), ("3", "6", [3, 6]), ("6", "3", [3, 6]), ("6", "6", [3, 6]), ("4", "4", [4, 4])],
    )
    def test_equable_rectangle_solves_to_itself(self, capsys, a, x, sides):
        code, payload, _ = run_json(capsys, "rect", "solve", "-a", a, "-x", x, "--format", "json")
        assert (code, payload["status"]) == (0, "solved")
        assert payload["first"]["sides"] == payload["second"]["sides"] == sides

    def test_rejects_nonpositive_sides(self, capsys):
        code, out, err = run_cli(capsys, "rect", "solve", "-a", "0", "-x", "5")
        assert code == 1
        assert "positive" in err

    def test_csv_shape(self, capsys):
        code, out, _ = run_cli(capsys, "rect", "solve", "-a", "2", "-x", "3", "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0] == "a,x,status,reason,b,y"
        assert lines[1] == "2,3,solved,,13,10"


class TestRectOracle:
    def test_bound_ten(self, capsys):
        code, payload, _ = run_json(capsys, "rect", "oracle", "--max-side", "10", "--format", "json")
        assert code == 0
        assert [(p["first"]["sides"], p["second"]["sides"]) for p in payload["pairs"]] == [
            ([2, 10], [4, 6])
        ]
        assert payload["shapes_scanned"] == 55
        report_from_dict(payload)

    def test_bound_nine_empty(self, capsys):
        code, payload, _ = run_json(capsys, "rect", "oracle", "--max-side", "9", "--format", "json")
        assert code == 0
        assert payload["pairs"] == []

    def test_bad_bound(self, capsys):
        code, _, err = run_cli(capsys, "rect", "oracle", "--max-side", "0")
        assert code == 1


class TestTriSearch:
    def test_desk_scale(self, capsys):
        code, payload, _ = run_json(capsys, "tri", "search", "--max-perimeter", "120", "--format", "json")
        assert code == 0
        assert [(p["first"]["sides"], p["second"]["sides"]) for p in payload["pairs"]] == [
            ([3, 25, 26], [9, 12, 15])
        ]
        report_from_dict(payload)

    def test_small_bound_empty(self, capsys):
        code, payload, _ = run_json(capsys, "tri", "search", "--max-perimeter", "30", "--format", "json")
        assert code == 0
        assert payload["pairs"] == []

    def test_invalid_bound(self, capsys):
        code, _, err = run_cli(capsys, "tri", "search", "--max-perimeter", "2")
        assert code == 1


class TestTriEmbed:
    def test_sliver(self, capsys):
        code, payload, _ = run_json(capsys, "tri", "embed", "3", "25", "26", "--format", "json")
        assert code == 0
        assert payload["twice_area"] == 72
        assert sorted(payload["squared_sides"]) == [9, 625, 676]
        assert payload["vertices"][0] == [0, 0]
        assert all(len(v) == 2 for v in payload["vertices"])

    def test_not_heronian(self, capsys):
        code, payload, _ = run_json(capsys, "tri", "embed", "2", "3", "4", "--format", "json")
        assert code == 2
        assert payload["status"] == "not-heronian"
        assert payload["sixteen_area_sq"] == 135

    def test_not_heronian_csv(self, capsys):
        code, out, _ = run_cli(capsys, "tri", "embed", "2", "3", "4", "--format", "csv")
        assert code == 2
        assert out == "a,b,c,status,sixteen_area_sq\n2,3,4,not-heronian,135\n"

    def test_triangle_inequality(self, capsys):
        code, _, err = run_cli(capsys, "tri", "embed", "1", "1", "3")
        assert code == 1
        assert "triangle inequality" in err

    def test_square_is_factored_through_its_root(self, capsys, monkeypatch):
        """An embedding factors its longest side c once and never c^2.  The
        cap's hardest case for trial division, a right triangle whose longest
        side is the prime 999,998,001,157, would otherwise divide c^2 by every
        integer up to c: the spy refuses at once, in process, and
        TestProcessPath runs the same triangle in a subprocess bounded at 60 s."""
        factored = []
        real = tri_mod._factor

        def spy(m):
            factored.append(m)
            assert m <= 10**12, f"trial division of {m}"
            return real(m)

        monkeypatch.setattr(tri_mod, "_factor", spy)
        code, _, _ = run_cli(capsys, "tri", "embed", "67999932", "999997998845", "999998001157")
        assert (code, factored) == (0, [999998001157])


class TestEquableCommands:
    def test_equable_rect(self, capsys):
        code, payload, _ = run_json(capsys, "equable", "rect", "--max-side", "10", "--format", "json")
        assert code == 0
        assert [s["sides"] for s in payload["shapes"]] == [[3, 6], [4, 4]]
        assert payload["pairs"] == []
        report_from_dict(payload)

    def test_tri_equable(self, capsys):
        code, payload, _ = run_json(capsys, "tri", "equable", "--max-perimeter", "200", "--format", "json")
        assert code == 0
        assert len(payload["shapes"]) == 5
        assert all(s["area"] == s["perimeter"] for s in payload["shapes"])
        report_from_dict(payload)

    # An equable report has "shapes" at every bound, [] where the bound admits none;
    # a pair report never has it.
    @pytest.mark.parametrize("argv", [
        "equable rect --max-side 3", "tri equable --max-perimeter 23", "rect enumerate",
        "rect oracle --max-side 3", "tri search --max-perimeter 3", "verify all",
    ])
    def test_shapes_key_only_in_equable_reports(self, capsys, argv):
        code, payload, _ = run_json(capsys, *argv.split(), "--format", "json")
        assert (code, payload.get("shapes")) == (0, [] if "equable" in argv else None)
        assert report_from_dict(payload).to_canonical_dict() == payload


SIDES_3_25_26 = TriangleSides(3, 25, 26)


def _place_as(asked: TriangleSides | None, placed: TriangleSides):
    """An embed_triangle that places the triangle asked for (every one, for None) as placed."""
    wrong = tri_mod.as_heronian(placed)
    return lambda real: lambda t: real(wrong) if asked in (None, t.sides) else real(t)


# The fault matrix of verify all: (id, patches, the checks that fail, in order).
# Each patch is (module, name, make), and module.name becomes make(the real
# function); cli and matching reach every patched name through its module.
# No single fault fails tri-pair-cross-equalities alone: the one pair the
# search finds is the known pair, so a fault that misplaces it fails
# embeddings-certify-both-triangles too, and a pair whose cross equalities
# fail is stopped by assemble_report (test_failed_certificate_exits_three).
VERIFY_FAULTS = [
    (
        "oracle-drops-its-last-pair",
        [(rect_mod, "brute_force_pairs", lambda real: lambda n: real(n)[:-1])],
        ["rect-divisor-enumeration-matches-oracle"],
    ),
    (
        "both-rectangle-paths-drop-their-last-pair",
        [
            (rect_mod, "enumerate_by_divisors", lambda real: lambda: real()[:-1]),
            (rect_mod, "brute_force_pairs", lambda real: lambda n: real(n)[:-1]),
        ],
        ["rect-pairs-are-the-known-five"],
    ),
    (
        # tri-pair-cross-equalities passes vacuously on no pairs.
        "search-finds-no-pair",
        [(tri_mod, "match_amicable_triangles", lambda real: lambda found: [])],
        ["tri-search-finds-single-known-pair"],
    ),
    (
        # Its shoelace area is no partner's perimeter.
        "every-triangle-placed-as-3x4x5",
        [(tri_mod, "embed_triangle", _place_as(None, TriangleSides(3, 4, 5)))],
        ["tri-pair-cross-equalities", "embeddings-certify-both-triangles"],
    ),
    (
        # 9x10x17 has area 36 too, so only its squared sides give it away.
        "3x25x26-placed-as-9x10x17",
        [(tri_mod, "embed_triangle", _place_as(SIDES_3_25_26, TriangleSides(9, 10, 17)))],
        ["tri-pair-cross-equalities", "embeddings-certify-both-triangles"],
    ),
    (
        "3x25x26-not-heronian",
        [(tri_mod, "as_heronian", lambda real: lambda t: None if t == SIDES_3_25_26 else real(t))],
        ["embeddings-certify-both-triangles"],
    ),
    (
        # 3x10, the partner of 2x13, has area 30 > perimeter 26.
        "3x10-called-dominant",
        [(rect_mod, "perimeter_dominant", lambda real: lambda r: (r.short, r.long) == (3, 10) or real(r))],
        ["dominant-member-short-side-is-1-or-2"],
    ),
    (
        "no-equable-rectangles",
        [(rect_mod, "equable_rectangles", lambda real: lambda n: [])],
        ["equable-rectangles-recovered-and-excluded"],
    ),
    (
        "closed-form-drops-its-last-equable-triangle",
        [(tri_mod, "find_equable_triangles", lambda real: lambda n: real(n)[:-1])],
        ["equable-triangles-recovered-and-excluded"],
    ),
]


class TestVerifyAll:
    def test_all_checks_pass(self, capsys):
        code, payload, err = run_json(capsys, "verify", "all", "--format", "json")
        assert code == 0
        assert err == ""
        assert all(c["status"] == "pass" for c in payload["checks"])
        assert len(payload["pairs"]) == 6
        assert report_from_dict(payload).to_canonical_dict() == payload

    def test_table_summary_line(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "all")
        assert code == 0
        assert out.rstrip().splitlines()[-1] == "6 amicable pairs total"

    def test_scans_the_rectangles_once(self, capsys, monkeypatch):
        """Only the oracle solves partners: the dominance audit reads its pairs."""
        calls = []
        real = rect_mod._partner_quadratic
        monkeypatch.setattr(rect_mod, "_partner_quadratic", lambda a, b: calls.append((a, b)) or real(a, b))
        code, _, _ = run_cli(capsys, "verify", "all", "--format", "json")
        assert (code, len(calls), len(set(calls))) == (0, 1889, 1889)

    @pytest.fixture
    def fault(self, monkeypatch):
        """Drop the last pair from the divisor enumeration, so two checks fail."""
        real = rect_mod.enumerate_by_divisors
        monkeypatch.setattr(rect_mod, "enumerate_by_divisors", lambda: real()[:-1])

    def test_injected_fault_exits_three(self, capsys, fault):
        code, payload, err = run_json(capsys, "verify", "all", "--format", "json")
        assert code == 3
        assert "rect-divisor-enumeration-matches-oracle" in err
        statuses = {c["name"]: c["status"] for c in payload["checks"]}
        assert statuses["rect-divisor-enumeration-matches-oracle"] == "fail"

    def test_injected_fault_table(self, capsys, fault):
        code, out, _ = run_cli(capsys, "verify", "all")
        assert code == 3
        lines = out.splitlines()
        for name in ("rect-divisor-enumeration-matches-oracle", "rect-pairs-are-the-known-five"):
            assert [l.split() for l in lines if l.startswith(name + " ")] == [[name, "FAIL"]]
        assert lines[-1] == "5 amicable pairs total"

    def test_injected_fault_csv(self, capsys, fault):
        code, out, _ = run_cli(capsys, "verify", "all", "--format", "csv")
        assert code == 3
        rows = out.splitlines()
        assert "rect-divisor-enumeration-matches-oracle,fail" in rows
        assert "rect-pairs-are-the-known-five,fail" in rows

    @pytest.mark.parametrize(
        "patches, failing",
        [row[1:] for row in VERIFY_FAULTS],
        ids=[row[0] for row in VERIFY_FAULTS],
    )
    def test_fault_fails_exactly_its_checks(self, capsys, monkeypatch, patches, failing):
        for module, name, make in patches:
            monkeypatch.setattr(module, name, make(getattr(module, name)))
        code, payload, err = run_json(capsys, "verify", "all", "--format", "json")
        assert code == 3
        assert [c["name"] for c in payload["checks"] if c["status"] == "fail"] == failing
        assert err == "verification failed: " + ", ".join(failing) + "\n"


BAD_PAIR = tuple(tri_mod.as_heronian(TriangleSides(*s)) for s in ((3, 4, 5), (6, 8, 10)))
# Faults as (module, name, make), as in VERIFY_FAULTS.  (c^2, 0) is off the circle
# of radius c; doubling every k of n = m*k^2 keeps the squarefree parts, so the
# walk finds the same triangles, at 4x their area.
PAIR_3X4X5 = (tri_mod, "match_amicable_triangles", lambda real: lambda found: [BAD_PAIR])
OFF_CIRCLE = (tri_mod, "sum_two_squares_reps", lambda real: lambda c: [(c * c, 0)])
PARTNER_2X35 = (rect_mod, "_partner_quadratic", lambda real: lambda a, b: (2, 35) if (a, b) == (1, 34) else real(a, b))
AREA_X4 = (tri_mod, "_square_classes", lambda real: lambda n: [(m, 2 * k) for m, k in real(n)])

# Results that fail their own certificate: (id, command, fault, the reason on
# stderr).  assemble_report stops the first two; an embedding's squared sides,
# a rectangle pair's cross equalities and a heronian area stop the rest.
CERTIFICATE_FAULTS = [
    ("verify all", ["verify", "all"], PAIR_3X4X5, "cross equalities fail: 3x4x5 vs 6x8x10"),
    ("tri search", ["tri", "search"], PAIR_3X4X5, "cross equalities fail: 3x4x5 vs 6x8x10"),
    ("tri embed off-circle", ["tri", "embed", "3", "4", "5"], OFF_CIRCLE, "embedding does not realise the sides 3x4x5"),
    ("verify all off-circle", ["verify", "all"], OFF_CIRCLE, "embedding does not realise the sides 3x25x26"),
    ("rect oracle 2x35", ["rect", "oracle", "--max-side", "60"], PARTNER_2X35, "cross equalities fail for 1x34 and 2x35"),
    ("verify all 2x35", ["verify", "all"], PARTNER_2X35, "cross equalities fail for 1x34 and 2x35"),
    ("tri search area x4", ["tri", "search"], AREA_X4, "area 24 is not certified for sides 3x4x5"),
]


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
@pytest.mark.parametrize(
    "command, patch, reason", [row[1:] for row in CERTIFICATE_FAULTS], ids=[row[0] for row in CERTIFICATE_FAULTS]
)
def test_failed_certificate_exits_three(capsys, monkeypatch, command, patch, reason, fmt):
    """A result that fails its own certificate is reported on stderr, not as a traceback."""
    module, name, make = patch
    monkeypatch.setattr(module, name, make(getattr(module, name)))
    code, out, err = run_cli(capsys, *command, "--format", fmt)
    assert code == 3
    assert out == ""
    assert err == f"verification failed: {reason}\n"


class TestSingleEnumeration:
    @pytest.fixture
    def bounds(self, monkeypatch):
        seen = []
        real = tri_mod.enumerate_heronian

        def spy(max_perimeter):
            seen.append(max_perimeter)
            return real(max_perimeter)

        monkeypatch.setattr(tri_mod, "enumerate_heronian", spy)
        return seen

    def test_verify_all_enumerates_once_at_the_triangle_bound(self, capsys, bounds):
        code, _, _ = run_cli(capsys, "verify", "all", "--format", "json")
        assert code == 0
        assert bounds == [120]

    def test_tri_search_enumerates_once(self, capsys, bounds):
        code, _, _ = run_cli(capsys, "tri", "search", "--max-perimeter", "150")
        assert code == 0
        assert bounds == [150]


# (argv, exit code, the stream that gets output, text that stream holds).  The
# other stream stays empty.  A usage error, an int flag below its least value
# included, prints the usage of what was named and then an "error:" line.
GRAMMAR_CASES = [
    (["rect", "enumerate", "--format=json"], 0, "out", '"family": "rectangles"'),
    (["tri", "embed", "--format", "json", "3", "25", "26"], 0, "out", '"twice_area": 72'),
    (["tri", "embed", "3", "25", "26", "--format", "json"], 0, "out", '"twice_area": 72'),
    (["rect", "enumerate", "--format", "json", "--format", "csv"], 0, "out", "family,a,b,x,y"),
    (["rect", "solve", "-x", "7", "-a", "1"], 0, "out", "b=34 y=10"),
    (["rect", "oracle", "--max-side", "-5"], 1, "err", "error: --max-side must be positive, got -5"),
    (["-h"], 0, "out", "amipoly tri embed A B C"),
    (["rect", "--help"], 0, "out", "amipoly verify all"),
    (["pentagons"], 1, "err", "usage: amipoly rect enumerate"),
    (["rect", "nope"], 1, "err", "error: unknown command: rect nope"),
    (["rect", "bogus", "extra"], 1, "err", "error: unknown command: rect bogus\n"),
    (["rect", "enumerate", "--nope"], 1, "err", "usage: amipoly rect enumerate"),
    (["rect", "solve", "-a", "1"], 1, "err", "usage: amipoly rect solve -a A -x X"),
    (["rect", "solve", "-a"], 1, "err", "usage: amipoly rect solve -a A -x X"),
    (["rect", "solve", "-a", "-x", "5"], 1, "err", "usage: amipoly rect solve -a A -x X"),
    (["rect", "oracle", "--max-side", "--format", "json"], 1, "err", "error: --max-side: expected one value"),
    (["rect", "oracle", "--max-side", "ten"], 1, "err", "usage: amipoly rect oracle"),
    (["rect", "enumerate", "--format", "xml"], 1, "err", "usage: amipoly rect enumerate"),
    (["rect", "enumerate", "extra"], 1, "err", "usage: amipoly rect enumerate"),
    (["tri", "embed", "3", "4"], 1, "err", "usage: amipoly tri embed A B C"),
    (["tri", "embed"], 1, "err", "usage: amipoly tri embed A B C"),
    (["tri", "embed", "3", "4", "5", "6"], 1, "err", "usage: amipoly tri embed A B C"),
    (["tri", "embed", "5"], 1, "err", "error: 'tri embed' takes 3 int arguments, got 1"),
    (["rect", "solve", "-a", "-3", "-x", "5"], 1, "err", "positive"),
    (["rect", "solve", "-a", "-1a", "-x", "5"], 1, "err", "error: -a: invalid int value: '-1a'"),
    (["rect", "solve", "-a", "1", "-x", "0"], 1, "err", "error: -x must be positive, got 0"),
    (["tri", "search", "--max-perimeter", "2"], 1, "err", "error: --max-perimeter must be at least 3, got 2"),
    (["tri", "equable", "--max-perimeter", "2"], 1, "err", "error: --max-perimeter must be at least 3, got 2"),
    (["equable", "rect", "--max-side", "0"], 1, "err", "error: --max-side must be positive, got 0"),
    # A bound above matching.BOUNDS' cap is a usage error, so every printed report reads back.
    (["tri", "search", "--max-perimeter", "3001"], 1, "err", "error: --max-perimeter must be at most 3000, got 3001"),
    (["tri", "equable", "--max-perimeter", "3001"], 1, "err", "error: --max-perimeter must be at most 3000, got 3001"),
    (["rect", "oracle", "--max-side", "20001"], 1, "err", "error: --max-side must be at most 20000, got 20001"),
    (["equable", "rect", "--max-side", "20001"], 1, "err", "error: --max-side must be at most 20000, got 20001"),
    (["equable", "rect", "--max-side", "20000"], 0, "out", "bound: 20000"),
    (["tri", "equable", "--max-perimeter", "3000"], 0, "out", "bound: 3000"),
    # A flag's range is checked on its last value.
    (["rect", "oracle", "--max-side", "0", "--max-side", "5"], 0, "out", "bound: 5"),
    # Accepted by argparse, not by the command table: abbreviated long flags
    # and short flags with their value attached.
    (["rect", "oracle", "--max-s", "10"], 1, "err", "error: unrecognized argument: --max-s"),
    (["rect", "solve", "-a1", "-x7"], 1, "err", "error: unrecognized argument: -a1"),
    # Sides that make no triangle, and a stray word, are usage errors too.
    (["tri", "embed", "1", "2", "3"], 1, "err", "error: triangle inequality fails for 1x2x3"),
    (["tri", "embed", "0", "3", "4"], 1, "err", "error: sides must satisfy 1 <= a <= b <= c, got 0x3x4"),
    # A side of 1 is in range: 1x1x1 reaches the embedder, which refuses it.
    (["tri", "embed", "1", "1", "1"], 2, "out", "1x1x1: not heronian (16*Area^2 = 3)"),
    (["verify", "all", "extra"], 1, "err", "error: unrecognized argument: extra"),
    # tri embed's longest side is capped at 10**12, once the sides make a triangle.
    (["tri", "embed", "600000000000", "800000000000", "1000000000000"], 0, "out", "twice area: 480000000000000000000000"),
    (["tri", "embed", "600000000000", "800000000000", "1000000000001"], 1, "err", "error: A B C must be at most 1000000000000, got 1000000000001"),
    # An int token has at most 40 digits, leading zeros included (TestLongTokens has 41).
    (["tri", "search", "--max-perimeter", "0" * 37 + "120"], 0, "out", "bound: 120"),
]


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv, code, stream, text", GRAMMAR_CASES, ids=[" ".join(c[0]) for c in GRAMMAR_CASES]
    )
    def test_argv_grammar(self, capsys, argv, code, stream, text):
        got, out, err = run_cli(capsys, *argv)
        assert got == code
        assert text in (out if stream == "out" else err)
        assert (err if stream == "out" else out) == ""
        if code == 1:
            assert err.startswith("usage: amipoly ")
            assert err.splitlines()[-1].startswith("error: ")


LONG = "1" + "0" * 5000  # above CPython's 4,300-digit limit on int(str)


class TestLongTokens:
    """An int token is refused by its digit count before int() reads it, and no
    error line echoes more than about 40 characters of a token."""

    @pytest.mark.parametrize(
        "argv, error",
        [
            pytest.param(
                ["tri", "search", "--max-perimeter", LONG],
                "--max-perimeter must be at most 3000, got a 5001-digit int",
                id="bound",
            ),
            pytest.param(
                ["tri", "search", "--max-perimeter", "0" * 38 + "120"],
                "--max-perimeter must be at most 3000, got a 41-digit int",
                id="leading zeros count",
            ),
            pytest.param(["rect", "solve", "-a", LONG, "-x", "7"], "-a must have at most 40 digits, got 5001", id="-a"),
            pytest.param(
                ["rect", "oracle", "--max-side=-" + LONG], "--max-side must have at most 40 digits, got 5001", id="negative"
            ),
            pytest.param(
                ["tri", "embed", "3", "25", LONG],
                "A B C must be at most 1000000000000, got a 5001-digit int",
                id="A B C",
            ),
            pytest.param(
                ["tri", "embed", "3", "25", "1_" * 3000 + "1"],
                "A B C must be at most 1000000000000, got a 3001-digit int",
                id="A B C underscores",
            ),
            pytest.param(
                ["tri", "embed", "3", "25", "x" * 5000], "A B C: invalid int value: '" + "x" * 40 + "...'", id="not an int"
            ),
            pytest.param(["verify", "all", "x" * 5000], "unrecognized argument: " + "x" * 40 + "...", id="stray word"),
            pytest.param(["verify", "all", "x" * 40], "unrecognized argument: " + "x" * 40, id="40 characters"),
            pytest.param(
                ["rect", "enumerate", "--format", "x" * 5000],
                "--format must be one of table, json, csv, got '" + "x" * 40 + "...'",
                id="format",
            ),
        ],
    )
    def test_long_token_gets_a_short_error(self, capsys, argv, error):
        got, out, err = run_cli(capsys, *argv)
        assert (got, out) == (1, "")
        assert err.splitlines()[-1] == "error: " + error
        assert len(err.encode()) < 300


class TestProcessPath:
    """`python -m amipoly` (__main__, then cli.run) and `python -c` probes that
    call cli.run, which runs the atexit handlers, flushes stdio and ends the
    process with main's code, skipping interpreter teardown.  The installed
    `amipoly` console script takes the same path (test_console_script_is_run)."""

    def run(self, *argv, python=("-m", "amipoly"), stdout=subprocess.PIPE, preexec_fn=None, timeout=60, **env):
        """A hang fails the one test after timeout seconds (TimeoutExpired)."""
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, *python, *argv],
            env=dict(os.environ, PYTHONPATH=path, **env),
            stdout=stdout,
            stderr=subprocess.PIPE,
            preexec_fn=preexec_fn,
            timeout=timeout,
        )

    def probe(self, setup, *argv, **env):
        """Run setup, then cli.run on argv, in a fresh `python -c`."""
        script = f"import amipoly.cli, sys; {setup}; amipoly.cli.run()"
        return self.run(*argv, python=("-c", script), **env)

    def test_run_keeps_atexit_handlers(self):
        marker = "import atexit; atexit.register(sys.stderr.write, 'atexit ran')"
        proc = self.probe(marker, "rect", "enumerate")
        assert proc.returncode == 0
        assert proc.stderr == b"atexit ran"

    def test_run_flushes_after_atexit_handlers(self):
        """What a handler writes to a buffered stdout (an empty value) reaches
        it in run's flush, after the report, because handlers run first."""
        marker = "import atexit; atexit.register(sys.stdout.write, 'atexit ran')"
        proc = self.probe(marker, "verify", "all", "--format", "json", PYTHONUNBUFFERED="")
        assert proc.returncode == 0
        report, ran, tail = proc.stdout.rpartition(b"atexit ran")
        assert (ran, tail) == (b"atexit ran", b"")
        assert hashlib.sha256(report).hexdigest() == GOLDEN["verify all --format json"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full to write to")
    def test_run_failed_flush_exits_120(self):
        """A handler's buffered write that run's flush cannot make exits 120, as
        a failed flush at CPython's own exit does; the report was written."""
        full = (
            "import atexit, os; atexit.register(lambda: sys.stdout.write('atexit ran')"
            " and os.dup2(os.open('/dev/full', os.O_WRONLY), 1))"
        )
        proc = self.probe(full, "rect", "enumerate", PYTHONUNBUFFERED="")
        assert proc.returncode == 120
        assert hashlib.sha256(proc.stdout).hexdigest() == GOLDEN["rect enumerate"]
        assert b"Traceback" not in proc.stderr

    def test_run_skips_teardown(self):
        """run ends the process without module finalisation, so an object that
        one of the program's modules keeps alive never runs its __del__.  Only
        speed rests on this: sys.exit would print the marker."""
        keep = (
            "import os; amipoly.cli.kept = type('Kept', (), "
            "{'__del__': lambda self, write=os.write: write(2, b'__del__ ran')})()"
        )
        proc = self.probe(keep, "rect", "enumerate")
        assert proc.returncode == 0
        assert b"__del__ ran" not in proc.stderr

    def test_run_no_solution_exits_two(self):
        assert self.probe("pass", "rect", "solve", "-a", "2", "-x", "2").returncode == 2

    def test_run_verification_fault_exits_three(self):
        fault = (
            "import amipoly.rectangles as r; real = r.enumerate_by_divisors; "
            "r.enumerate_by_divisors = lambda: real()[:-1]"
        )
        proc = self.probe(fault, "verify", "all")
        assert proc.returncode == 3
        assert proc.stderr.startswith(b"verification failed: rect-divisor-enumeration-matches-oracle")

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_verify_all_json(self, unbuffered):
        proc = self.run("verify", "all", "--format", "json", PYTHONUNBUFFERED=unbuffered)
        assert proc.returncode == 0
        assert hashlib.sha256(proc.stdout).hexdigest() == GOLDEN["verify all --format json"]

    def test_unknown_flag_exits_one(self):
        assert self.run("verify", "all", "--no-such-flag").returncode == 1

    def test_not_heronian_exits_two(self):
        assert self.run("tri", "embed", "2", "3", "4").returncode == 2

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full to write to")
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", ["verify all --format json", "rect enumerate"])
    def test_failed_write_exits_120(self, argv, unbuffered):
        """A write to a full device fails in main's one write when stdout is
        unbuffered, and in its flush when it is not (an empty value leaves it
        buffered); either way one error line and CPython's own code, 120."""
        with open("/dev/full", "wb") as full:
            proc = self.run(*argv.split(), stdout=full, PYTHONUNBUFFERED=unbuffered)
        assert proc.returncode == 120
        assert b"Traceback" not in proc.stderr
        (line,) = proc.stderr.decode().splitlines()
        assert line.startswith("error: cannot write output: ")

    def test_closed_stdout_exits_120(self):
        """With fd 1 closed at start-up sys.stdout is None: one error line and 120."""
        proc = self.run("rect", "enumerate", stdout=None, preexec_fn=lambda: os.close(1))
        assert proc.returncode == 120
        assert proc.stderr == b"error: cannot write output: stdout is closed\n"

    @pytest.mark.parametrize("sides", [["3", "4"], []], ids=["two ints", "no ints"])
    def test_missing_sides_get_a_usage_error(self, sides):
        proc = self.run("tri", "embed", *sides)
        assert proc.returncode == 1
        assert b"Traceback" not in proc.stderr
        assert proc.stderr.startswith(b"usage: amipoly tri embed A B C")

    @pytest.mark.parametrize(
        "sides, twice_area",
        [
            # A right triangle whose longest side is a prime below the cap, the
            # hardest case for trial division: c is factored, never c^2, in
            # about 10**6 trial divisions, not 10**12.
            ("67999932 999997998845 999998001157", "67999795921596078540"),
            # Its longest side is a prime p = 1 (mod 4) whose two roots both
            # lie near sqrt(p/2): a search over x for p = x^2 + y^2 takes about
            # 7 * 10**5 steps, where Brillhart's Euclid run takes 3.
            ("9899435 999987890988 999987891037", "9899315127622791780"),
        ],
        ids=["prime hypotenuse", "slowest split"],
    )
    def test_capped_embedding_ends_in_time(self, sides, twice_area):
        proc = self.run("tri", "embed", *sides.split())
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert f"twice area: {twice_area}\n".encode() in proc.stdout

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="VmHWM is read from Linux's /proc")
    def test_rectangle_cap_peaks_below_40000_kb(self):
        """The rectangle oracle holds no table: at its cap the whole process,
        interpreter included, peaks below 40,000 kB.  The child reads its own
        VmHWM; ru_maxrss would report the parent's, inherited at exec."""
        hwm = (
            "import atexit; atexit.register(lambda: sys.stderr.write("
            "next(line for line in open('/proc/self/status') if line.startswith('VmHWM:'))))"
        )
        proc = self.probe(hwm, "rect", "oracle", "--max-side", "20000", "--format", "json")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["bound"] == 20000
        label, kb, unit = proc.stderr.split()
        assert (label, unit) == (b"VmHWM:", b"kB")
        assert int(kb) < 40000

    def test_console_script_is_run(self):
        """pyproject.toml's `amipoly` script and __main__ both call cli.run, so
        these `python -m amipoly` runs stand for the installed command.  The
        script table is read as text: Python 3.10 has no tomllib."""
        scripts = (SRC.parent / "pyproject.toml").read_text().partition("\n[project.scripts]\n")[2]
        assert scripts.partition("\n[")[0].strip() == 'amipoly = "amipoly.cli:run"'
        main_module = ast.parse((SRC / "amipoly" / "__main__.py").read_text())
        assert ast.dump(main_module) == ast.dump(ast.parse("from .cli import run\nrun()"))


def _payload(argv):
    handler, args, _ = cli._parse(argv)
    return handler(*args)[1]


def _strings(value):
    if isinstance(value, str):
        yield value
    elif isinstance(value, dict):
        for key, item in value.items():
            yield key
            yield from _strings(item)
    elif isinstance(value, list):
        for item in value:
            yield from _strings(item)


# Every golden argv without its --format, and the payloads with no pairs, with
# nulls and of a triangle that is not heronian.
EMITTER_ARGVS = sorted(
    {command.partition(" --format")[0] for command in [*GOLDEN, *GOLDEN_NO_RESULT]}
    | {"tri search --max-perimeter 3", "rect solve -a 2 -x 2", "tri embed 2 3 4"}
)
ascii_words = st.text(string.ascii_letters + string.digits + "-", max_size=10)
big_ints = st.integers(min_value=2**64) | st.integers(max_value=-(2**64))
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | big_ints | ascii_words,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(ascii_words, inner, max_size=4),
    max_leaves=30,
)


class TestJsonEmitter:
    """cli's own JSON emitter writes what json.dumps(indent=2, sort_keys=True) would."""

    def test_argvs_cover_every_command(self):
        assert {tuple(argv.split()[:2]) for argv in EMITTER_ARGVS} == set(cli.COMMANDS)

    @pytest.mark.parametrize("argv", EMITTER_ARGVS)
    def test_payload_matches_json_dumps(self, argv):
        payload = _payload(argv.split())
        assert cli._json(payload) == json.dumps(payload, indent=2, sort_keys=True)

    @pytest.mark.parametrize("argv", EMITTER_ARGVS)
    def test_payload_strings_need_no_escaping(self, argv):
        strings = list(_strings(_payload(argv.split())))
        assert strings
        assert all(json.dumps(s) == '"' + s + '"' for s in strings)

    @given(json_values)
    def test_nested_values_match_json_dumps(self, value):
        assert cli._json(value) == json.dumps(value, indent=2, sort_keys=True)
