import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import amipoly.rectangles as rect_mod
import amipoly.triangles as tri_mod
from amipoly.cli import main
from amipoly.matching import report_from_dict
from amipoly.triangles import TriangleSides

from test_golden import GOLDEN

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

    def test_equable_triangle_fault_fails_only_its_check(self, capsys, monkeypatch):
        real = tri_mod.find_equable_triangles
        monkeypatch.setattr(tri_mod, "find_equable_triangles", lambda n: real(n)[:-1])
        code, payload, err = run_json(capsys, "verify", "all", "--format", "json")
        assert code == 3
        assert err == "verification failed: equable-triangles-recovered-and-excluded\n"
        failing = [c["name"] for c in payload["checks"] if c["status"] == "fail"]
        assert failing == ["equable-triangles-recovered-and-excluded"]

    def test_deterministic_json(self, capsys):
        _, out1, _ = run_cli(capsys, "verify", "all", "--format", "json")
        _, out2, _ = run_cli(capsys, "verify", "all", "--format", "json")
        assert out1 == out2


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
@pytest.mark.parametrize("command", [["verify", "all"], ["tri", "search"]], ids=" ".join)
def test_failed_certificate_exits_three(capsys, monkeypatch, command, fmt):
    """A result that fails its own certificate is reported on stderr, not as a traceback."""
    bad = tuple(tri_mod.as_heronian(TriangleSides(*s)) for s in ((3, 4, 5), (6, 8, 10)))
    monkeypatch.setattr(tri_mod, "match_amicable_triangles", lambda found: [bad])
    code, out, err = run_cli(capsys, *command, "--format", fmt)
    assert code == 3
    assert out == ""
    assert err == "verification failed: cross equalities fail: 3x4x5 vs 6x8x10\n"


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
    (["rect", "enumerate", "--nope"], 1, "err", "usage: amipoly rect enumerate"),
    (["rect", "solve", "-a", "1"], 1, "err", "usage: amipoly rect solve -a A -x X"),
    (["rect", "solve", "-a"], 1, "err", "usage: amipoly rect solve -a A -x X"),
    (["rect", "solve", "-a", "-x", "5"], 1, "err", "usage: amipoly rect solve -a A -x X"),
    (["rect", "oracle", "--max-side", "ten"], 1, "err", "usage: amipoly rect oracle"),
    (["rect", "enumerate", "--format", "xml"], 1, "err", "usage: amipoly rect enumerate"),
    (["rect", "enumerate", "extra"], 1, "err", "usage: amipoly rect enumerate"),
    (["tri", "embed", "3", "4"], 1, "err", "usage: amipoly tri embed A B C"),
    (["tri", "embed"], 1, "err", "usage: amipoly tri embed A B C"),
    (["tri", "embed", "3", "4", "5", "6"], 1, "err", "usage: amipoly tri embed A B C"),
    (["rect", "solve", "-a", "-3", "-x", "5"], 1, "err", "positive"),
    (["rect", "solve", "-a", "1", "-x", "0"], 1, "err", "error: -x must be positive, got 0"),
    (["tri", "search", "--max-perimeter", "2"], 1, "err", "error: --max-perimeter must be at least 3, got 2"),
    (["tri", "equable", "--max-perimeter", "2"], 1, "err", "error: --max-perimeter must be at least 3, got 2"),
    (["equable", "rect", "--max-side", "0"], 1, "err", "error: --max-side must be positive, got 0"),
    # A flag's range is checked on its last value.
    (["rect", "oracle", "--max-side", "0", "--max-side", "5"], 0, "out", "bound: 5"),
    # Accepted by argparse, not by the command table: abbreviated long flags
    # and short flags with their value attached.
    (["rect", "oracle", "--max-s", "10"], 1, "err", "error: unrecognized argument: --max-s"),
    (["rect", "solve", "-a1", "-x7"], 1, "err", "error: unrecognized argument: -a1"),
    # Sides that make no triangle, and a stray word, are usage errors too.
    (["tri", "embed", "1", "2", "3"], 1, "err", "error: triangle inequality fails for 1x2x3"),
    (["tri", "embed", "0", "3", "4"], 1, "err", "error: sides must satisfy 1 <= a <= b <= c, got 0x3x4"),
    (["verify", "all", "extra"], 1, "err", "error: unrecognized argument: extra"),
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


class TestProcessPath:
    """`python -m amipoly`: __main__, then cli.run, which exits with main's code."""

    def run(self, *argv):
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "amipoly", *argv],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
        )

    def test_verify_all_json(self):
        proc = self.run("verify", "all", "--format", "json")
        assert proc.returncode == 0
        assert hashlib.sha256(proc.stdout).hexdigest() == GOLDEN["verify all --format json"]

    def test_unknown_flag_exits_one(self):
        assert self.run("verify", "all", "--no-such-flag").returncode == 1

    def test_not_heronian_exits_two(self):
        assert self.run("tri", "embed", "2", "3", "4").returncode == 2

    @pytest.mark.parametrize("sides", [["3", "4"], []], ids=["two ints", "no ints"])
    def test_missing_sides_get_a_usage_error(self, sides):
        proc = self.run("tri", "embed", *sides)
        assert proc.returncode == 1
        assert b"Traceback" not in proc.stderr
        assert proc.stderr.startswith(b"usage: amipoly tri embed A B C")
