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


SIDES_3_25_26 = TriangleSides(3, 25, 26)


def _place_as(asked: TriangleSides | None, placed: TriangleSides):
    """An embed_triangle that places the triangle asked for (every one, for None) as placed."""
    wrong = tri_mod.as_heronian(placed)
    return lambda real: lambda t: real(wrong) if asked in (None, t.sides) else real(t)


# The fault matrix of verify all: (id, patches, the checks that fail, in order).
# Each patch is (module, name, make), and module.name becomes make(the real
# function); cli and matching reach every patched name through its module,
# except that matching keeps its own as_heronian, so ShapeRecord is unaffected.
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
        "short-side-3-is-a-candidate",
        [(rect_mod, "small_side_candidates", lambda real: lambda n: [1, 2, 3])],
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
    """`python -m amipoly` (__main__, then cli.run) and `python -c` probes that
    call cli.run, which freezes the collector and exits with main's code."""

    def run(self, *argv, python=("-m", "amipoly")):
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, *python, *argv],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
        )

    def probe(self, setup, *argv):
        """Run setup, then cli.run on argv, in a fresh `python -c`."""
        script = f"import amipoly.cli, sys; {setup}; amipoly.cli.run()"
        return self.run(*argv, python=("-c", script))

    def test_run_keeps_atexit_handlers(self):
        marker = "import atexit; atexit.register(sys.stderr.write, 'atexit ran')"
        proc = self.probe(marker, "rect", "enumerate")
        assert proc.returncode == 0
        assert proc.stderr == b"atexit ran"

    def test_run_verify_all_json(self):
        proc = self.probe("pass", "verify", "all", "--format", "json")
        assert proc.returncode == 0
        assert hashlib.sha256(proc.stdout).hexdigest() == GOLDEN["verify all --format json"]

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
