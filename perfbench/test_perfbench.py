"""Tests of the benchmark itself: inputs, checks, failure accounting, tracing.

Run from the root of the repository with `python3 -m pytest perfbench -q`.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import shutil
import statistics
import subprocess
import sys
import time

import pytest

import checks
import run
import workloads

sys.path.insert(0, str(run.SRC))

from amipoly import cli  # noqa: E402
from amipoly.matching import report_from_dict  # noqa: E402
from amipoly.triangles import enumerate_heronian  # noqa: E402

COUNTS = checks.heronian_counts(workloads.SEARCH_PERIMETERS[1])
CHECKER = checks.Checker(COUNTS, report_from_dict)


def output(op: workloads.Op) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(list(op.args)) == 0
    return buf.getvalue().encode()


def first_op(workload: str, kind: str, **fmt) -> workloads.Op:
    for op in workloads.ops(workload, 0):
        if op.kind == kind and all(op.args[op.args.index("--" + k) + 1] == v for k, v in fmt.items()):
            return op
    raise AssertionError("unreachable")


def tampered(op, edit) -> bytes:
    report = json.loads(output(op))
    edit(report)
    return json.dumps(report).encode()


def test_same_seed_gives_same_argv_sequence():
    for name in workloads.WORKLOADS:
        first = [op.args for op in itertools.islice(workloads.ops(name, 7), 40)]
        again = [op.args for op in itertools.islice(workloads.ops(name, 7), 40)]
        other = [op.args for op in itertools.islice(workloads.ops(name, 8), 40)]
        assert first == again
        assert first != other


def test_embed_workload_draws_both_scale_classes():
    many_reps = set()
    for op in itertools.islice(workloads.ops("embed", 3), 40):
        k = math.gcd(*op.params)  # the scaled triangles are primitive
        many_reps.add(workloads.signed_reps_of_square(k) > 4)
    assert many_reps == {True, False}


def test_heronian_counts_match_hand_counts_and_enumeration():
    assert COUNTS[11] == 0
    assert COUNTS[12] == 1  # 3-4-5
    assert COUNTS[16] == 2  # 5-5-6
    assert COUNTS[18] == 3  # 5-5-8
    for p in (60, 121, 150):
        assert COUNTS[p] == len(enumerate_heronian(p))


def test_signed_reps_of_square_match_a_scan():
    for m in (1, 5, 6, 13, 25, 65, 130, 221):
        scan = sum(1 for x in range(-m, m + 1) for y in range(-m, m + 1) if x * x + y * y == m * m)
        assert workloads.signed_reps_of_square(m) == scan


@pytest.mark.parametrize(
    "op",
    [
        run.TRIVIAL_OP,
        first_op("search", "rect-oracle"),
        first_op("search", "tri-search"),
        first_op("embed", "tri-embed"),
        first_op("verify", "verify", format="json"),
        first_op("verify", "verify", format="csv"),
        first_op("verify", "verify", format="table"),
    ],
    ids=lambda op: " ".join(op.args),
)
def test_real_outputs_pass(op):
    assert CHECKER(op, 0, output(op)) is None


def _wrong_pair(report):
    report["pairs"][0]["second"] = {"sides": [7, 11], "area": 77, "perimeter": 36}


def _scanned_plus_one(report):
    report["shapes_scanned"] += 1


def _scanned_minus_one(report):
    report["shapes_scanned"] -= 1


def _move_vertex(report):
    report["vertices"][2][0] += 1


def _scale_vertices(report):
    report["vertices"] = [[2 * x, 2 * y] for x, y in report["vertices"]]


def _fail_a_check(report):
    report["checks"][0]["status"] = "fail"


def _wrong_family(report):
    report["family"] = "rectangles"


TAMPERED = [
    ("search", "rect-oracle", {}, _wrong_pair),
    ("search", "rect-oracle", {}, _scanned_plus_one),
    ("search", "tri-search", {}, _scanned_minus_one),
    ("search", "tri-search", {}, _wrong_pair),
    ("embed", "tri-embed", {}, _move_vertex),
    ("embed", "tri-embed", {}, _scale_vertices),
    ("verify", "verify", {"format": "json"}, _fail_a_check),
    ("verify", "verify", {"format": "json"}, _wrong_pair),
    ("verify", "verify", {"format": "json"}, _wrong_family),
]


@pytest.mark.parametrize("workload,kind,fmt,edit", TAMPERED, ids=lambda v: getattr(v, "__name__", str(v)))
def test_tampered_outputs_fail(workload, kind, fmt, edit):
    op = first_op(workload, kind, **fmt)
    assert CHECKER(op, 0, tampered(op, edit)) is not None


def _wrong_area(report):
    report["pairs"][0]["first"]["area"] += 1


def test_read_back_error_fails_the_op():
    op = first_op("verify", "verify", format="json")
    assert CHECKER(op, 0, tampered(op, _wrong_area)).startswith("CertificateError")


@pytest.mark.parametrize(
    "fmt,edit",
    [("csv", lambda t: t.replace(",pass", ",fail", 1)), ("table", lambda t: t.replace("pass", "FAIL", 1))],
)
def test_tampered_text_outputs_fail(fmt, edit):
    op = first_op("verify", "verify", format=fmt)
    assert CHECKER(op, 0, edit(output(op).decode()).encode()) is not None


def test_bad_exit_and_unparseable_output_fail():
    op = first_op("search", "rect-oracle")
    assert CHECKER(op, 3, output(op)) == "exit code 3"
    assert CHECKER(op, 0, b"{not json") is not None


def test_tampered_outputs_count_toward_fail_ratio(tmp_path, monkeypatch):
    """Route canned outputs through the runner and count its failures."""
    cases = [(first_op(w, k, **f), tampered(first_op(w, k, **f), e)) for w, k, f, e in TAMPERED]
    good = [(op, output(op)) for op, _ in cases[:3]]
    canned = iter(good + cases)
    monkeypatch.setattr(run.Runner, "spawn", lambda self, argv: (0.1, 0.1, 1024, 0, next(canned)[1], b""))
    runner = run.Runner(COUNTS, tmp_path, time.monotonic() + 60)
    runs = [runner.run(op) for op, _ in good + cases]
    assert runner.attempted == len(good) + len(cases)
    assert len(runner.failures) == len(cases)
    assert [r.error is None for r in runs] == [True] * len(good) + [False] * len(cases)
    metrics = run.end_to_end([0.1], runs, 1.0, 75)
    assert metrics["ops_per_s"] == len(good)


def test_tail_mean_averages_the_ops_beyond_the_percentile():
    walls = [float(v) for v in range(20, 0, -1)]
    assert run.beyond(20, 75) == 5
    assert run.tail_mean(walls, 75) == statistics.fmean([16.0, 17.0, 18.0, 19.0, 20.0])
    assert run.tail_mean([0.5], 75) == 0.5


def test_traced_op_records_spans_and_counts(tmp_path):
    runner = run.Runner(COUNTS, tmp_path, time.monotonic() + 60)
    op = workloads.Op("tri-embed", ("tri", "embed", "5", "4", "3", "--format", "json"), (5, 4, 3))
    traced = runner.run(op, traced=True)
    assert traced.error is None
    layers = traced.layers
    assert layers["triangles.embed_triangle.calls"] == 1
    assert layers["triangles.sum_two_squares_reps.calls"] >= 1
    assert layers["triangles.two_squares_reps"] >= 3
    assert layers["triangles.enumerate_heronian.calls"] == 0
    assert layers["cli.main.ms"] >= layers["cli.self_ms"] >= 0
    assert layers["cli.main.ms"] >= layers["triangles.embed_triangle.self_ms"] + layers["triangles.sum_two_squares_reps.self_ms"]
    assert layers["cli.import_ms"] > 0
    summary = run.layer_summary([traced], [runner.run(op)])
    assert {name for name, _, _ in run.per_layer_metrics()} == set(summary)


def test_op_past_the_deadline_is_killed_and_fails(tmp_path):
    runner = run.Runner(COUNTS, tmp_path, time.monotonic() + 0.05)
    killed = runner.run(first_op("search", "rect-oracle"))
    assert killed.error == "exit code -9"
    assert killed.wall_s < 5
    assert len(runner.failures) == 1


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [unit for _, unit in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.per_layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_exits_nonzero_without_a_program(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
