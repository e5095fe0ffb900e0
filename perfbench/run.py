"""The amipoly benchmark: real `python -m amipoly` runs, checked and timed.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify|search|embed|all --seed N \
        --seconds S --trace 0|1

The program is built from `src/` (bytecode compiled once), then each op
runs as its own process, one at a time: a closed loop with one client.
Every output is checked against answers the benchmark makes itself
(checks.py); an op fails on a non-zero exit, unparseable output, a
read-back error or a wrong answer.

Set-up, outside the timed ops: build, the checker's own heronian counts
and warm-up ops that are checked but not timed.  `setup_s` is the mean
wall time of a trivial invocation (start-up, import, argument parsing),
sampled once per SETUP_EVERY_S between the timed ops, so that its samples
see the same mix of host speeds as the ops do.  The samples are checked
too; their time counts toward the run's length, not toward `ops_per_s`.

`--trace 0` then times whole blocks of ops (workloads.py) for about S
seconds and prints the end-to-end metrics, and fail_ratio, which is also
`failed / attempted` in the result line.  Op and set-up times are
reported as means over the run, not medians: on a shared 2-vCPU Xeon host
the speed of the same op switches, every few seconds to every minute or
two, between levels up to 2x apart.  A run's median then lands on
whichever level held most of the run and jumps between levels from run to
run, while its mean moves only with the share of the run spent at each.

`--trace 1` runs the same op sequence with each op run twice in a row,
once plain and once under tracer.py, and prints the per-layer metrics:
each is the median over the traced ops and, as `<name>.total`, the sum
over the run.
`trace.overhead_ratio` is the traced mean op time over the plain one.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics (with `--workload all`, named `<workload>.<metric>`); the
line before each workload's result records its environment.  The exit code
is 1 when any op failed, 2 when there is no program to run.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import select
import shutil
import signal
import statistics
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from math import ceil
from pathlib import Path

import checks
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = Path(tracer.__file__).resolve()

WARMUP_S = 2.0
SETUP_EVERY_S = 1.0
# Ops still running this long after a workload's set-up began are killed, and
# no more are started, so a run ends within its time limit even on a hang.
DEADLINE_S = 150.0
TRIVIAL_OP = workloads.Op("rect-enumerate", ("rect", "enumerate", "--format", "json"))

# Tail percentile per workload: the highest with at least ten ops beyond it
# at the op counts these workloads reach; a run keeps going until it has them.
TAIL_PERCENTILE = {"verify": 85, "search": 75, "embed": 75}

END_TO_END = (
    ("setup_s", "s"),
    ("op_mean_s", "s"),
    ("op_tail_mean_s", "s"),
    ("op_cpu_mean_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics of one traced op: (name, unit, better).  Time metrics are
# "<function>.ms" (whole calls) or "<function>.self_ms" (minus traced callees);
# "cli.self_ms" is that of cli.main.
LAYER_METRICS = (
    ("cli.import_ms", "ms", "lower"),
    ("cli.main.ms", "ms", "lower"),
    ("cli.self_ms", "ms", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("matching.assemble_report.calls", "count", "lower"),
    ("matching.assemble_report.self_ms", "ms", "lower"),
    ("matching.records_verified", "count", "lower"),
    ("matching.SearchReport.to_canonical_dict.ms", "ms", "lower"),
    ("matching.report_from_dict.ms", "ms", "lower"),
    ("triangles.enumerate_heronian.calls", "count", "lower"),
    ("triangles.enumerate_heronian.self_ms", "ms", "lower"),
    ("triangles.heronian_found", "count", "lower"),
    ("triangles.as_heronian.calls", "count", "lower"),
    ("triangles.heronian_hit_ratio", "ratio", "higher"),
    ("triangles.find_amicable_triangle_pairs.self_ms", "ms", "lower"),
    ("triangles.find_equable_triangles.self_ms", "ms", "lower"),
    ("triangles.embed_triangle.calls", "count", "lower"),
    ("triangles.embed_triangle.self_ms", "ms", "lower"),
    ("triangles.sum_two_squares_reps.calls", "count", "lower"),
    ("triangles.sum_two_squares_reps.self_ms", "ms", "lower"),
    ("triangles.two_squares_scanned", "count", "lower"),
    ("triangles.two_squares_reps", "count", "lower"),
    ("triangles.two_squares_hit_ratio", "ratio", "higher"),
    ("rectangles.brute_force_pairs.self_ms", "ms", "lower"),
    ("rectangles.rects_scanned", "count", "lower"),
    ("rectangles.small_side_candidates.self_ms", "ms", "lower"),
    ("rectangles.equable_rectangles.self_ms", "ms", "lower"),
    ("rectangles.enumerate_by_divisors.self_ms", "ms", "lower"),
    ("lattice.is_perfect_square.calls", "count", "lower"),
    ("lattice.is_perfect_square.self_ms", "ms", "lower"),
    ("lattice.twice_area.calls", "count", "lower"),
    ("lattice.twice_area.self_ms", "ms", "lower"),
    ("lattice.transform_point.calls", "count", "lower"),
    ("lattice.transform_point.self_ms", "ms", "lower"),
)
# Ratio metrics: (numerator, denominator); an op with a zero denominator has none.
RATIOS = {
    "triangles.heronian_hit_ratio": ("triangles.heronian_found", "triangles.as_heronian.calls"),
    "triangles.two_squares_hit_ratio": ("triangles.two_squares_reps", "triangles.two_squares_scanned"),
}
OVERHEAD = ("trace.overhead_ratio", "ratio", "lower")


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every metric a traced run reports, as (name, unit, better)."""
    out = []
    for name, unit, better in LAYER_METRICS:
        out += [(name, unit, better), (name + ".total", unit, better)]
    return out + [OVERHEAD]


@dataclass
class OpRun:
    op: workloads.Op
    wall_s: float
    cpu_s: float
    rss_kb: int
    error: str | None  # None when the output is correct
    layers: dict | None = None  # per-layer values of a traced op


class Runner:
    """Spawns one op at a time, captures its output in files and checks it."""

    def __init__(self, heronian_counts: list[int], workdir: Path, deadline: float):
        self.checker = checks.Checker(heronian_counts, self.read_back)
        self.workdir = workdir
        self.deadline = deadline  # time.monotonic() after which ops are killed
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.attempted = 0
        self.failures: list[str] = []
        self.read_back_ns = 0

    def read_back(self, report: dict):
        from amipoly.matching import report_from_dict

        start = time.perf_counter_ns()
        try:
            return report_from_dict(report)
        finally:
            self.read_back_ns += time.perf_counter_ns() - start

    def spawn(self, argv: list[str]) -> tuple[float, float, int, int, bytes, bytes]:
        paths = (self.workdir / "stdout", self.workdir / "stderr")
        fds = [os.open(p, os.O_RDWR | os.O_CREAT | os.O_TRUNC, 0o600) for p in paths]
        try:
            actions = [(os.POSIX_SPAWN_DUP2, fds[0], 1), (os.POSIX_SPAWN_DUP2, fds[1], 2)]
            start = time.perf_counter()
            pid = os.posix_spawn(sys.executable, [sys.executable, *argv], self.env, file_actions=actions)
            pidfd = os.pidfd_open(pid)
            try:
                if not select.select([pidfd], [], [], max(self.deadline - time.monotonic(), 0))[0]:
                    signal.pidfd_send_signal(pidfd, signal.SIGKILL)
                _, status, usage = os.wait4(pid, 0)
            finally:
                os.close(pidfd)
            wall = time.perf_counter() - start
        finally:
            for fd in fds:
                os.close(fd)
        stdout, stderr = (p.read_bytes() for p in paths)
        cpu = usage.ru_utime + usage.ru_stime
        return wall, cpu, usage.ru_maxrss, os.waitstatus_to_exitcode(status), stdout, stderr

    def run(self, op: workloads.Op, traced: bool = False) -> OpRun:
        trace_path = self.workdir / "trace"
        if traced:
            argv = [str(TRACER), str(trace_path), str(self.attempted), *op.args]
        else:
            argv = ["-m", "amipoly", *op.args]
        wall, cpu, rss_kb, code, stdout, stderr = self.spawn(argv)
        self.read_back_ns = 0
        error = self.checker(op, code, stdout)
        self.attempted += 1
        if error is not None:
            detail = stderr.decode(errors="replace").strip().splitlines()[-1:]
            self.failures.append(f"{' '.join(op.args)}: {error} {' '.join(detail)}".strip())
        run = OpRun(op, wall, cpu, rss_kb, error)
        if traced and trace_path.is_file():
            run.layers = layer_values(tracer.load(trace_path), len(stdout), self.read_back_ns / 1e6)
            trace_path.unlink()
        elif traced:
            self.failures.append(f"{' '.join(op.args)}: no trace written")
        return run


def layer_values(record: dict, output_bytes: int, read_back_ms: float) -> dict[str, float]:
    """The per-layer values of one traced op, from its spans and counters."""
    names, parents, starts, ends = (record[k] for k in ("name_ids", "parents", "starts", "ends"))
    child_ns = [0] * len(starts)
    for i, parent in enumerate(parents):
        if parent >= 0:
            child_ns[parent] += ends[i] - starts[i]
    calls, total_ns, self_ns = Counter(), Counter(), Counter()
    for i, nid in enumerate(names):
        name = record["names"][nid]
        duration = ends[i] - starts[i]
        calls[name] += 1
        total_ns[name] += duration
        self_ns[name] += duration - child_ns[i]
    values = {}
    for metric, _, _ in LAYER_METRICS:
        if metric in RATIOS:
            continue
        if metric.endswith(".calls"):
            values[metric] = calls[metric[: -len(".calls")]]
        elif metric.endswith(".self_ms"):
            values[metric] = self_ns[metric[: -len(".self_ms")]] / 1e6
        elif metric.endswith(".ms"):
            values[metric] = total_ns[metric[: -len(".ms")]] / 1e6
        else:
            values[metric] = record["counters"].get(metric, 0)
    values["cli.import_ms"] = record["import_ns"] / 1e6
    values["cli.self_ms"] = self_ns["cli.main"] / 1e6
    values["cli.output_bytes"] = output_bytes
    values["matching.report_from_dict.ms"] = read_back_ms
    return values


def layer_summary(traced: list[OpRun], plain: list[OpRun]) -> dict[str, float]:
    """Median per op and total per run of every per-layer metric."""
    traced = [r for r in traced if r.layers is not None]
    if not traced:
        return {name: 0.0 for name, _, _ in per_layer_metrics()}
    out = {}
    for name, _, _ in LAYER_METRICS:
        if name in RATIOS:
            num, den = RATIOS[name]
            per_op = [r.layers[num] / r.layers[den] for r in traced if r.layers[den]]
            total_den = sum(r.layers[den] for r in traced)
            out[name] = statistics.median(per_op) if per_op else 0.0
            out[name + ".total"] = sum(r.layers[num] for r in traced) / total_den if total_den else 0.0
        else:
            out[name] = statistics.median(r.layers[name] for r in traced)
            out[name + ".total"] = sum(r.layers[name] for r in traced)
    out[OVERHEAD[0]] = statistics.fmean(r.wall_s for r in traced) / statistics.fmean(r.wall_s for r in plain)
    return out


def tail_mean(values: list[float], p: float) -> float:
    """Mean of the values beyond the nearest-rank p-th percentile."""
    ordered = sorted(values)
    return statistics.fmean(ordered[min(max(ceil(p / 100 * len(ordered)), 1), len(ordered) - 1):])


def beyond(n: int, p: float) -> int:
    """How many of n ops lie beyond the nearest-rank p-th percentile."""
    return n - max(ceil(p / 100 * n), 1)


def tail_percentile(n: int, wanted: float) -> float:
    """wanted, or the highest lower percentile with ten ops beyond it if n is short."""
    for p in (wanted, 75, 50):
        if p <= wanted and beyond(n, p) >= 10:
            return p
    return 50


def end_to_end(setup_walls: list[float], timed: list[OpRun], loop_s: float, tail_p: float) -> dict[str, float]:
    walls = [r.wall_s for r in timed]
    return {
        "setup_s": statistics.fmean(setup_walls),
        "op_mean_s": statistics.fmean(walls),
        "op_tail_mean_s": tail_mean(walls, tail_p),
        "op_cpu_mean_s": statistics.fmean(r.cpu_s for r in timed),
        "ops_per_s": sum(r.error is None for r in timed) / loop_s,
        "peak_rss_mb": max(r.rss_kb for r in timed) / 1024,
    }


def environment(workload: str, args, extra: dict) -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu_model = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "commit": git_commit(),
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **extra,
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def build() -> bool:
    return compileall.compile_dir(str(SRC), quiet=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "amipoly" / "cli.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'amipoly'} is missing", file=sys.stderr)
        return 2
    if not build():
        print("error: compiling src failed", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        result, runner = run_workload(name, args)
        attempted += runner.attempted
        failed += len(runner.failures)
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + key: value for key, value in result.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_workload(name: str, args) -> tuple[dict, Runner]:
    """Set up, run and report one workload; returns its metrics and its runner."""
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        counts = checks.heronian_counts(workloads.SEARCH_PERIMETERS[1]) if name == "search" else []
        runner = Runner(counts, workdir, time.monotonic() + DEADLINE_S)
        result, env = (run_traced if args.trace else run_timed)(runner, name, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = len(runner.failures)
    for line in runner.failures[:20]:
        print("FAILED", line)
    print(f"{name:<8}{'fail_ratio':<16}{failed / runner.attempted:>14.6f} ratio ({failed}/{runner.attempted} ops)")
    print("env " + json.dumps(environment(name, args, env), sort_keys=True))
    return result, runner


def warm_up(runner: Runner, name: str, seed: int) -> None:
    """Run untimed warm-up ops."""
    start = time.perf_counter()
    for op in workloads.ops(name, seed):
        runner.run(op)
        if time.perf_counter() - start >= WARMUP_S:
            break


def stop(start: float, block_start: float, seconds: float) -> bool:
    """After a block: stop when another block as long as this one would end past seconds.

    Runs end on whole blocks, so every run has the same mix of ops.
    """
    now = time.perf_counter()
    return now - start + (now - block_start) > seconds


def run_timed(runner: Runner, name: str, args):
    warm_up(runner, name, args.seed)
    wanted = TAIL_PERCENTILE[name]
    min_ops = next(n for n in range(1, 10**6) if beyond(n, wanted) >= 10)
    timed: list[OpRun] = []
    setup_walls: list[float] = []
    loop_s = 0.0  # time spent on the timed ops, without the set-up samples
    start = time.perf_counter()
    last_setup = -SETUP_EVERY_S
    for block in workloads.blocks(name, args.seed):
        block_start = time.perf_counter()
        for op in block:
            op_start = time.perf_counter()
            if op_start - last_setup >= SETUP_EVERY_S:
                setup_walls.append(runner.run(TRIVIAL_OP).wall_s)
                last_setup = op_start = time.perf_counter()
            timed.append(runner.run(op))
            loop_s += time.perf_counter() - op_start
        if len(timed) >= min_ops and stop(start, block_start, args.seconds):
            break
        if time.monotonic() >= runner.deadline:
            break
    tail_p = tail_percentile(len(timed), wanted)
    metrics = end_to_end(setup_walls, timed, loop_s, tail_p)
    for metric, unit in END_TO_END:
        print(f"{name:<8}{metric:<16}{metrics[metric]:>14.6f} {unit}")
    env = {
        "ops": len(timed),
        "tail_percentile": tail_p,
        "ops_beyond_tail": beyond(len(timed), tail_p),
        "loop_s": loop_s,
        "setup_samples": len(setup_walls),
    }
    print(f"{name:<8}op_tail_mean_s is over the {env['ops_beyond_tail']} ops beyond p{tail_p} of {len(timed)}")
    return {metric: {"value": metrics[metric], "unit": unit} for metric, unit in END_TO_END}, env


def run_traced(runner: Runner, name: str, args):
    warm_up(runner, name, args.seed)
    plain: list[OpRun] = []
    traced: list[OpRun] = []
    start = time.perf_counter()
    for block in workloads.blocks(name, args.seed):
        block_start = time.perf_counter()
        for op in block:
            plain.append(runner.run(op))
            traced.append(runner.run(op, traced=True))
        if stop(start, block_start, args.seconds) or time.monotonic() >= runner.deadline:
            break
    summary = layer_summary(traced, plain)
    for metric, unit, _ in per_layer_metrics():
        print(f"{name:<8}{metric:<56}{summary[metric]:>16.6f} {unit}")
    metrics = {metric: {"value": summary[metric], "unit": unit} for metric, unit, _ in per_layer_metrics()}
    by_kind = Counter(r.op.kind for r in traced)
    return metrics, {"ops": len(traced), "ops_by_kind": by_kind, "loop_s": time.perf_counter() - start}


if __name__ == "__main__":
    sys.exit(main())
