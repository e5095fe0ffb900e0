"""Repeat the benchmark over seeds and summarise the spread of each metric.

Usage, from the root of a checkout:

    python3 perfbench/repeat.py --seeds 1 2 3 4 5 6 7 8 9 10 --seconds 30 \
        [--workloads verify search embed] [--traced] [--out FILE]

Each run is `perfbench/run.py` in its own process, one after another.  For
every workload and end-to-end metric it prints the median, the quartiles
(statistics.quantiles, n=4) and the spread, (q3 - q1) / median, next to the
metric's bound from BENCHMARK.json.  With --traced it adds one traced run per
workload on the first seed.  --out writes all of it as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    result["env"] = json.loads(lines[-2].removeprefix("env "))
    return result


def summarise(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        out[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]

    report = {"seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in names:
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, seconds, 0))
            print(workload, seed, {k: round(v["value"], 4) for k, v in runs[-1]["metrics"].items()}, flush=True)
        summary = summarise(runs)
        for name, s in summary.items():
            print(f"{workload:<8}{name:<14}median {s['median']:.6g} {s['unit']:<4} spread {s['spread']:.3f}"
                  f" (bound {bounds.get(name)})", flush=True)
        entry = {
            "env": runs[0]["env"],
            "ops": [r["env"]["ops"] for r in runs],
            "tail_percentile": [r["env"]["tail_percentile"] for r in runs],
            "end_to_end": summary,
        }
        if args.traced:
            traced = run_once(workload, args.seeds[0], seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["traced_env"] = traced["env"]
        report["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
