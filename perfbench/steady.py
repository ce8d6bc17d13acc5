#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs the benchmark command of BENCHMARK.json once per seed on every workload
(tracing off), and prints, per end-to-end metric, the median, the first and
third quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median next to the metric's bound, flagging every spread that is
not below a third of its bound. With --window it instead makes one traced
run and prints the means of back-to-back windows of one span's durations,
which shows whether a per-call timing shifts with the host's state during a
run. --out writes the figures of this one invocation as JSON.

Run from the repository root:

    python3 perfbench/steady.py --seeds 10 --out perfbench/steadiness.json
    python3 perfbench/steady.py --window fig8-sim:run_iteration:10 --seconds 60 \\
        --out perfbench/window_trace.json
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(args, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def spread_table(bench, command, seeds, seconds):
    record = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in [w["name"] for w in bench["workloads"]]:
        runs = []
        for seed in seeds:
            result = run(command, workload, seed, seconds, 0)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}", file=sys.stderr)
            runs.append(result)
        rows = {}
        print(f"== {workload} ({len(seeds)} seeds, {seconds} s each)")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": metric["bound"], "values": values}
            print(f"  {name:18} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}"
                  f"  spread {spread:7.2%}  bound {metric['bound']:.0%}"
                  f"{'' if spread < metric['bound'] / 3 else '  <-- not below a third of its bound'}")
        record["workloads"][workload] = {
            "metrics": rows,
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "correct": all(r["correct"] for r in runs),
        }
    return record


def windows(command, spec, seconds):
    workload, span, size = spec.split(":")
    size = int(size)
    seed = 1
    run(command, workload, seed, seconds, 1)
    path = Path(".bench_trace") / f"{workload}-seed{seed}.jsonl"
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    durations = [(s["end_ns"] - s["start_ns"]) / 1e6 for s in spans if s["name"] == span]
    means = [statistics.fmean(durations[i:i + size])
             for i in range(0, len(durations) - size + 1, size)]
    print(f"{workload}/{span}: {len(durations)} calls, {len(means)} windows of {size}")
    print(" ".join(f"{m:.3f}" for m in means))
    return {"workload": workload, "span": span, "window": size, "seed": seed,
            "run_seconds": seconds, "window_means_ms": means}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--out")
    parser.add_argument("--window", help="workload:span:size")
    args = parser.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text())
    command = bench["command"]
    seconds = args.seconds or bench["run_seconds"]
    if args.window:
        record = windows(command, args.window, seconds)
    else:
        record = spread_table(bench, command, list(range(1, args.seeds + 1)), seconds)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
