"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workloads serve batch verify --runs 10 \
        [--sets 2] [--first-seed 1] [--seconds 20] [--trace 0] [--from-results]

Runs are made one after another, never in parallel: every workload of set 1,
then every workload of set 2, and so on, set k taking the ``--runs`` seeds
after set k-1's. For each set, workload and metric it prints the median, the
quartiles (``statistics.quantiles(n=4)``) and the spread (q3 - q1) / median,
corrected and uncorrected, beside the metric's bound from BENCHMARK.json, as
a Markdown table. With more than one set it then prints how far each later
set's medians are worse than set 1's. ``--from-results`` makes no runs and
reads the result files earlier runs left in bench/out/. Every figure in
bench/README.md comes from this script.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def _result(workload, seed, seconds, trace, run):
    """One run's result file, after making the run unless ``run`` is false."""
    path = os.path.join(HERE, "out", f"{workload}-seed{seed}-trace{trace}.result.json")
    if run:
        cmd = [
            sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
        if proc.returncode != 0 or not last.startswith("{"):
            raise RuntimeError(f"{workload} seed {seed} failed: {proc.stderr[-2000:]}")
        line = json.loads(last)
        print(
            f"<!-- {workload} seed {seed}: correct={line['correct']} "
            f"attempted={line['attempted']} failed={line['failed']} -->",
            flush=True,
        )
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=["serve", "batch", "verify"])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--from-results", action="store_true")
    args = parser.parse_args(argv)
    spec = _bench_spec()
    seconds = args.seconds or spec["run_seconds"]
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    better = {m["name"]: m["better"] for m in metrics}

    medians = []  # per set: (workload, metric) -> median
    for k in range(args.sets):
        first = args.first_seed + k * args.runs
        rows, medians_k = [], {}
        for workload in args.workloads:
            try:
                results = [
                    _result(workload, seed, seconds, args.trace, not args.from_results)
                    for seed in range(first, first + args.runs)
                ]
            except RuntimeError as exc:
                print(exc, file=sys.stderr)
                return 1
            for name in results[0]["metrics"]:
                med, q1, q3, spread = _spread([r["metrics"][name] for r in results])
                raw = [r["uncorrected"][name] for r in results if name in r["uncorrected"]]
                raw_spread = f"{_spread(raw)[3]:.3f}" if len(raw) == len(results) else "-"
                bound = bounds.get(name)
                medians_k[workload, name] = med
                rows.append(
                    f"| {workload} | {name} | {med:.6g} | {q1:.6g} | {q3:.6g} "
                    f"| {spread:.3f} | {raw_spread} | {bound if bound is not None else '-'} |"
                )
        medians.append(medians_k)
        print(f"\nSet {k + 1}, seeds {first}-{first + args.runs - 1}:\n")
        print("| workload | metric | median | q1 | q3 | spread | uncorrected spread | bound |")
        print("|---|---|---|---|---|---|---|---|")
        print("\n".join(rows), flush=True)

    for k in range(1, args.sets):
        print(f"\nSet {k + 1} against set 1 (a negative figure means set {k + 1} read better):\n")
        print(f"| workload | metric | median, set 1 | median, set {k + 1} | set {k + 1} worse by | bound |")
        print("|---|---|---|---|---|---|")
        for (workload, name), a in medians[0].items():
            b = medians[k][workload, name]
            worse = (b - a) / a if better[name] == "lower" else (a - b) / a
            bound = bounds.get(name)
            print(
                f"| {workload} | {name} | {a:.6g} | {b:.6g} | {worse:+.3f} "
                f"| {bound if bound is not None else '-'} |"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
