"""pathguard benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload serve|batch|verify --seed N \
        --seconds S --trace 0|1

Run from anywhere; the program is imported from ``src/`` next to this
directory, and children get the same ``PYTHONPATH``. With ``--trace 0`` the
last line of standard output holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run. Each run also writes
its result (and, when traced, its spans) under ``bench/out/``. See
bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

UNITS = {
    "setup_s": "s",
    "paths_per_s": "1/s",
    "path_p50_us": "us",
    "path_p99_us": "us",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("serve", "batch", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "pathguard", "__init__.py")):
        print(f"bench: no pathguard package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads  # needs pathguard on sys.path

    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=OUT)
    ctx = workloads.Context(args.seed, args.seconds, work, SRC)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            import layers

            res, units = layers.traced_run(args.workload, ctx, os.path.join(OUT, stem + ".spans.json"))
        else:
            res, units = workloads.WORKLOADS[args.workload](ctx), UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if set(res.metrics) != set(units):
        print(
            f"bench: {args.workload} measured {sorted(res.metrics)}, want {sorted(units)}",
            file=sys.stderr,
        )
        return 2
    factors = ctx.clock.factors
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "metrics": res.metrics,
        "uncorrected": res.raw,
        "correction": {
            "intervals": len(factors),
            "factor_min": min(factors, default=1.0),
            "factor_median": sorted(factors)[len(factors) // 2] if factors else 1.0,
            "factor_max": max(factors, default=1.0),
        },
        "notes": res.notes,
        "problems": res.problems[:20],
    }
    with open(os.path.join(OUT, stem + ".result.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)

    for name, value in res.metrics.items():
        raw = res.raw.get(name)
        extra = f"  (uncorrected {raw:.6g})" if raw is not None else ""
        print(f"{name:<40} {value:>14.6g} {units[name]}{extra}")
    c = detail["correction"]
    print(
        f"host-speed factor over {c['intervals']} intervals: "
        f"min {c['factor_min']:.3f} median {c['factor_median']:.3f} max {c['factor_max']:.3f}"
    )
    for problem in res.problems[:20]:
        print("CHECK FAILED:", problem)
    print(
        json.dumps(
            {
                "correct": not res.problems,
                "attempted": res.attempted,
                "failed": res.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in res.metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
