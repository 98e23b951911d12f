"""Run one workload once per seed and report each metric's median and spread.

    python3 perfbench/spread.py --workload paper_infer --seeds 0-9 --seconds 20

The spread is (Q3 - Q1) / median over the runs, with the quartiles that
``statistics.quantiles(n=4)`` gives.  Runs are sequential; each is a separate
process of ``run.py``.  With ``--out`` the per-run results and the summary are
written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(BENCH_DIR))

from perfbench.stats import quartile_spread  # noqa: E402


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 0,3,5")
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="write the runs and the summary to this JSON file")
    args = p.parse_args(argv)

    runs = []
    for seed in parse_seeds(args.seeds):
        result = run_once(args.workload, seed, args.seconds, args.trace)
        runs.append({"seed": seed, **result})
        values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} {values}", flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        spread = quartile_spread(values) if len(values) >= 2 and median else None
        summary[name] = {"median": median, "spread": spread,
                         "unit": runs[0]["metrics"][name]["unit"]}
        shown = "n/a" if spread is None else f"{spread:.4f}"
        print(f"{name:<40} median {median:<14.6g} spread {shown}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "seconds": args.seconds,
                       "trace": args.trace, "runs": runs, "summary": summary}, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
