"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the repository root):

    python3 perfbench/steady.py --workload eval-cohort --seeds 1 2 3 4 5 \
        [--seconds 10] [--trace 0] [--out spread.json]

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints for
each metric its median, its quartiles as ``statistics.quantiles(values,
n=4)`` gives them, and the quartile distance as a share of the median next
to a third of the metric's bound in ``BENCHMARK.json``.  With ``--trace 1``
it instead checks that the counts named in ``tracer.EXACT_COUNTS`` repeat
exactly across the runs, which is meaningful for runs of one seed.
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
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.exit(f"run failed for seed {seed}:\n{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["record"] = json.loads(lines[-2])["record"]
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="also write the raw results as JSON")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    results = []
    for seed in args.seeds:
        result = run_once(args.workload, seed, seconds, args.trace)
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps({"seeds": args.seeds, "results": results}, indent=1))

    ok = all(r["correct"] for r in results)
    if args.trace:
        sys.path.insert(0, str(ROOT / "perfbench"))
        from tracer import EXACT_COUNTS

        for name in EXACT_COUNTS:
            values = {r["metrics"][name]["value"] for r in results}
            same = len(values) == 1
            ok &= same
            print(f"{name:36s} {'repeats' if same else 'DIFFERS'} {sorted(values)}")
        return 0 if ok else 1

    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        target = f"{bound / 3:.4f}" if bound else "-"
        print(f"{name:14s} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
              f"spread {spread:.4f} (target < {target})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
