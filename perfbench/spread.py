"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload neural-cold --seeds 1-10

The spread of a metric is the distance between the first and the third
quartile of its values (``statistics.quantiles(values, n=4)``) as a share of
their median — the statistic ``BENCHMARK.json`` bounds are judged against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_seconds() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["run_seconds"]


def run_once(workload: str, seed: int, trace: int = 0, extra: tuple[str, ...] = ()) -> dict:
    """One ``run.py`` invocation of ``run_seconds()``; its result line."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(run_seconds()), "--trace", str(trace), *extra],
        capture_output=True, text=True, timeout=900, cwd=HERE.parent,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"run.py failed for seed {seed}:\n{completed.stderr[-3000:]}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance / median)."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(seed) for seed in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}

    results = []
    for seed in parse_seeds(args.seeds):
        result = run_once(args.workload, seed)
        results.append(result)
        values = ", ".join(f"{name}={m['value']:.4g}" for name, m in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} {values}", flush=True)
    print(f"{args.workload}: {len(results)} runs, all correct: {all(r['correct'] for r in results)}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median, relative = spread(values)
        bound = bounds[name]
        verdict = f" bound {bound} ({'ok' if relative <= bound else 'WIDE'}, " \
            f"{'steady' if relative < bound / 3 else 'not below a third'})"
        print(f"  {name:36s} median {median:10.4f}  spread {relative:.3f}{verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
