#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports each metric's spread.

    python3 perfbench/spread.py --workload NAME --seeds 1-10

Each run is untraced and lasts BENCHMARK.json's run_seconds. For every
end-to-end metric: the median over the runs and the inter-quartile distance
as a share of the median (``statistics.quantiles(values, n=4)``), the
figure the benchmark's bounds are checked against. Run from the repository
root, like run.py.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True

import discipline  # noqa: E402


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, os.pardir, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in seeds(args.seeds):
        done = subprocess.run(
            [sys.executable, os.path.join(here, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=False)
        if done.returncode != 0:
            sys.exit(f"seed {seed}: run.py exited {done.returncode}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        line = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} {line}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vs in values.items():
        spread = discipline.spread(vs) if len(vs) >= 2 else float("nan")
        bound = bounds.get(name)
        verdict = "" if bound is None else (
            f" bound {bound:g} ({'ok' if spread <= bound / 3 else 'over a third of it'})")
        print(f"{name}: median {statistics.median(vs):.6g} spread {spread:.4f}{verdict}")


if __name__ == "__main__":
    main()
