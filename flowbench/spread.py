"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 flowbench/spread.py --workloads datapath_10k service_mix \
        --seeds 1 2 3 4 5 6 7 8 9 10 --out flowbench/baseline/set1.json

Runs are sequential (never in parallel, so they do not compete for the
CPU).  For every workload and end-to-end metric it prints the median and
the spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, which
is how the bounds in BENCHMARK.json are judged.  ``--out`` keeps every
run's raw result line.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=900,
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def spread(values) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    raw = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            r = run_once(workload, seed, seconds, 0)
            runs.append({"seed": seed, **r})
            print(f"{workload} seed {seed}: correct={r['correct']} "
                  f"failed={r['failed']}/{r['attempted']} "
                  f"wall={r['wall_s']:.1f}s", flush=True)
        raw[workload] = runs
        if len(runs) < 2:
            continue
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            s = spread(values)
            flag = "" if s <= bound / 3 else (
                "  > bound/3" if s <= bound else "  > BOUND")
            print(f"  {name:18s} median {statistics.median(values):14.6f}"
                  f"  spread {s:.4f}  (bound {bound}){flag}")
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump({"seconds": seconds, "seeds": args.seeds, "runs": raw},
                      fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
