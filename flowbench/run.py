"""End-to-end benchmark of the T1-aware SFQ flow.

Usage, from the root of a checkout::

    python3 flowbench/run.py --workload datapath_10k --seed 1 \
        --seconds 8 --trace 0

Workloads: table1_paper, datapath_10k, service_mix (see
flowbench/README.md).  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; with
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones of an instrumented run, whose spans are also written
to ``flowbench/traces/``.  The lines before it give the same figures
for a reader, with sample counts.
"""

import time

_PROCESS_T0 = time.perf_counter()  # setup_s starts before any import

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("table1_paper", "datapath_10k", "service_mix")

#: set-ups per run whose median is setup_s: this process plus the probes
SETUP_SAMPLES = 5


def _workload(name: str):
    """``(setup, measure, teardown)`` of one workload."""
    import workloads as w

    if name == "table1_paper":
        return w.setup_table1, w.measure_table1, None
    if name == "service_mix":
        return w.setup_service, w.measure_service, w.teardown_service
    return w.setup_datapath, w.measure_datapath, None


def _setup_probe(name: str, seed: int) -> int:
    """Child mode: time one cold set-up, print the seconds, tear down."""
    setup, _measure, teardown = _workload(name)
    state = setup(seed)
    print(f"{time.perf_counter() - _PROCESS_T0!r}")
    if teardown is not None:
        teardown(state)
    return 0


def _probe_setups(name: str, seed: int, count: int) -> list:
    """Speed-normalised set-up times of *count* fresh child processes."""
    from speed import SpeedMeter

    meter = SpeedMeter()
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=60, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr[-2000:]}")
        seconds = float(proc.stdout.strip().splitlines()[-1])
        out.append(seconds * meter.factor())
    return out


def _e2e_metrics(out, setup_s: float) -> dict:
    from workloads import percentile

    return {
        "flow_s": (out.flow_s, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (out.peak_rss_mb, "MiB"),
        "area_jj": (float(out.area_jj), "JJ"),
        "dffs": (float(out.dffs), "count"),
        "area_ratio_nphi": (out.area_ratio_nphi, "ratio"),
        "job_p95_s": (percentile(out.jobs, 0.95), "s"),
        "jobs_per_s": (out.jobs_per_s, "1/s"),
    }


def run(args) -> int:
    import workloads as w
    from check import self_test
    from speed import NOMINAL_S, reference_s
    from tracer import Tracer

    setup, measure, teardown = _workload(args.workload)
    state = setup(args.seed)
    setup_samples = [
        (time.perf_counter() - _PROCESS_T0) * NOMINAL_S / reference_s()
    ]
    problems = [f"check self-test: {p}" for p in self_test(args.seed)]

    tracer = None
    if args.trace:
        tracer = Tracer(f"{args.workload}-seed{args.seed}-{os.getpid()}")
    try:
        # untraced first; a traced run adds the traced outcome last
        outcomes = measure(state, args.seconds, args.seed, tracer)
    finally:
        if teardown is not None:
            teardown(state)
    main = outcomes[-1]
    build_s = state["build_s"]
    if args.workload == "service_mix":
        # the flows ran in the daemon's worker, which has now been
        # joined: its peak is the children's maximum resident size
        main.peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        )
        build_s = w.check_service(outcomes, args.seed)

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    labels = ("untraced", "traced")[-len(outcomes):] if args.trace \
        else ("run",)
    for o, label in zip(outcomes, labels):
        problems.extend(o.problems)
        for note in o.notes:
            print(f"# {label}: {note}")
        if o.raw_units:
            print(f"# {label}: raw unit times median "
                  f"{statistics.median(o.raw_units):.4f} s over "
                  f"{len(o.raw_units)}")
        if o.speed_factors:
            print(f"# {label}: speed factors "
                  + " ".join(f"{x:.3f}" for x in o.speed_factors[:12]))

    if args.trace:
        untraced = outcomes[0] if len(outcomes) > 1 else None
        metrics = w.layer_metrics(tracer, main, untraced, build_s)
        os.makedirs(os.path.join(HERE, "traces"), exist_ok=True)
        path = os.path.join(HERE, "traces",
                            f"{args.workload}-seed{args.seed}.json")
        tracer.dump(path)
        print(f"# {len(tracer.spans)} spans written to "
              f"{os.path.relpath(path, ROOT)}")
    else:
        setup_samples += _probe_setups(
            args.workload, args.seed, SETUP_SAMPLES - 1
        )
        metrics = _e2e_metrics(main, statistics.median(setup_samples))
        print(f"# setup_s: median of {len(setup_samples)} set-ups: "
              + " ".join(f"{x:.3f}" for x in setup_samples))
        print(f"# job latencies: {len(main.jobs)} samples")
    print(f"# failed_ratio = {failed / max(1, attempted):.6f} "
          f"({failed} of {attempted} attempted)")
    for p in problems:
        print(f"# PROBLEM: {p}")
    for name, (value, unit) in metrics.items():
        print(f"# {name:42s} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no flow sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    if args.setup_probe:
        return _setup_probe(args.workload, args.seed)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
