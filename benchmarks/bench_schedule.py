"""Microbenchmark suite for the incremental schedule kernel (§II-B/C).

Measures the axes the scheduling refactor targets and writes the results
to ``BENCH_schedule.json`` at the repository root, extending the perf
trajectory started by ``bench_kernel.py``:

* **heuristic sweeps** — wall time and moves evaluated of the
  delta-evaluated kernel heuristic vs the retained seed scan-and-rebuild
  reference (``assign_stages_rescan_reference``), measured **in the same
  run** on the same netlists, with the speedup per circuit;
* **delta evaluation** — mean cost of one ``state_if_moved`` probe (a
  one-candidate pricing pass) vs one seed-style ``local_cost`` rescan on
  the largest registry netlist;
* **ILP model build** — time to build the §II-B model on the
  :class:`~repro.solvers.model.SolverModel` IR and lower it to the MILP
  backend (small circuit, the exact path of ``method="auto"``);
* **boundary shift** — the heuristic prices each visited cell's
  candidate stages in one ``StageSchedule.best_stage`` call.  Each call
  of a real ``assign_stages_heuristic`` run on the mapped ``datapath``
  synthetic (2k nodes with ``--quick``, 10k in full) is timed; its
  per-probe cost is the call time over the candidates it priced.  The
  calls with at least one probe that shifts the PO boundary are compared
  with the calls without.  A shifting probe prices the PO nets it does
  not touch from maintained counts, so it should cost a small multiple
  of a plain one, not O(#PO) more.  The section also records the probes
  per priced cell (``moves_evaluated / cells_priced``).

Contract (the CI gate): *invariant* failures exit non-zero —

* the kernel heuristic must produce the **same stage vector** as the
  seed reference on every measured circuit;
* the kernel's maintained cost terms must match a from-scratch
  recomputation after the sweeps (``StageSchedule.check_invariants``).

Timing numbers are recorded, not asserted, except for one
within-process ratio: with ``--ratchet`` (the CI perf-smoke mode) the
run fails when a probe in a call with a boundary shift costs more than
``MAX_SHIFT_PROBE_RATIO`` times one in a call without.

Usage::

    PYTHONPATH=src python benchmarks/bench_schedule.py            # paper scale
    PYTHONPATH=src python benchmarks/bench_schedule.py --quick --ratchet
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

from repro.circuits.registry import TABLE1_ORDER, build
from repro.circuits.synthetic import build_synthetic
from repro.core.phase_assignment import (
    assign_stages_heuristic,
    assign_stages_rescan_reference,
    build_ilp_model,
)
from repro.core.schedule import StageSchedule
from repro.errors import TimingError
from repro.io.json_report import dump_json_report
from repro.pipeline import Pipeline
from repro.pipeline.context import FlowContext

REPO_ROOT = Path(__file__).resolve().parent.parent

#: ratchet ceiling: per-probe cost of the best_stage calls with a
#: boundary-shifting probe / that of the calls without one
MAX_SHIFT_PROBE_RATIO = 4.0


def map_source(source, name: str):
    """Standard pipeline on *source* up to (excluding) phase assignment."""
    pipe = Pipeline.standard(n_phases=4, use_t1=True, verify="none")
    ctx = FlowContext(source=source, name=name, verify="none")
    for p in pipe.passes:
        if p.name == "phase_assign":
            break
        ctx = p.run(ctx) or ctx
    return ctx.netlist


def mapped_netlist(name: str, preset: str):
    return map_source(build(name, preset), name)


def bench_heuristic(circuits, preset, failures):
    out = {}
    for name in circuits:
        nl_kernel = mapped_netlist(name, preset)
        nl_seed = mapped_netlist(name, preset)

        t0 = time.perf_counter()
        rep_kernel = assign_stages_heuristic(nl_kernel)
        t_kernel = time.perf_counter() - t0

        t0 = time.perf_counter()
        rep_seed = assign_stages_rescan_reference(nl_seed)
        t_seed = time.perf_counter() - t0

        got = [c.stage for c in nl_kernel.cells]
        want = [c.stage for c in nl_seed.cells]
        if got != want:
            # Deliberate pin: from ASAP starts the kernel currently
            # reproduces the seed sweeps exactly on every registry
            # circuit.  An *intentional* scheduling change that breaks
            # this (e.g. a circuit finally exercising the live-boundary
            # fix) must update this gate together with the pinned
            # registry metrics in tests/pipeline/test_registry_pinned.py.
            failures.append(
                f"heuristic:{name}: kernel stage vector diverged from the "
                f"seed reference (if intentional, update this gate and "
                f"the pinned registry metrics together)"
            )
        try:
            StageSchedule(
                nl_kernel, stages=[c.stage for c in nl_kernel.cells]
            ).check_invariants()
        except TimingError as exc:
            failures.append(f"invariants:{name}: {exc}")
        out[name] = {
            "cells": len(nl_kernel.cells),
            "kernel_seconds": round(t_kernel, 5),
            "seed_rescan_seconds": round(t_seed, 5),
            "speedup_vs_seed": round(t_seed / t_kernel, 2) if t_kernel else None,
            "kernel_moves_evaluated": rep_kernel.moves_evaluated,
            "seed_moves_evaluated": rep_seed.moves_evaluated,
            "moves_applied": rep_kernel.moves_applied,
            "cells_priced": rep_kernel.cells_priced,
            "sweeps": rep_kernel.sweeps_run,
            "final_cost": rep_kernel.final_cost,
        }
    return out


def bench_delta_probe(preset, failures):
    """One delta probe vs one seed-style local rescan, biggest circuit."""
    name = "multiplier"
    nl = mapped_netlist(name, preset)
    kernel = StageSchedule(nl)
    st = nl.structure()
    movable = [i for i in range(len(nl.cells)) if st.clocked[i]]
    probes = [(x, kernel.stages[x] + 1 + (x % 3)) for x in movable]

    t0 = time.perf_counter()
    for x, s in probes:
        kernel.state_if_moved(x, s)
    t_delta = (time.perf_counter() - t0) / len(probes)

    # the seed priced the same probe by re-summing every incident term
    from repro.core.phase_assignment import _net_cost, t1_stagger_cost

    stages = kernel.stages
    boundary = kernel.boundary()

    def local_rescan(x):
        total = 0.0
        affected = set(st.signals_of_cell[x])
        affected.update(st.fanin_signals[x])
        for sig in affected:
            cons = st.nets.get(sig)
            if cons is None:
                continue
            b = boundary if sig in st.po_signals else None
            cost = _net_cost(
                stages[sig[0]], [stages[c] for c in cons], st.n, b
            )
            if cost == float("inf"):
                return cost
            total += cost
        for t in st.t1_consumers[x]:
            total += t1_stagger_cost(
                stages[t], [stages[d] for d in st.fanin_drivers[t]], st.n
            )
        return total

    t0 = time.perf_counter()
    for x, _s in probes:
        local_rescan(x)
    t_rescan = (time.perf_counter() - t0) / len(probes)
    return {
        "circuit": name,
        "probes": len(probes),
        "delta_seconds_per_probe": round(t_delta, 9),
        "rescan_seconds_per_probe": round(t_rescan, 9),
        "speedup": round(t_rescan / t_delta, 2) if t_delta else None,
    }


def bench_ilp_model_build(preset):
    """IR build time of the §II-B exact model on a small netlist."""
    nl = mapped_netlist("adder" if preset == "ci" else "c6288", "ci")
    t0 = time.perf_counter()
    model, sigma, k_vars = build_ilp_model(nl)
    t_build = time.perf_counter() - t0
    return {
        "cells": len(nl.cells),
        "variables": len(model.vars),
        "constraints": len(model.constraints),
        "build_seconds": round(t_build, 6),
    }


def bench_boundary_shift(quick, failures):
    """Per-probe cost of calls with and without a boundary-shifting
    probe, in a real run."""
    nodes = 2_000 if quick else 10_000
    nl = map_source(build_synthetic("datapath", nodes, 1), "datapath")
    best_stage = StageSchedule.best_stage
    # [calls, probes, seconds] of calls with a shifting probe, and without
    shift = [0, 0, 0.0]
    plain = [0, 0, 0.0]
    idle = [0]  # calls whose candidates were all the current stage

    def timed_call(kernel, x, candidates):
        evaluated = kernel.moves_evaluated
        shifts = kernel.boundary_shifts
        t0 = time.perf_counter()
        out = best_stage(kernel, x, candidates)
        dt = time.perf_counter() - t0
        probes = kernel.moves_evaluated - evaluated
        if not probes:
            idle[0] += 1
            return out
        acc = shift if kernel.boundary_shifts != shifts else plain
        acc[0] += 1
        acc[1] += probes
        acc[2] += dt
        return out

    StageSchedule.best_stage = timed_call
    try:
        t0 = time.perf_counter()
        rep = assign_stages_heuristic(nl)
        t_run = time.perf_counter() - t0
    finally:
        StageSchedule.best_stage = best_stage
    calls = shift[0] + plain[0] + idle[0]
    if calls != rep.cells_priced or shift[1] + plain[1] != rep.moves_evaluated:
        failures.append(
            f"boundary_shift: timed {calls} calls / {shift[1] + plain[1]} "
            f"probes, report counted {rep.cells_priced} / "
            f"{rep.moves_evaluated}"
        )
    if not (shift[0] and plain[0]):
        failures.append("boundary_shift: no call with (or without) a shift")
        return {}
    shift_us = shift[2] / shift[1] * 1e6
    plain_us = plain[2] / plain[1] * 1e6
    return {
        "circuit": f"datapath_{nodes}",
        "cells": len(nl.cells),
        "heuristic_seconds_timed": round(t_run, 4),
        "cells_priced": rep.cells_priced,
        "moves_evaluated": rep.moves_evaluated,
        "probes_per_cell": round(rep.moves_evaluated / rep.cells_priced, 3),
        "boundary_shifts": rep.boundary_shifts,
        "shift_calls": shift[0],
        "plain_calls": plain[0],
        "idle_calls": idle[0],
        "shift_call_probes": shift[1],
        "plain_call_probes": plain[1],
        "shift_us_per_probe": round(shift_us, 3),
        "plain_us_per_probe": round(plain_us, 3),
        "ratio": round(shift_us / plain_us, 3),
        "max_ratio": MAX_SHIFT_PROBE_RATIO,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke: down-scaled circuits",
    )
    parser.add_argument(
        "--ratchet", action="store_true",
        help="fail if a probe in a call with a boundary shift costs "
             f"more than {MAX_SHIFT_PROBE_RATIO}x one in a call without",
    )
    parser.add_argument(
        "--out", default=str(REPO_ROOT / "BENCH_schedule.json"),
        help="output JSON path (default: BENCH_schedule.json at repo root)",
    )
    args = parser.parse_args(argv)

    preset = "ci" if args.quick else "paper"
    circuits = list(TABLE1_ORDER)
    failures: list = []
    report = {
        "meta": {
            "preset": preset,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        },
        "heuristic": bench_heuristic(circuits, preset, failures),
        "delta_probe": bench_delta_probe(preset, failures),
        "ilp_model_build": bench_ilp_model_build(preset),
        "boundary_shift": bench_boundary_shift(args.quick, failures),
        "invariants_ok": not failures,
        "invariant_failures": failures,
    }

    dump_json_report(args.out, report)
    print(f"wrote {args.out}")
    for name, entry in report["heuristic"].items():
        print(
            f"schedule {name:<11} kernel {entry['kernel_seconds']:.3f}s  "
            f"seed {entry['seed_rescan_seconds']:.3f}s  "
            f"({entry['speedup_vs_seed']}x, "
            f"{entry['kernel_moves_evaluated']} moves evaluated)"
        )
    probe = report["delta_probe"]
    print(
        f"delta probe on {probe['circuit']}: "
        f"{probe['delta_seconds_per_probe']:.2e}s vs rescan "
        f"{probe['rescan_seconds_per_probe']:.2e}s ({probe['speedup']}x)"
    )
    shifting = report["boundary_shift"]
    ratio = shifting.get("ratio", 0.0)
    if shifting:
        print(
            f"boundary shift on {shifting['circuit']}: "
            f"{shifting['shift_us_per_probe']:.1f}us per probe over "
            f"{shifting['shift_calls']} calls with a shifting probe vs "
            f"{shifting['plain_us_per_probe']:.1f}us without ({ratio}x); "
            f"{shifting['probes_per_cell']} probes per priced cell"
        )
    if failures:
        print("SCHEDULE KERNEL INVARIANT FAILURES:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    if args.ratchet and ratio > MAX_SHIFT_PROBE_RATIO:
        print(
            f"PERF RATCHET FAILURE: a probe in a call with a boundary "
            f"shift costs {ratio}x one in a call without "
            f"(> {MAX_SHIFT_PROBE_RATIO}x)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
