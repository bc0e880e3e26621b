"""``repro-flow`` command-line driver.

Examples::

    repro-flow run adder --phases 4 --t1            # one flow, one circuit
    repro-flow run adder --t1 --timings             # + per-pass breakdown
    repro-flow run adder --t1 --json                # strict-JSON report
    repro-flow table --preset ci --jobs 4           # Table I, 4 workers
    repro-flow list                                 # registered benchmarks
    repro-flow run mydesign.blif --t1 --verify full # external netlist
    repro-flow fig1b                                # T1 pulse waveform

Service mode (flow-as-a-service)::

    repro-flow serve --port 8080 --workers 4        # persistent daemon
    repro-flow submit adder --t1 --wait             # job through the daemon
    repro-flow status <job-id>                      # poll a job
    repro-flow result <job-id> --wait               # fetch/await the report

Flows are composed with :mod:`repro.pipeline` and batched with
:func:`repro.pipeline.run_many`; the service verbs speak the strict-JSON
wire format from :mod:`repro.service.protocol`.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.circuits import benchmark_registry, build, names
from repro.errors import ReproError
from repro.network.logic_network import LogicNetwork
from repro.pipeline import run_table


def _open_netlist(source: str):
    """Open a user-supplied netlist path, mapping I/O failures to the
    CLI's ``error: ... / exit 2`` contract instead of a traceback."""
    try:
        return open(source)
    except OSError as exc:
        raise ReproError(f"cannot read {source!r}: {exc}") from exc


def _load_network(
    source: str, preset: str, scale: Optional[int] = None
) -> LogicNetwork:
    if scale is not None:
        from repro.circuits.synthetic import SYNTHETIC_BENCHMARKS, build_synthetic

        if source in SYNTHETIC_BENCHMARKS:
            return build_synthetic(source, scale)
        raise SystemExit(
            f"--scale only applies to synthetic benchmarks "
            f"({', '.join(sorted(SYNTHETIC_BENCHMARKS))}), not {source!r}"
        )
    if source in benchmark_registry:
        return build(source, preset)
    if source.endswith(".blif"):
        from repro.io import read_blif

        with _open_netlist(source) as fh:
            return read_blif(fh)
    if source.endswith(".bench"):
        from repro.io import read_bench

        with _open_netlist(source) as fh:
            return read_bench(fh)
    raise SystemExit(
        f"unknown benchmark or file {source!r} "
        f"(known benchmarks: {', '.join(names())})"
    )


def _cmd_list(args) -> int:
    print(f"{'name':<12} description")
    print("-" * 60)
    for name in names():
        print(f"{name:<12} {benchmark_registry[name].description}")
    if getattr(args, "scale", False):
        from repro.circuits.synthetic import SYNTHETIC_DESCRIPTIONS

        print()
        print(f"{'synthetic':<12} (size-parameterised; use run <name> --scale N)")
        print("-" * 60)
        for name in sorted(SYNTHETIC_DESCRIPTIONS):
            print(f"{name:<12} {SYNTHETIC_DESCRIPTIONS[name]}")
    return 0


def _run_config(args) -> dict:
    """The normalized pipeline config the run/submit args describe."""
    from repro.service.protocol import normalize_config

    return normalize_config(
        {
            "n_phases": args.phases,
            "use_t1": args.t1,
            "verify": args.verify,
            "sweeps": args.sweeps,
            "balance_pos": not args.no_po_balance,
            "share_chains": not args.no_share,
            "balance_network": args.balance,
        }
    )


def _cmd_run(args) -> int:
    from repro.service.protocol import build_pipeline

    net = _load_network(args.benchmark, args.preset, getattr(args, "scale", None))
    config = _run_config(args)
    pipeline = build_pipeline(config)
    ctx = pipeline.run(net)
    if args.json:
        from repro.io.json_report import dumps_json_report
        from repro.service.protocol import flow_report

        sys.stdout.write(dumps_json_report(flow_report(ctx, config=config)))
        return 0
    m = ctx.metrics
    print(f"benchmark : {net.name}")
    print(f"flow      : {'T1 + ' if args.t1 else ''}{args.phases}-phase")
    if args.t1:
        print(f"T1 cells  : found {ctx.t1_found}, used {ctx.t1_used}")
    print(f"#DFF      : {m.num_dffs}")
    print(f"area (JJ) : {m.area_jj}")
    print(f"depth     : {m.depth_cycles} cycles")
    print(f"splitters : {m.num_splitters}")
    print(f"runtime   : {ctx.runtime_s:.2f} s")
    if ctx.verified is not None:
        print(f"verified  : {ctx.verified}")
    if args.timings:
        print("per-pass timing:")
        for pass_name, seconds in ctx.timings.items():
            print(f"  {pass_name:<22} {seconds:>8.3f} s")
    if args.energy:
        from repro.sfq import estimate_energy

        rep = estimate_energy(ctx.netlist, frequency_ghz=args.frequency)
        print(f"energy    : {rep.summary()}")
    if args.dot:
        from repro.io import netlist_to_dot

        with open(args.dot, "w") as fh:
            netlist_to_dot(ctx.netlist, fh)
        print(f"wrote {args.dot}")
    return 0


def _cmd_table(args) -> int:
    if args.resume and not args.journal:
        raise SystemExit("--resume requires --journal PATH")
    table = run_table(
        benchmarks=args.benchmarks or list(names()),
        preset=args.preset,
        n_phases=args.phases,
        verify=args.verify,
        sweeps=args.sweeps,
        jobs=args.jobs,
        progress=lambda name: print(f"[{name}: done]", file=sys.stderr),
        # registry names and external .blif/.bench files both work
        loader=lambda name: _load_network(name, args.preset),
        journal_path=args.journal,
        resume=args.resume,
    )
    print(table.format())
    return 0


def _print_json(obj) -> None:
    from repro.io.json_report import dumps_json_report

    sys.stdout.write(dumps_json_report(obj))


def _client(args):
    from repro.service.client import ServiceClient

    return ServiceClient(args.url, timeout=args.http_timeout)


def _cmd_serve(args) -> int:
    from repro.faults import parse_plan
    from repro.service.server import FlowDaemon

    fault_plan = parse_plan(args.faults) if args.faults else None
    daemon = FlowDaemon(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_size=args.queue_size,
        job_timeout_s=args.job_timeout,
        cache_entries=args.cache_entries,
        drain_timeout_s=args.drain_timeout,
        verbose=args.verbose,
        job_max_attempts=args.job_max_attempts,
        fault_plan=fault_plan,
    )
    daemon.start()
    host, port = daemon.address
    print(
        f"repro-flow service listening on http://{host}:{port} "
        f"({args.workers} warm workers, queue {args.queue_size}, "
        f"job timeout {args.job_timeout:g}s)",
        file=sys.stderr,
    )
    old = daemon.install_signal_handlers()
    try:
        daemon.wait_for_stop()
        print("draining...", file=sys.stderr)
        drained = daemon.stop()
    finally:
        import signal as _signal

        for sig, handler in old.items():
            _signal.signal(sig, handler)
    print("shut down cleanly" if drained else "shut down with jobs pending",
          file=sys.stderr)
    return 0 if drained else 1


def _cmd_submit(args) -> int:
    from repro.service.protocol import circuit_payload_from_source

    client = _client(args)
    circuit = circuit_payload_from_source(args.benchmark, args.preset)
    status = client.submit(
        circuit,
        config=_run_config(args),
        timeout_s=args.job_timeout,
    )
    if args.wait:
        _print_json(client.wait(status["job_id"], timeout=args.wait_timeout))
    else:
        _print_json(status)
    return 0


def _cmd_status(args) -> int:
    _print_json(_client(args).status(args.job_id))
    return 0


def _cmd_result(args) -> int:
    client = _client(args)
    if args.wait:
        _print_json(client.wait(args.job_id, timeout=args.wait_timeout))
    else:
        _print_json(client.result(args.job_id))
    return 0


def _cmd_fig1b(_args) -> int:
    from repro.sfq import simulate_pulse_train, waveform_ascii

    events = [
        (0, "T"), (3, "R"),
        (4, "T"), (5, "T"), (7, "R"),
        (8, "T"), (9, "T"), (10, "T"), (11, "R"),
    ]
    history = simulate_pulse_train(events)
    print("T1 cell pulse-level simulation (Fig. 1b stimulus: a | ab | abc)")
    print(waveform_ascii(history))
    return 0


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-flow",
        description="T1-aware SFQ technology mapping (DATE 2024 reproduction)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    list_p = sub.add_parser("list", help="list registered benchmarks")
    list_p.add_argument(
        "--scale", action="store_true",
        help="also list the size-parameterised synthetic generators",
    )
    list_p.set_defaults(fn=_cmd_list)

    def add_flow_args(p_):
        """The flow knobs shared by ``run`` and ``submit``.

        Defaults come from ``Pipeline.standard``'s signature, except
        ``--t1``: T1 detection is opt-in on the command line.
        """
        from repro.service.protocol import PIPELINE_DEFAULTS as defaults

        p_.add_argument(
            "benchmark", help="benchmark name or .blif/.bench file"
        )
        p_.add_argument(
            "--phases", "-n", type=int, default=defaults["n_phases"]
        )
        p_.add_argument(
            "--t1", action="store_true", help="enable T1 detection"
        )
        p_.add_argument(
            "--preset", choices=("paper", "ci"), default="paper",
            help="benchmark size preset",
        )
        p_.add_argument(
            "--verify", choices=("none", "cec", "full"),
            default=defaults["verify"],
        )
        p_.add_argument("--sweeps", type=int, default=defaults["sweeps"])
        p_.add_argument("--no-po-balance", action="store_true")
        p_.add_argument("--no-share", action="store_true",
                        help="per-edge DFF chains (no net sharing)")
        p_.add_argument("--balance", action="store_true",
                        help="depth-rebalance associative trees first")

    def add_client_args(p_):
        """The transport knobs shared by every service client verb."""
        p_.add_argument("--url", default="http://127.0.0.1:8080",
                        help="flow-service base URL")
        p_.add_argument("--http-timeout", type=float, default=30.0,
                        help="per-request HTTP timeout in seconds")
        p_.add_argument("--wait-timeout", type=float, default=600.0,
                        help="total seconds to wait with --wait")

    run_p = sub.add_parser("run", help="run one flow on one circuit")
    add_flow_args(run_p)
    run_p.add_argument(
        "--scale", type=int, default=None, metavar="N",
        help="build the named synthetic generator at ~N nodes instead of "
             "a registry benchmark (see `list --scale`)",
    )
    run_p.add_argument("--dot", help="write the staged netlist as DOT")
    run_p.add_argument("--energy", action="store_true",
                       help="print the RSFQ energy/power estimate")
    run_p.add_argument("--frequency", type=float, default=20.0,
                       help="clock frequency in GHz for --energy")
    run_p.add_argument("--timings", action="store_true",
                       help="print the per-pass timing breakdown")
    run_p.add_argument("--json", action="store_true",
                       help="print the strict-JSON flow report instead of "
                            "the human-readable summary")
    run_p.set_defaults(fn=_cmd_run)

    tab_p = sub.add_parser("table", help="reproduce Table I")
    tab_p.add_argument(
        "benchmarks", nargs="*", help="subset of benchmarks (default: all)"
    )
    tab_p.add_argument("--phases", "-n", type=int, default=4)
    tab_p.add_argument(
        "--preset", choices=("paper", "ci"), default="paper"
    )
    tab_p.add_argument(
        "--verify", choices=("none", "cec", "full"), default="none"
    )
    tab_p.add_argument("--sweeps", type=int, default=4)
    tab_p.add_argument("--jobs", "-j", type=int, default=1,
                       help="worker processes for the batch runner")
    tab_p.add_argument("--journal", default=None, metavar="PATH",
                       help="checkpoint every finished flow to an "
                            "append-only journal file")
    tab_p.add_argument("--resume", action="store_true",
                       help="resume from an existing --journal, re-running "
                            "only the unfinished flows")
    tab_p.set_defaults(fn=_cmd_table)

    serve_p = sub.add_parser(
        "serve", help="run the persistent flow-service daemon"
    )
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=8080,
                         help="TCP port (0 picks a free one)")
    serve_p.add_argument("--workers", type=int, default=2,
                         help="warm worker processes")
    serve_p.add_argument("--queue-size", type=int, default=32,
                         help="bounded queue depth (backpressure beyond)")
    serve_p.add_argument("--job-timeout", type=float, default=300.0,
                         help="per-job wall-clock cap in seconds")
    serve_p.add_argument("--cache-entries", type=int, default=256,
                         help="result-cache capacity (LRU beyond)")
    serve_p.add_argument("--drain-timeout", type=float, default=30.0,
                         help="seconds to wait for in-flight jobs on "
                              "SIGTERM before hard shutdown")
    serve_p.add_argument("--verbose", action="store_true",
                         help="log every HTTP request to stderr")
    serve_p.add_argument("--job-max-attempts", type=int, default=3,
                         help="attempts before a worker-crashing job is "
                              "quarantined")
    serve_p.add_argument("--faults", default=None, metavar="PLAN",
                         help="deterministic fault-injection plan, e.g. "
                              "'seed=7;worker.crash@nth=2' (testing only)")
    serve_p.set_defaults(fn=_cmd_serve)

    submit_p = sub.add_parser(
        "submit", help="submit one flow job to a running daemon"
    )
    add_flow_args(submit_p)
    add_client_args(submit_p)
    submit_p.add_argument("--job-timeout", type=float, default=None,
                          help="per-job timeout request (capped server-side)")
    submit_p.add_argument("--wait", action="store_true",
                          help="block and print the finished report")
    submit_p.set_defaults(fn=_cmd_submit)

    status_p = sub.add_parser("status", help="query one job's state")
    status_p.add_argument("job_id")
    add_client_args(status_p)
    status_p.set_defaults(fn=_cmd_status)

    result_p = sub.add_parser("result", help="fetch one job's flow report")
    result_p.add_argument("job_id")
    add_client_args(result_p)
    result_p.add_argument("--wait", action="store_true",
                          help="poll until the job finishes first")
    result_p.set_defaults(fn=_cmd_result)

    sub.add_parser(
        "fig1b", help="reproduce the Fig. 1b pulse waveform"
    ).set_defaults(fn=_cmd_fig1b)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
