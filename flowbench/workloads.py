"""The three benchmark workloads.

Each workload has a ``setup(seed)`` whose wall time is ``setup_s`` and a
``measure(state, seconds, seed, tracer)`` that runs its unit of work
until *seconds* have passed, checks every mapped netlist outside the
timed region and returns a list of :class:`Outcome`.  Without a tracer
the list holds one outcome.  With one, the batch workloads interleave
instrumented runs (pass hooks plus kernel wrappers) with plain ones and
return the untraced outcome first and the traced one last; the tracer
holds the layer totals.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import gc
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from check import check_netlist
from speed import SpeedMeter
from tracer import Tracer, instrument, pass_hooks

#: a failed or refused service job counts as this latency, the client's
#: own wait limit: beyond any limit a user would accept
FAILED_JOB_LATENCY_S = 300.0

#: the flow's passes in execution order (the per-pass span names)
PASSES = (
    "decompose", "t1_detect", "map_to_sfq", "phase_assign", "dff_insert",
    "verify_metrics",
)


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: durations of the timed units (flow_s samples), speed-normalised
    #: on the batch workloads
    units: List[float] = field(default_factory=list)
    #: the same durations as measured, before normalisation
    raw_units: List[float] = field(default_factory=list)
    #: the speed factor applied to each unit (see speed.py)
    speed_factors: List[float] = field(default_factory=list)
    flow_s: float = 0.0
    jobs: List[float] = field(default_factory=list)  # job latencies
    jobs_per_s: float = 0.0
    peak_rss_mb: float = 0.0
    area_jj: float = 0.0
    dffs: float = 0.0
    area_ratio_nphi: float = 0.0
    #: number of flow_s units run under the tracer (per-layer divisor)
    traced_units: float = 0.0
    notes: List[str] = field(default_factory=list)
    #: workload-specific data (service job records and cache counters)
    extra: Dict[str, Any] = field(default_factory=dict)


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated *q*-quantile (0..1) of *values*."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed(fn: Callable[[], Any]) -> Tuple[float, Any]:
    gc.collect()  # start every unit from a collected heap
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def _flow_signature(ctx) -> Tuple:
    m = ctx.metrics
    return (m.area_jj, m.num_dffs, m.depth_cycles, ctx.t1_found, ctx.t1_used)


def _batch_jobs(out: Outcome) -> None:
    """Job metrics of a batch workload, whose job is one unit of work.

    A batch run holds a handful of units (one to five), too few for a
    tail percentile, so the job latency at p95 is the unit's median
    (flow_s), and the rate is its inverse.  A run in which no
    unit finished counts as one job beyond any limit.
    """
    if not out.flow_s:
        out.jobs, out.jobs_per_s = [FAILED_JOB_LATENCY_S], 0.0
        return
    out.jobs = [out.flow_s]
    out.jobs_per_s = 1.0 / out.flow_s


# ---------------------------------------------------------------------------
# batch workloads: flows run one after another in this process
# ---------------------------------------------------------------------------

def _measure_cycle(items, seconds: float, seed: int,
                   tracer: Optional[Tracer], runner=None):
    """Run ``items`` — ``(key, network, pipeline)`` — in a cycle.

    Runs until *seconds* have passed and every item ran at least once.
    Each flow is timed alone and scaled by the speed meter.  With a
    tracer, every step runs its item twice back to back, once with
    tracing off and once on, in alternating order, for twice as long:
    the two modes then see the same machine, so their ratio is the
    tracing overhead and not drift.  Afterwards the last netlist of
    every item goes through the output check, and every run of an item
    must have given the same metrics; a failure counts every run of
    that item.  Returns one outcome per mode (untraced first), whose
    ``units`` hold each item's median time, and ``{key: last context}``.
    """
    modes = [None] if tracer is None else [None, tracer]
    outs = [Outcome() for _ in modes]
    samples = [{key: [] for key, _n, _p in items} for _ in modes]
    hooked = {}
    last: Dict[Any, Any] = {}
    signature: Dict[Any, Tuple] = {}
    bad = set()

    def one(net, pipe, tr):
        if tr is None:
            return runner(net, pipe) if runner else pipe.run(net)
        pipe = hooked.setdefault(id(pipe), pipe.with_hooks(*pass_hooks(tr)))
        with tr.span("flow"):
            return runner(net, pipe) if runner else pipe.run(net)

    meter = SpeedMeter()
    t_end = time.perf_counter() + seconds * len(modes)
    i = 0
    while i < len(items) or time.perf_counter() < t_end:
        key, net, pipe = items[i % len(items)]
        order = list(range(len(modes)))
        if i % 2:
            order.reverse()
        i += 1
        for m in order:
            tr, out = modes[m], outs[m]
            out.attempted += 1
            try:
                with instrument(tr) if tr else contextlib.nullcontext():
                    dt, ctx = _timed(lambda: one(net, pipe, tr))
            except Exception as exc:
                out.failed += 1
                out.problems.append(f"{key}: {type(exc).__name__}: {exc}")
                bad.add(key)
                continue
            samples[m][key].append(dt * meter.factor())
            out.raw_units.append(dt)
            sig = _flow_signature(ctx)
            if signature.setdefault(key, sig) != sig:
                out.problems.append(
                    f"{key}: repeat gave {sig}, not {signature[key]}")
                bad.add(key)
            last[key] = ctx

    for key, ctx in last.items():
        reason = check_netlist(ctx.source, ctx.netlist, seed)
        if reason is not None:
            outs[-1].problems.append(f"{key}: {reason}")
            bad.add(key)
    for out, per_key in zip(outs, samples):
        out.peak_rss_mb = _self_rss_mb()
        out.traced_units = out.attempted
        out.speed_factors = meter.factors
        out.failed += sum(len(per_key[key]) for key in bad)
        out.units = [statistics.median(v) for v in per_key.values() if v]
        counts = [len(v) for v in per_key.values()]
        out.notes.append(f"{out.attempted} flow runs over {len(items)} "
                         f"inputs, {min(counts)}-{max(counts)} samples each")
    return outs, last


# ---------------------------------------------------------------------------
# table1_paper: the paper's Table-I sweep
# ---------------------------------------------------------------------------

def setup_table1(seed: int) -> Dict[str, Any]:
    from repro.circuits import TABLE1_ORDER, build
    from repro.pipeline import baseline_pipelines, warm_worker

    warm_worker()
    t0 = time.perf_counter()
    nets = {name: build(name, "paper") for name in TABLE1_ORDER}
    build_s = time.perf_counter() - t0
    pipes = baseline_pipelines(verify="none")
    items = [((name, label), nets[name], pipes[label])
             for name in TABLE1_ORDER for label in ("1phi", "nphi", "t1")]
    # the seed picks where the cyclic sweep starts, and so which flows
    # get a second sample in a partly repeated sweep
    start = seed % len(items)
    return {"items": items[start:] + items[:start], "names": TABLE1_ORDER,
            "build_s": build_s}


def _run_like_table(net, pipe):
    from repro.pipeline import run_many

    return run_many([(net, pipe)], jobs=1)[0]


def measure_table1(state, seconds: float, seed: int,
                   tracer: Optional[Tracer]) -> List[Outcome]:
    items = state["items"]
    outs, last = _measure_cycle(items, seconds, seed, tracer, _run_like_table)
    t1 = [last[(n, "t1")] for n in state["names"] if (n, "t1") in last]
    ratios = [last[(n, "t1")].metrics.area_jj / last[(n, "nphi")].metrics.area_jj
              for n in state["names"] if (n, "t1") in last and (n, "nphi") in last]
    for out in outs:
        out.traced_units = out.attempted / len(items)  # in sweeps
        # a sweep's time: every flow at its median time
        out.flow_s = sum(out.units)
        _batch_jobs(out)
        out.area_jj = sum(c.metrics.area_jj for c in t1)
        out.dffs = sum(c.metrics.num_dffs for c in t1)
        out.area_ratio_nphi = statistics.mean(ratios) if ratios else 0.0
        out.notes.append("flow_s: sum over the 24 flows of each one's median")
    return outs


# ---------------------------------------------------------------------------
# datapath_10k: the default flow on 10k-node random datapaths
# ---------------------------------------------------------------------------

DATAPATH_NODES = 10_000
#: generator seeds of the circuits every run uses.  The flow's cost
#: differs by up to 25% between generator seeds (phase assignment
#: reprices the PO boundary a seed-dependent number of times), so a run
#: averages three circuits; they are the same for every workload seed,
#: so that area and DFF counts repeat exactly across runs
DATAPATH_CIRCUITS = (1, 2, 3)


def setup_datapath(seed: int) -> Dict[str, Any]:
    from repro.circuits import build_synthetic
    from repro.pipeline import Pipeline, warm_worker

    warm_worker()
    t0 = time.perf_counter()
    nets = [build_synthetic("datapath", DATAPATH_NODES, s)
            for s in DATAPATH_CIRCUITS]
    build_s = time.perf_counter() - t0
    pipe = Pipeline.standard()
    items = [(i, net, pipe) for i, net in enumerate(nets)]
    # the seed picks the circuit the cycle starts with, and so which
    # circuits get a second sample in a run
    start = seed % len(items)
    return {"items": items[start:] + items[:start],
            "baseline": Pipeline.standard(use_t1=False), "build_s": build_s}


def measure_datapath(state, seconds: float, seed: int,
                     tracer: Optional[Tracer]) -> List[Outcome]:
    items = state["items"]
    outs, last = _measure_cycle(items, seconds, seed, tracer)
    # the 4-phase flow without T1 on circuit 0, untimed, for
    # area_ratio_nphi (T1 changes the area of these circuits by <0.1%)
    net = next(net for key, net, _pipe in items if key == 0)
    outs[-1].attempted += 1
    try:
        base = state["baseline"].run(net)
        reason = check_netlist(net, base.netlist, seed)
    except Exception as exc:
        base, reason = None, f"{type(exc).__name__}: {exc}"
    if reason is not None:
        outs[-1].failed += 1
        outs[-1].problems.append(f"nphi flow: {reason}")
    for out in outs:
        # one flow's time: the mean over the circuits of each one's median
        out.flow_s = statistics.mean(out.units) if out.units else 0.0
        _batch_jobs(out)
        out.area_jj = sum(c.metrics.area_jj for c in last.values())
        out.dffs = sum(c.metrics.num_dffs for c in last.values())
        if base is not None and 0 in last:
            out.area_ratio_nphi = (last[0].metrics.area_jj
                                   / base.metrics.area_jj)
        out.notes.append(
            "flow_s: mean over the circuits of each one's median; POs "
            + ", ".join(str(len(net.pos)) for _k, net, _p in items)
        )
    return outs


# ---------------------------------------------------------------------------
# service_mix: closed-loop clients against an in-process FlowDaemon
# ---------------------------------------------------------------------------

#: registry circuits the service jobs use (paper preset); multiplier and
#: sin are left out so that one round of jobs stays a few seconds long
SERVICE_CIRCUITS = ("adder", "c7552", "c6288", "voter", "square", "log2")
#: one config per client, so the two job streams never share a cache key
#: and every cache hit is a repeat of the same client's finished job
SERVICE_CONFIGS = ({"use_t1": True}, {"use_t1": False})
#: rounds per run at least, so that every distinct flow runs four times
#: and the latencies have 144 samples
SERVICE_MIN_ROUNDS = 4


#: times each fresh job is repeated in a round.  Two thirds of the jobs
#: are then cache hits, so the median latency lies inside the hits; at
#: one half it falls on the edge between hit and miss latencies (about
#: 10x apart), where it swung by 30% between runs
SERVICE_REPEATS = 2


def service_streams(seed: int) -> List[List[str]]:
    """Per client, the circuits it submits in one round, in order.

    Every circuit appears once fresh and then :data:`SERVICE_REPEATS`
    times as a repeat.  A repeat always comes after the client's own
    fresh job for that circuit, which has finished because the loop is
    closed, so it is a cache hit.  The seed fixes the order; the mix is
    the same for every seed.
    """
    streams = []
    for client in range(len(SERVICE_CONFIGS)):
        rng = random.Random(seed * 1000 + client)
        stream = list(SERVICE_CIRCUITS)
        rng.shuffle(stream)
        repeats = list(SERVICE_CIRCUITS) * SERVICE_REPEATS
        rng.shuffle(repeats)
        for name in repeats:
            first = stream.index(name)
            stream.insert(rng.randint(first + 1, len(stream)), name)
        streams.append(stream)
    return streams


def setup_service(seed: int) -> Dict[str, Any]:
    from repro.pipeline import warm_worker
    from repro.service import FlowDaemon, ServiceClient

    warm_worker()
    daemon = FlowDaemon(port=0, workers=1)
    daemon.start()
    clients = [ServiceClient(daemon.url) for _ in SERVICE_CONFIGS]
    try:
        clients[0].wait_ready(timeout=60.0)
    except Exception:
        daemon.stop()
        raise
    return {"daemon": daemon, "clients": clients,
            "streams": service_streams(seed), "build_s": 0.0}


def teardown_service(state) -> None:
    state["daemon"].stop()


@dataclass
class JobRecord:
    client: int
    circuit: str
    latency: float
    report: Optional[Dict[str, Any]]
    #: the last status the client saw, the duration of its submit call
    #: and the wall clock when it saw the job finished
    status: Optional[Dict[str, Any]] = None
    submit_s: float = 0.0
    seen_done_at: float = 0.0

    def hit(self) -> bool:
        return bool(self.status and self.status.get("cached"))

    def run_s(self) -> Optional[float]:
        """Worker time of a job that ran: ``finished_at - started_at``.

        The stamps cover what the service does for a fresh job after it
        leaves the queue — loading the circuit, building the pipeline,
        the flow and returning the report — as the client can see it.
        """
        st = self.status
        if st is None or self.hit() or st.get("finished_at") is None:
            return None
        return st["finished_at"] - st["started_at"]


def _run_stream(client_idx: int, client, stream: List[str],
                tracer) -> List[JobRecord]:
    """Run one client's stream through ``submit_and_wait``.

    The client's ``submit`` and ``wait_status`` are wrapped for the
    stream to keep the last status each returned (and, traced, to record
    client spans).
    """
    from repro.service import registry_circuit

    config = SERVICE_CONFIGS[client_idx]
    records = []
    seen: Dict[str, Any] = {}
    submit, wait_status = client.submit, client.wait_status

    def span(name):
        return tracer.span(name) if tracer else contextlib.nullcontext()

    def kept_submit(*args, **kwargs):
        with span("client.submit"):
            t0 = time.perf_counter()
            status = submit(*args, **kwargs)
            submit_s = time.perf_counter() - t0
        seen.update(status=status, at=time.time(), submit_s=submit_s)
        return status

    def kept_wait(*args, **kwargs):
        with span("client.wait"):
            status = wait_status(*args, **kwargs)
        seen.update(status=status, at=time.time())
        return status

    client.submit, client.wait_status = kept_submit, kept_wait
    try:
        for name in stream:
            seen.clear()
            t0 = time.perf_counter()
            try:
                with span("client.job"):
                    report = client.submit_and_wait(
                        registry_circuit(name, "paper"), config=dict(config)
                    )
                latency = time.perf_counter() - t0
            except Exception:
                report, latency = None, FAILED_JOB_LATENCY_S
            records.append(JobRecord(
                client_idx, name, latency, report,
                seen.get("status"), seen.get("submit_s", 0.0),
                seen.get("at", 0.0),
            ))
    finally:
        del client.submit, client.wait_status
    return records


def measure_service(state, seconds: float, seed: int,
                    tracer: Optional[Tracer]) -> List[Outcome]:
    """One outcome, traced or not: the flows run in the daemon's worker
    process, which a tracer does not reach, so a traced run has no
    untraced half to compare with.

    The job latencies and rate stay as measured.  The speed reference
    of speed.py did not track them: normalised by it, per round or per
    run, pinned to the worker's CPU or not, the worker's run times and
    the median latency spread as much as raw ones or more over six to
    eight seeds.  flow_s is filled in by :func:`check_service`.
    """
    out = Outcome()
    clients, streams = state["clients"], state["streams"]
    service = state["daemon"].service
    records: List[JobRecord] = []
    rounds = 0
    before = service.metrics()
    elapsed = 0.0
    t_end = time.perf_counter() + seconds
    with concurrent.futures.ThreadPoolExecutor(len(clients)) as pool:
        while time.perf_counter() < t_end or rounds < SERVICE_MIN_ROUNDS:
            service.cache.clear()  # every round replays the same hits
            t0 = time.perf_counter()
            futures = [
                pool.submit(_run_stream, i, clients[i], streams[i], tracer)
                for i in range(len(clients))
            ]
            done = [r for f in futures for r in f.result()]
            elapsed += time.perf_counter() - t0
            records.extend(done)
            rounds += 1
    after = service.metrics()

    out.traced_units = rounds
    out.attempted = len(records)
    out.jobs = [r.latency for r in records]
    out.jobs_per_s = len(records) / elapsed
    run_s = [r.run_s() for r in records if r.run_s() is not None]

    hits = after["cache"]["hits"] - before["cache"]["hits"]
    misses = after["cache"]["misses"] - before["cache"]["misses"]
    fresh = rounds * sum(len(set(s)) for s in streams)
    expected_hits = rounds * sum(len(s) for s in streams) - fresh
    runs = after["jobs"]["completed"] - before["jobs"]["completed"]
    # the seed fixes the hits: a lost hit would add a flow run to the
    # timings, so it is an error, not a note
    if hits != expected_hits:
        out.problems.append(
            f"cache hits: expected {expected_hits}, observed {hits}")
    if runs != fresh:
        out.problems.append(f"flow runs: expected {fresh}, observed {runs}")
    out.extra = {
        "records": records,
        "service.cache.expected_hits": expected_hits,
        "service.cache.observed_hits": hits,
        "service.cache.hit_ratio": hits / max(1, hits + misses),
        "service.cache.duplicate_runs": runs - fresh,
        "service.jobs.retries":
            after["jobs"]["retries"] - before["jobs"]["retries"],
    }
    out.notes.append(
        f"{rounds} rounds, {len(records)} jobs; worker run time "
        f"(finished_at - started_at) median {_median(run_s):.4f} s over "
        f"{len(run_s)}; cache hits expected {expected_hits}, observed {hits}"
    )
    return [out]


def check_service(outcomes: List[Outcome], seed: int) -> float:
    """Check the service's reports against in-process reference flows.

    Runs after the daemon has stopped.  Each distinct (circuit, config)
    job runs once in process, its netlist must pass
    :func:`check_netlist`, and every report the service returned for it
    must carry the same metrics and T1 counts; a job that failed, or
    whose report differs, counts as failed.  Fills the area metrics of
    every outcome and returns the circuit build time.

    The reference flows are timed like the batch workloads' flows, and
    their sum is flow_s: one round's distinct flows, run in process.
    The worker's own run times cannot be normalised for machine speed
    (see :func:`measure_service`); the service path around the flows is
    in the job latencies and rate.
    """
    from repro.circuits import build
    from repro.service import build_pipeline, normalize_config

    t0 = time.perf_counter()
    nets = {name: build(name, "paper") for name in SERVICE_CIRCUITS}
    build_s = time.perf_counter() - t0
    reference: Dict[Tuple[int, str], Tuple] = {}
    problems: List[str] = []
    bad = set()
    units, raw_units = [], []
    meter = SpeedMeter()
    for c, config in enumerate(SERVICE_CONFIGS):
        pipe = build_pipeline(normalize_config(dict(config)))
        for name, net in nets.items():
            dt, ctx = _timed(lambda: pipe.run(net))
            units.append(dt * meter.factor())
            raw_units.append(dt)
            reason = check_netlist(net, ctx.netlist, seed)
            if reason is not None:
                problems.append(f"{name}/{config}: {reason}")
                bad.add((c, name))
            reference[(c, name)] = (
                ctx.metrics.as_dict(), (ctx.t1_found, ctx.t1_used)
            )
    t1_area = [reference[(0, n)][0]["area_jj"] for n in SERVICE_CIRCUITS]
    nphi_area = [reference[(1, n)][0]["area_jj"] for n in SERVICE_CIRCUITS]
    for out in outcomes:
        out.problems.extend(problems)
        for r in out.extra["records"]:
            key = (r.client, r.circuit)
            if r.report is None:
                out.failed += 1
                out.problems.append(f"{key}: job failed")
                continue
            metrics, t1 = reference[key]
            got = {k: r.report["metrics"][k] for k in metrics}
            got_t1 = (r.report["t1"]["found"], r.report["t1"]["used"])
            if key in bad or got != metrics or got_t1 != t1:
                out.failed += 1
                if key not in bad:
                    out.problems.append(f"{key}: report differs from "
                                        "the in-process reference")
        out.units, out.raw_units = units, raw_units
        out.speed_factors = meter.factors
        out.flow_s = sum(units)
        out.area_jj = sum(t1_area)
        out.dffs = sum(reference[(0, n)][0]["dffs"] for n in SERVICE_CIRCUITS)
        out.area_ratio_nphi = statistics.mean(
            a / b for a, b in zip(t1_area, nphi_area)
        )
    return build_s


# ---------------------------------------------------------------------------
# per-layer metrics of a traced run
# ---------------------------------------------------------------------------

#: (metric, span) for every kernel span; metric values are seconds per
#: unit of work (the unit flow_s measures)
KERNEL_TIMES = (
    ("core.phase_assignment.heuristic_s", "core.phase_assignment.heuristic"),
    ("network.cuts.cut_db_s", "network.cuts.cut_db"),
    ("core.t1_detection.find_candidates_s",
     "core.t1_detection.find_candidates"),
    ("core.t1_detection.select_candidates_s",
     "core.t1_detection.select_candidates"),
    ("core.t1_detection.apply_candidates_s",
     "core.t1_detection.apply_candidates"),
    ("network.equivalence.check_equivalence_s",
     "network.equivalence.check_equivalence"),
    ("sfq.mapping.decompose_to_library_s",
     "sfq.mapping.decompose_to_library"),
    ("sfq.mapping.map_to_sfq_s", "sfq.mapping.map_to_sfq"),
    ("network.cleanup.strash_s", "network.cleanup.strash"),
    ("core.dff_insertion.insert_dffs_s", "core.dff_insertion.insert_dffs"),
    ("sfq.timing.assert_timing_s", "sfq.timing.assert_timing"),
    ("metrics.measure_s", "metrics.measure"),
)

#: tracer counters reported per unit of work
KERNEL_COUNTS = (
    "core.phase_assignment.moves_evaluated",
    "core.phase_assignment.moves_applied",
    "core.phase_assignment.sweeps_run",
    "network.cuts.cuts",
    "core.t1_detection.found",
    "core.t1_detection.used",
    "sfq.mapping.cells",
    "network.cleanup.gates_out",
    "core.dff_insertion.path_dffs",
    "core.dff_insertion.t1_stagger_dffs",
    "core.dff_insertion.po_balance_dffs",
)

SERVICE_COUNTS = (
    "service.cache.hit_ratio",
    "service.cache.duplicate_runs",
    "service.cache.expected_hits",
    "service.cache.observed_hits",
    "service.jobs.retries",
)


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _service_spans(tracer: Tracer, records: List[JobRecord]) -> Dict:
    """Median job latency; queue wait, run time, submit time and poll
    overshoot per job.

    Wait and run come from the job's own status stamps; jobs served
    from the cache never queue or run and are left out of those.
    """
    offset = time.perf_counter() - time.time()  # wall -> perf_counter
    wait, run, submit, overshoot = [], [], [], []
    for r in records:
        if r.submit_s:
            submit.append(r.submit_s)
        run_s = r.run_s()
        if run_s is None:
            continue
        st = r.status
        sub, start, fin = st["submitted_at"], st["started_at"], st["finished_at"]
        tracer.add_span("queue.wait", sub + offset, start + offset)
        tracer.add_span("queue.run", start + offset, fin + offset)
        wait.append(start - sub)
        run.append(run_s)
        overshoot.append(r.seen_done_at - fin)
    return {
        "service.job_p50_s": _median([r.latency for r in records]),
        "service.queue.wait_p50_s": _median(wait),
        "service.queue.wait_p95_s": percentile(wait, 0.95) if wait else 0.0,
        "service.queue.run_s": _median(run),
        "service.client.submit_s": _median(submit),
        "service.client.poll_overshoot_s": _median(overshoot),
    }


def layer_metrics(tracer: Tracer, traced: Outcome,
                  untraced: Optional[Outcome],
                  build_s: float) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric of a traced run, as ``name -> (value, unit)``.

    *untraced* is the same work with tracing off, interleaved with the
    traced runs; without it (``service_mix``) the overhead ratio is 0.
    """
    units = traced.traced_units or 1.0
    totals = tracer.totals()
    selfs = tracer.self_times()
    counters = tracer.counters
    out: Dict[str, Tuple[float, str]] = {}
    for metric, span in KERNEL_TIMES:
        out[metric] = (totals.get(span, 0.0) / units, "s")
    for name in KERNEL_COUNTS:
        out[name] = (counters.get(name, 0.0) / units, "count")
    moves = counters.get("core.phase_assignment.moves_evaluated", 0.0)
    heuristic = totals.get("core.phase_assignment.heuristic", 0.0)
    out["core.phase_assignment.us_per_move"] = (
        heuristic / moves * 1e6 if moves else 0.0, "us")
    cuts = counters.get("network.cuts.cuts", 0.0)
    out["core.t1_detection.found_per_kcut"] = (
        counters.get("core.t1_detection.found", 0.0) / cuts * 1000
        if cuts else 0.0, "1/kcut")
    flow = totals.get("flow", 0.0)
    out["pipeline.flow_s"] = (flow / units, "s")
    out["core.phase_assignment.flow_share"] = (
        heuristic / flow if flow else 0.0, "ratio")
    untraced_s = selfs.get("flow", 0.0)
    for name in PASSES:
        out[f"pipeline.{name}_s"] = (totals.get(f"pass.{name}", 0.0) / units,
                                     "s")
        out[f"pipeline.{name}_self_s"] = (
            selfs.get(f"pass.{name}", 0.0) / units, "s")
        untraced_s += selfs.get(f"pass.{name}", 0.0)
    out["pipeline.untraced_s"] = (untraced_s / units, "s")
    out["circuits.build_s"] = (build_s, "s")
    service = _service_spans(tracer, traced.extra.get("records", []))
    for name, value in service.items():
        out[name] = (value, "s")
    for name in SERVICE_COUNTS:
        unit = "ratio" if name.endswith("ratio") else "count"
        out[name] = (float(traced.extra.get(name, 0.0)), unit)
    out["trace.overhead_ratio"] = (
        traced.flow_s / untraced.flow_s if untraced and untraced.flow_s
        else 0.0, "ratio")
    return out
