"""Multi-circuit batch execution: ``run_many`` and the Table-I driver.

``run_many`` fans a list of (network, pipeline) jobs over a process
pool (``concurrent.futures``) and returns the finished contexts in
submission order; results are deterministic and independent of
``jobs``.  A worker process that dies mid-job ends the batch with a
:class:`~repro.errors.PipelineError` naming the lost job instead of
hanging.  It powers ``repro-flow table --jobs N`` and the benchmark
harnesses.

Crash-safe checkpointing: pass ``journal=BatchJournal(path)`` and every
finished job is durably appended (flush + fsync) before the next result
is collected; a resumed journal (``BatchJournal(path, resume=True)``)
skips already-completed jobs and replays their stored reports
bit-identically as :class:`ResumedResult` entries.  ``repro-flow table
--journal PATH --resume`` drives this from the CLI.

The ``batch.abort`` fault point (see :mod:`repro.faults`) kills the
collection loop between two results — a deterministic stand-in for a
mid-sweep SIGKILL that the resume tests replay under seeds.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro import faults
from repro.errors import PipelineError
from repro.network.logic_network import LogicNetwork
from repro.pipeline.context import FlowContext
from repro.pipeline.journal import BatchJournal
from repro.pipeline.pipeline import Pipeline

#: one unit of work: a bare network (paired with the shared pipeline
#: argument of :func:`run_many`) or an explicit (network, pipeline) pair
WorkItem = Union[LogicNetwork, Tuple[LogicNetwork, Pipeline]]

#: the three Table-I columns, in paper order
BASELINE_LABELS = ("1phi", "nphi", "t1")


@dataclass
class ResumedResult:
    """A journal-replayed batch result: the stored flow report, verbatim.

    Stands in for a :class:`FlowContext` in ``run_many`` output when the
    job was completed by an earlier (crashed or killed) run.  Exposes
    the metric attributes the table builder reads, backed by the
    journaled report, so resumed and fresh results mix transparently.
    """

    key: str
    report: Dict[str, Any]

    @property
    def metrics_dict(self) -> Dict[str, Any]:
        metrics = self.report.get("metrics")
        if not isinstance(metrics, dict):
            raise PipelineError(
                f"journaled result {self.key!r} carries no metrics"
            )
        return metrics

    @property
    def num_dffs(self) -> int:
        return self.metrics_dict["dffs"]

    @property
    def area_jj(self) -> int:
        return self.metrics_dict["area_jj"]

    @property
    def depth_cycles(self) -> int:
        return self.metrics_dict["depth_cycles"]

    @property
    def t1_found(self) -> int:
        return self.report["t1"]["found"]

    @property
    def t1_used(self) -> int:
        return self.report["t1"]["used"]


def pipeline_fingerprint(pipeline: Pipeline) -> str:
    """Content fingerprint of a pipeline's passes and settings.

    Built from the deterministic dataclass reprs of the passes, so two
    processes constructing the same flow agree on the fingerprint (the
    property journal resume depends on).  Custom passes holding objects
    with address-bearing reprs fingerprint uniquely per process — their
    jobs are then conservatively re-run instead of resumed.  A custom
    cell library contributes its cost table; the default library (no
    ``library`` set) adds nothing, so default-flow fingerprints do not
    depend on it.
    """
    text = ";".join(repr(p) for p in pipeline.passes)
    text += f"|verify={pipeline.verify}"
    if pipeline.library is not None:
        text += f"|library={pipeline.library!r}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _job_key(index: int, net: LogicNetwork, pipeline: Pipeline) -> str:
    return f"{index}:{net.structural_hash()}:{pipeline_fingerprint(pipeline)}"


def _normalize(
    circuits: Sequence[WorkItem], pipeline: Optional[Pipeline]
) -> List[Tuple[LogicNetwork, Pipeline]]:
    jobs: List[Tuple[LogicNetwork, Pipeline]] = []
    for item in circuits:
        if isinstance(item, tuple):
            net, pipe = item
        else:
            net, pipe = item, pipeline
        if pipe is None:
            raise PipelineError(
                "run_many needs a pipeline: pass pipeline= or submit "
                "(network, pipeline) pairs"
            )
        jobs.append((net, pipe))
    return jobs


def warm_worker() -> None:
    """Pre-warm the per-process lookup tables the flow relies on.

    The k<=3 NPN canonisation tables and the complete T1 inverse match
    table are lazy module-level caches: a cold worker process rebuilds
    them on its first mapped circuit.  Passing this as the pool
    *initializer* moves that cost to worker startup, where it is paid
    once and off the critical path of the first job.  Shared by the
    ``run_many`` pool and the service daemon's warm worker pool.
    """
    from repro.core.t1_matching import t1_match_table
    from repro.network.npn import warm_tables

    warm_tables(max_k=3)
    t1_match_table()


def _run_job(job: Tuple[LogicNetwork, Pipeline]) -> FlowContext:
    net, pipe = job
    return pipe.run(net)


def _context_report(ctx: FlowContext) -> Dict[str, Any]:
    """The journal-stored record of one finished context."""
    from repro.service.protocol import flow_report

    return flow_report(ctx)


def run_many(
    circuits: Sequence[WorkItem],
    pipeline: Optional[Pipeline] = None,
    jobs: int = 1,
    on_result: Optional[Callable[[int, object], None]] = None,
    journal: Optional[BatchJournal] = None,
) -> List[FlowContext]:
    """Run pipelines over many circuits, optionally in parallel.

    *circuits* mixes bare networks (run with the shared *pipeline*) and
    explicit ``(network, pipeline)`` pairs.  ``jobs > 1`` executes on a
    process pool; hooks are dropped in workers (callbacks cannot cross
    process boundaries) and the returned contexts arrive in submission
    order regardless of completion order.  *on_result* fires in the main
    process, in submission order, as each context becomes available —
    use it for streaming progress output.

    With a *journal*, every finished job is durably recorded before the
    next result is collected, jobs the journal already holds are not
    re-run (their stored reports come back as :class:`ResumedResult`
    entries, bit-identical to the original run), and *on_result* fires
    for resumed entries too.
    """
    work = _normalize(circuits, pipeline)

    keys: List[str] = []
    resumed: Dict[int, ResumedResult] = {}
    to_run = list(enumerate(work))
    if journal is not None:
        keys = [_job_key(i, net, pipe) for i, (net, pipe) in enumerate(work)]
        for i in range(len(work)):
            report = journal.completed(keys[i])
            if report is not None:
                resumed[i] = ResumedResult(keys[i], report)
        to_run = [(i, job) for i, job in enumerate(work) if i not in resumed]

    def _collect(fresh_results) -> List[FlowContext]:
        out: List[FlowContext] = []
        fresh_pairs = zip((i for i, _ in to_run), fresh_results)
        for i in range(len(work)):
            if i in resumed:
                result: object = resumed[i]
            else:
                j, result = next(fresh_pairs)
                assert j == i  # both streams are in submission order
                faults.fire(
                    "batch.abort",
                    f"batch killed before job {i} reached the journal",
                )
                if journal is not None:
                    journal.record(keys[i], _context_report(result))
            out.append(result)  # type: ignore[arg-type]
            if on_result is not None:
                on_result(i, result)
        return out

    if jobs <= 1 or len(to_run) <= 1:
        return _collect(_run_job(job) for _, job in to_run)

    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    stripped = [(net, pipe.without_hooks()) for _, (net, pipe) in to_run]

    def _guarded(results):
        for i, _ in to_run:
            try:
                yield next(results)
            except BrokenProcessPool as exc:
                raise PipelineError(
                    f"a worker process died: job {i} ({work[i][0].name!r}) "
                    "and every later unfinished job were lost"
                ) from exc

    pool = ProcessPoolExecutor(
        max_workers=min(jobs, len(stripped)), initializer=warm_worker
    )
    try:
        return _collect(_guarded(pool.map(_run_job, stripped)))
    finally:
        pool.shutdown(cancel_futures=True)


def baseline_pipelines(
    n_phases: int = 4,
    verify: str = "none",
    sweeps: int = 4,
    library=None,
) -> dict:
    """The paper's three flows (1φ, nφ, nφ + T1) keyed by column label."""
    common = dict(verify=verify, sweeps=sweeps, library=library)
    return {
        "1phi": Pipeline.standard(n_phases=1, use_t1=False, **common),
        "nphi": Pipeline.standard(n_phases=n_phases, use_t1=False, **common),
        "t1": Pipeline.standard(n_phases=n_phases, use_t1=True, **common),
    }


def run_table(
    benchmarks: Optional[Sequence[str]] = None,
    preset: str = "paper",
    n_phases: int = 4,
    verify: str = "none",
    sweeps: int = 4,
    jobs: int = 1,
    library=None,
    progress: Optional[Callable[[str], None]] = None,
    loader: Optional[Callable[[str], LogicNetwork]] = None,
    journal_path=None,
    resume: bool = False,
):
    """Reproduce Table I: every benchmark through the three flows.

    Returns a :class:`~repro.core.report.Table`.  ``jobs > 1`` spreads
    the ``3 × len(benchmarks)`` flow runs over a process pool; the result
    is identical to serial execution.  *progress* fires with each
    benchmark name as its last flow finishes (streamed, not batched at
    the end).  *loader* maps a benchmark name to a network; it defaults
    to the registry (``build(name, preset)``) — pass a custom one to run
    the table over external netlist files.

    *journal_path* checkpoints every finished flow run to an append-only
    journal; with ``resume=True`` a sweep killed mid-run restarts from
    the journal, re-executing only the unfinished flows and replaying
    the completed ones bit-identically.  The journal header pins the
    sweep configuration — resuming with different benchmarks, preset or
    flow settings is an error.
    """
    from repro.circuits import TABLE1_ORDER, build
    from repro.core.report import Table, TableRow

    names = list(benchmarks) if benchmarks else list(TABLE1_ORDER)
    if loader is None:
        loader = lambda name: build(name, preset)  # noqa: E731
    pipes = baseline_pipelines(
        n_phases=n_phases, verify=verify, sweeps=sweeps, library=library
    )
    # Each network appears once per label; the final contexts hold every
    # source network alive anyway (ctx.source), so building them up front
    # costs no extra peak memory over lazy construction.
    work: List[Tuple[LogicNetwork, Pipeline]] = []
    for name in names:
        net = loader(name)
        for label in BASELINE_LABELS:
            work.append((net, pipes[label]))

    per_bench = len(BASELINE_LABELS)

    def _on_result(i: int, _ctx: object) -> None:
        if progress is not None and i % per_bench == per_bench - 1:
            progress(names[i // per_bench])

    journal = None
    if journal_path is not None:
        meta = {
            "table": "table1",
            "benchmarks": names,
            "preset": preset,
            "n_phases": n_phases,
            "verify": verify,
            "sweeps": sweeps,
        }
        journal = BatchJournal(journal_path, meta=meta, resume=resume)
    try:
        contexts = run_many(
            work, jobs=jobs, on_result=_on_result, journal=journal
        )
    finally:
        if journal is not None:
            journal.close()

    rows: List[TableRow] = []
    for i, name in enumerate(names):
        chunk = contexts[per_bench * i : per_bench * (i + 1)]
        rows.append(
            TableRow.from_results(name, dict(zip(BASELINE_LABELS, chunk)))
        )
    return Table(rows, n_phases=n_phases)
