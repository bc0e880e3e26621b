"""repro.pipeline — the composable pass-manager flow API.

Every flow is a pipeline of passes; ``Pipeline.standard`` builds the
paper's flow and is the one place its knobs and defaults are declared::

    from repro.circuits import build
    from repro.pipeline import Pipeline

    ctx = Pipeline.standard(n_phases=4, use_t1=True).run(build("adder", "ci"))
    print(ctx.metrics.area_jj, ctx.timings)

* :class:`~repro.pipeline.base.Pass` — the stage protocol (name +
  ``run(ctx) -> ctx``);
* :class:`~repro.pipeline.context.FlowContext` — the shared state passes
  read and write (networks, netlist, reports, metrics, timings, events);
* :class:`~repro.pipeline.pipeline.Pipeline` — the immutable composer
  with the fluent builder (``with_pass`` / ``without`` / ``replace`` /
  ``with_hooks``);
* :mod:`~repro.pipeline.passes` — the six flow stages as individual
  passes, plus the optional balance / splitter extras;
* :func:`~repro.pipeline.batch.run_many` — the process-pool batch
  executor behind ``repro-flow table --jobs N`` and the benchmarks.
"""

from repro.pipeline.base import Pass
from repro.pipeline.batch import (
    ResumedResult,
    baseline_pipelines,
    pipeline_fingerprint,
    run_many,
    run_table,
    warm_worker,
)
from repro.pipeline.context import FlowContext
from repro.pipeline.journal import BatchJournal
from repro.pipeline.passes import (
    BalancePass,
    DecomposePass,
    DffInsertPass,
    IlpPhasePass,
    MapPass,
    PhaseAssignPass,
    RefactorPass,
    SplitterPass,
    T1DetectPass,
    VerifyMetricsPass,
)
from repro.pipeline.pipeline import Pipeline, PipelineHooks

__all__ = [
    "BalancePass",
    "BatchJournal",
    "DecomposePass",
    "DffInsertPass",
    "FlowContext",
    "IlpPhasePass",
    "MapPass",
    "Pass",
    "PhaseAssignPass",
    "Pipeline",
    "PipelineHooks",
    "RefactorPass",
    "ResumedResult",
    "SplitterPass",
    "T1DetectPass",
    "VerifyMetricsPass",
    "baseline_pipelines",
    "pipeline_fingerprint",
    "run_many",
    "run_table",
    "warm_worker",
]
