"""The pass-manager: compose, rearrange and run flow pipelines.

``Pipeline`` is an immutable sequence of :class:`~repro.pipeline.base.
Pass` objects with a fluent builder::

    pipe = (Pipeline.standard(n_phases=4, use_t1=True)
            .without("t1_detect")                       # baseline flow
            .replace("phase_assign", IlpPhasePass())    # exact assignment
            .with_pass(BalancePass(), after="decompose"))
    ctx = pipe.run(net)

Every builder method returns a **new** pipeline, so partially-built
pipelines can be shared and specialised freely.  ``run`` threads a
:class:`~repro.pipeline.context.FlowContext` through the passes,
recording per-pass wall-clock timings and firing the registered
``on_pass_start`` / ``on_pass_end`` hooks around each stage.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import PipelineError, ReproError
from repro.network.logic_network import LogicNetwork
from repro.pipeline.base import Pass
from repro.pipeline.context import FlowContext
from repro.pipeline.passes import (
    BalancePass,
    DecomposePass,
    DffInsertPass,
    IlpPhasePass,
    MapPass,
    PhaseAssignPass,
    SplitterPass,
    T1DetectPass,
    VerifyMetricsPass,
)
from repro.sfq.cell_library import CellLibrary

#: hook signatures: start(ctx, pass_), end(ctx, pass_, elapsed_seconds)
StartHook = Callable[[FlowContext, Pass], None]
EndHook = Callable[[FlowContext, Pass, float], None]


@dataclass(frozen=True)
class PipelineHooks:
    """One observer of pipeline execution; both callbacks are optional."""

    on_pass_start: Optional[StartHook] = None
    on_pass_end: Optional[EndHook] = None


class Pipeline:
    """An ordered, immutable sequence of passes plus run-time settings."""

    def __init__(
        self,
        passes: Sequence[Pass] = (),
        *,
        verify: str = "cec",
        library: Optional[CellLibrary] = None,
        hooks: Sequence[PipelineHooks] = (),
    ):
        self.passes: Tuple[Pass, ...] = tuple(passes)
        self.verify = verify
        self.library = library
        self.hooks: Tuple[PipelineHooks, ...] = tuple(hooks)
        seen = set()
        for p in self.passes:
            if p.name in seen:
                raise PipelineError(f"duplicate pass name {p.name!r}")
            seen.add(p.name)

    # -- construction -------------------------------------------------------

    @classmethod
    def standard(
        cls,
        n_phases: int = 4,
        use_t1: bool = True,
        *,
        balance_pos: bool = True,
        share_chains: bool = True,
        free_pi_phases: bool = True,
        materialize_splitters: bool = False,
        balance_network: bool = False,
        phase_method: str = "heuristic",
        sweeps: int = 4,
        cuts_per_node: int = 8,
        t1_min_outputs: int = 2,
        verify: str = "cec",
        library: Optional[CellLibrary] = None,
    ) -> "Pipeline":
        """The paper's flow as a pipeline.

        This signature is the single declaration of the flow's knobs and
        their defaults: the service config schema
        (:data:`repro.service.protocol.PIPELINE_DEFAULTS`) is derived
        from it.  The baselines are ``standard(n_phases=1, use_t1=False)``
        and ``standard(n_phases=4, use_t1=False)``.
        """
        if use_t1 and n_phases < 3:
            raise ReproError(
                "T1 staggering needs n_phases >= 3 (three distinct arrival "
                "slots inside one freshness window)"
            )
        passes: List[Pass] = [DecomposePass()]
        if balance_network:
            passes.append(BalancePass())
        if use_t1:
            passes.append(
                T1DetectPass(
                    cuts_per_node=cuts_per_node, min_outputs=t1_min_outputs
                )
            )
        passes.append(MapPass(n_phases=n_phases))
        passes.append(
            PhaseAssignPass(
                method=phase_method,
                sweeps=sweeps,
                balance_pos=balance_pos,
                free_pi_phases=free_pi_phases,
            )
        )
        passes.append(
            DffInsertPass(balance_pos=balance_pos, share_chains=share_chains)
        )
        if materialize_splitters:
            passes.append(SplitterPass())
        passes.append(VerifyMetricsPass())
        return cls(passes, verify=verify, library=library)

    # -- fluent builder (each method returns a new Pipeline) ----------------

    def _rebuild(self, passes: Sequence[Pass]) -> "Pipeline":
        return Pipeline(
            passes, verify=self.verify, library=self.library, hooks=self.hooks
        )

    def names(self) -> List[str]:
        """The pass names in execution order."""
        return [p.name for p in self.passes]

    def _index_of(self, name: str) -> int:
        for i, p in enumerate(self.passes):
            if p.name == name:
                return i
        raise PipelineError(
            f"no pass named {name!r} in pipeline {self.names()}"
        )

    def with_pass(
        self,
        new: Pass,
        *,
        before: Optional[str] = None,
        after: Optional[str] = None,
    ) -> "Pipeline":
        """Insert *new* (default: append; or anchored before/after a name)."""
        if before is not None and after is not None:
            raise PipelineError("give at most one of before= / after=")
        if before is not None:
            at = self._index_of(before)
        elif after is not None:
            at = self._index_of(after) + 1
        else:
            at = len(self.passes)
        passes = list(self.passes)
        passes.insert(at, new)
        return self._rebuild(passes)

    def without(self, name: str) -> "Pipeline":
        """Remove the pass called *name*."""
        at = self._index_of(name)
        passes = list(self.passes)
        del passes[at]
        return self._rebuild(passes)

    def replace(self, name: str, new: Pass) -> "Pipeline":
        """Swap the pass called *name* for *new* (same position)."""
        at = self._index_of(name)
        passes = list(self.passes)
        passes[at] = new
        return self._rebuild(passes)

    def with_verify(self, verify: str) -> "Pipeline":
        """Set the verification mode ("none" | "cec" | "full")."""
        return Pipeline(
            self.passes, verify=verify, library=self.library, hooks=self.hooks
        )

    def with_library(self, library: Optional[CellLibrary]) -> "Pipeline":
        """Set the cell library used by every pass."""
        return Pipeline(
            self.passes, verify=self.verify, library=library, hooks=self.hooks
        )

    def with_hooks(
        self,
        on_pass_start: Optional[StartHook] = None,
        on_pass_end: Optional[EndHook] = None,
    ) -> "Pipeline":
        """Register an observer fired around every pass."""
        hooks = self.hooks + (
            PipelineHooks(on_pass_start=on_pass_start, on_pass_end=on_pass_end),
        )
        return Pipeline(
            self.passes, verify=self.verify, library=self.library, hooks=hooks
        )

    def without_hooks(self) -> "Pipeline":
        """Drop all hooks (used before shipping to worker processes)."""
        return Pipeline(self.passes, verify=self.verify, library=self.library)

    # -- execution ----------------------------------------------------------

    def run(self, net: LogicNetwork, name: Optional[str] = None) -> FlowContext:
        """Run every pass over *net*; returns the final context."""
        ctx = FlowContext(
            source=net,
            name=name or net.name,
            verify=self.verify,
            **({"library": self.library} if self.library is not None else {}),
        )
        t0 = time.perf_counter()
        for p in self.passes:
            for h in self.hooks:
                if h.on_pass_start is not None:
                    h.on_pass_start(ctx, p)
            tp = time.perf_counter()
            ctx = p.run(ctx) or ctx
            elapsed = time.perf_counter() - tp
            ctx.timings[p.name] = ctx.timings.get(p.name, 0.0) + elapsed
            for h in self.hooks:
                if h.on_pass_end is not None:
                    h.on_pass_end(ctx, p, elapsed)
        ctx.runtime_s = time.perf_counter() - t0
        return ctx

    def __repr__(self) -> str:  # pragma: no cover
        return f"Pipeline({' -> '.join(self.names())}, verify={self.verify!r})"
