"""The shared state threaded through a pipeline run.

A :class:`FlowContext` carries every evolving artefact of the flow — the
working logic network, the mapped SFQ netlist, the detection / insertion
reports, metrics, per-pass timings and a free-form event log — so that
passes stay decoupled: each one reads the fields it needs and writes the
fields it produces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.metrics import NetlistMetrics
from repro.network.logic_network import LogicNetwork
from repro.sfq.cell_library import CellLibrary, default_library
from repro.sfq.netlist import SFQNetlist

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.dff_insertion import InsertionReport
    from repro.core.t1_detection import DetectionResult


@dataclass
class FlowContext:
    """Everything a pipeline run has produced so far.

    ``source`` is the untouched input network; ``network`` is the working
    copy that passes rewrite (decomposition, T1 substitution, ...).  The
    remaining artefact fields start empty and are filled in by the pass
    that owns them.
    """

    source: LogicNetwork
    name: str
    library: CellLibrary = field(default_factory=default_library)
    verify: str = "cec"  # "none" | "cec" | "full"

    # -- evolving artefacts -------------------------------------------------
    network: Optional[LogicNetwork] = None
    netlist: Optional[SFQNetlist] = None
    n_phases: int = 0  # set by the mapping pass
    detection: Optional["DetectionResult"] = None
    insertion: Optional["InsertionReport"] = None
    metrics: Optional[NetlistMetrics] = None
    verified: Optional[bool] = None
    t1_found: int = 0
    t1_used: int = 0

    # -- bookkeeping --------------------------------------------------------
    timings: Dict[str, float] = field(default_factory=dict)
    events: List[str] = field(default_factory=list)
    extras: Dict[str, Any] = field(default_factory=dict)
    runtime_s: float = 0.0

    def __post_init__(self) -> None:
        if self.network is None:
            self.network = self.source

    def log(self, message: str) -> None:
        """Append one line to the run's event log."""
        self.events.append(message)

    # -- metric conveniences (the attributes TableRow.from_results reads) ---

    @property
    def num_dffs(self) -> int:
        self._require_metrics()
        return self.metrics.num_dffs

    @property
    def area_jj(self) -> int:
        self._require_metrics()
        return self.metrics.area_jj

    @property
    def depth_cycles(self) -> int:
        self._require_metrics()
        return self.metrics.depth_cycles

    def _require_metrics(self) -> None:
        if self.metrics is None:
            from repro.errors import PipelineError

            raise PipelineError(
                "metrics not computed yet — did the pipeline include the "
                "'verify_metrics' pass?"
            )
