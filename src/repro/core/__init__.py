"""The paper's contribution: the three-stage T1-aware mapping flow.

The stage algorithms (detection, phase assignment, DFF insertion) and
the Table-I reporting live here; flow *orchestration* lives in
:mod:`repro.pipeline` (``Pipeline.standard(...).run(net)``).
"""

from repro.core.dff_insertion import (
    InsertionReport,
    T1InputPlan,
    insert_dffs,
    plan_t1_inputs,
    plan_t1_inputs_cp,
    t1_input_cost,
    t1_slot_cost,
)
from repro.core.phase_assignment import (
    HeuristicReport,
    assign_stages,
    assign_stages_heuristic,
    assign_stages_ilp,
    build_ilp_model,
    t1_lower_bound,
)
from repro.core.schedule import StageSchedule, asap_stages
from repro.core.report import (
    PAPER_AVERAGES,
    PAPER_TABLE1,
    Table,
    TableRow,
    fmt_thousands,
)
from repro.core.t1_detection import (
    DetectionResult,
    T1Candidate,
    apply_candidates,
    detect_and_replace,
    find_candidates,
    select_candidates,
)
from repro.core.t1_matching import (
    OutputMatch,
    T1_OUTPUTS,
    is_t1_implementable,
    match_t1_output,
    polarities_matching,
)

__all__ = [
    "DetectionResult",
    "HeuristicReport",
    "InsertionReport",
    "OutputMatch",
    "PAPER_AVERAGES",
    "PAPER_TABLE1",
    "StageSchedule",
    "T1Candidate",
    "T1InputPlan",
    "T1_OUTPUTS",
    "Table",
    "TableRow",
    "apply_candidates",
    "asap_stages",
    "assign_stages",
    "assign_stages_heuristic",
    "assign_stages_ilp",
    "build_ilp_model",
    "detect_and_replace",
    "find_candidates",
    "fmt_thousands",
    "insert_dffs",
    "is_t1_implementable",
    "match_t1_output",
    "plan_t1_inputs",
    "plan_t1_inputs_cp",
    "polarities_matching",
    "select_candidates",
    "t1_input_cost",
    "t1_lower_bound",
    "t1_slot_cost",
]
