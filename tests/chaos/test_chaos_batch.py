"""Chaos: journaled batch sweeps killed mid-flight and resumed.

``batch.abort`` fires in the collection loop *before* a fresh result
reaches the journal — the closest deterministic stand-in for a SIGKILL
landing between two checkpoints.  Resuming from the surviving journal
must reproduce the uninterrupted sweep exactly.  A worker process that
dies outright (``os._exit``) must end the batch with an error, not a
hang, and leave a journal that a resume completes.
"""

import os
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro import faults
from repro.circuits import ripple_carry_adder
from repro.errors import FaultInjected, PipelineError
from repro.io.json_report import strict_loads
from repro.pipeline import (
    BatchJournal,
    Pipeline,
    ResumedResult,
    run_many,
    run_table,
)

#: the seeded schedules to replay (CI pins one seed per matrix job)
CHAOS_SEEDS = [
    int(s)
    for s in os.environ.get("REPRO_CHAOS_SEEDS", "7,19").split(",")
    if s.strip()
]

TABLE_KWARGS = dict(benchmarks=["adder"], preset="ci", sweeps=2)


@dataclass
class DieOncePass:
    """Kill the worker process (no exception, no cleanup) the first time
    it sees the circuit called *victim*; the marker file makes the death
    a one-off, so a resumed sweep runs the circuit to completion."""

    victim: str
    marker: str
    name: str = "die_once"

    def run(self, ctx):
        if ctx.name == self.victim and not os.path.exists(self.marker):
            Path(self.marker).touch()
            os._exit(1)
        return ctx


def _semantics(result):
    """(dffs, area, depth) regardless of fresh-vs-resumed result type."""
    if isinstance(result, ResumedResult):
        return (result.num_dffs, result.area_jj, result.depth_cycles)
    return (
        result.num_dffs,
        result.metrics.area_jj,
        result.metrics.depth_cycles,
    )


def test_kill_mid_table_then_resume_is_identical(tmp_path):
    clean = run_table(**TABLE_KWARGS)
    path = tmp_path / "journal.jsonl"
    # the sweep is 3 flows; die right before the third hits the journal
    with faults.injected("batch.abort@nth=3"):
        with pytest.raises(FaultInjected, match="batch killed"):
            run_table(**TABLE_KWARGS, journal_path=path)
    lines = path.read_text().splitlines()
    assert len(lines) == 3  # header + the 2 flows that survived
    keys = [strict_loads(line)["key"] for line in lines[1:]]
    assert len(set(keys)) == len(keys)

    resumed = run_table(**TABLE_KWARGS, journal_path=path, resume=True)
    assert resumed.format() == clean.format()
    # and the journal now holds the full sweep, no duplicates
    keys = [
        strict_loads(line)["key"]
        for line in path.read_text().splitlines()[1:]
    ]
    assert len(keys) == 3
    assert len(set(keys)) == 3


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_randomized_kills_converge_to_identical_table(tmp_path, seed):
    """Keep killing the sweep at seeded random checkpoints; every resume
    picks up the surviving prefix, and the final table is bit-identical
    to an uninterrupted run."""
    clean = run_table(**TABLE_KWARGS)
    path = tmp_path / "journal.jsonl"
    kills = 0
    # one continuing plan across all attempts: the Bernoulli stream keeps
    # advancing between kills, and times=2 bounds the loop deterministically
    with faults.injected(f"seed={seed};batch.abort@p=0.5,times=2"):
        resume = False
        while True:
            try:
                table = run_table(
                    **TABLE_KWARGS, journal_path=path, resume=resume
                )
                break
            except FaultInjected:
                kills += 1
                assert kills <= 2
                resume = True
    assert table.format() == clean.format()


def test_kill_mid_parallel_run_many_then_resume(tmp_path):
    nets = [ripple_carry_adder(b) for b in (4, 6, 8)]
    pipe = Pipeline.standard(verify="none")
    clean = run_many(nets, pipeline=pipe)

    path = tmp_path / "journal.jsonl"
    with BatchJournal(path) as journal:
        with faults.injected("batch.abort@nth=2"):
            with pytest.raises(FaultInjected):
                run_many(nets, pipeline=pipe, jobs=2, journal=journal)
        assert journal.written_count == 1  # one checkpoint survived

    with BatchJournal(path, resume=True) as journal:
        results = run_many(nets, pipeline=pipe, jobs=2, journal=journal)
        assert journal.written_count == 2  # only the missing jobs ran

    assert [_semantics(r) for r in results] == [
        _semantics(c) for c in clean
    ]
    keys = [
        strict_loads(line)["key"]
        for line in path.read_text().splitlines()[1:]
    ]
    assert len(keys) == 3
    assert len(set(keys)) == 3


def test_dead_worker_fails_fast_then_resume_finishes(tmp_path):
    nets = [ripple_carry_adder(b) for b in (4, 6, 8)]
    victim = nets[1].name
    pipe = Pipeline.standard(verify="none")
    clean = run_many(nets, pipeline=pipe)
    dying = pipe.with_pass(
        DieOncePass(victim, str(tmp_path / "died")), before="decompose"
    )

    path = tmp_path / "journal.jsonl"
    with BatchJournal(path) as journal:
        t0 = time.monotonic()
        with pytest.raises(
            PipelineError, match=r"worker process died: job \d"
        ):
            run_many(nets, pipeline=dying, jobs=2, journal=journal)
        assert time.monotonic() - t0 < 30  # an error, not a hang
        survived = journal.written_count
    assert survived < len(nets)

    with BatchJournal(path, resume=True) as journal:
        results = run_many(nets, pipeline=dying, jobs=2, journal=journal)
        assert journal.written_count == len(nets) - survived

    assert [_semantics(r) for r in results] == [
        _semantics(c) for c in clean
    ]
