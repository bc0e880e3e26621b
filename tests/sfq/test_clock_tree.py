"""Tests for the clock distribution network model."""

import math

import pytest

from repro.circuits import ripple_carry_adder
from repro.pipeline import Pipeline
from repro.sfq.clock_tree import (
    clock_overhead_ratio,
    plan_clock_network,
    total_area_with_clock,
)
from repro.metrics import area_jj


def staged_netlist(n=4, bits=8, use_t1=False):
    return Pipeline.standard(
        n_phases=n, use_t1=use_t1, verify="none"
    ).run(ripple_carry_adder(bits)).netlist


class TestPlan:
    def test_every_clocked_cell_is_a_sink(self):
        nl = staged_netlist()
        plan = plan_clock_network(nl)
        clocked = sum(1 for c in nl.cells if c.clocked)
        assert plan.total_sinks == clocked

    def test_one_tree_per_phase(self):
        nl = staged_netlist(n=4)
        plan = plan_clock_network(nl)
        assert plan.n_phases == 4
        assert len(plan.trees) == 4
        assert sorted(t.phase for t in plan.trees) == [0, 1, 2, 3]

    def test_splitters_are_sinks_minus_one(self):
        nl = staged_netlist()
        for tree in plan_clock_network(nl).trees:
            assert tree.splitters == max(0, tree.sinks - 1)

    def test_depth_logarithmic(self):
        nl = staged_netlist()
        for tree in plan_clock_network(nl).trees:
            if tree.sinks > 1:
                assert tree.depth == math.ceil(math.log2(tree.sinks))

    def test_single_phase_one_tree(self):
        nl = staged_netlist(n=1)
        plan = plan_clock_network(nl)
        assert len(plan.trees) == 1
        assert plan.trees[0].sinks == plan.total_sinks

    def test_t1_cells_are_sinks(self):
        nl = staged_netlist(use_t1=True)
        plan = plan_clock_network(nl)
        clocked = sum(1 for c in nl.cells if c.clocked)
        assert plan.total_sinks == clocked
        assert any(c.kind.name == "T1" for c in nl.cells)


class TestAreas:
    def test_total_area_adds_clock(self):
        nl = staged_netlist()
        plan = plan_clock_network(nl)
        assert total_area_with_clock(nl) == area_jj(nl) + plan.area_jj()

    def test_overhead_ratio_in_unit_interval(self):
        nl = staged_netlist()
        r = clock_overhead_ratio(nl)
        assert 0.0 < r < 1.0

    def test_t1_reduces_logic_clock_sinks(self):
        """One T1 cell replaces two clocked gates, so the *logic* share of
        clock sinks shrinks (total sinks may still grow via staggering
        DFFs — they are counted too)."""

        def logic_sinks(nl):
            return sum(
                1 for c in nl.cells if c.clocked and c.kind.name in ("GATE", "T1")
            )

        base = staged_netlist(use_t1=False)
        t1 = staged_netlist(use_t1=True)
        assert logic_sinks(t1) < logic_sinks(base)
        # and DFF sinks are included in the plan's total
        plan = plan_clock_network(t1)
        assert plan.total_sinks == sum(1 for c in t1.cells if c.clocked)

    def test_summary(self):
        nl = staged_netlist()
        text = plan_clock_network(nl).summary()
        assert "clock network" in text
        assert "φ0" in text
