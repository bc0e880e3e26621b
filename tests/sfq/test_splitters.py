"""Tests for physical splitter-tree materialisation."""

import random

import pytest

from repro.circuits import ripple_carry_adder
from repro.errors import NetworkError
from repro.metrics import area_jj, measure
from repro.network import Gate
from repro.network.simulation import simulate_words
from repro.pipeline import Pipeline
from repro.sfq import PulseSimulator, SFQNetlist, check_timing
from repro.sfq.netlist import CellKind
from repro.sfq.splitters import (
    materialize_splitters,
    resolve_clocked_driver,
    splitter_count,
)


def t1_flow_netlist(bits=6):
    net = ripple_carry_adder(bits)
    res = Pipeline.standard(n_phases=4, use_t1=True, verify="none").run(net)
    return net, res.netlist


class TestMaterialise:
    def test_count_matches_formula(self):
        _, nl = t1_flow_netlist()
        expected = measure(nl).num_splitters  # combinatorial f-1 count
        report = materialize_splitters(nl)
        assert report.splitters_added == expected
        assert splitter_count(nl) == expected

    def test_every_signal_single_consumer_after(self):
        _, nl = t1_flow_netlist()
        materialize_splitters(nl)
        from collections import Counter

        usage = Counter()
        for cell in nl.cells:
            for sig in cell.fanins:
                usage[sig] += 1
        for sig, _name in nl.pos:
            usage[sig] += 1
        assert all(count == 1 for count in usage.values()), usage.most_common(3)

    def test_area_unchanged(self):
        _, nl = t1_flow_netlist()
        before = area_jj(nl)
        materialize_splitters(nl)
        assert area_jj(nl) == before

    def test_timing_still_clean(self):
        _, nl = t1_flow_netlist()
        materialize_splitters(nl)
        assert check_timing(nl).ok

    def test_streaming_unchanged(self):
        net, nl = t1_flow_netlist(5)
        rng = random.Random(1)
        waves = [[rng.randint(0, 1) for _ in net.pis] for _ in range(8)]
        before = PulseSimulator(nl).run(waves).po_values
        materialize_splitters(nl)
        after = PulseSimulator(nl).run(waves).po_values
        assert before == after
        for w, vec in enumerate(waves):
            assert after[w] == simulate_words(net, [vec])[0]

    def test_double_materialise_rejected(self):
        _, nl = t1_flow_netlist(3)
        materialize_splitters(nl)
        with pytest.raises(NetworkError):
            materialize_splitters(nl)

    def test_tree_is_balanced(self):
        # a 1-to-8 fanout should have depth 3, not 7
        nl = SFQNetlist(n_phases=1)
        a = nl.add_pi()
        gates = [nl.add_gate(Gate.NOT, [(a, "out")]) for _ in range(8)]
        for g in gates:
            nl.cells[g].stage = 1
            nl.add_po((g, "out"))
        report = materialize_splitters(nl)
        assert report.splitters_added == 7
        assert report.max_tree_depth == 3

    def test_resolve_clocked_driver(self):
        nl = SFQNetlist(n_phases=1)
        a = nl.add_pi()
        g1 = nl.add_gate(Gate.NOT, [(a, "out")])
        g2 = nl.add_gate(Gate.NOT, [(a, "out")])
        nl.cells[g1].stage = nl.cells[g2].stage = 1
        nl.add_po((g1, "out"))
        nl.add_po((g2, "out"))
        materialize_splitters(nl)
        for cell in nl.cells:
            if cell.kind is CellKind.GATE:
                src = resolve_clocked_driver(nl, cell.fanins[0])
                assert src == (a, "out")


class TestFlowIntegration:
    def test_flow_option(self):
        net = ripple_carry_adder(5)
        res = Pipeline.standard(
            n_phases=4, use_t1=True, verify="none", materialize_splitters=True
        ).run(net)
        assert splitter_count(res.netlist) == res.metrics.num_splitters
        assert check_timing(res.netlist).ok

    def test_metrics_identical_with_and_without(self):
        net = ripple_carry_adder(5)
        plain = Pipeline.standard(verify="none").run(net)
        phys = Pipeline.standard(
            verify="none", materialize_splitters=True
        ).run(net)
        assert plain.area_jj == phys.area_jj
        assert plain.num_dffs == phys.num_dffs
        assert plain.metrics.num_splitters == phys.metrics.num_splitters
