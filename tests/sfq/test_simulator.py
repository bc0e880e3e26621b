"""Tests for the pulse-level streaming simulator."""

import random

import pytest

from repro.errors import HazardError, SimulationError, TimingError
from repro.network import Gate, LogicNetwork
from repro.network.simulation import simulate_words
from repro.pipeline import Pipeline
from repro.sfq import PulseSimulator, SFQNetlist, map_to_sfq, stream_compare
from repro.core.phase_assignment import assign_stages
from repro.core.dff_insertion import insert_dffs


def pipeline_of(net: LogicNetwork, n_phases: int) -> SFQNetlist:
    nl, _ = map_to_sfq(net, n_phases=n_phases)
    assign_stages(nl, method="heuristic")
    insert_dffs(nl)
    return nl


def small_circuit():
    net = LogicNetwork()
    a, b, c = (net.add_pi(x) for x in "abc")
    g1 = net.add_and(a, b)
    g2 = net.add_xor(g1, c)
    g3 = net.add_or(g1, g2)
    net.add_po(g2, "y0")
    net.add_po(g3, "y1")
    return net


@pytest.mark.parametrize("n", [1, 2, 4])
def test_streaming_matches_logic(n):
    net = small_circuit()
    nl = pipeline_of(net, n)
    rng = random.Random(n)
    waves = [[rng.randint(0, 1) for _ in net.pis] for _ in range(16)]

    def golden(row):
        return simulate_words(net, [list(row)])[0]

    result = stream_compare(nl, golden, waves)
    assert result.num_waves == 16


def test_full_throughput_one_wave_per_cycle():
    """Every wave gets an independent answer (gate-level pipelining)."""
    net = small_circuit()
    nl = pipeline_of(net, 4)
    # alternating all-ones / all-zeros: results must alternate too
    waves = [[1, 1, 1], [0, 0, 0]] * 8
    sim = PulseSimulator(nl)
    res = sim.run(waves)
    for w, vec in enumerate(waves):
        expect = simulate_words(net, [vec])[0]
        assert res.po_values[w] == expect


def test_t1_cell_streams_correctly():
    net = LogicNetwork()
    a, b, c = (net.add_pi(x) for x in "abc")
    cell = net.add_t1_cell(a, b, c)
    net.add_po(net.add_t1_tap(cell, Gate.T1_S), "s")
    net.add_po(net.add_t1_tap(cell, Gate.T1_C), "c")
    nl = pipeline_of(net, 4)
    waves = [
        [a_, b_, c_] for a_ in (0, 1) for b_ in (0, 1) for c_ in (0, 1)
    ]
    res = PulseSimulator(nl).run(waves)
    for w, (a_, b_, c_) in enumerate(waves):
        total = a_ + b_ + c_
        assert res.po_values[w] == [total % 2, 1 if total >= 2 else 0]


def test_hazard_detected_on_gap_over_n():
    nl = SFQNetlist(n_phases=2)
    a = nl.add_pi()
    g1 = nl.add_gate(Gate.NOT, [(a, "out")])
    nl.cells[g1].stage = 1
    g2 = nl.add_gate(Gate.NOT, [(g1, "out")])
    nl.cells[g2].stage = 6  # gap 5 > n=2: wave overlap
    nl.add_po((g2, "out"))
    sim = PulseSimulator(nl)
    with pytest.raises((HazardError, TimingError)):
        # input 0 -> the first NOT pulses every wave; those pulses pile up
        # in the second NOT's loop across clock windows
        sim.run([[0], [0], [0], [0]])


def test_missing_stage_rejected():
    nl = SFQNetlist(n_phases=2)
    a = nl.add_pi()
    nl.add_gate(Gate.NOT, [(a, "out")])
    with pytest.raises(SimulationError):
        PulseSimulator(nl)


def test_wrong_wave_width_rejected():
    net = small_circuit()
    nl = pipeline_of(net, 2)
    with pytest.raises(SimulationError):
        PulseSimulator(nl).run([[1, 0]])


def test_latency_horizon():
    net = small_circuit()
    nl = pipeline_of(net, 4)
    res = PulseSimulator(nl).run([[1, 1, 1]])
    assert res.horizon >= nl.max_stage()


def test_stream_compare_reports_mismatch():
    net = small_circuit()
    nl = pipeline_of(net, 4)

    def wrong_golden(row):
        out = simulate_words(net, [list(row)])[0]
        return [1 - out[0]] + out[1:]

    with pytest.raises(SimulationError):
        stream_compare(nl, wrong_golden, [[1, 0, 1]])


def test_flow_full_verification_end_to_end():
    """The flow's verify='full' path: mapped T1 pipeline vs logic model."""
    from repro.circuits import ripple_carry_adder

    net = ripple_carry_adder(6)
    res = Pipeline.standard(n_phases=4, use_t1=True, verify="full").run(net)
    assert res.verified is True
    assert res.t1_used >= 4
