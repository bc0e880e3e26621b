"""Edge cases of the streaming simulator: constants, PI phases, waves."""

import pytest

from repro.errors import SimulationError
from repro.network import Gate, LogicNetwork
from repro.pipeline import Pipeline
from repro.sfq import PulseSimulator, SFQNetlist
from repro.sfq.netlist import CellKind


def test_const_pos_stream():
    nl = SFQNetlist(n_phases=2)
    nl.add_pi()
    zero = nl.add_const(False)
    one = nl.add_const(True)
    nl.add_po((zero, "out"), "z")
    nl.add_po((one, "out"), "o")
    res = PulseSimulator(nl).run([[0], [1], [0]])
    assert res.po_values == [[0, 1], [0, 1], [0, 1]]


def test_pi_at_late_phase():
    nl = SFQNetlist(n_phases=4)
    a = nl.add_pi()
    nl.cells[a].stage = 3
    g = nl.add_gate(Gate.NOT, [(a, "out")])
    nl.cells[g].stage = 5
    nl.add_po((g, "out"))
    res = PulseSimulator(nl).run([[0], [1], [0], [1]])
    assert [v[0] for v in res.po_values] == [1, 0, 1, 0]


def test_empty_wave_list():
    nl = SFQNetlist(n_phases=2)
    nl.add_pi()
    res = PulseSimulator(nl).run([])
    assert res.po_values == []
    assert res.num_waves == 0


def test_pi_observed_directly():
    nl = SFQNetlist(n_phases=1)
    a = nl.add_pi()
    nl.add_po((a, "out"), "echo")
    res = PulseSimulator(nl).run([[1], [0], [1]])
    assert [v[0] for v in res.po_values] == [1, 0, 1]


def test_squarer_with_const_po_streams():
    """End-to-end: circuit with a genuinely constant PO streams fine."""
    from repro.circuits import squarer
    from repro.network import simulate_words

    net = squarer(4)
    res = Pipeline.standard(n_phases=4, use_t1=True, verify="none").run(net)
    waves = [[(v >> i) & 1 for i in range(4)] for v in range(10)]
    out = PulseSimulator(res.netlist).run(waves)
    for w, vec in enumerate(waves):
        assert out.po_values[w] == simulate_words(net, [vec])[0]


def test_back_to_back_runs_independent():
    """Simulator state must not leak between runs."""
    net = LogicNetwork()
    a, b, c = (net.add_pi() for _ in range(3))
    cell = net.add_t1_cell(a, b, c)
    net.add_po(net.add_t1_tap(cell, Gate.T1_S))
    res = Pipeline.standard(n_phases=4, use_t1=False, verify="none").run(net)
    sim = PulseSimulator(res.netlist)
    first = sim.run([[1, 1, 1]])
    second = sim.run([[1, 1, 1]])
    assert first.po_values == second.po_values == [[1]]


def test_dff_chain_delays_correctly():
    """A hand-built 2-DFF chain (n=1) delivers wave k at stage k+3."""
    nl = SFQNetlist(n_phases=1)
    a = nl.add_pi()
    d1 = nl.add_dff((a, "out"), stage=1)
    d2 = nl.add_dff((d1, "out"), stage=2)
    g = nl.add_gate(Gate.NOT, [(d2, "out")])
    nl.cells[g].stage = 3
    nl.add_po((g, "out"))
    res = PulseSimulator(nl).run([[1], [0], [1], [0]])
    assert [v[0] for v in res.po_values] == [0, 1, 0, 1]
    assert res.horizon == 3 * 1 + 3
