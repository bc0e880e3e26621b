"""Fig. 1 regeneration harness (experiment ids: F1b, F1c).

* F1b — the pulse-level T1 cell simulation: replays the figure's exact
  stimulus (cycles carrying a; a,b; a,b,c) and asserts the S/C*/Q*
  responses the figure shows.
* F1c — the T1 full adder with staggered input phases φ0..φ2: maps the
  1-bit full adder onto one T1 cell, checks the eq.-5 arrival slots and
  streams all operand combinations through the pipeline simulator.
"""

import itertools

import pytest

from repro.network import LogicNetwork
from repro.pipeline import Pipeline
from repro.sfq import PulseSimulator, simulate_pulse_train, waveform_ascii

FIG1B_STIMULUS = [
    (0, "T"), (3, "R"),                        # cycle 1: a
    (4, "T"), (5, "T"), (7, "R"),              # cycle 2: a, b
    (8, "T"), (9, "T"), (10, "T"), (11, "R"),  # cycle 3: a, b, c
]


def test_fig1b_waveform(benchmark):
    benchmark.group = "fig1"
    history = benchmark(simulate_pulse_train, FIG1B_STIMULUS)
    by_port = {}
    for e in history:
        by_port.setdefault(e.port, []).append(e.time)
    # figure semantics: S on readouts with odd pulse count
    assert by_port["S"] == [3, 11]
    # C* on every second toggle
    assert by_port["C*"] == [5, 9]
    # Q* on every 0->1 toggle
    assert by_port["Q*"] == [0, 4, 8, 10]
    benchmark.extra_info["waveform"] = waveform_ascii(history)


def _fig1c_flow():
    net = LogicNetwork("fa")
    a, b, c = (net.add_pi(x) for x in "abc")
    net.add_po(net.add_xor(a, b, c), "sum")
    net.add_po(net.add_maj3(a, b, c), "carry")
    return Pipeline.standard(n_phases=4, use_t1=True, verify="none").run(net)


def test_fig1c_full_adder(benchmark):
    benchmark.group = "fig1"
    res = benchmark.pedantic(_fig1c_flow, rounds=1, iterations=1)
    # exactly one T1 cell implements the adder
    assert res.t1_used == 1
    t1 = next(res.netlist.t1_cells())
    # eq. 5 / Fig. 1c: the three inputs arrive at pairwise distinct phases
    arrivals = [res.netlist.driver_cell(s).stage for s in t1.fanins]
    assert len(set(arrivals)) == 3
    assert all(t1.stage - 4 <= s <= t1.stage - 1 for s in arrivals)
    # stream every operand combination: one full addition per clock cycle
    waves = [list(bits) for bits in itertools.product((0, 1), repeat=3)]
    out = PulseSimulator(res.netlist).run(waves)
    for w, (a, b, c) in enumerate(waves):
        total = a + b + c
        assert out.po_values[w] == [total % 2, 1 if total >= 2 else 0]
    benchmark.extra_info["arrival_stages"] = arrivals
    benchmark.extra_info["t1_stage"] = t1.stage
