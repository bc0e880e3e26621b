"""Tests for the Verilog writers (structural output sanity)."""

import re

import pytest

from repro.circuits import ripple_carry_adder
from repro.io.verilog import dumps_sfq_verilog, dumps_verilog
from repro.network import Gate, LogicNetwork
from repro.pipeline import Pipeline


class TestLogicVerilog:
    def test_module_structure(self):
        net = ripple_carry_adder(3)
        text = dumps_verilog(net)
        assert text.startswith("module adder")
        assert text.rstrip().endswith("endmodule")
        assert "input a0" in text.replace(",", "").replace("  ", " ")
        assert "xor" in text

    def test_maj3_as_assign(self):
        net = LogicNetwork("m")
        a, b, c = (net.add_pi(x) for x in "abc")
        net.add_po(net.add_maj3(a, b, c), "y")
        text = dumps_verilog(net)
        assert "(a & b) | (a & c) | (b & c)" in text

    def test_t1_taps_emitted(self):
        net = LogicNetwork("t")
        a, b, c = (net.add_pi(x) for x in "abc")
        cell = net.add_t1_cell(a, b, c)
        net.add_po(net.add_t1_tap(cell, Gate.T1_S), "s")
        net.add_po(net.add_t1_tap(cell, Gate.T1_CN), "cn")
        text = dumps_verilog(net)
        assert "xor" in text
        assert "_maj" in text
        assert "not" in text

    def test_constants(self):
        net = LogicNetwork("k")
        net.add_pi("a")
        net.add_po(1, "one")
        text = dumps_verilog(net)
        assert "assign one = 1'b1;" in text

    def test_weird_names_escaped(self):
        net = LogicNetwork("weird")
        a = net.add_pi("data[3]")
        net.add_po(net.add_not(a), "out.q")
        text = dumps_verilog(net)
        assert "\\data[3] " in text
        assert "\\out.q " in text

    def test_balanced_parens_and_semicolons(self):
        net = ripple_carry_adder(4)
        text = dumps_verilog(net)
        assert text.count("(") == text.count(")")
        for line in text.splitlines():
            stripped = line.strip()
            if stripped and not stripped.startswith(("module", "endmodule", "//")):
                # statement lines end in ';'; port-list lines end in '(' or
                # are the continuation/closing of the header
                ok = stripped.endswith((";", "(", ");")) or "," in stripped
                assert ok, line


class TestSfqVerilog:
    def _netlist(self):
        return Pipeline.standard(
            n_phases=4, use_t1=True, verify="none"
        ).run(ripple_carry_adder(4)).netlist

    def test_cells_instantiated(self):
        text = dumps_sfq_verilog(self._netlist())
        assert "SFQ_T1" in text
        assert "SFQ_DFF" in text
        assert ".clk(clk)" in text

    def test_stage_comments(self):
        text = dumps_sfq_verilog(self._netlist())
        assert re.search(r"// stage \d+", text)

    def test_one_instance_per_clocked_cell(self):
        nl = self._netlist()
        text = dumps_sfq_verilog(nl)
        t1_count = sum(1 for _ in nl.t1_cells())
        dff_count = nl.num_dffs()
        assert text.count("SFQ_T1 ") == t1_count
        assert text.count("SFQ_DFF ") == dff_count

    def test_splitters_emitted_when_materialised(self):
        from repro.sfq import materialize_splitters, splitter_count

        nl = self._netlist()
        materialize_splitters(nl)
        text = dumps_sfq_verilog(nl)
        assert text.count("SFQ_SPLIT ") == splitter_count(nl)
