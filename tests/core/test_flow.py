"""Integration tests for the end-to-end flow and reporting."""

import pytest

from repro.circuits import build, ripple_carry_adder
from repro.errors import ReproError
from repro.core import (
    PAPER_TABLE1,
    Table,
    TableRow,
    fmt_thousands,
)
from repro.pipeline import Pipeline, baseline_pipelines, run_many


def run_baselines(net, **kw):
    """The paper's three columns (1φ, nφ, nφ + T1) keyed by label."""
    pipes = baseline_pipelines(**kw)
    contexts = run_many([(net, pipe) for pipe in pipes.values()])
    return dict(zip(pipes, contexts))


class TestStandardConfig:
    def test_t1_needs_three_phases(self):
        with pytest.raises(ReproError):
            Pipeline.standard(n_phases=2, use_t1=True)

    def test_baseline_allows_any_phase(self):
        Pipeline.standard(n_phases=1, use_t1=False)  # ok


class TestRunFlow:
    def test_adder_t1_flow_counts(self):
        net = ripple_carry_adder(16)
        res = Pipeline.standard(verify="full").run(net)
        assert res.t1_found == 15
        assert res.t1_used == 15
        assert res.verified is True
        assert res.metrics.num_t1 == 15

    def test_depth_relationship(self):
        """depth(1φ) ≈ n · depth(nφ); T1 adds a small constant."""
        net = ripple_carry_adder(16)
        results = run_baselines(net, n_phases=4, verify="none")
        d1 = results["1phi"].depth_cycles
        d4 = results["nphi"].depth_cycles
        dt = results["t1"].depth_cycles
        assert d1 == 16
        assert d4 == 4
        assert d4 <= dt <= d4 + 2

    def test_t1_area_beats_baseline_on_adder(self):
        net = ripple_carry_adder(16)
        results = run_baselines(net, verify="none")
        assert results["t1"].area_jj < results["nphi"].area_jj
        assert results["nphi"].area_jj < results["1phi"].area_jj

    def test_insertion_report_attached(self):
        net = ripple_carry_adder(8)
        res = Pipeline.standard(verify="none").run(net)
        assert res.insertion is not None
        assert res.insertion.total == res.num_dffs

    def test_flow_on_all_ci_benchmarks(self):
        from repro.circuits import names

        for name in names():
            net = build(name, "ci")
            res = Pipeline.standard(verify="cec").run(net)
            assert res.metrics.area_jj > 0, name
            assert res.verified is True, name

    def test_streaming_verification_on_t1_benchmark(self):
        net = build("c6288", "ci")
        res = Pipeline.standard(verify="full").run(net)
        assert res.verified is True
        assert res.t1_used > 0

    def test_ilp_method_small(self):
        net = ripple_carry_adder(3)
        res = Pipeline.standard(
            n_phases=4, use_t1=False, phase_method="ilp", verify="none"
        ).run(net)
        assert res.metrics.depth_cycles >= 1


class TestReport:
    def test_fmt_thousands(self):
        assert fmt_thousands(32768) == "32'768"
        assert fmt_thousands(238419) == "238'419"
        assert fmt_thousands(5) == "5"

    def test_table_row_ratios(self):
        net = ripple_carry_adder(16)
        results = run_baselines(net, verify="none")
        row = TableRow.from_results("adder16", results)
        assert row.area_ratio_nphi == pytest.approx(
            results["t1"].area_jj / results["nphi"].area_jj
        )
        assert row.depth_ratio_1phi == pytest.approx(
            results["t1"].depth_cycles / results["1phi"].depth_cycles
        )

    def test_table_format_contains_all_rows(self):
        net = ripple_carry_adder(8)
        results = run_baselines(net, verify="none")
        table = Table([TableRow.from_results("adder8", results)])
        text = table.format()
        assert "adder8" in text
        assert "Average" in text

    def test_paper_reference_data_sane(self):
        assert set(PAPER_TABLE1) == {
            "adder", "c7552", "c6288", "sin", "voter", "square",
            "multiplier", "log2",
        }
        for row in PAPER_TABLE1.values():
            assert row["dff"][2] > 0


class TestPaperShapeCI:
    """Down-scaled shape checks of the paper's headline claims."""

    def test_adder_shape(self):
        net = build("adder", "ci")  # 16-bit
        results = run_baselines(net, verify="none")
        row = TableRow.from_results("adder", results)
        # T1 replaces (almost) the whole FA chain
        assert row.t1_used == 15
        # area: T1 < 4phi < 1phi
        assert row.area_t1 < row.area_nphi < row.area_1phi
        # depth: T1 slightly deeper than 4phi, both far below 1phi
        assert row.depth_nphi <= row.depth_t1 <= row.depth_nphi + 2
        assert row.depth_1phi >= 3 * row.depth_nphi

    def test_multiphase_baseline_shape(self):
        """1φ -> 4φ alone gives the big DFF cut (paper average 0.35)."""
        net = build("multiplier", "ci")
        results = run_baselines(net, verify="none")
        assert results["nphi"].num_dffs < 0.6 * results["1phi"].num_dffs
