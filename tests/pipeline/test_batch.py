"""run_many / run_table: ordering, parallel determinism, baseline parity."""

import pytest

from repro.circuits import TABLE1_ORDER, build, ripple_carry_adder
from repro.errors import PipelineError
from repro.pipeline import (
    Pipeline,
    baseline_pipelines,
    run_many,
    run_table,
    warm_worker,
)


def run_baselines(net, jobs=1, **kw):
    """The paper's three columns (1φ, nφ, nφ + T1) keyed by label."""
    pipes = baseline_pipelines(**kw)
    contexts = run_many([(net, pipe) for pipe in pipes.values()], jobs=jobs)
    return dict(zip(pipes, contexts))


class TestRunMany:
    def test_shared_pipeline_preserves_order(self):
        nets = [ripple_carry_adder(b) for b in (4, 6, 8)]
        contexts = run_many(nets, pipeline=Pipeline.standard(verify="none"))
        assert [c.name for c in contexts] == [n.name for n in nets]
        assert contexts[0].num_dffs < contexts[-1].num_dffs

    def test_mixed_items(self):
        net = ripple_carry_adder(4)
        t1 = Pipeline.standard(verify="none")
        base = t1.without("t1_detect")
        contexts = run_many([net, (net, base)], pipeline=t1)
        assert contexts[0].t1_used > 0
        assert contexts[1].t1_used == 0

    def test_missing_pipeline_raises(self):
        with pytest.raises(PipelineError):
            run_many([ripple_carry_adder(4)])

    def test_parallel_matches_serial(self):
        nets = [build(name, "ci") for name in ("adder", "c6288", "sin")]
        pipe = Pipeline.standard(verify="none")
        serial = run_many(nets, pipeline=pipe, jobs=1)
        parallel = run_many(nets, pipeline=pipe, jobs=2)
        for s, p in zip(serial, parallel):
            assert s.metrics == p.metrics
            assert s.events == p.events

    def test_parallel_drops_hooks_but_runs(self):
        seen = []
        pipe = Pipeline.standard(verify="none").with_hooks(
            on_pass_end=lambda ctx, p, dt: seen.append(p.name)
        )
        contexts = run_many(
            [ripple_carry_adder(4), ripple_carry_adder(6)],
            pipeline=pipe,
            jobs=2,
        )
        assert len(contexts) == 2
        assert all(c.metrics.area_jj > 0 for c in contexts)


class TestRunTable:
    def test_jobs2_table_identical_to_serial(self):
        """Acceptance: the Table-I preset gives the same Table at jobs=2."""
        serial = run_table(TABLE1_ORDER, preset="ci", jobs=1)
        parallel = run_table(TABLE1_ORDER, preset="ci", jobs=2)
        assert serial.format() == parallel.format()
        assert serial.as_dicts() == parallel.as_dicts()

    def test_row_matches_baseline_pipelines(self):
        net = build("adder", "ci")
        direct = run_baselines(net, n_phases=4, verify="none")
        table = run_table(["adder"], preset="ci")
        row = table.rows[0]
        assert row.dff_t1 == direct["t1"].num_dffs
        assert row.area_1phi == direct["1phi"].area_jj
        assert row.depth_nphi == direct["nphi"].depth_cycles

    def test_progress_callback(self):
        seen = []
        run_table(["adder"], preset="ci", progress=seen.append)
        assert seen == ["adder"]


class TestBaselinePipelines:
    def test_labels_and_phases(self):
        pipes = baseline_pipelines(n_phases=4)
        assert set(pipes) == {"1phi", "nphi", "t1"}
        assert "t1_detect" in pipes["t1"].names()
        assert "t1_detect" not in pipes["1phi"].names()
        assert "t1_detect" not in pipes["nphi"].names()

    def test_baseline_jobs_parity(self):
        net = build("c6288", "ci")
        serial = run_baselines(net, verify="none")
        pooled = run_baselines(net, verify="none", jobs=2)
        for label in serial:
            assert serial[label].metrics == pooled[label].metrics


class TestWarmWorker:
    def test_prewarms_npn_and_t1_tables(self):
        from repro.core.t1_matching import t1_match_table
        from repro.network import npn

        warm_worker()
        # k<=3 canon tables and the T1 match table are now materialised;
        # a second call is a cheap no-op against the same module caches
        for k in (0, 1, 2, 3):
            assert npn._npn_table(k) is npn._npn_table(k)
        assert t1_match_table() is t1_match_table()
        warm_worker()

    def test_pool_results_unchanged_by_warm_initializer(self):
        # run_many(jobs=2) routes through the warmed pool; parity with
        # serial execution proves warming is observable only in latency
        nets = [ripple_carry_adder(b) for b in (4, 6)]
        pipe = Pipeline.standard(verify="none")
        serial = run_many(nets, pipeline=pipe, jobs=1)
        pooled = run_many(nets, pipeline=pipe, jobs=2)
        for s, p in zip(serial, pooled):
            assert s.metrics == p.metrics


class TestStreaming:
    def test_on_result_streams_in_submission_order(self):
        order = []
        nets = [ripple_carry_adder(b) for b in (4, 6, 8)]
        run_many(
            nets,
            pipeline=Pipeline.standard(verify="none"),
            jobs=2,
            on_result=lambda i, ctx: order.append((i, ctx.name)),
        )
        assert order == [(i, n.name) for i, n in enumerate(nets)]

    def test_progress_fires_per_benchmark_with_jobs(self):
        seen = []
        run_table(["adder", "c6288"], preset="ci", jobs=2,
                  progress=seen.append)
        assert seen == ["adder", "c6288"]
