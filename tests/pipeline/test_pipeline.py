"""Pipeline composition, config-shim equivalence and hook semantics."""

import pytest

from repro.circuits import build, ripple_carry_adder
from repro.errors import PipelineError, ReproError
from repro.pipeline import (
    BalancePass,
    DffInsertPass,
    FlowContext,
    IlpPhasePass,
    MapPass,
    Pass,
    Pipeline,
    SplitterPass,
    T1DetectPass,
)

STANDARD_NAMES = [
    "decompose", "t1_detect", "map_to_sfq", "phase_assign", "dff_insert",
    "verify_metrics",
]


class TestComposition:
    def test_standard_order(self):
        assert Pipeline.standard().names() == STANDARD_NAMES

    def test_standard_baseline_drops_detection(self):
        names = Pipeline.standard(n_phases=1, use_t1=False).names()
        assert names == [n for n in STANDARD_NAMES if n != "t1_detect"]

    def test_standard_optional_passes(self):
        names = Pipeline.standard(
            balance_network=True, materialize_splitters=True
        ).names()
        assert names.index("balance") == names.index("decompose") + 1
        assert names.index("materialize_splitters") == (
            names.index("dff_insert") + 1
        )

    def test_t1_needs_three_phases(self):
        with pytest.raises(ReproError):
            Pipeline.standard(n_phases=2, use_t1=True)

    def test_with_pass_append_before_after(self):
        pipe = Pipeline.standard()
        assert pipe.with_pass(BalancePass()).names()[-1] == "balance"
        assert pipe.with_pass(
            BalancePass(), before="t1_detect"
        ).names()[1] == "balance"
        assert pipe.with_pass(
            BalancePass(), after="decompose"
        ).names()[1] == "balance"
        with pytest.raises(PipelineError):
            pipe.with_pass(BalancePass(), before="decompose", after="decompose")

    def test_without_and_replace(self):
        pipe = Pipeline.standard()
        assert "t1_detect" not in pipe.without("t1_detect").names()
        swapped = pipe.replace("phase_assign", IlpPhasePass())
        assert swapped.names() == pipe.names()
        at = swapped.names().index("phase_assign")
        assert isinstance(swapped.passes[at], IlpPhasePass)

    def test_unknown_name_raises(self):
        pipe = Pipeline.standard()
        with pytest.raises(PipelineError):
            pipe.without("no_such_pass")
        with pytest.raises(PipelineError):
            pipe.replace("no_such_pass", BalancePass())
        with pytest.raises(PipelineError):
            pipe.with_pass(BalancePass(), after="no_such_pass")

    def test_duplicate_pass_name_rejected(self):
        pipe = Pipeline.standard()
        with pytest.raises(PipelineError):
            pipe.with_pass(MapPass(n_phases=2))

    def test_builder_is_immutable(self):
        pipe = Pipeline.standard()
        names = pipe.names()
        pipe.without("t1_detect")
        pipe.with_pass(BalancePass())
        pipe.replace("dff_insert", DffInsertPass(share_chains=False))
        pipe.with_hooks(on_pass_start=lambda ctx, p: None)
        assert pipe.names() == names
        assert pipe.hooks == ()

    def test_passes_satisfy_protocol(self):
        for p in Pipeline.standard(
            balance_network=True, materialize_splitters=True
        ).passes:
            assert isinstance(p, Pass)

    def test_custom_pass_object(self):
        class CountGates:
            name = "count_gates"

            def run(self, ctx):
                ctx.extras["gates"] = ctx.network.num_gates()
                return ctx

        ctx = (
            Pipeline.standard(use_t1=False, verify="none")
            .with_pass(CountGates(), after="decompose")
            .run(ripple_carry_adder(4))
        )
        assert ctx.extras["gates"] > 0


class TestShimEquivalence:
    """The config-dict shim — ``build_pipeline(normalize_config(cfg))``,
    the path of ``repro-flow run``/``submit`` and the daemon — must equal
    ``Pipeline.standard(**cfg)``, bit for bit."""

    CONFIGS = [
        dict(n_phases=4, use_t1=True, verify="cec"),
        dict(n_phases=1, use_t1=False, verify="none"),
        dict(n_phases=4, use_t1=False, verify="none"),
        dict(n_phases=3, use_t1=True, verify="none", sweeps=2),
        dict(n_phases=4, use_t1=True, verify="none",
             share_chains=False, balance_network=True),
    ]

    @staticmethod
    def via_config(cfg=None):
        from repro.service import build_pipeline, normalize_config

        return build_pipeline(normalize_config(cfg))

    @pytest.mark.parametrize("bench", ["adder", "c6288", "sin"])
    @pytest.mark.parametrize("cfg", CONFIGS)
    def test_metrics_identical(self, bench, cfg):
        net = build(bench, "ci")
        res = self.via_config(cfg).run(net)
        ctx = Pipeline.standard(**cfg).run(net)
        assert ctx.metrics == res.metrics
        assert (ctx.t1_found, ctx.t1_used) == (res.t1_found, res.t1_used)
        assert ctx.verified == res.verified

    def test_every_registered_benchmark(self):
        """Pipeline.standard() == the config shim on the whole registry."""
        from repro.circuits import names

        shim = self.via_config({"verify": "none"})
        pipe = Pipeline.standard(verify="none")
        for bench in names():
            net = build(bench, "ci")
            assert pipe.run(net).metrics == shim.run(net).metrics, bench

    def test_standard_matches_config_defaults(self):
        from repro.pipeline import pipeline_fingerprint

        assert pipeline_fingerprint(Pipeline.standard()) == (
            pipeline_fingerprint(self.via_config())
        )


class TestExecution:
    def test_context_artifacts_and_timings(self):
        pipe = Pipeline.standard(verify="full")
        ctx = pipe.run(build("adder", "ci"))
        assert isinstance(ctx, FlowContext)
        assert set(ctx.timings) == set(pipe.names())
        assert all(t >= 0 for t in ctx.timings.values())
        assert ctx.runtime_s >= sum(ctx.timings.values()) * 0.5
        assert ctx.netlist is not None
        assert ctx.detection is not None
        assert ctx.insertion is not None
        assert ctx.verified is True
        assert len(ctx.events) >= len(pipe.names())

    def test_metrics_before_finalize_raises(self):
        pipe = Pipeline.standard().without("verify_metrics")
        ctx = pipe.run(build("adder", "ci"))
        with pytest.raises(PipelineError):
            _ = ctx.num_dffs

    def test_missing_map_pass_raises(self):
        pipe = Pipeline.standard(use_t1=False).without("map_to_sfq")
        with pytest.raises(PipelineError):
            pipe.run(ripple_carry_adder(4))

    def test_source_network_not_mutated(self):
        net = ripple_carry_adder(8)
        gates_before = net.num_gates()
        Pipeline.standard(verify="none").run(net)
        assert net.num_gates() == gates_before

    def test_splitter_pass_materializes(self):
        ctx = Pipeline.standard(
            use_t1=False, verify="none", materialize_splitters=True
        ).run(ripple_carry_adder(4))
        assert ctx.metrics.area_jj > 0


class TestHooks:
    def test_hook_invocation_order(self):
        calls = []
        pipe = Pipeline.standard(use_t1=False, verify="none").with_hooks(
            on_pass_start=lambda ctx, p: calls.append(("start", p.name)),
            on_pass_end=lambda ctx, p, dt: calls.append(("end", p.name, dt)),
        )
        pipe.run(ripple_carry_adder(4))
        names = pipe.names()
        assert [c[1] for c in calls[0::2]] == names  # starts, in order
        assert [c[1] for c in calls[1::2]] == names  # ends, in order
        assert all(c[0] == "start" for c in calls[0::2])
        assert all(c[0] == "end" and c[2] >= 0 for c in calls[1::2])

    def test_multiple_hooks_all_fire(self):
        seen_a, seen_b = [], []
        pipe = (
            Pipeline.standard(use_t1=False, verify="none")
            .with_hooks(on_pass_end=lambda ctx, p, dt: seen_a.append(p.name))
            .with_hooks(on_pass_end=lambda ctx, p, dt: seen_b.append(p.name))
        )
        pipe.run(ripple_carry_adder(4))
        assert seen_a == seen_b == pipe.names()

    def test_without_hooks(self):
        pipe = Pipeline.standard().with_hooks(
            on_pass_start=lambda ctx, p: None
        )
        assert pipe.without_hooks().hooks == ()
