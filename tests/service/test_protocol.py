"""Wire format: config normalization, circuit payloads, cache keys, reports."""

import pytest

from repro.circuits import build, ripple_carry_adder
from repro.errors import ServiceError
from repro.io import dumps_bench, dumps_blif
from repro.io.json_report import canonical_dumps, dumps_json_report, strict_loads
from repro.pipeline import Pipeline
from repro.service.protocol import (
    PIPELINE_DEFAULTS,
    REPORT_SCHEMA,
    bench_circuit,
    blif_circuit,
    build_pipeline,
    cache_key,
    circuit_payload_from_source,
    flow_report,
    load_circuit,
    normalize_config,
    registry_circuit,
)


class TestNormalizeConfig:
    def test_none_gives_defaults(self):
        assert normalize_config(None) == PIPELINE_DEFAULTS

    def test_partial_overrides(self):
        cfg = normalize_config({"n_phases": 1, "use_t1": False})
        assert cfg["n_phases"] == 1
        assert cfg["use_t1"] is False
        assert cfg["sweeps"] == PIPELINE_DEFAULTS["sweeps"]

    def test_unknown_key_rejected(self):
        with pytest.raises(ServiceError, match="unknown config key"):
            normalize_config({"phazes": 4})

    def test_wrong_type_rejected(self):
        with pytest.raises(ServiceError, match="expects int"):
            normalize_config({"n_phases": "4"})

    def test_bool_is_not_int(self):
        with pytest.raises(ServiceError, match="expects int"):
            normalize_config({"sweeps": True})

    def test_non_dict_rejected(self):
        with pytest.raises(ServiceError, match="must be an object"):
            normalize_config([1, 2])


class TestBuildPipeline:
    def test_matches_standard(self):
        pipe = build_pipeline(normalize_config(None))
        assert pipe.names() == Pipeline.standard().names()

    def test_baseline_drops_t1(self):
        pipe = build_pipeline(normalize_config({"use_t1": False}))
        assert "t1_detect" not in pipe.names()

    def test_invalid_combination_is_service_error(self):
        with pytest.raises(ServiceError, match="invalid pipeline config"):
            build_pipeline(normalize_config({"n_phases": 2, "use_t1": True}))


class TestCircuits:
    def test_registry_roundtrip(self):
        net = load_circuit(registry_circuit("adder", "ci"))
        ref = build("adder", "ci")
        assert net.structural_hash() == ref.structural_hash()

    def test_blif_roundtrip(self):
        from repro.network import check_equivalence

        net = ripple_carry_adder(4)
        loaded = load_circuit(blif_circuit(dumps_blif(net)))
        # SOP covers re-expand into different gates; functions must match
        assert len(loaded.pis) == len(net.pis)
        assert len(loaded.pos) == len(net.pos)
        assert check_equivalence(net, loaded).equivalent

    def test_bench_roundtrip(self):
        net = ripple_carry_adder(4)
        loaded = load_circuit(bench_circuit(dumps_bench(net)))
        assert len(loaded.pos) == len(net.pos)

    def test_unknown_kind(self):
        with pytest.raises(ServiceError, match="unknown circuit kind"):
            load_circuit({"kind": "verilog", "text": ""})

    def test_missing_kind(self):
        with pytest.raises(ServiceError, match="'kind'"):
            load_circuit({"name": "adder"})

    def test_bad_registry_name(self):
        with pytest.raises(ServiceError, match="bad 'registry'"):
            load_circuit(registry_circuit("nope"))

    def test_payload_from_source_registry(self):
        assert circuit_payload_from_source("adder", "ci") == {
            "kind": "registry",
            "name": "adder",
            "preset": "ci",
        }

    def test_payload_from_source_file(self, tmp_path):
        path = tmp_path / "c.blif"
        path.write_text(dumps_blif(ripple_carry_adder(4)))
        payload = circuit_payload_from_source(str(path))
        assert payload["kind"] == "blif"
        assert ".inputs" in payload["text"]

    def test_payload_from_source_unknown(self):
        with pytest.raises(ServiceError, match="unknown benchmark"):
            circuit_payload_from_source("no-such-thing")


class TestCacheKey:
    def test_deterministic(self):
        cfg = normalize_config(None)
        assert cache_key(ripple_carry_adder(4), cfg) == cache_key(
            ripple_carry_adder(4), cfg
        )

    def test_invariant_under_compact(self):
        cfg = normalize_config(None)
        net = ripple_carry_adder(6)
        net.add_and(net.pis[0], net.pis[1])  # dead node
        key = cache_key(net, cfg)
        net.compact()
        assert cache_key(net, cfg) == key

    def test_config_order_and_defaults_do_not_split(self):
        net = ripple_carry_adder(4)
        a = normalize_config({"n_phases": 4, "use_t1": True})
        b = normalize_config({"use_t1": True, "n_phases": 4})
        explicit = normalize_config(dict(PIPELINE_DEFAULTS))
        assert cache_key(net, a) == cache_key(net, b) == cache_key(
            net, explicit
        )

    def test_config_change_changes_key(self):
        net = ripple_carry_adder(4)
        assert cache_key(net, normalize_config({"sweeps": 4})) != cache_key(
            net, normalize_config({"sweeps": 5})
        )

    def test_circuit_change_changes_key(self):
        cfg = normalize_config(None)
        assert cache_key(ripple_carry_adder(4), cfg) != cache_key(
            ripple_carry_adder(5), cfg
        )


class TestPinnedCacheKey:
    """The cache key bytes of one fixed job, taken before the config
    schema was derived from ``Pipeline.standard``'s signature: a change
    here orphans every cached report and splits the key space."""

    def test_default_config_key(self):
        net = build("adder", "ci")
        assert cache_key(net, normalize_config(None)) == (
            "14ca459a62f020c9103e3a6bf76048a73e8b61bad8e2b34d2779109c670f841c"
        )

    def test_non_default_config_key(self):
        net = build("adder", "ci")
        config = normalize_config({
            "n_phases": 3, "use_t1": False, "phase_method": "ilp",
            "sweeps": 2, "verify": "none",
        })
        assert cache_key(net, config) == (
            "b6e89e85dd079a48dbb5a9b0dd6f57324c66c6468a18b5bc03f755de7a9ade87"
        )


class TestFlowReport:
    def test_schema_and_strict_roundtrip(self):
        cfg = normalize_config({"verify": "none"})
        ctx = build_pipeline(cfg).run(build("adder", "ci"))
        report = flow_report(ctx, config=cfg)
        assert report["schema"] == REPORT_SCHEMA
        assert report["benchmark"] == "adder"
        assert report["cached"] is False
        assert report["metrics"]["dffs"] == ctx.metrics.num_dffs
        assert report["metrics"]["area_jj"] == ctx.metrics.area_jj
        assert report["t1"] == {"found": ctx.t1_found, "used": ctx.t1_used}
        # the wire round trip is strict JSON and lossless
        assert strict_loads(dumps_json_report(report)) == report
        canonical_dumps(report)  # canonicalisable (no non-finite floats)
