"""SweepSpec: validation, expansion order, and CLI key parity."""

import json

import pytest

from repro.cli import _config_from, _scenario_from, build_parser
from repro.service import SpecError, SweepSpec
from repro.sim.checkpoint import config_key

pytestmark = pytest.mark.service


class TestValidation:
    def test_defaults(self):
        spec = SweepSpec.from_dict({})
        assert spec.protocols == ("byzcast",)
        assert spec.param is None
        assert spec.seeds == (1,)

    def test_unknown_key_rejected(self):
        with pytest.raises(SpecError, match="unknown spec keys"):
            SweepSpec.from_dict({"protocl": "byzcast"})

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SpecError, match="unknown protocol"):
            SweepSpec.from_dict({"protocol": "pigeon"})

    def test_unknown_param_rejected(self):
        with pytest.raises(SpecError, match="unknown param"):
            SweepSpec.from_dict({"param": "banana", "values": [1]})

    def test_values_without_param_rejected(self):
        with pytest.raises(SpecError, match="values given without"):
            SweepSpec.from_dict({"values": [1, 2]})

    def test_param_without_values_rejected(self):
        with pytest.raises(SpecError, match="non-empty values"):
            SweepSpec.from_dict({"param": "n"})

    def test_non_integer_values_rejected(self):
        with pytest.raises(SpecError, match="integers"):
            SweepSpec.from_dict({"param": "n", "values": ["big"]})

    def test_protocol_and_protocols_conflict(self):
        with pytest.raises(SpecError, match="not both"):
            SweepSpec.from_dict({"protocol": "byzcast",
                                 "protocols": ["flooding"]})

    def test_non_object_rejected(self):
        with pytest.raises(SpecError, match="JSON object"):
            SweepSpec.from_dict([1, 2, 3])

    def test_bad_enum_rejected(self):
        with pytest.raises(SpecError, match="unknown tier"):
            SweepSpec.from_dict({"tier": "quantum"})

    @pytest.mark.parametrize("medium", ["grid", "brute", "vectorized"])
    def test_retired_medium_key_is_accepted_and_dropped(self, medium):
        # Every job file written before the key's removal carries one.
        spec = SweepSpec.from_dict({"n": 12, "medium": medium})
        assert spec == SweepSpec.from_dict({"n": 12})
        assert "medium" not in spec.to_dict()

    @pytest.mark.parametrize("medium", ["warp", None, 3, ["grid"]])
    def test_unknown_medium_value_still_rejected(self, medium):
        with pytest.raises(SpecError, match="unknown medium"):
            SweepSpec.from_dict({"medium": medium})

    @pytest.mark.parametrize("data", [
        {"n": "abc", "messages": 1},
        {"messages": "x"},
        {"mute": 1.5},
        {"n": True},
        {"observe": "yes"},
        {"observe": 1},
        {"tx_range": "100"},
        {"interval": False},
        {"warmup": float("nan")},
        {"drain": float("inf")},
        {"gossip_period": None},
        {"cpa_k": "1"},
        {"paths_required": 2.0},
        {"protocols": [["byzcast"]]},
    ])
    def test_mistyped_field_rejected(self, data):
        with pytest.raises(SpecError):
            SweepSpec.from_dict(data)

    def test_mistyped_field_rejected_on_direct_construction(self):
        with pytest.raises(SpecError, match="seeds must contain integers"):
            SweepSpec(seeds=(1.0,))

    @pytest.mark.parametrize("data", [
        {"param": "paths_required", "values": [0]},
        {"suppression_threshold": 0},
        {"gossip_period": -1.0},
    ])
    def test_every_rejected_config_surfaces_as_spec_error(self, data):
        spec = SweepSpec.from_dict(data)
        with pytest.raises(SpecError):
            spec.expand()

    def test_invalid_scenario_surfaces_as_spec_error(self):
        spec = SweepSpec.from_dict({"param": "n", "values": [1]})
        with pytest.raises(SpecError):
            spec.expand()

    def test_roundtrip_and_digest_stable(self):
        data = {"protocol": "flooding", "param": "mute",
                "values": [0, 2], "seeds": [1, 3], "n": 20}
        spec = SweepSpec.from_dict(data)
        again = SweepSpec.from_dict(spec.to_dict())
        assert spec == again
        assert spec.digest() == again.digest()
        assert json.dumps(spec.to_dict())  # JSON-serializable

    def test_from_file_rejects_bad_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{nope")
        with pytest.raises(SpecError, match="not valid JSON"):
            SweepSpec.from_file(str(path))


class TestExpansion:
    def test_grid_order_protocol_value_seed(self):
        spec = SweepSpec.from_dict({
            "protocols": ["byzcast", "flooding"], "param": "n",
            "values": [10, 12], "seeds": [1, 2]})
        configs = spec.expand()
        assert len(configs) == 8
        grid = [(c.protocol, c.scenario.n, c.scenario.seed)
                for c in configs]
        assert grid == [(p, v, s)
                        for p in ("byzcast", "flooding")
                        for v in (10, 12)
                        for s in (1, 2)]

    def test_single_point_grid_spans_seeds(self):
        spec = SweepSpec.from_dict({"seeds": [4, 5], "n": 11})
        configs = spec.expand()
        assert [(c.scenario.n, c.scenario.seed) for c in configs] \
            == [(11, 4), (11, 5)]

    def test_mute_param_builds_adversary_mix(self):
        spec = SweepSpec.from_dict({"param": "mute", "values": [0, 2]})
        faultfree, faulty = spec.expand()
        assert faultfree.scenario.adversaries.total == 0
        assert faulty.scenario.adversaries.counts == {"mute": 2}

    def test_rival_param_lands_in_knobs(self):
        spec = SweepSpec.from_dict({
            "protocol": "maurer_tixeuil", "param": "cpa_k",
            "values": [0, 1]})
        low, high = spec.expand()
        assert low.rivals.cpa_k == 0
        assert high.rivals.cpa_k == 1

    def test_fixed_rival_knob_applies_to_every_config(self):
        spec = SweepSpec.from_dict({
            "protocol": "dolev", "paths_required": 2, "seeds": [1, 2]})
        for config in spec.expand():
            assert config.rivals.paths_required == 2

    def test_observe_flag_attaches_obs_config(self):
        observed = SweepSpec.from_dict({"observe": True}).expand()[0]
        plain = SweepSpec.from_dict({}).expand()[0]
        assert observed.observe is not None
        assert plain.observe is None
        # observe is an execution knob: same record key either way.
        assert config_key(observed) == config_key(plain)


class TestCliKeyParity:
    """A spec and the equivalent ``repro sweep`` invocation must expand
    to the same config keys — the cache contract between CLI users and
    service clients."""

    def test_mute_sweep_matches_cli_configs(self):
        spec = SweepSpec.from_dict({
            "protocol": "byzcast", "param": "mute", "values": [0, 2],
            "seeds": [1, 2], "n": 18, "messages": 3, "interval": 1.0,
            "warmup": 5.0, "drain": 8.0})
        service_keys = [config_key(c) for c in spec.expand()]

        args = build_parser().parse_args([
            "sweep", "--param", "mute", "--values", "0,2",
            "--seeds", "1,2", "--n", "18", "--messages", "3",
            "--interval", "1.0", "--warmup", "5.0", "--drain", "8.0"])
        cli_keys = []
        for value in (0, 2):
            for seed in (1, 2):
                scenario = _scenario_from(args, mute=value)
                scenario = scenario.with_seed(seed)
                config = _config_from(args, "byzcast", scenario)
                cli_keys.append(config_key(config))
        assert service_keys == cli_keys
