"""Tests for the fluent NetworkBuilder API."""

import pytest

from repro import obs
from repro.adversary.behaviors import MuteBehavior
from repro.crypto import dsa
from repro.crypto.keystore import DsaScheme
from repro.obs import ObsConfig, ObsContext
from repro.radio.propagation import LogNormalShadowing
from repro.sim.network import NetworkBuilder


class TestPlacement:
    def test_line(self):
        net = NetworkBuilder(seed=2).line(4, spacing=80.0).build()
        assert len(net.nodes) == 4
        assert net.node(3).position.x == pytest.approx(240.0)

    def test_diamond(self):
        net = NetworkBuilder(seed=2).diamond().build()
        assert len(net.nodes) == 4

    def test_grid(self):
        net = NetworkBuilder(seed=2).grid(3, 2).build()
        assert len(net.nodes) == 6

    def test_at_and_positions_compose(self):
        net = (NetworkBuilder(seed=2)
               .at(0, 0).positions([(50, 0), (100, 0)]).build())
        assert len(net.nodes) == 3

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError):
            NetworkBuilder().at(0, 0).build()

    def test_behavior_for_unknown_node_rejected(self):
        builder = NetworkBuilder().line(2).with_behavior(9, MuteBehavior())
        with pytest.raises(ValueError):
            builder.build()


class TestLiveNetwork:
    def test_end_to_end_delivery(self):
        net = NetworkBuilder(seed=3).line(4).build().warm_up()
        msg_id = net.nodes[0].broadcast(b"builder test")
        net.run(20.0)
        assert net.delivered_to_all(msg_id)
        assert net.delivered_to(msg_id) == {1, 2, 3}

    def test_overlay_members_listed(self):
        net = NetworkBuilder(seed=3).line(5).build().warm_up(10.0)
        members = net.overlay_members()
        assert members
        assert members <= {0, 1, 2, 3, 4}

    def test_behavior_applied(self):
        net = (NetworkBuilder(seed=3).diamond()
               .with_behavior(2, MuteBehavior()).build().warm_up())
        msg_id = net.nodes[0].broadcast(b"around")
        net.run(25.0)
        assert net.delivered_to_all(msg_id, exclude={2})

    def test_energy_meter_attached(self):
        net = NetworkBuilder(seed=3).line(3).with_energy().build().warm_up()
        assert net.energy is not None
        assert net.energy.meter(0).tx_packets > 0

    def test_tracer_attached(self):
        net = NetworkBuilder(seed=3).line(3).build().warm_up()
        with obs.session(ObsContext(ObsConfig(), sim=net.sim)) as ctx:
            msg_id = net.nodes[0].broadcast(b"traced")
            net.run(10.0)
        delivers = [span for span in ctx.spans if span.phase == "deliver"]
        assert {span.node for span in delivers} == {1, 2}
        assert {span.msg for span in delivers} == {tuple(msg_id)}

    def test_custom_scheme(self):
        params = dsa.generate_parameters(p_bits=256, q_bits=160, seed=b"nb")
        net = (NetworkBuilder(seed=3).line(2)
               .with_scheme(DsaScheme(parameters=params, seed=b"nb"))
               .build().warm_up(5.0))
        msg_id = net.nodes[0].broadcast(b"dsa")
        net.run(10.0)
        assert net.delivered_to_all(msg_id)

    def test_custom_propagation(self):
        net = (NetworkBuilder(seed=3).line(3)
               .with_propagation(LogNormalShadowing(sigma=0.05,
                                                    background_loss=0.01))
               .build().warm_up())
        msg_id = net.nodes[0].broadcast(b"noisy")
        net.run(25.0)
        assert net.delivered_to_all(msg_id)

    def test_unstarted_build(self):
        net = NetworkBuilder(seed=3).line(2).build(start=False)
        net.run(3.0)
        # No hellos flowed: nobody discovered anybody.
        assert net.nodes[0].neighbors.neighbors() == []

    def test_stop(self):
        net = NetworkBuilder(seed=3).line(2).build().warm_up(3.0)
        net.stop()
        before = net.sim.events_fired
        net.run(5.0)
        # Periodic machinery halted: almost nothing fires after stop.
        assert net.sim.events_fired - before < 20
