"""Unit tests for the shared wireless medium: reach, collisions,
half-duplex, carrier sense."""

import pytest

from repro.des.kernel import Simulator
from repro.des.random import RandomStream
from repro.radio.geometry import Position
from repro.radio.medium import Medium, MediumObserver
from repro.radio.packet import Packet
from repro.radio.propagation import LogNormalShadowing, UnitDisk
from repro.radio.vectorized import VectorizedMedium


def make_medium(sim=None, **kwargs):
    sim = sim or Simulator()
    return sim, Medium(sim, RandomStream(1), UnitDisk(), **kwargs)


def attach(medium, node_id, x, y, inbox, tx_range=100.0):
    medium.attach(node_id, lambda: Position(x, y), tx_range,
                  lambda packet: inbox.append((node_id, packet)))


def packet(sender, size=125, kind="data"):
    return Packet(sender=sender, payload=f"payload-{sender}",
                  size_bytes=size, kind=kind)


class TestDelivery:
    def test_in_range_receiver_gets_packet(self):
        sim, medium = make_medium()
        inbox = []
        attach(medium, 1, 0, 0, inbox)
        attach(medium, 2, 50, 0, inbox)
        medium.transmit(1, packet(1))
        sim.run()
        assert len(inbox) == 1
        receiver, received = inbox[0]
        assert receiver == 2
        assert received.payload == "payload-1"

    def test_out_of_range_receiver_misses(self):
        sim, medium = make_medium()
        inbox = []
        attach(medium, 1, 0, 0, inbox)
        attach(medium, 2, 150, 0, inbox)
        medium.transmit(1, packet(1))
        sim.run()
        assert inbox == []

    def test_boundary_is_exclusive(self):
        sim, medium = make_medium()
        inbox = []
        attach(medium, 1, 0, 0, inbox)
        attach(medium, 2, 100, 0, inbox)  # exactly at range
        medium.transmit(1, packet(1))
        sim.run()
        assert inbox == []

    def test_sender_does_not_receive_own_packet(self):
        sim, medium = make_medium()
        inbox = []
        attach(medium, 1, 0, 0, inbox)
        medium.transmit(1, packet(1))
        sim.run()
        assert inbox == []

    def test_broadcast_reaches_all_in_range(self):
        sim, medium = make_medium()
        inbox = []
        attach(medium, 1, 0, 0, inbox)
        for node_id in (2, 3, 4):
            attach(medium, node_id, 10.0 * node_id, 0, inbox)
        medium.transmit(1, packet(1))
        sim.run()
        assert sorted(r for r, _ in inbox) == [2, 3, 4]

    def test_delivery_delayed_by_airtime(self):
        sim, medium = make_medium(bitrate_bps=1_000_000.0, preamble_s=0.0)
        times = []
        medium.attach(1, lambda: Position(0, 0), 100.0, lambda p: None)
        medium.attach(2, lambda: Position(10, 0), 100.0,
                      lambda p: times.append(sim.now))
        medium.transmit(1, packet(1, size=1250))  # 10 ms at 1 Mb/s
        sim.run()
        assert times == [pytest.approx(0.01)]

    def test_disabled_radio_does_not_receive(self):
        sim, medium = make_medium()
        inbox = []
        attach(medium, 1, 0, 0, inbox)
        attach(medium, 2, 50, 0, inbox)
        medium.set_enabled(2, False)
        medium.transmit(1, packet(1))
        sim.run()
        assert inbox == []

    def test_disabled_radio_transmissions_vanish(self):
        sim, medium = make_medium()
        inbox = []
        attach(medium, 1, 0, 0, inbox)
        attach(medium, 2, 50, 0, inbox)
        medium.set_enabled(1, False)
        tx = medium.transmit(1, packet(1))
        assert tx.completed  # pre-resolved: nothing on the air
        sim.run()
        assert inbox == []
        assert medium.stats.transmissions == 0

    def test_duplicate_attach_rejected(self):
        _, medium = make_medium()
        attach(medium, 1, 0, 0, [])
        with pytest.raises(ValueError):
            attach(medium, 1, 0, 0, [])

    def test_mobile_receiver_position_checked_at_delivery(self):
        sim, medium = make_medium()
        inbox = []
        position = {"x": 50.0}
        attach(medium, 1, 0, 0, inbox)
        medium.attach(2, lambda: Position(position["x"], 0), 100.0,
                      lambda p: inbox.append((2, p)))
        medium.transmit(1, packet(1))
        position["x"] = 500.0  # moves away before airtime ends
        sim.run()
        assert inbox == []


class TestCollisions:
    def test_overlapping_transmissions_collide_at_common_receiver(self):
        sim, medium = make_medium()
        inbox = []
        attach(medium, 1, 0, 0, inbox)
        attach(medium, 2, 80, 0, inbox)
        attach(medium, 3, 40, 0, inbox)  # hears both
        medium.transmit(1, packet(1))
        medium.transmit(2, packet(2))
        sim.run()
        assert all(r != 3 for r, _ in inbox)
        assert medium.stats.collisions >= 1

    def test_non_overlapping_transmissions_both_delivered(self):
        sim, medium = make_medium()
        inbox = []
        attach(medium, 1, 0, 0, inbox)
        attach(medium, 2, 80, 0, inbox)
        attach(medium, 3, 40, 0, inbox)
        medium.transmit(1, packet(1))
        sim.schedule(0.1, lambda: medium.transmit(2, packet(2)))
        sim.run()
        received_by_3 = [p.sender for r, p in inbox if r == 3]
        assert sorted(received_by_3) == [1, 2]

    def test_distant_transmission_does_not_interfere(self):
        sim, medium = make_medium()
        inbox = []
        attach(medium, 1, 0, 0, inbox)
        attach(medium, 2, 50, 0, inbox)
        attach(medium, 3, 1000, 0, inbox)  # far away, transmits too
        medium.transmit(1, packet(1))
        medium.transmit(3, packet(3))
        sim.run()
        assert (2, ) == tuple(r for r, _ in inbox if r == 2)[:1]
        assert any(r == 2 and p.sender == 1 for r, p in inbox)

    def test_half_duplex_transmitter_misses_concurrent_packet(self):
        sim, medium = make_medium()
        inbox = []
        attach(medium, 1, 0, 0, inbox)
        attach(medium, 2, 50, 0, inbox)
        medium.transmit(1, packet(1))
        medium.transmit(2, packet(2))
        sim.run()
        # Each transmitted during the other's airtime: nobody receives.
        assert inbox == []
        assert medium.stats.half_duplex_losses == 2

    def test_hidden_terminal_collision(self):
        # 1 and 3 cannot hear each other but both reach 2.
        sim, medium = make_medium()
        inbox = []
        attach(medium, 1, 0, 0, inbox)
        attach(medium, 2, 90, 0, inbox)
        attach(medium, 3, 180, 0, inbox)
        medium.transmit(1, packet(1))
        medium.transmit(3, packet(3))
        sim.run()
        assert all(r != 2 for r, _ in inbox)


class TestOverlapSemantics:
    """Airtimes are half-open intervals [start, end): touching at an
    endpoint is NOT an overlap (regression pin for the intended
    boundary semantics — back-to-back CSMA packets must not collide)."""

    def make_tx(self, start, end, sender=1):
        from repro.radio.medium import Transmission
        return Transmission(sender=sender, origin=Position(0, 0),
                            start=start, end=end, packet=packet(sender),
                            tx_range=100.0)

    def test_touching_endpoints_do_not_overlap(self):
        first = self.make_tx(0.0, 1.0)
        second = self.make_tx(1.0, 2.0, sender=2)
        assert not first.overlaps(second)
        assert not second.overlaps(first)

    def test_partial_overlap_detected(self):
        first = self.make_tx(0.0, 1.0)
        second = self.make_tx(0.5, 1.5, sender=2)
        assert first.overlaps(second)
        assert second.overlaps(first)

    def test_containment_overlaps(self):
        outer = self.make_tx(0.0, 2.0)
        inner = self.make_tx(0.5, 1.0, sender=2)
        assert outer.overlaps(inner) and inner.overlaps(outer)

    def test_disjoint_intervals_do_not_overlap(self):
        first = self.make_tx(0.0, 1.0)
        second = self.make_tx(3.0, 4.0, sender=2)
        assert not first.overlaps(second)
        assert not second.overlaps(first)

    def test_back_to_back_transmissions_both_delivered(self):
        """End-to-end: a packet starting the instant another ends is
        neither a collision nor a half-duplex loss."""
        sim, medium = make_medium()
        inbox = []
        attach(medium, 1, 0, 0, inbox)
        attach(medium, 2, 80, 0, inbox)
        attach(medium, 3, 40, 0, inbox)  # hears both
        first = packet(1)
        airtime = medium.airtime(first)
        medium.transmit(1, first)
        sim.schedule_at(airtime, lambda: medium.transmit(2, packet(2)))
        sim.run()
        received_by_3 = sorted(p.sender for r, p in inbox if r == 3)
        assert received_by_3 == [1, 2]
        assert medium.stats.collisions == 0
        assert medium.stats.half_duplex_losses == 0


class TestDeliveryOrder:
    """Same-instant deliveries happen in ascending node-id order no
    matter in which order radios attached — the invariant that lets the
    vectorized medium's slot arrays replace the dict scan."""

    def run_with_attach_order(self, order, medium_class):
        sim = Simulator()
        medium = medium_class(sim, RandomStream(1), UnitDisk())
        inbox = []
        spots = {1: (0.0, 0.0), 2: (10.0, 0.0), 3: (20.0, 0.0),
                 4: (0.0, 10.0), 5: (0.0, 20.0)}
        for node_id in order:
            x, y = spots[node_id]
            attach(medium, node_id, x, y, inbox)
        medium.transmit(1, packet(1))
        sim.run()
        return [r for r, _ in inbox]

    @pytest.mark.parametrize("medium_class", [
        pytest.param(Medium, id="scan"),
        pytest.param(VectorizedMedium, id="vec")])
    def test_order_is_sorted_ids_regardless_of_attach_order(self,
                                                            medium_class):
        for order in ([1, 2, 3, 4, 5], [5, 4, 3, 2, 1], [3, 1, 5, 2, 4]):
            assert (self.run_with_attach_order(order, medium_class)
                    == [2, 3, 4, 5])


class TestCarrierSense:
    def test_idle_channel(self):
        _, medium = make_medium()
        attach(medium, 1, 0, 0, [])
        assert not medium.channel_busy_at(1)

    def test_busy_during_nearby_transmission(self):
        sim, medium = make_medium()
        attach(medium, 1, 0, 0, [])
        attach(medium, 2, 50, 0, [])
        medium.transmit(1, packet(1))
        assert medium.channel_busy_at(2)
        sim.run()
        assert not medium.channel_busy_at(2)

    def test_own_transmission_is_busy(self):
        sim, medium = make_medium()
        attach(medium, 1, 0, 0, [])
        medium.transmit(1, packet(1))
        assert medium.channel_busy_at(1)

    def test_far_transmission_not_sensed(self):
        sim, medium = make_medium()
        attach(medium, 1, 0, 0, [])
        attach(medium, 2, 1000, 0, [])
        medium.transmit(1, packet(1))
        assert not medium.channel_busy_at(2)


class TestStatsAndObservers:
    def test_transmit_counters(self):
        sim, medium = make_medium()
        attach(medium, 1, 0, 0, [])
        medium.transmit(1, packet(1, size=100, kind="data"))
        medium.transmit(1, packet(1, size=50, kind="gossip"))
        assert medium.stats.transmissions == 2
        assert medium.stats.bytes_sent == 150
        assert medium.stats.by_kind == {"data": 1, "gossip": 1}
        assert medium.stats.bytes_by_kind == {"data": 100, "gossip": 50}

    def test_observer_events(self):
        sim, medium = make_medium()
        events = []

        class Recorder(MediumObserver):
            def on_transmit(self, sender, p):
                events.append(("tx", sender))

            def on_deliver(self, receiver, p):
                events.append(("rx", receiver))

        medium.add_observer(Recorder())
        inbox = []
        attach(medium, 1, 0, 0, inbox)
        attach(medium, 2, 50, 0, inbox)
        medium.transmit(1, packet(1))
        sim.run()
        assert ("tx", 1) in events
        assert ("rx", 2) in events

    def test_shadowing_background_loss_counted(self):
        sim = Simulator()
        medium = Medium(sim, RandomStream(1),
                        LogNormalShadowing(sigma=0.0,
                                           background_loss=1.0 - 1e-12))
        inbox = []
        medium.attach(1, lambda: Position(0, 0), 100.0, lambda p: None)
        medium.attach(2, lambda: Position(50, 0), 100.0,
                      lambda p: inbox.append(p))
        medium.transmit(1, packet(1))
        sim.run()
        assert inbox == []
        assert medium.stats.propagation_losses == 1

    def test_invalid_bitrate_rejected(self):
        with pytest.raises(ValueError):
            Medium(Simulator(), RandomStream(1), bitrate_bps=0)

    def test_invalid_tx_range_rejected(self):
        _, medium = make_medium()
        with pytest.raises(ValueError):
            medium.attach(1, lambda: Position(0, 0), 0.0, lambda p: None)
