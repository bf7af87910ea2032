"""Top-up tests for remaining edge paths across modules."""

import pytest

from repro.core.messages import DataMessage, GossipMessage, MessageId
from repro.core.store import MessageStore
from repro.crypto.keystore import HmacScheme, KeyDirectory
from repro.overlay.metrics import OverlayQuality
from repro.radio.geometry import Position


@pytest.fixture
def signer():
    return KeyDirectory(HmacScheme(seed=b"misc")).issue(1)


class TestGossipBatches:
    def fill(self, store, signer, count):
        for seq in range(count):
            store.add_message(DataMessage.create(signer, seq, b"x"), 0.0)
            store.add_gossip(GossipMessage.create(signer, seq))
            store.start_gossiping(MessageId(1, seq), 0.0)

    def test_splits_into_limit_sized_packets(self, signer):
        store = MessageStore()
        self.fill(store, signer, 7)
        batches = store.gossip_batches(3)
        assert [len(b) for b in batches] == [3, 3, 1]
        seqs = {g.msg_id.seq for batch in batches for g in batch}
        assert seqs == set(range(7))

    def test_limit_one_is_one_packet_per_entry(self, signer):
        store = MessageStore()
        self.fill(store, signer, 4)
        batches = store.gossip_batches(1)
        assert len(batches) == 4
        assert all(len(b) == 1 for b in batches)

    def test_age_filter(self, signer):
        store = MessageStore()
        store.add_message(DataMessage.create(signer, 1, b"x"), 0.0)
        store.add_gossip(GossipMessage.create(signer, 1))
        store.start_gossiping(MessageId(1, 1), 0.0)
        assert store.gossip_batches(8, now=100.0, max_age=6.0) == []

    def test_invalid_limit(self, signer):
        with pytest.raises(ValueError):
            MessageStore().gossip_batches(0)

    def test_purge_one(self, signer):
        store = MessageStore()
        self.fill(store, signer, 2)
        assert store.purge_one(MessageId(1, 0))
        assert not store.purge_one(MessageId(1, 0))  # already gone
        assert store.message(MessageId(1, 0)) is None
        assert store.message(MessageId(1, 1)) is not None


class TestOverlayQualityHealthy:
    def test_healthy_requires_both(self):
        good = OverlayQuality(overlay_size=2, correct_overlay_size=2,
                              coverage=1.0, correct_overlay_connected=True,
                              overlay_fraction=0.5)
        assert good.healthy
        uncovered = OverlayQuality(overlay_size=2, correct_overlay_size=2,
                                   coverage=0.9,
                                   correct_overlay_connected=True,
                                   overlay_fraction=0.5)
        assert not uncovered.healthy
        split = OverlayQuality(overlay_size=2, correct_overlay_size=2,
                               coverage=1.0,
                               correct_overlay_connected=False,
                               overlay_fraction=0.5)
        assert not split.healthy


class TestCliExtras:
    def test_gaussmarkov_mobility_flag(self):
        import io
        from repro.cli import main
        out = io.StringIO()
        code = main(["run", "--n", "10", "--mobility", "gaussmarkov",
                     "--messages", "2", "--warmup", "4", "--drain", "6",
                     "--interval", "1.0", "--seed", "3"], out=out)
        assert code == 0
        assert "delivery" in out.getvalue()

    def test_misb_rule_flag(self):
        import io
        from repro.cli import main
        out = io.StringIO()
        code = main(["run", "--n", "10", "--rule", "mis+b",
                     "--messages", "2", "--warmup", "5", "--drain", "6",
                     "--interval", "1.0", "--seed", "3"], out=out)
        assert code == 0


class TestGeometryEdge:
    def test_zero_distance(self):
        p = Position(3.0, 4.0)
        assert p.distance_to(p) == 0.0
        assert p.within(p, 0.1)

    def test_within_zero_radius(self):
        assert not Position(0, 0).within(Position(0, 0), 0.0)
