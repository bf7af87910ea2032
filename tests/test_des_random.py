"""Unit tests for seeded random streams."""

from repro.des.random import RandomStream, StreamFactory


def test_same_seed_same_sequence():
    a = RandomStream(99)
    b = RandomStream(99)
    assert [a.random() for _ in range(20)] == [b.random() for _ in range(20)]


def test_bulk_draw_is_the_scalar_sequence():
    bulk = RandomStream(99)
    scalar = RandomStream(99)
    assert bulk.randoms(33).tolist() == [scalar.random() for _ in range(33)]
    assert bulk.randoms(0).shape == (0,)
    assert bulk.getstate() == scalar.getstate()


def test_different_seeds_diverge():
    a = RandomStream(1)
    b = RandomStream(2)
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_uniform_bounds():
    rng = RandomStream(7)
    for _ in range(200):
        value = rng.uniform(2.0, 5.0)
        assert 2.0 <= value <= 5.0


def test_randint_inclusive():
    rng = RandomStream(7)
    values = {rng.randint(1, 3) for _ in range(200)}
    assert values == {1, 2, 3}


def test_chance_extremes():
    rng = RandomStream(7)
    assert not rng.chance(0.0)
    assert rng.chance(1.0)
    assert not rng.chance(-0.5)
    assert rng.chance(1.5)


def test_chance_roughly_calibrated():
    rng = RandomStream(7)
    hits = sum(rng.chance(0.3) for _ in range(5000))
    assert 0.25 < hits / 5000 < 0.35


def test_jitter_bounds():
    rng = RandomStream(7)
    for _ in range(100):
        value = rng.jitter(10.0, 0.2)
        assert 8.0 <= value <= 12.0


def test_choice_and_sample():
    rng = RandomStream(7)
    items = ["a", "b", "c", "d"]
    assert rng.choice(items) in items
    sampled = rng.sample(items, 2)
    assert len(sampled) == 2
    assert set(sampled) <= set(items)


def test_shuffle_preserves_elements():
    rng = RandomStream(7)
    items = list(range(10))
    rng.shuffle(items)
    assert sorted(items) == list(range(10))


def test_expovariate_positive():
    rng = RandomStream(7)
    assert all(rng.expovariate(2.0) > 0 for _ in range(100))


class TestStreamFactory:
    def test_same_name_same_stream(self):
        factory = StreamFactory(5)
        a = factory.stream("medium")
        b = factory.stream("medium")
        assert [a.random() for _ in range(5)] == [b.random()
                                                  for _ in range(5)]

    def test_different_names_independent(self):
        factory = StreamFactory(5)
        a = factory.stream("medium")
        b = factory.stream("mobility")
        assert [a.random() for _ in range(5)] != [b.random()
                                                  for _ in range(5)]

    def test_different_master_seeds_differ(self):
        a = StreamFactory(1).stream("x")
        b = StreamFactory(2).stream("x")
        assert a.random() != b.random()

    def test_stable_across_instances(self):
        # Derivation must not depend on interpreter hash salting.
        a = StreamFactory(123).stream("component").seed
        b = StreamFactory(123).stream("component").seed
        assert a == b

    def test_streams_iterator(self):
        factory = StreamFactory(5)
        names = ["a", "b", "c"]
        streams = list(factory.streams(names))
        assert len(streams) == 3
        seeds = {s.seed for s in streams}
        assert len(seeds) == 3
