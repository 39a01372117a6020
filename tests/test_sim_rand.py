"""Unit tests for deterministic random streams."""

import pytest

from repro.sim import RandomStream, substream


class TestDeterminism:
    def test_same_seed_same_draws(self):
        a, b = RandomStream(42), RandomStream(42)
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_substreams_independent_of_each_other(self):
        a = substream(1, "traces")
        b = substream(1, "failures")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_substream_reproducible(self):
        assert substream(7, "x").random() == substream(7, "x").random()


class TestDistributions:
    def test_randint_inclusive(self):
        s = RandomStream(2)
        values = {s.randint(0, 3) for _ in range(200)}
        assert values == {0, 1, 2, 3}

    def test_choice_empty_rejected(self):
        with pytest.raises(ValueError):
            RandomStream(1).choice([])

    def test_expovariate_mean(self):
        s = RandomStream(3)
        n = 5000
        mean = sum(s.expovariate(2.0) for _ in range(n)) / n
        assert mean == pytest.approx(0.5, rel=0.1)

    def test_expovariate_invalid_rate(self):
        with pytest.raises(ValueError):
            RandomStream(1).expovariate(0.0)

    def test_lognormal_median(self):
        s = RandomStream(4)
        samples = sorted(s.lognormal(100.0, 1.0) for _ in range(2001))
        assert samples[1000] == pytest.approx(100.0, rel=0.2)

    def test_bounded_lognormal_clamps(self):
        s = RandomStream(5)
        for _ in range(200):
            v = s.bounded_lognormal(100.0, 3.0, 10.0, 500.0)
            assert 10.0 <= v <= 500.0

    def test_bernoulli_extremes(self):
        s = RandomStream(6)
        assert not any(s.bernoulli(0.0) for _ in range(50))
        assert all(s.bernoulli(1.0) for _ in range(50))

    def test_bernoulli_invalid(self):
        with pytest.raises(ValueError):
            RandomStream(1).bernoulli(1.5)


class TestZipf:
    def test_indices_in_range(self):
        s = RandomStream(7)
        for _ in range(200):
            assert 0 <= s.zipf_index(10, 1.0) < 10

    def test_skew_concentrates_on_head(self):
        s = RandomStream(8)
        n = 4000
        head_hits = sum(1 for _ in range(n) if s.zipf_index(100, 1.2) < 5)
        assert head_hits / n > 0.4  # heavy head under strong skew

    def test_zero_skew_is_uniformish(self):
        s = RandomStream(9)
        n = 4000
        head_hits = sum(1 for _ in range(n) if s.zipf_index(100, 0.0) < 5)
        assert head_hits / n == pytest.approx(0.05, abs=0.03)

    def test_invalid_args(self):
        s = RandomStream(10)
        with pytest.raises(ValueError):
            s.zipf_index(0, 1.0)
        with pytest.raises(ValueError):
            s.zipf_index(10, -1.0)
