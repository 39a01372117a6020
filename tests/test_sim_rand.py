"""Unit tests for deterministic random streams."""

import random
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import RandomStream, substream
from repro.sim.rand import zipf_cdf
from repro.trace import OpType, SyntheticTraceGenerator
from repro.trace.synth import MIN_DRAW_BYTES, WorkloadProfile


def _initial_file_sizes(**profile):
    """Sizes of the initial files' WRITEs: one lognormal file-size draw
    each, which the trace generator takes from its stream's ``rng``."""
    profile = WorkloadProfile(name="sizes", duration_s=1.0, **profile)
    return [r.nbytes for r in SyntheticTraceGenerator(profile).generate()
            if r.op is OpType.WRITE and r.time == 0.0][:profile.initial_files]


def _search_loop(cdf, u):
    """Rank of ``u`` by the hand-written binary search that
    ``zipf_index`` used before it called ``bisect_left``."""
    lo, hi = 0, len(cdf) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if cdf[mid] < u:
            lo = mid + 1
        else:
            hi = mid
    return lo


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

    def test_expovariate_mean(self):
        s = RandomStream(3)
        n = 5000
        mean = sum(s.expovariate(2.0) for _ in range(n)) / n
        assert mean == pytest.approx(0.5, rel=0.1)

    def test_expovariate_invalid_rate(self):
        with pytest.raises(ValueError):
            RandomStream(1).expovariate(0.0)

    def test_lognormal_median(self):
        sizes = sorted(_initial_file_sizes(initial_files=2001, file_size_median=100.0,
                                           file_size_sigma=1.0))
        assert sizes[1000] == pytest.approx(100.0, rel=0.2)

    def test_bounded_lognormal_clamps(self):
        sizes = _initial_file_sizes(initial_files=200, file_size_median=100.0,
                                    file_size_sigma=3.0, max_file_bytes=500)
        assert all(MIN_DRAW_BYTES <= v <= 500 for v in sizes)
        assert min(sizes) == MIN_DRAW_BYTES and max(sizes) == 500

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

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=400),
        skew=st.floats(min_value=0.0, max_value=4.0),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_matches_the_search_loop(self, n, skew, seed):
        u = random.Random(seed).random()
        assert RandomStream(seed).zipf_index(n, skew) == _search_loop(zipf_cdf(n, skew), u)

    @settings(max_examples=300, deadline=None)
    @given(
        cdf=st.lists(st.floats(min_value=0.0, max_value=1.5), min_size=1, max_size=50),
        u=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    )
    def test_bisect_probes_like_the_loop_on_any_table(self, cdf, u):
        # Any table, even unsorted or with entries past 1.0 before the
        # end: the two searches probe the same entries in the same order.
        assert bisect_left(cdf, u, 0, len(cdf) - 1) == _search_loop(cdf, u)
