"""The pure-Python load statistics round exactly as numpy does.

Each reference below is the numpy code these functions replaced. Values come
from a seeded generator so that arrays can be long: numpy's pairwise sum
changes shape at 8 and 128 values, and large arrays are where the order of
additions shows most.
"""

import random
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from icnsim import metrics as M

np = pytest.importorskip("numpy")

# Lengths on both sides of each change in numpy's pairwise sum, and of the
# 8192-element buffer of numpy's iterator, which a contiguous array bypasses.
EDGE_LENGTHS = [1, 2, 7, 8, 9, 15, 16, 17, 127, 128, 129, 130, 255, 256, 257, 8191, 8192, 8193]


def random_loads(rng, count, zero_share, scale):
    """Loads >= +0.0 of mixed magnitude; about ``zero_share`` of them exact zeros."""
    return [0.0 if rng.random() < zero_share else rng.random() * scale * rng.choice([1.0, 1e-3, 1e3])
            for _ in range(count)]


def numpy_load_statistics(rows):
    """(offered, avg, std) exactly as ``summarize`` computed them with numpy."""
    loads = np.array(rows, dtype=float)
    channels = loads.shape[1]
    sums = np.cumsum(loads, axis=1)[:, -1]
    means = sums / channels
    sq = np.cumsum(loads * loads, axis=1)[:, -1]
    variances = np.maximum(sq / channels - means * means, 0.0)
    return float(np.mean(sums)), float(np.mean(loads)), float(np.mean(np.sqrt(variances)))


def summary_statistics(rows):
    s = M.summarize(M.LoadLog([100.0] * len(rows), rows), [], 50.0, 950.0)
    return s.offered_load_mbps, s.avg_load_mbps, s.std_load_mbps


lengths = st.one_of(st.sampled_from(EDGE_LENGTHS), st.integers(1, 400))
zero_shares = st.sampled_from([0.0, 0.5, 0.8, 0.95, 1.0])
scales = st.sampled_from([1.0, 2048.0, 1e9])


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32), n=lengths, zero_share=zero_shares, scale=scales)
def test_mean_matches_numpy(seed, n, zero_share, scale):
    values = random_loads(random.Random(seed), n, zero_share, scale)
    assert M._mean(values) == float(np.mean(np.array(values)))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(0.0, 1e300), min_size=1, max_size=300))
def test_mean_matches_numpy_on_drawn_values(values):
    assert M._mean(values) == float(np.mean(np.array(values)))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32), rows=st.sampled_from([1, 2, 7, 8, 9, 40, 129]),
       channels=st.sampled_from([1, 7, 8, 9, 60, 128, 129, 300]), zero_share=zero_shares, scale=scales)
def test_row_statistics_match_numpy(seed, rows, channels, zero_share, scale):
    rng = random.Random(seed)
    table = [random_loads(rng, channels, zero_share, scale) for _ in range(rows)]
    loads = np.array(table)
    sums, squares = M._row_sums(table)
    assert sums == np.cumsum(loads, axis=1)[:, -1].tolist()
    assert squares == np.cumsum(loads * loads, axis=1)[:, -1].tolist()
    assert M._mean(list(chain.from_iterable(table))) == float(np.mean(loads))
    assert M._mean(sums) == float(np.mean(np.cumsum(loads, axis=1)[:, -1]))
    assert summary_statistics(table) == numpy_load_statistics(table)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8).flatmap(lambda channels: st.lists(
    st.lists(st.floats(0.0, 2048.0), min_size=channels, max_size=channels), min_size=1, max_size=20)))
def test_load_statistics_match_numpy_on_drawn_rows(rows):
    assert summary_statistics(rows) == numpy_load_statistics(rows)


@pytest.mark.parametrize("seed", [5, 6])
def test_load_statistics_match_numpy_at_desk_batch_size(seed):
    # 4,500 sample times x 60 channels = 270,000 loads; as on the desk
    # scenario, most channels are idle at most times.
    rng = random.Random(seed)
    rows = [random_loads(rng, 60, 0.7, 2048.0) for _ in range(4500)]
    assert summary_statistics(rows) == numpy_load_statistics(rows)
    assert M._row_sums(rows)[0] == np.cumsum(np.array(rows), axis=1)[:, -1].tolist()
