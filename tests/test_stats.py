import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from melcep import stats
from melcep.stats import (
    EXACT_MAX_N,
    UtteranceStats,
    exact_p,
    exact_u_counts,
    mann_whitney_u,
    normal_p,
    summarize,
)
from scipy.stats import rankdata

from oracles import mw_exact_p_bruteforce


def test_u_counts_sum_to_binomial():
    for n1, n2 in ((3, 3), (4, 4), (2, 5), (6, 6)):
        counts = exact_u_counts(n1, n2)
        assert counts.sum() == math.comb(n1 + n2, n1)
        assert counts.size == n1 * n2 + 1
        assert np.array_equal(counts, counts[::-1])  # symmetric null


def test_separated_samples_exact():
    u, p = mann_whitney_u([1, 2, 3], [4, 5, 6])
    assert u == 0.0
    assert p == pytest.approx(0.1, abs=1e-15)


def test_identical_multisets_near_one():
    _, p = mann_whitney_u([1, 2, 3], [1, 2, 3])
    assert p >= 0.99


def test_all_values_identical_p_one():
    u, p = mann_whitney_u([5.0, 5.0], [5.0, 5.0, 5.0])
    assert p == 1.0
    assert u == 3.0  # midranks put U at n1*n2/2


def test_exact_branch_matches_bruteforce(rng):
    for _ in range(50):
        x = rng.normal(0, 1, 4)
        y = rng.normal(0.5, 1, 4)
        assert np.unique(np.concatenate([x, y])).size == 8
        u, p = mann_whitney_u(x, y)
        u_ref, p_ref = mw_exact_p_bruteforce(x, y)
        assert u == u_ref
        assert abs(p - p_ref) < 1e-12


def test_normal_branch_close_to_exact_for_size_six(rng):
    worst = 0.0
    for _ in range(40):
        x = rng.normal(0, 1, 6)
        y = rng.normal(0.8, 1, 6)
        pooled = np.concatenate([x, y])
        if np.unique(pooled).size != 12:
            continue
        u, p_exact_branch = mann_whitney_u(x, y)
        ranked = rankdata(pooled)
        p_norm = normal_p(u, 6, 6, ranked)
        assert p_exact_branch == pytest.approx(exact_p(u, 6, 6), abs=1e-15)
        worst = max(worst, abs(p_norm - p_exact_branch))
    assert worst < 0.03


def test_u_complement_identity(rng):
    for _ in range(20):
        x = rng.normal(0, 1, int(rng.integers(2, 15)))
        y = rng.normal(0, 1, int(rng.integers(2, 15)))
        u_xy, _ = mann_whitney_u(x, y)
        u_yx, _ = mann_whitney_u(y, x)
        assert abs(u_xy + u_yx - len(x) * len(y)) < 1e-9


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=-50, max_value=50), min_size=2, max_size=10),
    st.lists(st.integers(min_value=-50, max_value=50), min_size=2, max_size=10),
)
def test_p_invariant_under_monotone_transform(xs, ys):
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    _, p1 = mann_whitney_u(x, y)
    # strictly monotone map applied jointly preserves all rank relations
    _, p2 = mann_whitney_u(np.exp(x / 25.0), np.exp(y / 25.0))
    assert p1 == pytest.approx(p2, abs=1e-9)


def test_large_separated_samples_tiny_p():
    x = np.arange(20, dtype=float)
    y = np.arange(100, 120, dtype=float)
    u, p = mann_whitney_u(x, y)
    assert u == 0.0
    assert p < 1e-6


def test_empty_sample_rejected():
    with pytest.raises(ValueError):
        mann_whitney_u([], [1.0])


@pytest.mark.parametrize("x, y", [([math.nan, 1.0, 2.0], [3.0, 4.0, 5.0]), ([1.0], [math.nan, math.nan]),
                                  (np.arange(13.0), np.append(np.arange(12.0), math.nan))])
def test_nan_sample_rejected(x, y):
    """A NaN has no rank: the test is undefined, not significant (it gave p = 0)."""
    with pytest.raises(ValueError, match="NaN"):
        mann_whitney_u(x, y)


def test_infinities_rank_at_the_ends():
    u, p = mann_whitney_u([-math.inf, 1.0, 2.0], [3.0, 4.0, math.inf])
    assert (u, p) == mann_whitney_u([0.0, 1.0, 2.0], [3.0, 4.0, 5.0])


def test_exact_branch_bounds():
    assert EXACT_MAX_N == 12
    # ties force the normal branch even for tiny samples
    u, p = mann_whitney_u([1.0, 2.0], [2.0, 3.0])
    assert 0.0 < p <= 1.0


def test_signed_zeros_and_infinities_are_ties():
    # -0.0 == 0.0 and inf == inf, so these 10 values take the normal branch
    x, y = [0.0, 5.0, 6.0, 7.0, math.inf], [-0.0, 1.0, 2.0, 3.0, math.inf]
    u, p = mann_whitney_u(x, y)
    assert u == 17.0
    assert p == normal_p(u, 5, 5, rankdata(x + y)) != exact_p(u, 5, 5)


def test_summarize_single_utterance():
    s = summarize([UtteranceStats("u1", duration_s=4.0)])
    m = s.measures["duration_s"]
    assert m.mean == 4.0 and m.std == 0.0 and m.median == 4.0 and m.count == 1


def test_summarize_two_durations():
    s = summarize([UtteranceStats("a", duration_s=4.0), UtteranceStats("b", duration_s=6.0)])
    m = s.measures["duration_s"]
    assert m.mean == 5.0 and m.std == 1.0 and m.count == 2


def test_summarize_skips_missing_measures():
    corpus = [
        UtteranceStats("a", duration_s=2.0, spr=12.0),
        UtteranceStats("b", duration_s=4.0),
    ]
    s = summarize(corpus)
    assert s.measures["duration_s"].count == 2
    assert s.measures["spr"].count == 1
    assert "mu_f0" not in s.measures


def test_summarize_empty_corpus():
    with pytest.raises(ValueError):
        summarize([])


def test_midranks_equal_rankdata_on_tied_draws(rng):
    for _ in range(2000):
        n = int(rng.integers(1, 80))
        a = rng.integers(0, int(rng.integers(1, 40)), n).astype(np.float64) * rng.choice([1.0, 0.1, -2.5])
        assert np.array_equal(stats._midranks(a), rankdata(a))
    a = np.array([3.0, np.nan, 1.0, 3.0])
    assert np.array_equal(stats._midranks(a), rankdata(a), equal_nan=True)


_EDGE_VALUES = [0.0, -0.0, 1.0, -1.0, 2.5, 5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan]


@settings(max_examples=400, deadline=None)
@given(values=st.lists(st.sampled_from(_EDGE_VALUES) | st.floats(allow_nan=True), min_size=1, max_size=12))
def test_median_equals_numpy_median(values):
    # odd and even sizes, NaN, inf, signed zeros and overflowing middle pairs
    values = np.array(values)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = np.median(values)
    got = stats._median(values)
    if math.isnan(expected):
        assert math.isnan(got)
    else:
        assert got == expected and math.copysign(1.0, got) == math.copysign(1.0, expected)
