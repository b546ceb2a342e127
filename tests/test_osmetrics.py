import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from melcep.cepstral import mel_cepstrogram, quefrency_power
from melcep.osmetrics import (
    DegenerateFrameError,
    MetricConfig,
    ccentroid,
    croll95,
    croll95_soft,
    cslope,
    hqer,
    utterance_metrics,
)
from melcep.spectral import LogMelSpectrogram

from conftest import speechy_frame
from oracles import metrics_csv_rows

Q = 41
CFG = MetricConfig()


def uniform_power():
    p = np.ones(Q)
    p[0] = 0.0
    return p


def point_mass(q, value=1.0):
    p = np.zeros(Q)
    p[q] = value
    return p


def test_default_cutoff_is_quarter_q():
    assert CFG.resolve_cutoff(Q) == 10


def test_hqer_uniform():
    assert hqer(uniform_power(), CFG) == pytest.approx(31 / 40, abs=1e-12)
    assert hqer(uniform_power(), CFG) == pytest.approx(0.775, abs=1e-12)


def test_hqer_below_cutoff_mass():
    assert hqer(point_mass(3), CFG) == 0.0


def test_hqer_cutoff_extremes():
    assert hqer(uniform_power(), MetricConfig(cutoff_q=1)) == 1.0
    assert hqer(uniform_power(), MetricConfig(cutoff_q=Q)) == 0.0


def test_cslope_flat_is_zero():
    assert cslope(np.full(Q, 2.5), CFG) == pytest.approx(0.0, abs=1e-9)


def test_cslope_exact_line():
    q = np.arange(Q, dtype=float)
    p = 10.0 ** (-q / 10.0)
    assert cslope(p, CFG) == pytest.approx(-1.0, abs=1e-6)


def test_ccentroid_point_mass():
    assert ccentroid(point_mass(7), CFG) == pytest.approx(7.0)


def test_ccentroid_uniform():
    assert ccentroid(uniform_power(), CFG) == pytest.approx(20.5, abs=1e-12)


def test_croll95_point_mass_at_1():
    assert croll95(point_mass(1), CFG) == 1


def test_croll95_uniform_exact_quantile():
    # 38/40 = 0.95 exactly
    assert croll95(uniform_power(), CFG) == 38


def test_croll95_soft_tau_zero_is_midpoint():
    assert croll95_soft(uniform_power(), MetricConfig(soft_tau=0.0)) == pytest.approx(20.5)


def test_croll95_soft_uniform_converges_to_hard():
    soft = croll95_soft(uniform_power(), MetricConfig(soft_tau=200.0))
    assert abs(soft - 38.0) < 0.5


def test_croll95_soft_point_mass_plateau():
    # after a point mass at q the cumulative fraction sits at 1.0, so every
    # later bin ties at |F - 0.95| = 0.05 and the surrogate returns the
    # plateau midpoint (5 + 40)/2, not the hard rolloff
    soft = croll95_soft(point_mass(5), MetricConfig(soft_tau=50.0))
    assert soft == pytest.approx(22.5, abs=1e-6)


def test_croll95_soft_tracks_hard_on_tieless_power(rng):
    cfg = MetricConfig(soft_tau=500.0)
    worst = 0.0
    for _ in range(300):
        p = np.zeros(Q)
        p[1:] = rng.uniform(0.5, 1.5, Q - 1)
        worst = max(worst, abs(croll95_soft(p, cfg) - croll95(p, CFG)))
    # the tau->inf limit lands on the bin whose cumulative fraction is
    # nearest the target, which is the hard bin or its predecessor
    assert worst <= 1.05


def test_scaling_invariance(rng):
    p = np.zeros(Q)
    p[1:] = rng.exponential(1.0, Q - 1) + 0.01
    for scale in (10.0, 1e4):
        assert ccentroid(p * scale, CFG) == pytest.approx(ccentroid(p, CFG), rel=1e-12)
        assert croll95(p * scale, CFG) == croll95(p, CFG)
        assert hqer(p * scale, CFG) == pytest.approx(hqer(p, CFG), rel=1e-12)
    assert abs(cslope(p * 10.0, CFG) - cslope(p, CFG)) < 1e-6


def test_degenerate_frame_raises():
    with pytest.raises(DegenerateFrameError):
        hqer(np.zeros(Q), CFG)
    with pytest.raises(DegenerateFrameError):
        ccentroid(point_mass(0, 5.0), CFG)  # only DC power
    with pytest.raises(DegenerateFrameError):
        croll95(np.zeros(Q), CFG)
    # cslope needs no division by the power, but it takes the same frames as the others
    with pytest.raises(DegenerateFrameError):
        cslope(np.zeros(Q), CFG)
    with pytest.raises(DegenerateFrameError):
        cslope(point_mass(0, 5.0), CFG)


def test_frame_metrics_bundle(rng):
    p = np.zeros(Q)
    p[1:] = rng.exponential(1.0, Q - 1)
    assert 0.0 <= hqer(p, CFG) <= 1.0
    assert 1.0 <= ccentroid(p, CFG) <= Q - 1
    assert 1 <= croll95(p, CFG) <= Q - 1
    assert np.isfinite(cslope(p, CFG))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_metric_ranges_on_random_frames(seed):
    rng = np.random.default_rng(seed)
    p = np.zeros(Q)
    p[1:] = rng.exponential(1.0, Q - 1) + 1e-9
    assert 0.0 <= hqer(p, CFG) <= 1.0
    assert 1.0 <= ccentroid(p, CFG) <= Q - 1
    assert 1 <= croll95(p, CFG) <= Q - 1


def _qp_from_frames(frames):
    return quefrency_power(mel_cepstrogram(LogMelSpectrogram(np.asarray(frames, dtype=float).T)))


def test_utterance_metrics_single_frame(rng):
    frame = speechy_frame(rng)
    um = utterance_metrics(_qp_from_frames([frame]), CFG)
    assert um.n_frames == 1
    for name in ("hqer", "cslope", "ccentroid", "croll95"):
        assert um.means[name] == pytest.approx(float(getattr(um, name)[0]))


def test_utterance_metrics_duplicated_frame_zero_std(rng):
    frame = speechy_frame(rng)
    um = utterance_metrics(_qp_from_frames([frame, frame, frame]), CFG)
    assert um.n_frames == 3
    for name in ("hqer", "cslope", "ccentroid", "croll95"):
        series = getattr(um, name)
        assert (series == series[0]).all()


def test_utterance_metrics_excludes_degenerate(rng):
    flat = np.full(80, -6.0)
    live = speechy_frame(rng)
    um = utterance_metrics(_qp_from_frames([flat, live, flat]), CFG)
    assert um.n_frames == 1
    assert list(um.frame_indices) == [1]


def test_utterance_metrics_all_degenerate_raises():
    with pytest.raises(DegenerateFrameError):
        utterance_metrics(_qp_from_frames([np.full(80, -3.0), np.full(80, 1.0)]), CFG)


def test_metric_series_csv(tmp_path, rng):
    um = utterance_metrics(_qp_from_frames([speechy_frame(rng) for _ in range(4)]), CFG)
    path = tmp_path / "m.csv"
    um.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "frame_index,hqer,cslope,ccentroid,croll95"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[1]) == pytest.approx(um.hqer[0], rel=1e-5)


def test_config_validation():
    with pytest.raises(ValueError):
        MetricConfig(eps=0.0)
    with pytest.raises(ValueError):
        MetricConfig(rolloff_fraction=1.0)
    with pytest.raises(ValueError):
        MetricConfig(soft_tau=-1.0)
    with pytest.raises(ValueError):
        MetricConfig(cutoff_q=0).resolve_cutoff(Q)
    with pytest.raises(ValueError):
        MetricConfig(cutoff_q=Q + 1).resolve_cutoff(Q)


def test_cslope_needs_three_bins():
    with pytest.raises(ValueError):
        cslope(np.array([1.0, 2.0]), CFG)


def test_metric_csv_equals_row_writer(tmp_path, rng):
    for trial in range(20):
        frames = [speechy_frame(rng) for _ in range(int(rng.integers(1, 60)))]
        um = utterance_metrics(_qp_from_frames(frames), CFG)
        if trial % 2:  # values of every magnitude and sign, NaN and inf
            n = um.n_frames
            um.hqer = rng.normal(0, 10.0 ** rng.uniform(-12, 12, n))
            um.cslope = np.where(rng.random(n) < 0.1, np.nan, rng.normal(0, 1e-5, n))
            um.ccentroid = np.where(rng.random(n) < 0.1, -np.inf, rng.uniform(-1e7, 1e7, n))
        path = tmp_path / "m.csv"
        um.to_csv(path)
        expected = metrics_csv_rows(um.frame_indices, um.hqer, um.cslope, um.ccentroid, um.croll95)
        assert path.read_bytes() == expected.encode("utf-8")
