import numpy as np
import pytest
from scipy.ndimage import convolve1d

from melcep.cepstral import mel_cepstrogram, quefrency_power
from melcep.osmetrics import SERIES, MetricConfig, ccentroid_series, hqer_series
from melcep.spectral import LogMelSpectrogram
from melcep.synthlab import (
    FILTER_STRENGTHS,
    KINDS,
    DegradationSpec,
    DEFAULT_SEED,
    _gaussian_kernel,
    degrade,
    noise_spectrogram,
    run_monotonicity_suite,
    synth_harmonic_spectrogram,
)

from oracles import monotonicity_suite_loop

CFG = MetricConfig()


def _qp(s):
    return quefrency_power(mel_cepstrogram(s))


def test_identity_degradations(rng):
    s = noise_spectrogram(rng, n_frames=6)
    for spec in (
        DegradationSpec("mel_moving_average", 1),
        DegradationSpec("mel_gaussian_blur", 1),
        DegradationSpec("variance_shrink", 1.0),
    ):
        out = degrade(s, spec)
        assert np.array_equal(out.values, s.values)


def test_variance_shrink_zero_collapses_frames(rng):
    s = noise_spectrogram(rng, n_frames=5)
    out = degrade(s, DegradationSpec("variance_shrink", 0.0))
    assert np.allclose(out.values, out.values.mean(axis=0, keepdims=True))
    qp = _qp(out)
    assert qp.degenerate.all()
    assert np.abs(qp.power).max() < 1e-12


def test_moving_average_width5_strictly_lowers_hqer(rng):
    s = noise_spectrogram(rng, n_frames=40)
    base = _qp(s)
    smoothed = _qp(degrade(s, DegradationSpec("mel_moving_average", 5)))
    ok = ~base.degenerate & ~smoothed.degenerate
    h0 = hqer_series(base.power, CFG)[ok]
    h1 = hqer_series(smoothed.power, CFG)[ok]
    assert ok.sum() == 40
    assert np.all(h1 < h0)


def test_filters_are_linear(rng):
    a = noise_spectrogram(rng, n_frames=8)
    b = noise_spectrogram(rng, n_frames=8)
    for kind in ("mel_moving_average", "mel_gaussian_blur"):
        spec = DegradationSpec(kind, 7)
        lhs = degrade(LogMelSpectrogram(a.values + b.values), spec).values
        rhs = degrade(a, spec).values + degrade(b, spec).values
        assert np.abs(lhs - rhs).max() < 1e-9


def test_degrade_rejects_bad_strength():
    with pytest.raises(ValueError):
        DegradationSpec("mel_moving_average", 4)
    with pytest.raises(ValueError):
        DegradationSpec("mel_gaussian_blur", 2.5)
    with pytest.raises(ValueError):
        DegradationSpec("variance_shrink", 1.5)
    with pytest.raises(ValueError):
        DegradationSpec("spectral_warp", 3)
    # an infinite width once raised OverflowError from int()
    for kind in KINDS:
        for strength in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match=f"^strength must be finite, got {strength}$"):
                DegradationSpec(kind, strength)


def test_harmonic_ripple_centroid_near_expected():
    s = synth_harmonic_spectrogram(n_frames=20, period_bins=16, amplitude=1.5)
    qp = _qp(s)
    assert not qp.degenerate.any()
    cents = ccentroid_series(qp.power, CFG)
    assert np.abs(cents - 80 / 16).max() <= 1.0


def test_harmonic_zero_amplitude_degenerate():
    s = synth_harmonic_spectrogram(n_frames=5, period_bins=16, amplitude=0.0)
    assert _qp(s).degenerate.all()


def test_superposed_ripples_centroid_between_components():
    b = np.arange(80)[:, None]
    m = np.arange(12)[None, :]
    values = -6.0 + 1.0 * np.cos(2 * np.pi * b / 16.0 + 0.3 * m) + 1.0 * np.cos(2 * np.pi * b / 4.0 + 0.5 * m)
    qp = _qp(LogMelSpectrogram(values))
    cents = ccentroid_series(qp.power, CFG)
    assert np.all(cents > 5.0) and np.all(cents < 20.0)


def test_harmonic_rejects_bad_period():
    with pytest.raises(ValueError):
        synth_harmonic_spectrogram(5, period_bins=1.0, amplitude=1.0)
    with pytest.raises(ValueError):
        synth_harmonic_spectrogram(5, period_bins=60.0, amplitude=1.0)


def test_monotonicity_suite_passes_small():
    report = run_monotonicity_suite(n_spectrograms=25, n_frames=20)
    assert report.passed
    assert all(r.frames_checked > 0 for r in report.results)


def test_monotonicity_suite_negative_control():
    def inverted(p, cfg=None):
        return 1.0 - hqer_series(p, cfg)

    report = run_monotonicity_suite(
        n_spectrograms=5, n_frames=10, series_fns={"hqer": inverted}
    )
    assert not report.passed


def _inverted_hqer(p, cfg=None):
    return 1.0 - hqer_series(p, cfg)


@pytest.mark.parametrize("series_fns", [None, dict(SERIES, hqer=_inverted_hqer)], ids=["series", "injected"])
@pytest.mark.parametrize("seed, n_spectrograms, n_frames", [(DEFAULT_SEED, 7, 30), (1, 13, 2), (2, 3, 17), (3, 40, 5)])
def test_one_pass_suite_equals_per_spectrogram_loop(seed, n_spectrograms, n_frames, series_fns):
    results = run_monotonicity_suite(n_spectrograms, n_frames, seed, series_fns).results
    assert results == monotonicity_suite_loop(n_spectrograms, n_frames, seed, series_fns)
    assert len(results) == 11 and all(r.frames_checked > 0 for r in results)
    # the injected metric's violations carry excess values, which must match too
    assert (series_fns is None) == all(r.passed for r in results)


def test_one_pass_suite_on_one_frame_spectrograms():
    """A one-frame spectrogram's sums run over contiguous memory, where numpy
    adds pairwise, so the loop's excess values may differ from the one-pass
    suite's in the last bits; the counts are equal."""
    series_fns = dict(SERIES, hqer=_inverted_hqer)
    results = run_monotonicity_suite(13, 1, DEFAULT_SEED, series_fns).results
    expected = monotonicity_suite_loop(13, 1, DEFAULT_SEED, series_fns)
    for got, want in zip(results, expected, strict=True):
        assert (got.kind, got.strength, got.frames_checked, got.violations) == (
            want.kind, want.strength, want.frames_checked, want.violations)
        assert got.max_excess == pytest.approx(want.max_excess, rel=1e-12, abs=1e-12)


def test_suite_csv_one_row_per_kind_strength():
    report = run_monotonicity_suite(n_spectrograms=2, n_frames=6)
    lines = report.to_csv().strip().splitlines()
    # 4 moving-average widths + 4 gaussian widths + 3 shrink factors past identity
    assert len(lines) == 1 + 4 + 4 + 3
    assert lines[0].startswith("kind,strength,frames")


def test_suite_csv_columns_follow_checked_metrics():
    report = run_monotonicity_suite(n_spectrograms=2, n_frames=6, series_fns=dict(SERIES, hqer2=SERIES["hqer"]))
    header = report.to_csv().splitlines()[0].split(",")
    names = [*SERIES, "hqer2"]
    assert header == ["kind", "strength", "frames", *(f"violations_{n}" for n in names),
                      *(f"max_excess_{n}" for n in names)]


def test_suite_deterministic():
    a = run_monotonicity_suite(n_spectrograms=3, n_frames=8, seed=DEFAULT_SEED)
    b = run_monotonicity_suite(n_spectrograms=3, n_frames=8, seed=DEFAULT_SEED)
    assert a.to_csv() == b.to_csv()


def test_smoothed_vs_smoothed_is_not_monotone(rng):
    """Pinned counterexample: pairwise comparisons between two smoothed
    versions violate monotonicity, because moving-average transfer functions
    have interleaved nulls.  Only the degraded-vs-original property holds."""
    violations = 0
    for _ in range(20):
        s = noise_spectrogram(rng, n_frames=20)
        h9 = hqer_series(_qp(degrade(s, DegradationSpec("mel_moving_average", 9))).power, CFG)
        h15 = hqer_series(_qp(degrade(s, DegradationSpec("mel_moving_average", 15))).power, CFG)
        violations += int(np.sum(h15 > h9 + 1e-9))
    assert violations > 0


@pytest.mark.parametrize("kind", ["mel_moving_average", "mel_gaussian_blur"])
def test_filter_degradations_equal_ndimage_mirror(rng, kind):
    # width 1 is the identity, through the same code path
    for width in sorted(set(FILTER_STRENGTHS) | {1, 7, 11, 21, 31}):
        s = noise_spectrogram(rng, n_frames=12)
        kernel = np.full(width, 1.0 / width) if kind == "mel_moving_average" else _gaussian_kernel(width)
        ref = convolve1d(s.values, kernel, axis=0, mode="mirror")
        assert np.array_equal(degrade(s, DegradationSpec(kind, width)).values, ref)


@pytest.mark.parametrize("n", [0, -1])
def test_suite_rejects_fewer_than_one_spectrogram(n):
    with pytest.raises(ValueError, match="n_spectrograms"):
        run_monotonicity_suite(n_spectrograms=n)


@pytest.mark.parametrize("n", [0, -1])
def test_suite_rejects_spectrograms_of_fewer_than_one_frame(n):
    """n_frames = 0 once passed every row with 0 frames checked."""
    with pytest.raises(ValueError, match=f"^n_spectrograms and n_frames must be at least 1, got 2 and {n}$"):
        run_monotonicity_suite(n_spectrograms=2, n_frames=n)
