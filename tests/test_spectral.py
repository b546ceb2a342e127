import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import get_window

from melcep import spectral
from melcep.audio import Waveform
from melcep.spectral import (
    LogMelSpectrogram,
    MelConfig,
    StftConfig,
    hz_to_mel,
    log_mel,
    mel_band_edges,
    mel_filterbank,
    mel_to_hz,
    read_blob,
    stft,
    write_blob,
)

from conftest import SR, speechlike, tone
from oracles import (
    log_mel_full_reference,
    naive_rdft,
    reflect_pad_reference,
    slaney_filterbank_reference,
    stft_full_reference,
)

CFG = StftConfig()
MEL = MelConfig()


def filter_centers_hz(cfg: MelConfig) -> np.ndarray:
    """Center frequency of each mel filter in Hz."""
    return mel_to_hz(np.linspace(hz_to_mel(cfg.f_min), hz_to_mel(cfg.f_max), cfg.n_mels + 2))[1:-1]


def test_one_second_gives_86_frames():
    w = Waveform(np.zeros(SR), SR)
    assert stft(w, CFG).shape == (513, 86)


def test_zero_input_zero_output():
    X = stft(Waveform(np.zeros(SR // 2), SR), CFG)
    assert np.all(X == 0.0)


def test_frame_count_formula_exact():
    for n in (256, 257, 511, 512, 1024, 1025, 4096, 22050):
        w = Waveform(np.ones(n) * 0.1, SR)
        assert stft(w, CFG).shape[1] == (n + 2 * CFG.pad - CFG.n_fft) // CFG.hop + 1


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=256, max_value=30000))
def test_frame_count_formula_property(n):
    w = Waveform(np.full(n, 0.05), SR)
    assert stft(w, CFG).shape[1] == (n + 2 * 384 - 1024) // 256 + 1


def test_shorter_than_hop_raises():
    with pytest.raises(ValueError, match="hop"):
        stft(Waveform(np.ones(255), SR), CFG)


def test_stft_matches_naive_dft(rng):
    x = rng.normal(0, 0.1, 2000)
    X = stft(Waveform(x, SR), CFG)
    xp = np.pad(x, CFG.pad, mode="reflect")
    window = np.array(
        [0.5 - 0.5 * np.cos(2 * np.pi * n / CFG.n_fft) for n in range(CFG.n_fft)]
    )  # periodic Hann
    for m in (0, 2, X.shape[1] - 1):
        frame = xp[m * CFG.hop : m * CFG.hop + CFG.n_fft] * window
        assert np.abs(X[:, m] - naive_rdft(frame)).max() < 1e-9


def test_cosine_peak_at_expected_bin():
    k0 = 37
    x = np.cos(2 * np.pi * k0 * np.arange(4 * 1024) / 1024)
    X = stft(Waveform(x, SR), CFG)
    interior = np.abs(X[:, 4])
    assert int(np.argmax(interior)) == k0


# The STFT pads with np.pad(mode="reflect"), which signals shorter than the pad
# (n_fft=1024, hop=256: 256-383 samples) rely on to keep bouncing.


def test_reflect_pad_longer_than_signal():
    x = np.array([1.0, 2.0, 3.0])
    # a period-4 bounce without edge duplication
    assert np.array_equal(np.pad(x, 5, mode="reflect"), [2, 1, 2, 3, 2, 1, 2, 3, 2, 1, 2, 3, 2])


def test_reflect_pad_edges():
    for n in (1, 2, 3):
        x = np.arange(1.0, n + 1.0)
        for pad in sorted({p for p in (0, 1, n - 2, n - 1, n, 2 * n, 5 * n) if p >= 0}):
            assert np.array_equal(np.pad(x, pad, mode="reflect"), reflect_pad_reference(x, pad)), (n, pad)


def test_filterbank_rows_positive_and_centers_increase():
    fb = mel_filterbank(MEL, SR, CFG.n_fft)
    assert fb.shape == (80, 513)
    assert (fb >= 0).all()
    assert (fb.sum(axis=1) > 0).all()
    centers = filter_centers_hz(MEL)
    assert (np.diff(centers) > 0).all()


def test_filterbank_matches_independent_reference():
    fb = mel_filterbank(MEL, SR, CFG.n_fft)
    ref = slaney_filterbank_reference(80, 0.0, 8000.0, SR, CFG.n_fft)
    assert np.abs(fb - ref).max() < 1e-6


def test_filterbank_rejects_fmax_above_nyquist():
    with pytest.raises(ValueError, match="Nyquist"):
        mel_filterbank(MelConfig(f_max=12000.0), SR, 1024)


@settings(max_examples=150, deadline=None)
@given(
    n_mels=st.integers(2, 60),
    rate=st.sampled_from([8000, 16000, 22050]),
    n_fft=st.integers(2, 256),
    f_min=st.floats(0.0, 3000.0),
    span=st.floats(0.05, 0.95),
)
def test_mel_band_edges_rejects_exactly_the_empty_bands(n_mels, rate, n_fft, f_min, span):
    """The support check on band edges agrees with summing a built filterbank."""
    f_max = f_min + span * (rate / 2 - f_min)
    cfg = MelConfig(n_mels=n_mels, f_min=f_min, f_max=f_max)
    if (slaney_filterbank_reference(n_mels, f_min, f_max, rate, n_fft).sum(axis=1) <= 0).any():
        with pytest.raises(ValueError, match="empty FFT-bin support"):
            mel_band_edges(cfg, rate, n_fft)
    else:
        mel_band_edges(cfg, rate, n_fft)


def test_mel_scale_round_trip():
    f = np.array([0.0, 200.0, 999.0, 1000.0, 4000.0, 8000.0])
    assert np.allclose(mel_to_hz(hz_to_mel(f)), f, atol=1e-9)
    assert hz_to_mel(1000.0) == pytest.approx(15.0)
    assert hz_to_mel(200.0) == pytest.approx(3.0)


def test_log_mel_zero_input_hits_clamp_floor():
    s = log_mel(Waveform(np.zeros(SR), SR))
    assert s.values.shape == (80, 86)
    assert np.all(s.values == np.log(1e-5))


def test_log_mel_scaling_adds_log2(rng):
    x = speechlike(rng, 0.5)
    s1 = log_mel(Waveform(x, SR))
    s2 = log_mel(Waveform(2.0 * x, SR))
    above = s1.values > np.log(1e-5) + 0.7  # stay clear of the clamp
    assert above.mean() > 0.5
    assert np.allclose(s2.values[above] - s1.values[above], np.log(2.0), atol=1e-9)


def test_log_mel_tone_energy_lands_on_matching_band():
    x = tone(1000.0, 1.0, -22)
    s = log_mel(Waveform(x, SR))
    centers = filter_centers_hz(MEL)
    expected_band = int(np.argmin(np.abs(centers - 1000.0)))
    hot_band = int(np.argmax(s.values.mean(axis=1)))
    assert abs(hot_band - expected_band) <= 1

    profile = s.values.mean(axis=1)
    hot = np.flatnonzero(profile > profile.min() + 0.8 * (profile.max() - profile.min()))
    assert np.array_equal(hot, np.arange(hot.min(), hot.max() + 1))  # contiguous


def test_log_mel_shift_by_one_hop_shifts_columns(rng):
    x = speechlike(rng, 0.4)
    s1 = log_mel(Waveform(x, SR))
    s2 = log_mel(Waveform(np.concatenate([np.zeros(256), x]), SR))
    assert s2.n_frames == s1.n_frames + 1
    interior = slice(2, s1.n_frames - 3)
    shifted = slice(3, s1.n_frames - 2)
    assert np.abs(s2.values[:, shifted] - s1.values[:, interior]).max() < 1e-6


def test_log_mel_finite_for_random_input(rng):
    x = rng.uniform(-1, 1, 5000)
    s = log_mel(Waveform(x, SR))
    assert np.isfinite(s.values).all()
    assert (s.values >= np.log(1e-5) - 1e-12).all()


@st.composite
def _front_end_cases(draw):
    """A rate, STFT and mel configuration the filterbank accepts, and a length
    of one hop up to a few frame blocks, often a block boundary +-1 frame."""
    rate = draw(st.sampled_from([8000, 11025, 16000, 22050, 44100, 48000]))
    n_fft = draw(st.sampled_from([256, 512, 1024, 2048]))
    win_length = draw(st.integers(n_fft // 2, n_fft))
    hop = draw(st.integers(1, win_length // 2).filter(lambda h: (n_fft - h) % 2 == 0))
    f_max = draw(st.floats(rate / 8, rate / 2))
    mel = dict(f_min=draw(st.floats(0.0, f_max / 4)), f_max=f_max,
               clamp_floor=draw(st.sampled_from([1e-5, 1e-9, 1e-2])))
    n_mels = draw(st.integers(2, 80))
    while n_mels > 2:  # halve until every band has FFT bins; two bands always do here
        try:
            mel_band_edges(MelConfig(n_mels=n_mels, **mel), rate, n_fft)
            break
        except ValueError:
            n_mels //= 2
    mel_cfg = MelConfig(n_mels=max(n_mels, 2), **mel)
    block = spectral._BLOCK_FRAMES
    frames = draw(st.integers(1, 3 * block + 1) | st.sampled_from([1, block - 1, block, block + 1, 2 * block + 1]))
    n = frames * hop + draw(st.integers(0, hop - 1))  # n // hop frames
    return rate, StftConfig(n_fft=n_fft, win_length=win_length, hop=hop), mel_cfg, n


@settings(max_examples=80, deadline=None)
@given(case=_front_end_cases(), seed=st.integers(0, 2**16))
def test_blocked_log_mel_equals_full_pass(case, seed):
    rate, cfg, mel_cfg, n = case
    x = np.random.default_rng(seed).normal(0.0, 0.1, n)
    w = Waveform(x, rate)
    window = spectral._stft_window(cfg)
    fb = mel_filterbank(mel_cfg, rate, cfg.n_fft)
    s = log_mel(w, cfg, mel_cfg)
    assert s.n_frames == n // cfg.hop
    assert np.array_equal(s.values, log_mel_full_reference(x, window, cfg.hop, fb, mel_cfg.clamp_floor))
    assert np.array_equal(stft(w, cfg), stft_full_reference(x, window, cfg.hop))


def test_log_mel_memory_is_a_few_kb_per_frame():
    # 60 s at 22.05 kHz: no windowed or complex array as long as the signal
    w = Waveform(np.random.default_rng(3).normal(0.0, 0.1, 60 * SR), SR)
    log_mel(w)  # filterbank and FFT plan caches
    tracemalloc.start()
    try:
        s = log_mel(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 1024 * s.n_frames + 2 * 2**20


def test_blob_round_trip_bit_exact(tmp_path, rng):
    s = log_mel(Waveform(speechlike(rng, 0.3), SR))
    p1 = tmp_path / "a.lmel"
    p2 = tmp_path / "b.lmel"
    write_blob(s, p1)
    loaded = read_blob(p1)
    assert loaded.values.shape == (s.n_bands, s.n_frames)
    write_blob(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes()[:4] == b"LMSB"
    assert len(p1.read_bytes()) == 16 + 4 * s.n_bands * s.n_frames


def test_blob_rejects_garbage(tmp_path):
    path = tmp_path / "junk.lmel"
    path.write_bytes(b"not a blob at all")
    with pytest.raises(ValueError):
        read_blob(path)


@pytest.mark.parametrize("edit, cause", [
    (lambda b: b[:-2], "is cut short: 46 of 48 payload bytes"),  # stops inside a float32
    (lambda b: b[:-4], "is cut short: 44 of 48 payload bytes"),
    (lambda b: b + b"\0" * 5, "has 5 trailing bytes after its 3 x 4 values"),
    (lambda b: b + b"\0" * 4, "has 4 trailing bytes after its 3 x 4 values"),
], ids=["cut-in-a-float", "cut-at-a-float", "5-trailing", "4-trailing"])
def test_blob_of_wrong_size_names_path_and_cause(tmp_path, rng, edit, cause):
    """A payload cut inside a float32 raised numpy's own error without the
    path, and extra bytes were reported as a truncated blob."""
    path = tmp_path / "a.lmel"
    write_blob(LogMelSpectrogram(rng.normal(-6, 1, (3, 4))), path)
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(ValueError) as info:
        read_blob(path)
    assert str(info.value) == f"log-mel blob {path} {cause}"


def test_stft_config_validation():
    with pytest.raises(ValueError):
        StftConfig(n_fft=512, win_length=1024)
    with pytest.raises(ValueError):
        StftConfig(hop=2048)
    with pytest.raises(ValueError):
        MelConfig(f_min=500.0, f_max=100.0)
    with pytest.raises(ValueError):
        MelConfig(n_mels=1)
    with pytest.raises(ValueError, match="^n_fft - hop must be even for symmetric padding$"):
        StftConfig(n_fft=1023, win_length=1023)
    for floor in (0.0, -1e-5):
        with pytest.raises(ValueError, match="^clamp_floor must be positive$"):
            MelConfig(clamp_floor=floor)
    with pytest.raises(ValueError, match="^values must be a 2-D bands x frames matrix$"):
        LogMelSpectrogram(np.zeros(80))


def test_stft_window_shorter_than_fft(rng):
    cfg = StftConfig(n_fft=1024, win_length=512, hop=256)
    x = rng.normal(0, 0.1, 3000)
    X = stft(Waveform(x, SR), cfg)
    assert X.shape == (513, (3000 + 2 * cfg.pad - 1024) // 256 + 1)
    assert np.isfinite(X).all()


def test_stft_window_equals_scipy_hann():
    # every win_length from 1 to 4096, alone and centred in a longer FFT
    for n in range(1, 4097):
        ref = get_window("hann", n, fftbins=True)
        assert np.array_equal(spectral._stft_window(StftConfig(n_fft=n, win_length=n, hop=n)), ref)
        if n % 97 == 0:
            cfg = StftConfig(n_fft=n + 75, win_length=n, hop=1 if n % 2 == 0 else 2)
            assert np.array_equal(spectral._stft_window(cfg), np.pad(ref, (37, 38)))
