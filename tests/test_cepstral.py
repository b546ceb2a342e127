import numpy as np
import pytest

from melcep.cepstral import (
    DEGENERATE_ENERGY,
    MelCepstrogram,
    mel_cepstrogram,
    mel_window,
    quefrency_power,
)
from melcep.spectral import LogMelSpectrogram

from conftest import speechy_frame
from oracles import naive_mel_cepstrogram_frame


def _spec(frames):
    return LogMelSpectrogram(np.asarray(frames, dtype=float).T)


def test_shape_and_dc_real(rng):
    s = _spec(rng.normal(-6, 1, (5, 80)))
    c = mel_cepstrogram(s)
    assert c.coeffs.shape == (41, 5)
    assert np.abs(c.coeffs[0].imag).max() == 0.0


def test_constant_frame_annihilated():
    c = mel_cepstrogram(_spec([np.full(80, 3.7)]))
    assert np.abs(c.coeffs).max() < 1e-12
    assert c.degenerate[0]


def test_hann_inverse_cosine_peaks_at_q5():
    b = np.arange(80)
    window = mel_window(80)
    target = np.cos(2 * np.pi * 5 * b / 80)
    frame = np.zeros(80)
    nz = window > 0
    frame[nz] = target[nz] / window[nz]
    # the zero-window endpoints take balancing values so the frame is
    # zero-mean; mean subtraction then leaves the ripple intact and the
    # windowed frame is exactly the target cosine on the support
    frame[~nz] = -frame[nz].sum() / (~nz).sum()
    power = quefrency_power(mel_cepstrogram(_spec([frame]))).power[:, 0]
    assert int(np.argmax(power[1:])) + 1 == 5
    assert power[5] > 10.0 * np.delete(power[1:], 4).max()


def test_matches_naive_transform(rng):
    frames = [speechy_frame(rng) for _ in range(50)] + [rng.normal(-6, 2, 80) for _ in range(50)]
    coeffs = mel_cepstrogram(_spec(frames)).coeffs
    for m, frame in enumerate(frames[:20]):
        assert np.abs(coeffs[:, m] - naive_mel_cepstrogram_frame(frame)).max() < 1e-9


def test_parseval_consistency(rng):
    frames = np.array([speechy_frame(rng) for _ in range(30)])
    windowed = (frames - frames.mean(axis=1, keepdims=True)) * mel_window(80)[None, :]
    p = quefrency_power(mel_cepstrogram(_spec(frames))).power
    time_energy = np.sum(windowed**2, axis=1)
    freq_energy = (p[0] + 2.0 * p[1:-1].sum(axis=0) + p[-1]) / 80.0
    assert np.abs(freq_energy - time_energy).max() / time_energy.max() < 1e-6


def test_offset_invariance(rng):
    frames = np.array([speechy_frame(rng) for _ in range(10)])
    p1 = quefrency_power(mel_cepstrogram(_spec(frames))).power
    p2 = quefrency_power(mel_cepstrogram(_spec(frames + 4.2))).power
    assert np.abs(p1 - p2).max() < 1e-10 * max(1.0, p1.max())


def test_dc_residual_small_on_speechy_frames(rng):
    frames = np.array([speechy_frame(rng) for _ in range(500)])
    p = quefrency_power(mel_cepstrogram(_spec(frames))).power
    share = p[0] / p.sum(axis=0)
    # mean removal precedes windowing, so a Hann-induced DC residual remains
    assert share.max() < 0.05


def test_quefrency_power_squares_magnitude():
    coeffs = np.zeros((41, 1), dtype=complex)
    coeffs[7, 0] = 3.0 + 4.0j
    qp = quefrency_power(MelCepstrogram(coeffs, np.zeros(1, dtype=bool)))
    assert qp.power[7, 0] == pytest.approx(25.0)
    assert qp.power.sum() == pytest.approx(25.0)


def test_zero_cepstrogram_zero_power():
    qp = quefrency_power(MelCepstrogram(np.zeros((41, 3), dtype=complex), np.ones(3, dtype=bool)))
    assert np.all(qp.power == 0.0)


def test_degenerate_flagging_threshold():
    quiet = np.full(80, -6.0) + 1e-9 * np.sin(np.arange(80.0))
    loud = speechy_frame(np.random.default_rng(1))
    c = mel_cepstrogram(_spec([quiet, loud]))
    assert c.degenerate[0] and not c.degenerate[1]
    assert DEGENERATE_ENERGY == 1e-12


def test_requires_two_bands():
    with pytest.raises(ValueError):
        mel_cepstrogram(LogMelSpectrogram(np.zeros((1, 4))))
