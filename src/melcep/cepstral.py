"""Mel-cepstrogram: a real-input Fourier transform taken across mel bins.

Each log-mel frame is mean-subtracted, multiplied by a symmetric Hann window,
and transformed along the mel-band axis.  The squared magnitude of the result
distributes the frame's spectral detail over quefrency: low quefrencies carry
the broad envelope, high quefrencies the fine band-to-band variation that
oversmoothing suppresses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import LogMelSpectrogram

# Frames whose post-window energy falls below this are flagged degenerate and
# excluded from downstream per-frame metrics.
DEGENERATE_ENERGY = 1e-12


@dataclass
class MelCepstrogram:
    """Complex transform coefficients, quefrencies x frames (Q = B//2 + 1)."""

    coeffs: np.ndarray
    degenerate: np.ndarray


@dataclass
class QuefrencyPower:
    """Squared magnitude of the mel-cepstrogram; phase is discarded."""

    power: np.ndarray
    degenerate: np.ndarray


def mel_window(n_bands: int) -> np.ndarray:
    """Symmetric Hann window over the mel axis (endpoints zero)."""
    return np.hanning(n_bands)


def mel_cepstrogram(s: LogMelSpectrogram) -> MelCepstrogram:
    """Transform a log-mel spectrogram along the mel axis, frame by frame.

    Per frame: subtract the mean over bands, multiply by a length-B symmetric
    Hann window, then apply a real-input FFT along the band axis.  The output
    has Q = B//2 + 1 quefrency rows; the q = 0 coefficient is real.

    Mean subtraction happens before windowing, so the windowed frame retains
    a small Hann-induced DC residual; it is excluded from all metrics, which
    sum over q >= 1.
    """
    values = s.values
    n_bands = values.shape[0]
    if n_bands < 2:
        raise ValueError("need at least 2 mel bands")
    centered = values - values.mean(axis=0, keepdims=True)
    windowed = centered * mel_window(n_bands)[:, None]
    degenerate = np.square(windowed).sum(axis=0) < DEGENERATE_ENERGY
    return MelCepstrogram(np.fft.rfft(windowed, axis=0), degenerate)


def quefrency_power(c: MelCepstrogram) -> QuefrencyPower:
    """Elementwise squared magnitude |C(q, m)|^2."""
    return QuefrencyPower(np.square(np.abs(c.coeffs)), c.degenerate.copy())
