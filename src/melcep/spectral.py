"""STFT and Slaney-mel log-spectrogram extraction.

Parameterization follows the HiFi-GAN feature convention: 1024-point FFT,
1024-sample periodic Hann window, 256-sample hop, reflection padding of
(n_fft - hop)/2 samples on each side, no internal centering, 80 Slaney-scale
area-normalized mel bands over 0-8000 Hz, and natural-log amplitudes clamped
at 1e-5.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass

import numpy as np

from .audio import Waveform

BLOB_MAGIC = b"LMSB"

# Slaney mel scale: linear below 1 kHz (3 mel per 200 Hz), logarithmic above.
_MEL_BREAK_HZ = 1000.0
_MEL_BREAK = 15.0
_MEL_LOG_STEP = np.log(6.4) / 27.0

# Frames per block of the log-mel STFT pass: the block's windowed frames and
# their spectrum stay cache-sized whatever the signal length.
_BLOCK_FRAMES = 64


@dataclass(frozen=True)
class StftConfig:
    n_fft: int = 1024
    win_length: int = 1024
    hop: int = 256

    def __post_init__(self):
        if self.n_fft < self.win_length:
            raise ValueError("n_fft must be >= win_length")
        if not 1 <= self.hop <= self.win_length:
            raise ValueError("hop must be in [1, win_length]")
        if (self.n_fft - self.hop) % 2:
            raise ValueError("n_fft - hop must be even for symmetric padding")

    @property
    def pad(self) -> int:
        return (self.n_fft - self.hop) // 2


@dataclass(frozen=True)
class MelConfig:
    n_mels: int = 80
    f_min: float = 0.0
    f_max: float = 8000.0
    clamp_floor: float = 1e-5

    def __post_init__(self):
        if not self.f_min < self.f_max:
            raise ValueError("f_min must be below f_max")
        if self.n_mels < 2:
            raise ValueError("need at least 2 mel bands")
        if self.clamp_floor <= 0:
            raise ValueError("clamp_floor must be positive")


@dataclass
class LogMelSpectrogram:
    """Natural-log mel amplitudes, bands x frames."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("values must be a 2-D bands x frames matrix")

    @property
    def n_bands(self) -> int:
        return self.values.shape[0]

    @property
    def n_frames(self) -> int:
        return self.values.shape[1]


def hz_to_mel(f):
    """Slaney mel scale: mel = 3f/200 below 1 kHz, 15 + 27*ln(f/1000)/ln(6.4) above."""
    f = np.asarray(f, dtype=np.float64)
    mel = 3.0 * f / 200.0
    above = f >= _MEL_BREAK_HZ
    mel = np.where(above, _MEL_BREAK + np.log(np.maximum(f, _MEL_BREAK_HZ) / _MEL_BREAK_HZ) / _MEL_LOG_STEP, mel)
    return mel if mel.ndim else float(mel)


def mel_to_hz(m):
    m = np.asarray(m, dtype=np.float64)
    f = 200.0 * m / 3.0
    above = m >= _MEL_BREAK
    f = np.where(above, _MEL_BREAK_HZ * np.exp(_MEL_LOG_STEP * (m - _MEL_BREAK)), f)
    return f if f.ndim else float(f)


def _frames(w: Waveform, cfg: StftConfig) -> np.ndarray:
    """Read-only frames x n_fft view of the reflection-padded signal, one frame every hop."""
    if w.samples.size < cfg.hop:
        raise ValueError("signal shorter than one hop")
    xp = np.pad(w.samples, cfg.pad, mode="reflect")
    return np.lib.stride_tricks.sliding_window_view(xp, cfg.n_fft)[:: cfg.hop]


def stft(w: Waveform, cfg: StftConfig = StftConfig()) -> np.ndarray:
    """Complex STFT, bins x frames, with K = n_fft/2 + 1 bins.

    The signal is reflection-padded by (n_fft - hop)/2 samples on each side
    and cut into n_fft-sample frames every hop samples; each frame is
    multiplied by a periodic Hann window before the real-input FFT.  The
    frame count is (len + 2*pad - n_fft)//hop + 1.
    """
    return np.fft.rfft(_frames(w, cfg) * _stft_window(cfg), axis=1).T


@functools.lru_cache(maxsize=8)
def _stft_window(cfg: StftConfig) -> np.ndarray:
    """Periodic Hann window of ``win_length`` centred in ``n_fft`` samples.

    Equals ``scipy.signal.get_window("hann", win_length)`` bit for bit: the
    cosine sum 0.5 + 0.5*cos(fac), fac = linspace(-pi, pi, N + 1), last
    sample dropped; a window of one sample is 1.
    """
    n = cfg.win_length
    window = np.ones(n) if n <= 1 else (0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, n + 1)))[:-1]
    lpad = (cfg.n_fft - n) // 2
    return np.pad(window, (lpad, cfg.n_fft - n - lpad))


def mel_band_edges(cfg: MelConfig, sample_rate: int, n_fft: int) -> tuple[np.ndarray, np.ndarray]:
    """FFT bin frequencies and the n_mels + 2 band edges in Hz.  Raises for an f_max above
    Nyquist, or a band with no FFT bin strictly between its outer edges (its positive support)."""
    if cfg.f_max > sample_rate / 2:
        raise ValueError("f_max exceeds the Nyquist frequency")
    fft_hz = np.linspace(0.0, sample_rate / 2.0, n_fft // 2 + 1)
    edges_hz = mel_to_hz(np.linspace(hz_to_mel(cfg.f_min), hz_to_mel(cfg.f_max), cfg.n_mels + 2))
    if (np.searchsorted(fft_hz, edges_hz[2:]) <= np.searchsorted(fft_hz, edges_hz[:-2], "right")).any():
        raise ValueError("mel filterbank has bands with empty FFT-bin support")
    return fft_hz, edges_hz


def mel_filterbank(cfg: MelConfig, sample_rate: int, n_fft: int) -> np.ndarray:
    """Triangular Slaney-scale mel filterbank, bands x FFT bins.

    Band edges are spaced uniformly on the Slaney mel scale and each filter
    is area-normalized by 2/(right_hz - left_hz) so that energy is equalized
    across bands.  A filter with no FFT bin under its support is an error.
    """
    fft_hz, edges_hz = mel_band_edges(cfg, sample_rate, n_fft)
    weights = np.zeros((cfg.n_mels, fft_hz.size))
    for i in range(cfg.n_mels):
        left, center, right = edges_hz[i], edges_hz[i + 1], edges_hz[i + 2]
        up = (fft_hz - left) / (center - left)
        down = (right - fft_hz) / (right - center)
        weights[i] = np.maximum(0.0, np.minimum(up, down)) * (2.0 / (right - left))
    return weights


# MelConfig is frozen, so it is hashable and can key the cache itself.
_cached_filterbank = functools.lru_cache(maxsize=8)(mel_filterbank)


def log_mel(w: Waveform, stft_cfg: StftConfig = StftConfig(), mel_cfg: MelConfig = MelConfig()) -> LogMelSpectrogram:
    """Log-mel spectrogram: ln(max(Mel @ |STFT|, clamp_floor)).

    The STFT runs _BLOCK_FRAMES frames at a time, so no windowed or complex
    array as long as the signal is ever built.  The values equal the
    one-array pass bit for bit: each rfft row depends on its frame alone, and
    the magnitudes fill a frames x bins array whose transpose has the shape
    and strides ``np.abs(stft(w))`` has, so the projection is the same
    matrix product.
    """
    frames = _frames(w, stft_cfg)
    window = _stft_window(stft_cfg)
    mag = np.empty((frames.shape[0], stft_cfg.n_fft // 2 + 1))
    block = np.empty((min(_BLOCK_FRAMES, frames.shape[0]), stft_cfg.n_fft))
    for lo in range(0, frames.shape[0], _BLOCK_FRAMES):
        chunk = frames[lo : lo + _BLOCK_FRAMES]
        windowed = np.multiply(chunk, window, out=block[: chunk.shape[0]])
        np.abs(np.fft.rfft(windowed, axis=1), out=mag[lo : lo + chunk.shape[0]])
    fb = _cached_filterbank(mel_cfg, w.sample_rate, stft_cfg.n_fft)
    values = fb @ mag.T
    np.log(np.maximum(values, mel_cfg.clamp_floor, out=values), out=values)
    return LogMelSpectrogram(values)


def write_blob(s: LogMelSpectrogram, path) -> None:
    """Write the spectrogram as little-endian float32 with a 16-byte header.

    Header layout: 4-byte magic, uint32 band count, uint32 frame count,
    4 reserved zero bytes.  Values follow row-major (band-major).
    """
    header = BLOB_MAGIC + struct.pack("<IIi", s.n_bands, s.n_frames, 0)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(s.values, dtype="<f4").tobytes())


def read_blob(path) -> LogMelSpectrogram:
    """Read a ``write_blob`` file; a payload longer or shorter than its header declares raises ``ValueError``."""
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) != 16 or header[:4] != BLOB_MAGIC:
            raise ValueError(f"not a log-mel blob: {path!s}")
        n_bands, n_frames, _ = struct.unpack("<IIi", header[4:])
        payload = fh.read()
    size = 4 * n_bands * n_frames
    if len(payload) < size:
        raise ValueError(f"log-mel blob {path!s} is cut short: {len(payload)} of {size} payload bytes")
    if len(payload) > size:
        raise ValueError(f"log-mel blob {path!s} has {len(payload) - size} trailing bytes "
                         f"after its {n_bands} x {n_frames} values")
    return LogMelSpectrogram(np.frombuffer(payload, dtype="<f4").reshape(n_bands, n_frames))
