from __future__ import annotations

import struct

import numpy as np
import pytest

SR = 22050


def write_wav_bytes(path, samples: np.ndarray, rate: int, encoding: str = "pcm16") -> None:
    """Minimal RIFF writer so WAV fixtures don't depend on the code under test.

    ``encoding``: pcm16, float32, or the deliberately unsupported float64 and
    uint8 used by error-path tests.  2-D input of shape (n, channels) writes
    interleaved multichannel data.
    """
    samples = np.asarray(samples)
    channels = 1 if samples.ndim == 1 else samples.shape[1]
    if encoding == "pcm16":
        fmt_tag, bits = 1, 16
        payload = np.clip(np.round(samples * 32767.0), -32768, 32767).astype("<i2").tobytes()
    elif encoding == "float32":
        fmt_tag, bits = 3, 32
        payload = samples.astype("<f4").tobytes()
    elif encoding == "float64":
        fmt_tag, bits = 3, 64
        payload = samples.astype("<f8").tobytes()
    elif encoding == "uint8":
        fmt_tag, bits = 1, 8
        payload = np.clip(np.round(samples * 127.0 + 128.0), 0, 255).astype("u1").tobytes()
    else:
        raise ValueError(encoding)
    block_align = channels * bits // 8
    header = (
        b"RIFF"
        + struct.pack("<I", 36 + len(payload))
        + b"WAVE"
        + b"fmt "
        + struct.pack("<IHHIIHH", 16, fmt_tag, channels, rate, rate * block_align, block_align, bits)
        + b"data"
        + struct.pack("<I", len(payload))
    )
    with open(path, "wb") as fh:
        fh.write(header + payload)


def tone(freq: float, duration_s: float, level_dbfs: float, rate: int = SR) -> np.ndarray:
    """Sine tone at an RMS level in dBFS, whole samples."""
    amp = 10.0 ** (level_dbfs / 20.0) * np.sqrt(2.0)
    n = int(round(duration_s * rate))
    return amp * np.sin(2.0 * np.pi * freq * np.arange(n) / rate)


def speechlike(rng: np.random.Generator, duration_s: float = 1.0, rate: int = SR) -> np.ndarray:
    """Broadband deterministic 'speech': noise through a few band emphases."""
    n = int(round(duration_s * rate))
    x = rng.normal(0.0, 1.0, n)
    t = np.arange(n) / rate
    x *= 0.6 + 0.4 * np.sin(2.0 * np.pi * 3.1 * t)
    x += 0.5 * np.sin(2.0 * np.pi * 210.0 * t) + 0.25 * np.sin(2.0 * np.pi * 840.0 * t)
    x /= np.abs(x).max() * 2.0
    return x


def speechy_frame(rng: np.random.Generator, n_bands: int = 80) -> np.ndarray:
    """One log-mel-like frame: tilted envelope, formant bumps, ripple, noise."""
    b = np.arange(n_bands)
    env = -4.0 - 4.0 * b / n_bands + 1.2 * np.sin(2.0 * np.pi * b / 27.0 + rng.uniform(0, 6))
    ripple = 0.8 * np.cos(2.0 * np.pi * b / 16.0 * rng.uniform(0.8, 1.2))
    return env + ripple + rng.normal(0.0, 0.45, n_bands)


@pytest.fixture
def rng():
    return np.random.default_rng(0xA5C)
