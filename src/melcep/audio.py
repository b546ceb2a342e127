"""WAV ingestion and waveform preprocessing.

The preprocessing chain brings every utterance to a common footing before
feature extraction: resample to the target rate, cap long silences, remove
low-frequency rumble, and normalize the active-speech level.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

# Frame-energy gate used for silence detection: 20 ms frames, 10 ms hop.
GATE_FRAME_S = 0.020
GATE_HOP_S = 0.010

# Zero-phase Butterworth order for the high-pass stage.  Order 6 applied
# forward-backward attenuates a tone one octave below the cutoff by ~72 dB;
# order 4 would only reach ~48 dB, which is not enough to treat sub-cutoff
# content as removed.
HIGHPASS_ORDER = 6

_DB_FLOOR = 1e-12

# The high-pass runs in blocks of _HP_BLOCK samples, _HP_SPAN samples at a time.
_HP_BLOCK = 64
_HP_SPAN = 1 << 15

# Names of common format tags in "unknown format" errors; others print in hex.
_WAV_FORMATS = {0: "UNKNOWN", 2: "ADPCM", 6: "ALAW", 7: "MULAW", 0x11: "DVI_ADPCM", 0x31: "GSM610",
                0x50: "MPEG", 0x55: "MPEGLAYER3", 0xFFFE: "EXTENSIBLE"}
_WAV_GUID_TAIL = {"<": b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71",
                  ">": b"\x00\x00\x00\x10\x80\x00\x00\xaa\x00\x38\x9b\x71"}


class SilentSignalError(ValueError):
    """Raised when a signal contains no frames above the silence gate."""


@dataclass
class Waveform:
    """Mono audio samples in [-1, 1] with their sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError("Waveform samples must be one-dimensional")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate


@dataclass(frozen=True)
class PreprocessConfig:
    """Parameters of the preprocessing chain.

    ``cap_long_silence`` selects what happens to silence runs longer than
    ``silence_trim_ms``: shorten them to exactly that length (default), or
    delete them entirely.  ``target_level_dbfs`` of None disables the level
    normalization stage.
    """

    target_rate: int = 22050
    silence_trim_ms: float = 200.0
    silence_threshold_db: float = -45.0
    highpass_hz: float = 60.0
    target_level_dbfs: float | None = -22.0
    cap_long_silence: bool = True

    def __post_init__(self):
        if self.target_rate <= 2 * self.highpass_hz:
            raise ValueError("target_rate must exceed twice the high-pass cutoff")
        if self.silence_trim_ms <= 0:
            raise ValueError("silence_trim_ms must be positive")


def _read_wav(path) -> tuple[int, np.ndarray]:
    """(rate, samples) of a RIFF or RIFX file, walked chunk by chunk as
    ``scipy.io.wavfile.read`` walks it, with its error messages.

    A truncated data chunk gives the samples present; odd-sized chunks are
    followed by a pad byte.  Only little-endian PCM16 and float32 samples are
    decoded: for any other encoding zeros of the dtype and shape scipy would
    return stand in, so that ``load_wav`` names the dtype when it rejects it.
    """
    with open(path, "rb") as fh:
        sig = fh.read(4)
        if sig == b"RF64":
            raise ValueError("RF64 WAV files are not supported")
        if sig not in (b"RIFF", b"RIFX"):
            raise ValueError(f"File format {sig!r} not understood. Only 'RIFF', 'RIFX', and 'RF64' supported.")
        e = "<" if sig == b"RIFF" else ">"
        file_size = struct.unpack(e + "I", fh.read(4))[0] + 8
        form = fh.read(4)
        if form != b"WAVE":
            raise ValueError(f"Not a WAV file. RIFF form type is {form!r}.")
        rate = data = None
        while fh.tell() < file_size:
            chunk = fh.read(4)
            if not chunk and data is None:
                raise ValueError("Unexpected end of file.")
            if not chunk:
                break
            if len(chunk) < 4 and (rate is None or data is None):
                raise ValueError(f"Incomplete chunk ID: {chunk!r}")
            if chunk == b"fmt ":
                size = struct.unpack(e + "I", fh.read(4))[0]
                if size < 16:
                    raise ValueError("Binary structure of wave file is not compliant")
                tag, channels, rate, byte_rate, block_align, bits = struct.unpack(e + "HHIIHH", fh.read(16))
                used = 16
                if tag == 0xFFFE and size >= 18:
                    if struct.unpack(e + "H", fh.read(2))[0] < 22:
                        raise ValueError("Binary structure of wave file is not compliant")
                    guid, used = fh.read(22)[6:], used + 24
                    if guid.endswith(_WAV_GUID_TAIL[e]):
                        tag = struct.unpack(e + "I", guid[:4])[0]
                if tag not in (1, 3):
                    name = _WAV_FORMATS.get(tag, f"{tag:#06x}")
                    raise ValueError(f"Unknown wave file format: {name}. Supported formats: PCM, IEEE_FLOAT")
                fh.read(max(0, size - used))
                fh.seek(size % 2, 1)
                if tag == 1 and byte_rate != rate * block_align:
                    raise ValueError(
                        "WAV header is invalid: nAvgBytesPerSec must equal product of nSamplesPerSec and "
                        f"nBlockAlign, but file has nSamplesPerSec = {rate}, nBlockAlign = {block_align}, "
                        f"and nAvgBytesPerSec = {byte_rate}"
                    )
            elif chunk == b"data":
                if rate is None:
                    raise ValueError("No fmt chunk before data")
                size = struct.unpack(e + "I", fh.read(4))[0]
                width = block_align // channels
                count = size // width
                if tag == 1 and 1 <= bits <= 8:
                    dtype = np.dtype("u1")
                elif tag == 1 and width in (3, 5, 6, 7):  # scipy widens these to int32/int64
                    dtype = np.dtype(f"{e}i4" if width == 3 else f"{e}i8")
                elif tag == 1 and bits <= 64:
                    dtype = np.dtype(f"{e}i{width}")
                elif tag == 1 or bits not in (32, 64):
                    kind = "integer" if tag == 1 else "floating-point"
                    raise ValueError(f"Unsupported bit depth: the WAV file has {bits}-bit {kind} data.")
                else:
                    dtype = np.dtype(f"{e}f{width}")
                packed = dtype.kind == "i" and width in (3, 5, 6, 7)
                raw = fh.read(size if packed else count * dtype.itemsize)
                if packed:  # scipy splits these into samples first, failing on a partial one
                    np.frombuffer(raw, "u1").reshape(-1, width)
                items = len(raw) // (width if packed else dtype.itemsize)
                data = np.frombuffer(raw, dtype, items) if dtype.str in ("<i2", "<f4") else np.zeros(items, dtype)
                fh.seek(size % 2, 1)
                if channels > 1:
                    data = data.reshape(-1, channels)
            else:  # skipped chunk: an id, a size, the data and a pad byte
                size = fh.read(4)
                if size:
                    size = struct.unpack(e + "I", size)[0]
                    fh.seek(size + size % 2, 1)
    if data is None:
        raise ValueError("no data chunk")
    return rate, data


def load_wav(path) -> Waveform:
    """Read a RIFF WAV file (PCM16 or IEEE float32) as a mono Waveform.

    Multichannel input is averaged down to mono; integer samples are scaled
    to [-1, 1].  The sample rate is passed through unchanged; resampling is
    the preprocessing stage's job.
    """
    try:
        rate, data = _read_wav(path)
    except FileNotFoundError:
        raise
    except (ValueError, EOFError) as exc:
        raise ValueError(f"unreadable WAV file {path!s}: {exc}") from exc
    if data.dtype == np.int16:
        x = data.astype(np.float64) / 32768.0
    elif data.dtype == np.float32:
        x = data.astype(np.float64)
    else:
        raise ValueError(
            f"unsupported WAV encoding {data.dtype} in {path!s}; expected PCM16 or float32"
        )
    if x.ndim == 2:
        x = x.mean(axis=1)
    if x.size == 0:
        raise ValueError(f"zero-length audio in {path!s}")
    if not np.isfinite(x).all():
        raise ValueError(f"non-finite samples in {path!s}")
    return Waveform(x, int(rate))


def rms_dbfs(x: np.ndarray) -> float:
    """RMS level in dB relative to full scale (RMS of 1.0 = 0 dBFS)."""
    rms = float(np.sqrt(np.mean(np.square(x)))) if x.size else 0.0
    return 20.0 * math.log10(max(rms, _DB_FLOOR))


def silence_mask(x: np.ndarray, rate: int, threshold_db: float) -> np.ndarray:
    """Boolean per-sample mask, True where the frame-energy gate reads silence.

    Each 10 ms hop block takes the verdict of the 20 ms frame starting at it;
    the tail beyond the last full frame inherits the last verdict.
    """
    frame = max(1, int(round(rate * GATE_FRAME_S)))
    hop = max(1, int(round(rate * GATE_HOP_S)))
    n = x.size
    if n < frame:
        return np.full(n, rms_dbfs(x) < threshold_db)
    n_frames = 1 + (n - frame) // hop
    starts = np.arange(n_frames) * hop
    windows = np.lib.stride_tricks.sliding_window_view(x, frame)[::hop]
    frame_db = 10.0 * np.log10(np.maximum(np.mean(np.square(windows), axis=1), _DB_FLOOR**2))
    silent = frame_db < threshold_db
    counts = np.full(n_frames, hop)
    counts[-1] = n - starts[-1]
    return np.repeat(silent, counts)


def _silent_runs(mask: np.ndarray):
    """Yield (start, end) of maximal True runs in a boolean mask."""
    if mask.size == 0:
        return
    edges = np.flatnonzero(np.diff(mask.astype(np.int8)))
    starts = ([0] if mask[0] else []) + (edges[mask[edges + 1]] + 1).tolist()
    ends = (edges[~mask[edges + 1]] + 1).tolist() + ([mask.size] if mask[-1] else [])
    yield from zip(starts, ends)


def _cap_silences(x: np.ndarray, mask: np.ndarray, max_len: int, cap: bool) -> np.ndarray:
    keep = np.ones(x.size, dtype=bool)
    for start, end in _silent_runs(mask):
        run = end - start
        if run <= max_len:
            continue
        if not cap:
            keep[start:end] = False
        elif start == 0:
            # leading run: keep the tail adjacent to speech
            keep[start : end - max_len] = False
        elif end == x.size:
            keep[start + max_len : end] = False
        else:
            head = max_len // 2
            keep[start + head : end - (max_len - head)] = False
    return x[keep]


@functools.lru_cache(maxsize=8)
def _highpass_design(rate: int, cutoff_hz: float):
    """Block operators of the order-6 Butterworth high-pass for ``_cascade``.

    The sections are ``scipy.signal.butter(..., output="sos")``'s, bit for
    bit: its analog prototype, high-pass transform and bilinear map, with
    the sections ordered farthest pole from the unit circle first and the
    gain in the first.  Each section runs in coupled form, state rotated by
    its pole: powers of that matrix keep their poles, where those of the
    direct form's near-defective one lose about half the digits at low
    cutoffs.
    """
    m = np.arange(1 - HIGHPASS_ORDER, HIGHPASS_ORDER, 2, dtype=np.float64)
    proto = -np.exp(1j * np.pi * m / (2 * HIGHPASS_ORDER))
    warped = float(4.0 * np.tan(np.pi * (np.float64(cutoff_hz) / (rate / 2)) / 2.0))
    analog = warped / proto
    gain = np.real(1.0 / np.prod(-proto)) * np.real(4.0**HIGHPASS_ORDER / np.prod(4.0 - analog))
    poles = (4.0 + analog) / (4.0 - analog)
    poles = poles[poles.imag > 0]
    n = 2 * poles.size
    a, b, c, d = np.zeros((n, n)), np.zeros(n), np.zeros(n), 1.0  # cascade state space
    for i, p in enumerate(poles[np.argsort(-np.abs(1 - np.abs(poles)))]):
        a1, a2 = np.convolve([1, -p], [1, -np.conj(p)]).real[1:]
        b0, b1, b2 = (gain, -2 * gain, gain) if i == 0 else (1.0, -2.0, 1.0)
        re, im = -a1 / 2, np.sqrt(a2 - a1 * a1 / 4)
        s = slice(2 * i, 2 * i + 2)
        a[2 * i] += c  # section input = previous output, fed to the first state
        a[s, s] += [[re, -im], [im, re]]
        b[2 * i] = d
        c = b0 * c
        c[s] += b1 - a1 * b0, (b2 - a2 * b0 + (b1 - a1 * b0) * re) / im
        d = b0 * d
    # per block of L samples: y = x @ taps + state @ from_state, next state = x @ to_state + state @ a^L
    powers = [np.eye(n)]
    for _ in range(_HP_BLOCK):
        powers.append(powers[-1] @ a)
    from_state = np.stack([c @ p for p in powers[:-1]], axis=1)  # state to output i: c a^i
    to_state = np.stack([p @ b for p in powers[-2::-1]])  # input j to next state: a^(L-1-j) b
    impulse = np.concatenate(([d], b @ from_state[:, :-1]))
    taps = np.triu(impulse[abs(np.arange(_HP_BLOCK)[:, None] - np.arange(_HP_BLOCK))])
    step, powers = powers[-1], []
    for _ in range((_HP_SPAN // _HP_BLOCK).bit_length()):  # (a^L)^d for d = 1, 2, 4, ... blocks
        powers.append(step.T.copy())
        step = step @ step
    return taps, to_state, from_state, powers


def _cascade(x: np.ndarray, design) -> np.ndarray:
    """The high-pass run over x from its steady state at x[0], like
    ``sosfilt`` with ``zi = sosfilt_zi(sos) * x[0]``.

    Its gain at DC is zero, so that is the response to x - x[0] from rest.
    Each span of blocks carries its start state in; a log-step scan
    ``state[k] += state[k - d] @ (a^L)^d`` fills in every block's start state.
    """
    taps, to_state, from_state, powers = design
    y = np.empty(x.size)
    state = np.zeros(to_state.shape[1])
    for lo in range(0, x.size, _HP_SPAN):
        u = x[lo : lo + _HP_SPAN] - x[0]
        n = u.size
        blocks = -(-n // _HP_BLOCK)
        u = np.concatenate((u, np.zeros(blocks * _HP_BLOCK - n))).reshape(blocks, _HP_BLOCK)
        states = np.empty((blocks + 1, state.size))
        states[0] = state
        np.matmul(u, to_state, out=states[1:])
        d = 1
        for power in powers:
            if d > blocks:
                break
            states[d:] += states[:-d] @ power
            d *= 2
        out = u @ taps
        out += states[:-1] @ from_state
        y[lo : lo + n] = out.ravel()[:n]
        state = states[-1]
    return y


def _highpass(x: np.ndarray, rate: int, cutoff_hz: float) -> np.ndarray:
    """Zero-phase order-6 Butterworth high-pass: ``scipy.signal.sosfiltfilt``
    with odd padding, within 1e-9 of it from a 10 Hz cutoff up."""
    design = _highpass_design(rate, float(cutoff_hz))
    # pad by a few cutoff periods so edge transients settle inside the padding
    padlen = min(x.size - 1, int(round(3.0 * rate / cutoff_hz)))
    x = np.concatenate((2 * x[0] - x[padlen:0:-1], x, 2 * x[-1] - x[-2 : -padlen - 2 : -1]))
    y = _cascade(_cascade(x, design)[::-1], design)[::-1]
    return y[padlen : y.size - padlen]


@functools.lru_cache(maxsize=8)
def _polyphase(up: int, down: int):
    """``scipy.signal.resample_poly``'s Kaiser(8.6) filter for up/down as
    banded matrices, one per chunk of ``outputs`` consecutive outputs.

    Output i is sum_j x[j] h[half + i*down - j*up]: x[base - k] times tap
    phase + k*up, where t = i*down + half, base = t // up, phase = t % up.
    A row holds ``period`` outputs (whole periods of up, at least one chunk)
    and moves ``stride`` samples along x.  Chunk k of a row reads
    x[start[k] : start[k] + width] of the row's window, so the matrices
    hold O(len(h)) values whatever up*down is.
    """
    half = 10 * max(up, down)
    h = np.sinc(np.arange(-half, half + 1) / max(up, down)) / max(up, down) * np.kaiser(2 * half + 1, 8.6)
    h *= up / h.sum()
    taps = -(-h.size // up)
    h = np.concatenate((h, np.zeros(taps * up - h.size)))
    outputs = max(1, round(taps * up / down))  # a chunk then reads about twice its taps
    period = up * -(-outputs // up)
    chunks = -(-period // outputs)
    t = np.arange(chunks * outputs).reshape(chunks, outputs) * down + half
    base, phase = t // up, t % up
    start = base[:, 0] - taps + 1
    width = int((base[:, -1] - start).max()) + 1
    k = np.arange(taps)
    mats = np.zeros((chunks, outputs, width))
    rows = np.arange(chunks)[:, None, None], np.arange(outputs)[None, :, None]
    mats[rows + ((base - start[:, None])[..., None] - k,)] = h[phase[..., None] + k * up]
    return period, down * period // up, start, mats.transpose(0, 2, 1).copy()


def resample(x: np.ndarray, rate: int, target_rate: int) -> np.ndarray:
    """Polyphase resampling with a Kaiser (beta 8.6) windowed-sinc filter,
    ``scipy.signal.resample_poly``'s output to within 1e-12."""
    x = np.asarray(x, dtype=np.float64)
    if rate == target_rate:
        return x
    g = math.gcd(target_rate, rate)
    up, down = target_rate // g, rate // g
    period, stride, start, mats = _polyphase(up, down)
    n_out = -(-x.size * up // down)
    rows = max(1, -(-n_out // period))
    left = max(0, -int(start.min()))
    padded = np.zeros(left + max(x.size, (rows - 1) * stride + int(start.max()) + mats.shape[1]))
    padded[left : left + x.size] = x
    windows = np.lib.stride_tricks.sliding_window_view(padded, mats.shape[1])
    y = np.matmul(windows[left + start[:, None] + stride * np.arange(rows)], mats)
    return y.transpose(1, 0, 2).reshape(rows, -1)[:, :period].ravel()[:n_out]


def preprocess(w: Waveform, cfg: PreprocessConfig | None = None) -> Waveform:
    """Run the full preprocessing chain on a waveform.

    Stages, in order: resample to ``cfg.target_rate``; shorten silence runs
    longer than ``cfg.silence_trim_ms`` (detected by the frame-energy gate);
    zero-phase Butterworth high-pass at ``cfg.highpass_hz``; gain to
    ``cfg.target_level_dbfs`` RMS measured over non-silent samples.  If the
    high-pass leaves nothing above the gate (e.g. a pure stopband tone), the
    normalization stage is skipped and the attenuated signal is returned.

    Raises SilentSignalError when the input has no content above the gate.
    """
    cfg = cfg or PreprocessConfig()
    if len(w) == 0:
        raise ValueError("empty waveform")
    x = resample(w.samples, w.sample_rate, cfg.target_rate)
    rate = cfg.target_rate

    mask = silence_mask(x, rate, cfg.silence_threshold_db)
    if mask.all():
        raise SilentSignalError("signal entirely silent after trimming")
    max_len = int(round(cfg.silence_trim_ms * rate / 1000.0))
    x = _cap_silences(x, mask, max_len, cfg.cap_long_silence)

    x = _highpass(x, rate, cfg.highpass_hz)

    if cfg.target_level_dbfs is not None:
        active = ~silence_mask(x, rate, cfg.silence_threshold_db)
        if active.any():
            gain_db = cfg.target_level_dbfs - rms_dbfs(x[active])
            x = x * 10.0 ** (gain_db / 20.0)
    if not np.isfinite(x).all():
        raise ValueError("preprocessing produced non-finite samples")
    return Waveform(x, rate)
