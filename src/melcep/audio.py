"""WAV ingestion and waveform preprocessing.

The preprocessing chain brings every utterance to a common footing before
feature extraction: resample to the target rate, cap long silences, remove
low-frequency rumble, and normalize the active-speech level.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, field, fields

import numpy as np

# Frame-energy gate used for silence detection: 20 ms frames, 10 ms hop.
GATE_FRAME_S = 0.020
GATE_HOP_S = 0.010

# Zero-phase Butterworth order for the high-pass stage.  Order 6 applied
# forward-backward attenuates a tone one octave below the cutoff by ~72 dB;
# order 4 would only reach ~48 dB, which is not enough to treat sub-cutoff
# content as removed.
HIGHPASS_ORDER = 6

# Lowest high-pass cutoff: from here up the block filter is within 1e-9 of
# sosfiltfilt; far below it the poles round to z = 1 and the design stops
# being finite.
HIGHPASS_MIN_HZ = 10.0

_DB_FLOOR = 1e-12

# The high-pass runs in blocks of _HP_BLOCK samples, _HP_SPAN samples at a time.
_HP_BLOCK = 64
_HP_SPAN = 1 << 15

# Largest reduced up or down factor that ``resample`` takes: its filter has 20x
# that many taps, about 1.6 kB of peak memory per unit; 2**15 admits 8-768 kHz.
RESAMPLE_MAX_FACTOR = 1 << 15

# Last 12 bytes of the KSDATAFORMAT_SUBTYPE GUIDs whose first 4 bytes are a format tag.
_WAV_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


class SilentSignalError(ValueError):
    """Raised when a signal contains no frames above the silence gate."""


def reject_non_finite(config) -> None:
    """ValueError naming the first field of the dataclass ``config`` that holds a NaN or infinite float."""
    for f in fields(config):
        if isinstance(value := getattr(config, f.name), float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


@dataclass
class Waveform:
    """Mono audio samples with their sample rate, full scale 1.0.  PCM
    reads into [-1, 1); float32 samples are taken as stored, so they may lie
    above full scale.

    ``removed`` holds the (start, length) of each stretch the silence cap
    took out, in samples of the signal before it and in order; ``preprocess``
    sets it, so its output's samples can be traced back to that signal.
    """

    samples: np.ndarray
    sample_rate: int
    removed: np.ndarray = field(default_factory=lambda: np.zeros((0, 2), dtype=np.int64))

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

    @property
    def source_length(self) -> int:
        """Sample count of the signal before the silence cap."""
        return self.samples.size + int(self.removed[:, 1].sum())

    def source_positions(self, positions: np.ndarray) -> np.ndarray:
        """The positions in the signal before the silence cap of the sample positions ``positions``."""
        starts, lengths = self.removed.T
        shifts = np.concatenate(([0], np.cumsum(lengths)))
        # each removed stretch sat before this signal's sample starts - shifts[:-1]
        return positions + shifts[np.searchsorted(starts - shifts[:-1], positions, side="right")]


@dataclass(frozen=True)
class PreprocessConfig:
    """Parameters of the preprocessing chain.

    Silence runs longer than ``silence_trim_ms`` are shortened to exactly
    that length, ``silence_trim_samples``: finitely many samples, at least
    one.  A ``target_level_dbfs`` of None disables the level normalization.
    Both levels are in dB relative to full scale (an RMS of 1.0), and above
    0 dBFS each is an error: a target there leaves full scale, and a gate
    there calls a full-scale signal silent.  ``highpass_hz`` is at least
    ``HIGHPASS_MIN_HZ``.  No value is NaN or infinite.
    """

    target_rate: int = 22050
    silence_trim_ms: float = 200.0
    silence_threshold_db: float = -45.0
    highpass_hz: float = 60.0
    target_level_dbfs: float | None = -22.0

    def __post_init__(self):
        reject_non_finite(self)
        if self.highpass_hz < HIGHPASS_MIN_HZ:
            raise ValueError(f"highpass_hz must be at least {HIGHPASS_MIN_HZ:g} Hz, got {self.highpass_hz:g}")
        if self.target_rate <= 2 * self.highpass_hz:
            raise ValueError("target_rate must exceed twice the high-pass cutoff")
        try:
            trim_samples = self.silence_trim_samples
        except OverflowError:  # the ms overflow to an infinite sample count
            raise ValueError(f"silence_trim_ms must be a finite number of samples at {self.target_rate} Hz, "
                             f"got {self.silence_trim_ms:g}") from None
        if trim_samples < 1:  # 0 would delete each long pause
            raise ValueError(f"silence_trim_ms must keep at least one sample at {self.target_rate} Hz, "
                             f"got {self.silence_trim_ms:g}")
        if self.silence_threshold_db > 0:
            raise ValueError(f"silence_threshold_db must be at most 0 dBFS, got {self.silence_threshold_db:g}")
        if self.target_level_dbfs is not None and self.target_level_dbfs > 0:
            raise ValueError(f"target_level_dbfs must be at most 0 dBFS, got {self.target_level_dbfs:g}")

    @property
    def silence_trim_samples(self) -> int:
        """``silence_trim_ms`` rounded to whole samples at ``target_rate``."""
        return int(round(self.silence_trim_ms * self.target_rate / 1000.0))


def _read_wav(path) -> tuple[int, np.ndarray]:
    """(rate, int16, int32 or float32 samples, 2-D if multichannel) under ``load_wav``'s contract."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < 12 or buf[:4] != b"RIFF" or buf[8:12] != b"WAVE":
        raise ValueError(f"not a little-endian RIFF WAVE file: it starts {buf[:12]!r}")
    riff_end = struct.unpack_from("<I", buf, 4)[0] + 8
    pos, rate, data = 12, None, None
    while pos < riff_end and pos + 8 <= len(buf):
        cid, size = buf[pos:pos + 4], struct.unpack_from("<I", buf, pos + 4)[0]
        start, stop = pos + 8, min(pos + 8 + size, len(buf))
        if cid == b"fmt ":
            if stop - start < 16:
                raise ValueError(f"fmt chunk of {stop - start} bytes; it needs 16")
            tag, channels, rate, byte_rate, block_align, bits = struct.unpack_from("<HHIIHH", buf, start)
            if (tag == 0xFFFE and stop - start >= 40 and struct.unpack_from("<H", buf, start + 16)[0] >= 22
                    and buf[start + 28:start + 40] == _WAV_GUID_TAIL):
                tag = struct.unpack_from("<I", buf, start + 24)[0]
            unsupported = (f"unsupported encoding: format tag {tag:#x}, {bits} bits, {channels} channel(s), "
                           f"{block_align}-byte blocks; expected PCM of 9-32 bits or float32")
            if tag not in (1, 3):
                raise ValueError(unsupported)
            if tag == 1 and byte_rate != rate * block_align:
                raise ValueError(f"byte rate {byte_rate} is not sample rate {rate} x block size {block_align}")
        elif cid == b"data":
            if rate is None:
                raise ValueError("data chunk before the fmt chunk")
            width = -(-bits // 8) if tag == 1 else 4
            if channels < 1 or block_align != channels * width or not (9 <= bits <= 32 if tag == 1 else bits == 32):
                raise ValueError(unsupported)
            count, partial = divmod(stop - start, width)
            if count % channels:
                raise ValueError(f"data chunk ends inside a {channels}-channel frame")
            if width == 3:  # as scipy reads it: int32, the 3 bytes left-justified
                if partial:
                    raise ValueError("data chunk ends inside a 3-byte sample")
                data = np.zeros((count, 4), np.uint8)
                data[:, 1:] = np.frombuffer(buf, np.uint8, 3 * count, start).reshape(count, 3)
                data = data.view("<i4")[:, 0]
            else:
                data = np.frombuffer(buf, "<f4" if tag == 3 else f"<i{width}", count, start)
            if channels > 1:
                data = data.reshape(-1, channels)
        pos = start + size + size % 2
    if data is None:
        raise ValueError("no data chunk")
    if rate == 0:
        raise ValueError("sample rate 0")
    return rate, data


def load_wav(path) -> Waveform:
    """Read a WAV file as a mono Waveform: channels are averaged, PCM is
    scaled to [-1, 1), float32 is taken as stored, unclipped, and the sample
    rate is passed through unchanged (resampling is the preprocessing
    stage's job).

    The file is ``RIFF``...``WAVE``, not RIFX or RF64.  Its ``fmt `` chunk has
    16 bytes or more (``WAVE_FORMAT_EXTENSIBLE`` with cbSize >= 22 and the
    standard GUID tail takes its subformat tag), comes before the ``data``
    chunk and gives PCM (tag 1) with 9-16 bits in 2-byte samples, read as
    int16 and scaled by 2^-15, or with 17-24 bits in 3 bytes or 25-32 bits
    in 4 bytes, read as int32 (3 bytes left-justified) and scaled by 2^-31,
    or IEEE float (tag 3) with 4-byte samples and 32 bits, read as float32;
    block size = channels x sample bytes, channels >= 1, sample rate > 0
    and, for PCM, byte rate = sample rate x block size.  Chunks are walked
    up to the smaller of the RIFF size + 8 and the file size: odd sizes are
    padded, unknown chunks skipped and a chunk header cut short at the end
    ignored.  A data chunk cut short gives the whole frames present; one
    that ends inside a multichannel frame or a 3-byte sample fails.  A
    breach raises ``ValueError("unreadable WAV file <path>: <cause>")``;
    empty or non-finite audio raises ValueError too.
    """
    try:
        rate, data = _read_wav(path)
    except ValueError as exc:
        raise ValueError(f"unreadable WAV file {path!s}: {exc}") from exc
    if data.size == 0:
        raise ValueError(f"zero-length audio in {path!s}")
    if not np.isfinite(data).all():  # checked before the cast, which warns on a signaling NaN
        raise ValueError(f"non-finite samples in {path!s}")
    x = data / 2.0 ** (8 * data.itemsize - 1) if data.dtype.kind == "i" else data.astype(np.float64)
    if x.ndim == 2:
        x = x.mean(axis=1)
    return Waveform(x, rate)


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
    windows = np.lib.stride_tricks.sliding_window_view(np.square(x), frame)[::hop]
    frame_db = 10.0 * np.log10(np.maximum(np.mean(windows, axis=1), _DB_FLOOR**2))
    silent = frame_db < threshold_db
    counts = np.full(n_frames, hop)
    counts[-1] = n - (n_frames - 1) * hop  # from the last frame's start to the end
    return np.repeat(silent, counts)


def _silent_runs(mask: np.ndarray):
    """Yield (start, end) of maximal True runs in a non-empty boolean mask."""
    # k is an edge where mask, padded with False at both ends, differs at k - 1 and k; starts and ends alternate
    edges = np.flatnonzero(np.concatenate(([mask[0]], mask[1:] != mask[:-1], [mask[-1]]))).tolist()
    yield from zip(edges[::2], edges[1::2])


def _cap_silences(x: np.ndarray, mask: np.ndarray, max_len: int) -> tuple[np.ndarray, np.ndarray]:
    """``x`` with its silence runs longer than ``max_len`` capped to it, and
    the (start, length) of each stretch taken out, in order."""
    kept, removed, pos = [], [], 0
    for start, end in _silent_runs(mask):
        if end - start <= max_len:
            continue
        if start == 0:
            # leading run: keep the tail adjacent to speech
            cut = start, end - max_len
        elif end == x.size:
            cut = start + max_len, end
        else:
            head = max_len // 2
            cut = start + head, end - (max_len - head)
        kept.append(x[pos : cut[0]])
        removed.append((cut[0], cut[1] - cut[0]))
        pos = cut[1]
    return np.concatenate(kept + [x[pos:]]), np.array(removed, dtype=np.int64).reshape(-1, 2)


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
    ``scipy.signal.resample_poly``'s output to within 1e-12.  ValueError,
    before any filter is built, if up or down exceeds ``RESAMPLE_MAX_FACTOR``."""
    x = np.asarray(x, dtype=np.float64)
    if rate == target_rate:
        return x
    g = math.gcd(target_rate, rate)
    up, down = target_rate // g, rate // g
    if max(up, down) > RESAMPLE_MAX_FACTOR:
        raise ValueError(f"cannot resample {rate} Hz to {target_rate} Hz: the ratio {up}/{down} "
                         f"has a term above {RESAMPLE_MAX_FACTOR}")
    period, stride, start, mats = _polyphase(up, down)
    n_out = -(-x.size * up // down)
    rows = max(1, -(-n_out // period))
    left = max(0, -int(start.min()))
    padded = np.zeros(left + max(x.size, (rows - 1) * stride + int(start.max()) + mats.shape[1]))
    padded[left : left + x.size] = x
    windows = np.lib.stride_tricks.sliding_window_view(padded, mats.shape[1])
    y = np.matmul(windows[left + start[:, None] + stride * np.arange(rows)], mats)
    return y.transpose(1, 0, 2).reshape(rows, -1)[:, :period].ravel()[:n_out]


def preprocess(w: Waveform, cfg: PreprocessConfig = PreprocessConfig()) -> Waveform:
    """Run the full preprocessing chain on a waveform.

    Stages, in order: resample to ``cfg.target_rate``; shorten silence runs
    longer than ``cfg.silence_trim_ms`` (detected by the frame-energy gate);
    zero-phase Butterworth high-pass at ``cfg.highpass_hz``; gain to
    ``cfg.target_level_dbfs`` RMS measured over non-silent samples.  If the
    high-pass leaves nothing above the gate (e.g. a pure stopband tone), the
    normalization stage is skipped and the attenuated signal is returned.
    The result's ``removed`` lists what the silence cap took out of the
    resampled signal.

    Raises SilentSignalError when the input has no content above the gate.
    """
    if len(w) == 0:
        raise ValueError("empty waveform")
    x = resample(w.samples, w.sample_rate, cfg.target_rate)
    rate = cfg.target_rate

    mask = silence_mask(x, rate, cfg.silence_threshold_db)
    if mask.all():
        raise SilentSignalError("signal entirely silent after trimming")
    x, removed = _cap_silences(x, mask, cfg.silence_trim_samples)

    x = _highpass(x, rate, cfg.highpass_hz)

    if cfg.target_level_dbfs is not None:
        active = ~silence_mask(x, rate, cfg.silence_threshold_db)
        if active.any():
            gain_db = cfg.target_level_dbfs - rms_dbfs(x[active])
            x = x * 10.0 ** (gain_db / 20.0)
    if not np.isfinite(x).all():
        raise ValueError("preprocessing produced non-finite samples")
    return Waveform(x, rate, removed)
