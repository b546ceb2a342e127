import math
import re
import struct
import tracemalloc
import warnings
import wave

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import wavfile
from scipy.signal import butter, resample_poly, sosfiltfilt

from melcep import audio
from melcep.audio import (
    PreprocessConfig,
    SilentSignalError,
    Waveform,
    load_wav,
    preprocess,
    rms_dbfs,
)

from conftest import SR, speechlike, tone, write_wav_bytes
from oracles import cap_silences_loop, gate_silent_segments, silence_mask_loop


def test_load_pcm16_silence(tmp_path):
    path = tmp_path / "silence.wav"
    write_wav_bytes(path, np.zeros(SR), SR, "pcm16")
    w = load_wav(path)
    assert w.sample_rate == SR
    assert len(w) == SR
    assert np.all(w.samples == 0.0)


def test_load_stereo_symmetric_average(tmp_path):
    path = tmp_path / "stereo.wav"
    stereo = np.stack([np.full(500, 0.5), np.full(500, -0.5)], axis=1)
    write_wav_bytes(path, stereo, SR, "float32")
    w = load_wav(path)
    assert len(w) == 500
    assert np.all(w.samples == 0.0)


def test_load_keeps_original_rate(tmp_path):
    path = tmp_path / "lo.wav"
    write_wav_bytes(path, tone(440, 0.25, -20, rate=16000), 16000, "pcm16")
    assert load_wav(path).sample_rate == 16000


def test_load_float32_scaling(tmp_path):
    path = tmp_path / "f32.wav"
    x = tone(440, 0.1, -20)
    write_wav_bytes(path, x, SR, "float32")
    w = load_wav(path)
    assert np.allclose(w.samples, x, atol=1e-7)


def test_load_pcm16_scaling_range(tmp_path):
    path = tmp_path / "full.wav"
    write_wav_bytes(path, np.array([1.0, -1.0, 0.0]), SR, "pcm16")
    w = load_wav(path)
    assert np.abs(w.samples).max() <= 1.0


@pytest.mark.parametrize("width", [2, 3, 4])
def test_load_pcm_reads_each_sample_over_full_scale(tmp_path, width):
    """The stdlib wave module writes the integers, extremes included; each
    reads as int / 2**(bits - 1)."""
    bits = 8 * width
    ints = np.random.default_rng(width).integers(-(2 ** (bits - 1)), 2 ** (bits - 1), size=(200, 2))
    ints[:2, 0] = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
    path = tmp_path / "pcm.wav"
    with wave.open(str(path), "wb") as w:
        w.setnchannels(2)
        w.setsampwidth(width)
        w.setframerate(SR)
        w.writeframes(b"".join(int(v).to_bytes(width, "little", signed=True) for v in ints.ravel()))
    assert np.array_equal(load_wav(path).samples, (ints / 2.0 ** (bits - 1)).mean(axis=1))


@pytest.mark.parametrize("encoding", ["float64", "uint8"])
def test_load_unsupported_encoding(tmp_path, encoding):
    path = tmp_path / "bad.wav"
    write_wav_bytes(path, np.zeros(100), SR, encoding)
    with pytest.raises(ValueError, match="unsupported"):
        load_wav(path)


def test_load_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_wav(tmp_path / "nope.wav")


def test_load_garbage_file(tmp_path):
    path = tmp_path / "junk.wav"
    path.write_bytes(b"definitely not a wav")
    with pytest.raises(ValueError):
        load_wav(path)


def test_preprocess_stopband_tone_removed():
    # whole number of cycles so the tone starts and ends at zero crossings
    x = tone(30, 2.0, -10)
    out = preprocess(Waveform(x, SR))
    assert rms_dbfs(out.samples) - rms_dbfs(x) < -60.0


def test_preprocess_gain_normalization():
    x = tone(440, 1.0, -10)
    out = preprocess(Waveform(x, SR))
    assert abs(rms_dbfs(out.samples) - (-22.0)) < 0.1


def test_preprocess_silence_gap_capped_to_200ms():
    x = np.concatenate([tone(440, 0.5, -16), np.zeros(SR), tone(523, 0.5, -16)])
    out = preprocess(Waveform(x, SR))
    segments = gate_silent_segments(out.samples, SR, -45.0)
    internal = [(s, e) for s, e in segments if s > 0.01 and e < out.duration_s - 0.01]
    assert len(internal) == 1
    gap = internal[0][1] - internal[0][0]
    assert abs(gap - 0.200) <= 0.010 + 1e-9  # one 10 ms hop


def test_preprocess_trailing_and_leading_silence_capped():
    x = np.concatenate([np.zeros(SR), tone(440, 0.5, -16), np.zeros(SR)])
    out = preprocess(Waveform(x, SR))
    assert out.duration_s < 1.0  # 0.5 s tone + two capped 0.2 s runs + gate slack
    segments = gate_silent_segments(out.samples, SR, -45.0)
    for start, end in segments:
        assert end - start <= 0.200 + 0.030


def test_cap_silences_records_what_it_removed():
    """Every kept sample traces back to its place in the signal before the cap."""
    mask = np.zeros(30000, dtype=bool)
    mask[:6000] = mask[9000:9500] = mask[12000:20000] = mask[25000:] = True  # leading, short, interior, trailing
    x = np.arange(mask.size, dtype=np.float64)
    y, removed = audio._cap_silences(x, mask, 4410)
    assert removed.tolist() == [[0, 1590], [14205, 3590], [29410, 590]]
    w = Waveform(y, SR, removed)
    assert w.source_length == x.size
    assert np.array_equal(x[w.source_positions(np.arange(y.size))], y)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=40), st.integers(1, 8))
def test_cap_silences_equals_the_sample_loop(mask, max_len):
    """The run edges and the kept slices against a per-sample walk; the input is left as it was."""
    mask = np.asarray(mask)
    x = np.arange(mask.size, dtype=np.float64)
    y, removed = audio._cap_silences(x, mask, max_len)
    expected_y, expected_removed = cap_silences_loop(x, mask, max_len)
    assert np.array_equal(y, expected_y) and removed.tolist() == [list(r) for r in expected_removed]
    assert np.array_equal(x, np.arange(mask.size))


def test_preprocess_reports_the_capped_pause():
    x = np.concatenate([tone(440, 0.5, -16), np.zeros(SR), tone(523, 0.5, -16)])
    out = preprocess(Waveform(x, SR))
    assert out.source_length == x.size
    ((start, length),) = out.removed.tolist()
    # the gate leaves 1 to 3 of its 220-sample hops of the pause's edges ungated; the cap keeps 200 ms
    assert SR // 2 + 2205 <= start <= SR // 2 + 2205 + 3 * 220
    assert SR - 4410 - 3 * 220 <= length <= SR - 4410
    assert out.samples.size == x.size - length
    plain = Waveform(x, SR)
    assert plain.source_length == x.size and np.array_equal(plain.source_positions(np.arange(5)), np.arange(5))


def test_preprocess_entirely_silent_raises():
    with pytest.raises(SilentSignalError):
        preprocess(Waveform(np.zeros(SR), SR))


def test_preprocess_resamples_to_target():
    x = tone(440, 1.0, -10, rate=16000)
    out = preprocess(Waveform(x, 16000))
    assert out.sample_rate == SR
    assert abs(len(out) - SR) <= 2
    assert abs(rms_dbfs(out.samples) - (-22.0)) < 0.1


def test_preprocess_idempotent(rng):
    x = np.concatenate(
        [tone(440, 0.4, -16), np.zeros(2205), speechlike(rng, 0.5), np.zeros(6615), tone(600, 0.3, -18)]
    )
    once = preprocess(Waveform(x, SR))
    twice = preprocess(once)
    assert len(twice) == len(once)
    assert float(np.sqrt(np.mean((once.samples - twice.samples) ** 2))) < 1e-3


def test_preprocess_never_lengthens(rng):
    x = np.concatenate([speechlike(rng, 0.4), np.zeros(2 * SR), speechlike(rng, 0.4)])
    out = preprocess(Waveform(x, SR))
    assert out.duration_s <= len(x) / SR + 1e-9


def test_preprocess_highpass_attenuation_depth():
    # 40 Hz sits deep enough in the stopband for the 40 dB requirement
    x = tone(40, 2.0, -10)
    cfg = PreprocessConfig(target_level_dbfs=None)
    out = preprocess(Waveform(x, SR), cfg)
    assert rms_dbfs(out.samples) - rms_dbfs(x) < -40.0


def test_preprocess_normalization_disabled():
    x = tone(440, 1.0, -10)
    out = preprocess(Waveform(x, SR), PreprocessConfig(target_level_dbfs=None))
    assert abs(rms_dbfs(out.samples) - (-10.0)) < 0.1


def test_float32_above_full_scale_is_taken_as_stored(tmp_path):
    # full scale is 1.0: this sine's RMS is +9 dBFS, and the gain still lands it at -22 dBFS
    x = 4.0 * np.sin(2.0 * np.pi * 440.0 * np.arange(SR) / SR)
    path = tmp_path / "loud.wav"
    write_wav_bytes(path, x, SR, "float32")
    w = load_wav(path)
    assert np.array_equal(w.samples, x.astype(np.float32))
    assert rms_dbfs(preprocess(w).samples) == pytest.approx(-22.0, abs=1e-9)


def test_preprocess_output_finite(rng):
    out = preprocess(Waveform(speechlike(rng, 0.7), SR))
    assert np.isfinite(out.samples).all()


def test_config_validation():
    with pytest.raises(ValueError):
        PreprocessConfig(target_rate=100, highpass_hz=60.0)
    with pytest.raises(ValueError):
        PreprocessConfig(silence_trim_ms=0.0)
    with pytest.raises(ValueError):
        Waveform(np.zeros(10), 0)
    with pytest.raises(ValueError, match="^target_level_dbfs must be at most 0 dBFS, got 0.5$"):
        PreprocessConfig(target_level_dbfs=0.5)
    with pytest.raises(ValueError, match="^highpass_hz must be at least 10 Hz, got 9.99$"):
        PreprocessConfig(highpass_hz=9.99)
    assert PreprocessConfig(highpass_hz=audio.HIGHPASS_MIN_HZ).highpass_hz == 10.0
    with pytest.raises(ValueError, match="^Waveform samples must be one-dimensional$"):
        Waveform(np.zeros((2, 10)), SR)
    with pytest.raises(ValueError, match="^empty waveform$"):
        preprocess(Waveform(np.zeros(0), SR))


# --------------------------------------------------------------------------
# numpy replacements of scipy routines, with scipy as the oracle


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(0, 3000),
    rate=st.sampled_from([8000, 11025, 16000, 22050, 44100, 48000, 97, 100, 150]),
    threshold=st.floats(-90.0, 0.0),
    seed=st.integers(0, 2**16),
)
def test_silence_mask_matches_loop(n, rate, threshold, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, n) * 10.0 ** rng.uniform(-4.0, 0.0, n)
    if n > 10:
        x[rng.integers(0, n, 2).min() : rng.integers(0, n, 2).max()] = 0.0  # a silent run
    assert np.array_equal(audio.silence_mask(x, rate, threshold), silence_mask_loop(x, rate, threshold))


def test_silence_mask_memory_stays_near_one_signal():
    # the 20 ms frames overlap 2x: square the signal once, not each frame's copy
    x = np.random.default_rng(4).normal(0.0, 0.1, 60 * SR)
    tracemalloc.start()
    try:
        mask = audio.silence_mask(x, SR, -45.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mask.size == x.size
    assert peak <= 1.25 * x.nbytes


def _scipy_load_wav(path) -> Waveform:
    """``load_wav`` as it read files through ``scipy.io.wavfile``."""
    try:
        rate, data = wavfile.read(path)
    except FileNotFoundError:
        raise
    except (ValueError, EOFError) as exc:
        raise ValueError(f"unreadable WAV file {path!s}: {exc}") from exc
    if data.dtype == np.int16:
        x = data.astype(np.float64) / 32768.0
    elif data.dtype == np.int32:
        x = data.astype(np.float64) / 2147483648.0
    elif data.dtype == np.float32:
        x = data.astype(np.float64)
    else:
        raise ValueError(f"unsupported WAV encoding {data.dtype} in {path!s}; expected PCM of 9-32 bits or float32")
    if x.ndim == 2:
        x = x.mean(axis=1)
    if x.size == 0:
        raise ValueError(f"zero-length audio in {path!s}")
    if not np.isfinite(x).all():
        raise ValueError(f"non-finite samples in {path!s}")
    return Waveform(x, int(rate))


def _outcome(load, path):
    """(rate, samples), or (exception class, message)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns about skipped chunks
        try:
            w = load(path)
        except Exception as exc:
            return type(exc), str(exc)
    return w.sample_rate, w.samples


def _assert_reads_like_scipy(path):
    """Same rate and samples, bit for bit, where scipy reads the file, and a
    ValueError where scipy raises anything; the messages may differ."""
    ours, ref = _outcome(load_wav, path), _outcome(_scipy_load_wav, path)
    if isinstance(ref[1], np.ndarray):
        assert ours[0] == ref[0] and isinstance(ours[1], np.ndarray)
        assert ours[1].tobytes() == ref[1].tobytes()
    else:
        assert ours[0] is ValueError, ours


_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def _chunk(cid: bytes, payload: bytes) -> bytes:
    return cid + struct.pack("<I", len(payload)) + payload + b"\0" * (len(payload) % 2)


def _fmt(tag: int, channels: int, rate: int, bits: int, guid_tag: int | None = None, extra: bytes = b"",
         width: int | None = None) -> bytes:
    block = channels * (width or -(-bits // 8))
    body = struct.pack("<HHIIHH", tag, channels, rate, rate * block, block, bits)
    if guid_tag is not None:  # WAVE_FORMAT_EXTENSIBLE: cbSize, valid bits, channel mask, GUID
        body += struct.pack("<HHII", 22, bits, 3, guid_tag) + _GUID_TAIL
    return _chunk(b"fmt ", body + extra)


def _riff(*chunks: bytes, sig: bytes = b"RIFF") -> bytes:
    body = b"WAVE" + b"".join(chunks)
    return sig + struct.pack("<I", len(body)) + body


def _pcm16(n, channels, seed=0):
    data = np.random.default_rng(seed).integers(-32768, 32768, size=(n, channels))
    return data.astype("<i2").tobytes()


def _f32(n, channels, seed=0):
    return np.random.default_rng(seed).uniform(-1, 1, size=(n, channels)).astype("<f4").tobytes()


_VALID_WAVS = {
    "pcm16_mono": _riff(_fmt(1, 1, 16000, 16), _chunk(b"data", _pcm16(101, 1))),
    "pcm16_stereo": _riff(_fmt(1, 2, 44100, 16), _chunk(b"data", _pcm16(100, 2))),
    "float32_mono": _riff(_fmt(3, 1, 22050, 32), _chunk(b"data", _f32(77, 1))),
    "float32_stereo": _riff(_fmt(3, 2, 48000, 32), _chunk(b"data", _f32(64, 2))),
    "extensible_pcm16": _riff(_fmt(0xFFFE, 2, 24000, 16, guid_tag=1), _chunk(b"data", _pcm16(50, 2))),
    "extensible_float32": _riff(_fmt(0xFFFE, 1, 8000, 32, guid_tag=3), _chunk(b"data", _f32(33, 1))),
    "odd_chunks": _riff(
        _chunk(b"LIST", b"INFOabc"), _fmt(1, 1, 16000, 16, extra=b"\0\0"), _chunk(b"JUNK", b"x"),
        _chunk(b"fact", b"\x05\0\0\0"), _chunk(b"data", _pcm16(9, 1)), _chunk(b"bext", b"odd")
    ),
    "odd_data_size": _riff(_fmt(1, 1, 16000, 16), _chunk(b"data", _pcm16(9, 1) + b"\x01")),
    "truncated_data": _riff(_fmt(3, 2, 16000, 32), _chunk(b"data", _f32(40, 2)))[:-37],
    "pcm24": _riff(_fmt(1, 2, 16000, 24), _chunk(b"data", np.random.default_rng(1).bytes(60))),
    "pcm32": _riff(_fmt(1, 1, 16000, 32), _chunk(b"data", np.random.default_rng(2).bytes(40))),
}


@pytest.mark.parametrize("name", list(_VALID_WAVS))
def test_wav_reader_matches_scipy(tmp_path, name):
    path = tmp_path / f"{name}.wav"
    path.write_bytes(_VALID_WAVS[name])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rate, data = wavfile.read(path)
    ours_rate, ours = audio._read_wav(path)
    assert ours_rate == rate and ours.dtype == data.dtype and np.array_equal(ours, data)
    _assert_reads_like_scipy(path)


_REJECTED_WAVS = {
    "pcm24_partial_sample": _riff(_fmt(1, 1, 16000, 24), _chunk(b"data", bytes(31))),
    "uint8": _riff(_fmt(1, 1, 16000, 8), _chunk(b"data", bytes(range(20)))),
    "float64": _riff(_fmt(3, 1, 16000, 64), _chunk(b"data", bytes(80))),
    "float16": _riff(_fmt(3, 1, 16000, 16), _chunk(b"data", bytes(80))),
    "pcm72": _riff(_fmt(1, 1, 16000, 72), _chunk(b"data", bytes(90))),
    "alaw": _riff(_fmt(6, 1, 8000, 8), _chunk(b"data", bytes(20))),
    "mulaw": _riff(_fmt(7, 1, 8000, 8), _chunk(b"data", bytes(20))),
    "adpcm": _riff(_fmt(2, 1, 8000, 4), _chunk(b"data", bytes(20))),
    "extensible_alaw": _riff(_fmt(0xFFFE, 1, 8000, 8, guid_tag=6), _chunk(b"data", bytes(20))),
    "extensible_short": _riff(_fmt(0xFFFE, 1, 8000, 16)),
    "bad_byte_rate": _riff(_chunk(b"fmt ", struct.pack("<HHIIHH", 1, 1, 16000, 1234, 2, 16)), _chunk(b"data", bytes(8))),
    "short_fmt": _riff(_chunk(b"fmt ", bytes(14)), _chunk(b"data", bytes(8))),
    "data_before_fmt": _riff(_chunk(b"data", bytes(8)), _fmt(1, 1, 16000, 16)),
    "stereo_odd_samples": _riff(_fmt(1, 2, 16000, 16), _chunk(b"data", _pcm16(5, 1))),
    "rifx_pcm16": b"RIFX" + struct.pack(">I", 36 + 8) + b"WAVE" + b"fmt "
    + struct.pack(">IHHIIHH", 16, 1, 1, 8000, 16000, 2, 16) + b"data" + struct.pack(">I", 8) + bytes(8),
    "zero_samples": _riff(_fmt(1, 1, 16000, 16), _chunk(b"data", b"")),
    "nan_sample": _riff(_fmt(3, 1, 16000, 32), _chunk(b"data", np.array([0.0, np.nan], "<f4").tobytes())),
    "empty_file": b"",
    "text": b"definitely not a wav",
    "avi": b"RIFF" + struct.pack("<I", 4) + b"AVI ",
    "riff_only": b"RIFF",
    "noise": np.random.default_rng(3).integers(0, 256, 200).astype("u1").tobytes(),
    "no_data": _riff(_fmt(1, 1, 16000, 16)),  # scipy raised UnboundLocalError
    "tag_0x1234": _riff(_fmt(0x1234, 1, 8000, 8), _chunk(b"data", bytes(4))),
    "zero_channels": _riff(_fmt(1, 0, 16000, 16), _chunk(b"data", bytes(8))),  # scipy: ZeroDivisionError
    "zero_rate": _riff(_fmt(1, 1, 0, 16), _chunk(b"data", bytes(8))),
}


@pytest.mark.parametrize("name", list(_REJECTED_WAVS))
def test_wav_reader_rejects_like_scipy(tmp_path, name):
    path = tmp_path / f"{name}.wav"
    path.write_bytes(_REJECTED_WAVS[name])
    ours = _outcome(load_wav, path)
    assert isinstance(ours[0], type) and issubclass(ours[0], Exception)
    _assert_reads_like_scipy(path)


# odd_chunks cut 5-7 bytes into the header of the chunk after its data chunk
_CUT_IN_TRAILING_HEADER = [_VALID_WAVS["odd_chunks"].rindex(b"bext") + k for k in (5, 6, 7)]


@pytest.mark.parametrize("name", ["pcm16_stereo", "extensible_float32", "odd_chunks", "pcm24"])
def test_wav_reader_truncated_like_scipy(tmp_path, name):
    full = _VALID_WAVS[name]
    path = tmp_path / "cut.wav"
    for size in range(len(full)):
        if name == "odd_chunks" and size in _CUT_IN_TRAILING_HEADER:
            continue  # a declared difference: test_wav_reader_known_differences
        path.write_bytes(full[:size])
        _assert_reads_like_scipy(path)


def _rf64(fmt: bytes, samples: bytes) -> bytes:
    """An RF64 file: its RIFF and data sizes are 64-bit, in a ds64 chunk."""
    size = 4 + 36 + len(fmt) + 8 + len(samples)
    body = b"WAVE" + _chunk(b"ds64", struct.pack("<QQQI", size, len(samples), 0, 0)) + fmt
    return b"RF64" + struct.pack("<I", 0xFFFFFFFF) + body + b"data" + struct.pack("<I", 0xFFFFFFFF) + samples


def test_wav_reader_known_differences(tmp_path):
    """The declared differences from scipy.io.wavfile.read, which reads the
    first group and fails on the second with struct.error."""
    data = _chunk(b"data", _pcm16(6, 1))
    extensible = _fmt(0xFFFE, 1, 8000, 32, guid_tag=3)
    read_by_scipy_only = {  # header fields that contradict each other, then RF64
        "pcm_0_bits": (_riff(_fmt(1, 1, 16000, 0, width=2), data), "0 bits"),
        "pcm_24_bits_in_2_bytes": (_riff(_fmt(1, 1, 16000, 24, width=2), data), "24 bits"),
        "pcm_20_bits_in_4_bytes": (_riff(_fmt(1, 1, 16000, 20, width=4), _chunk(b"data", bytes(12))), "20 bits"),
        "float_64_bits_in_4_bytes": (_riff(_fmt(3, 1, 16000, 64, width=4), data), "64 bits"),
        "stereo_5_byte_blocks": (
            _riff(_chunk(b"fmt ", struct.pack("<HHIIHH", 1, 2, 16000, 80000, 5, 16)), data), "5-byte blocks"
        ),
        "extensible_fmt_sized_18": (_riff(extensible[:4] + struct.pack("<I", 18) + extensible[8:], data), "tag 0xfffe"),
        "rf64": (_rf64(_fmt(1, 1, 16000, 16), _pcm16(6, 1)), "b'RF64"),
    }
    for name, (payload, message) in read_by_scipy_only.items():
        path = tmp_path / f"{name}.wav"
        path.write_bytes(payload)
        assert isinstance(_outcome(_scipy_load_wav, path)[1], np.ndarray), name
        with pytest.raises(ValueError, match=f"^unreadable WAV file .*{message}"):
            load_wav(path)
    # a file cut inside a chunk header after the data chunk keeps its data
    odd_chunks, odd_data = _VALID_WAVS["odd_chunks"], _VALID_WAVS["odd_data_size"]
    read_by_ours_only = [(odd_chunks[:size], odd_chunks) for size in _CUT_IN_TRAILING_HEADER]
    # after an odd-sized data chunk scipy resumed the walk one byte early, at the pad byte
    read_by_ours_only.append((_riff(_fmt(1, 1, 16000, 16), _chunk(b"data", _pcm16(9, 1) + b"\x01"), b"LIST"), odd_data))
    for payload, reference in read_by_ours_only:
        (tmp_path / "cut.wav").write_bytes(payload)
        (tmp_path / "ref.wav").write_bytes(reference)
        assert _outcome(_scipy_load_wav, tmp_path / "cut.wav")[0] is struct.error
        ours, ref = _outcome(load_wav, tmp_path / "cut.wav"), _outcome(_scipy_load_wav, tmp_path / "ref.wav")
        assert ours[0] == ref[0] and ours[1].tobytes() == ref[1].tobytes()
    # the messages name the cause
    for name, message in [
        ("uint8", "format tag 0x1, 8 bits, 1 channel(s), 1-byte blocks"), ("rifx_pcm16", "it starts b'RIFX"),
        ("stereo_odd_samples", "inside a 2-channel frame"), ("zero_rate", "sample rate 0"),
        ("pcm24_partial_sample", "inside a 3-byte sample"),
    ]:
        path = tmp_path / f"{name}.wav"
        path.write_bytes(_REJECTED_WAVS[name])
        with pytest.raises(ValueError, match=re.escape(f"unreadable WAV file {path}: ") + ".*" + re.escape(message)):
            load_wav(path)


# (format tag, bits): the accepted encodings, weighted to make many files readable, and rejected ones
_FUZZ_ENCODINGS = (3 * [(1, 16), (1, 12), (3, 32), (0xFFFE, 16), (0xFFFE, 32)] + [(1, 24), (1, 32)]
                   + [(1, 0), (3, 64), (6, 8)])


def _fuzzed_wav(rng: np.random.Generator) -> bytes:
    """A WAV file with random fmt fields, data and truncation; most fields hold a valid value."""
    random_fields = rng.integers(0, 1 << 16, 2)
    tag, bits = _FUZZ_ENCODINGS[rng.integers(len(_FUZZ_ENCODINGS))] if rng.random() < 0.8 else random_fields
    channels, rate = int(rng.choice([1, 1, 2, 2, 3, 0])), int(rng.choice([16000, 22050, 44100, 0]))
    block = channels * -(-bits // 8) if rng.random() < 0.8 else int(rng.integers(0, 17))
    byte_rate = rate * block if rng.random() < 0.9 else int(rng.integers(0, 1 << 32))
    fmt = struct.pack("<HHIIHH", tag, channels, rate, byte_rate, block, bits)
    if tag == 0xFFFE:  # cbSize, valid bits, channel mask, subformat GUID
        subtag = {16: 1, 32: 3}.get(bits, 6) if rng.random() < 0.8 else int(rng.integers(0, 1 << 32))
        fmt += struct.pack("<HHII", rng.choice([22, 22, 21, 0]), bits, 3, subtag) + _GUID_TAIL
    trailer = [b"", _chunk(b"LIST", b"INFOabc"), _chunk(b"data", b"\0\0")][rng.integers(3)]
    wav = _riff(_chunk(b"fmt ", fmt), _chunk(b"data", rng.bytes(rng.integers(0, 65))), trailer)
    return wav[: rng.integers(len(wav) + 1)] if rng.random() < 0.3 else wav


def test_load_wav_raises_only_value_error(tmp_path):
    """Whatever the fmt fields, data and truncation: a finite Waveform or a
    ValueError, never ZeroDivisionError (0 channels), TypeError or struct.error."""
    rng = np.random.default_rng(2024)
    path = tmp_path / "fuzz.wav"
    read = 0
    for _ in range(3000):
        wav = _fuzzed_wav(rng)
        path.write_bytes(wav)
        try:
            w = load_wav(path)
        except ValueError:
            continue
        assert w.samples.size > 0 and np.isfinite(w.samples).all(), wav
        read += 1
    assert read > 200


def test_load_signaling_nan_is_rejected_without_a_warning(tmp_path):
    """Casting a float32 signaling NaN to float64 warns ("invalid value
    encountered in cast"), which the test settings turn into an error."""
    path = tmp_path / "snan.wav"
    path.write_bytes(_riff(_fmt(3, 1, 16000, 32), _chunk(b"data", bytes.fromhex("0000803f0100807f"))))
    with pytest.raises(ValueError, match="non-finite samples"):
        load_wav(path)


_RESAMPLE_RATES = [8000, 11025, 16000, 24000, 32000, 44100, 48000, 22051]


@pytest.mark.parametrize("rate", _RESAMPLE_RATES)
def test_resample_matches_resample_poly(rate):
    rng = np.random.default_rng(rate)
    g = math.gcd(SR, rate)
    for n in (1, 2, 3, 5, 17, 100, 1001, rate // 3 + 1, 60 * rate):
        x = rng.normal(0.0, 0.3, n)
        ours = audio.resample(x, rate, SR)
        ref = resample_poly(x, SR // g, rate // g, window=("kaiser", 8.6))
        assert ours.shape == ref.shape
        assert np.abs(ours - ref).max() <= 1e-12


@pytest.mark.parametrize("rate,target", [(22050, 16000), (44100, 16000), (16000, 48000), (8000, 44100)])
def test_resample_matches_resample_poly_other_targets(rate, target):
    x = np.random.default_rng(1).normal(0.0, 0.3, 3 * rate + 7)
    g = math.gcd(rate, target)
    ours = audio.resample(x, rate, target)
    ref = resample_poly(x, target // g, rate // g, window=("kaiser", 8.6))
    assert ours.shape == ref.shape
    assert np.abs(ours - ref).max() <= 1e-12


def test_resample_memory_stays_linear_in_filter_length():
    # 22051 -> 22050 Hz: up*down is 486 million, the filter 441021 taps
    audio._polyphase.cache_clear()
    x = np.random.default_rng(2).normal(0.0, 0.3, 22051)
    tracemalloc.start()
    try:
        y = audio.resample(x, 22051, SR)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert y.size == SR
    assert peak < 48 * 2**20  # about 10 float64 copies of the filter


@pytest.mark.parametrize("rate", [10**6 + 1, 2**32 - 1])
def test_resample_refuses_a_ratio_past_the_bound_before_building_a_filter(rate):
    # at about 1.6 kB per unit of the ratio, 10**6 + 1 Hz would ask for 1.6 GB
    x = np.zeros(1000)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"cannot resample {rate} Hz to {SR} Hz: the ratio"):
            audio.resample(x, rate, SR)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_resample_bound_admits_the_standard_rates():
    rates = (8000, 11025, 16000, 22050, 24000, 32000, 44100, 48000, 88200, 96000, 176400, 192000, 384000, 768000)
    pairs = [(rate, target) for rate in rates for target in rates] + [(22051, 22050)]
    for rate, target in pairs:
        assert max(rate, target) // math.gcd(rate, target) <= audio.RESAMPLE_MAX_FACTOR, (rate, target)


@pytest.mark.parametrize("rate", [8000, 16000, 22050, 44100, 48000])
@pytest.mark.parametrize("cutoff", [10.0, 20.0, 60.0, 150.0, 500.0])
def test_highpass_matches_sosfiltfilt(rate, cutoff):
    """Within 1e-9 of scipy from 10 Hz up.  Lower cutoffs differ more
    (about 1e-8 at 1 Hz): their poles sit so close to z = 1 that both
    recurrences lose digits."""
    rng = np.random.default_rng(int(rate + cutoff))
    sos = butter(audio.HIGHPASS_ORDER, cutoff, btype="highpass", fs=rate, output="sos")
    lengths = [1, 2, 3, 50, 1000, 4 * rate + 3]
    if (rate, cutoff) in ((8000, 500.0), (22050, 60.0), (48000, 10.0)):
        lengths.append(60 * rate)
    for n in lengths:
        # with a DC offset, so the steady-state start at x[0] matters
        x = 0.2 + (speechlike(rng, n / rate, rate)[:n] if n >= rate // 100 else rng.normal(0.0, 0.3, n))
        padlen = min(n - 1, int(round(3.0 * rate / cutoff)))
        ref = sosfiltfilt(sos, x, padlen=padlen)
        assert np.abs(audio._highpass(x, rate, cutoff) - ref).max() <= 1e-9 * np.abs(x).max()
