"""Deterministic synthetic speech corpora for the benchmark workloads.

Everything here depends only on numpy and on the seed: the program under test
never sees the generator, only the WAV files, pitch CSVs and manifests it
writes.  Each utterance is rendered from a *plan* (segment layout, pitch
glide, harmonic amplitudes, pause) drawn from the seed; rendering the same
plan with a time-stretch factor and a spectral tilt gives the synthesis side
of a ``compare`` pair.

Durations, sample rates and stretch factors are fixed per workload and only
shuffled by the seed, so every seed asks for the same amount of work; the
seed moves pitch, timbre, segment layout, pause placement and noise.
"""

from __future__ import annotations

import json
import os
import shutil
import struct
from pathlib import Path
from statistics import NormalDist

import numpy as np

TARGET_RATE = 22050
HOP = 256  # analysis hop of the program's default STFT, for pitch-CSV spacing
SPEECH_DBFS = -20.0
FLOOR_DBFS = -70.0  # room tone in pauses, far below the program's -45 dBFS gate
MAX_PARTIAL_HZ = 5000.0

WORKLOADS = ("features_mixed", "compare_long", "corpus_stats_short")
CORPUS_VERSION = 1  # bump when the generator changes, so old caches are not reused

# features_mixed: 36 utterances, 9 per sample rate, durations at the quantiles
# of a lognormal around 5 s clipped to 1.5-14 s (about 200 s in total).
FEATURE_RATES = (16000, 22050, 24000, 44100)
# compare_long: (reference seconds, stretch of the synthesis); the first pair
# is the identity pair (synthesis file = reference file).
COMPARE_PAIRS = ((6.0, 1.0), (10.0, 0.85), (18.0, 1.15))
# corpus_stats_short: two corpora of 40 utterances at 22.05 kHz, no pauses.
STATS_PER_CORPUS = 40


# --------------------------------------------------------------------------
# file writers (independent of the program under test)


def write_wav(path, samples: np.ndarray, rate: int, encoding: str) -> None:
    """Mono RIFF WAV in PCM16 or IEEE float32."""
    if encoding == "pcm16":
        fmt_tag, bits = 1, 16
        payload = np.clip(np.round(samples * 32767.0), -32768, 32767).astype("<i2").tobytes()
    elif encoding == "float32":
        fmt_tag, bits = 3, 32
        payload = np.asarray(samples, dtype="<f4").tobytes()
    else:
        raise ValueError(f"unknown encoding {encoding!r}")
    block = bits // 8
    header = (
        b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
        + b"fmt " + struct.pack("<IHHIIHH", 16, fmt_tag, 1, rate, rate * block, block, bits)
        + b"data" + struct.pack("<I", len(payload))
    )
    with open(path, "wb") as fh:
        fh.write(header + payload)


def read_wav_info(path) -> tuple[int, int]:
    """(sample_rate, n_samples) from the header of a WAV this module wrote."""
    with open(path, "rb") as fh:
        head = fh.read(44)
    _, _, _, rate, _, block, _ = struct.unpack("<IHHIIHH", head[16:36])
    (n_bytes,) = struct.unpack("<I", head[40:44])
    return rate, n_bytes // block


def write_pitch_csv(path, times: np.ndarray, f0: np.ndarray) -> None:
    """``time_s,f0_hz`` rows; unvoiced frames get an empty f0 cell."""
    lines = ["time_s,f0_hz"]
    for t, f in zip(times, f0):
        lines.append(f"{t:.9f},{f:.4f}" if f > 0 else f"{t:.9f},")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_pitch_csv(path) -> np.ndarray:
    """Voiced f0 values of a pitch CSV, as written."""
    vals = []
    for line in Path(path).read_text(encoding="utf-8").splitlines()[1:]:
        cell = line.split(",")[1]
        if cell:
            vals.append(float(cell))
    return np.asarray(vals, dtype=np.float64)


def write_manifest(path, rows: list[dict]) -> None:
    cols = [c for c in ("utterance_id", "ref_wav", "syn_wav", "f0_ref", "f0_syn", "token_count") if c in rows[0]]
    lines = [",".join(cols)] + [",".join(str(r[c]) for c in cols) for r in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# --------------------------------------------------------------------------
# the speech generator


def make_plan(rng: np.random.Generator, speech_s: float, pause_s: float | None) -> dict:
    """Draw everything about one utterance except its rendering rate."""
    segments = []  # (voiced?, seconds)
    left = speech_s
    while left > 1e-9:
        voiced = not segments or not segments[-1][0] or rng.random() < 0.35
        dur = rng.uniform(0.12, 0.32) if voiced else rng.uniform(0.05, 0.12)
        dur = min(dur, left)
        segments.append((bool(voiced), float(dur)))
        left -= dur
    f0_base = float(rng.uniform(95.0, 230.0))
    formants = sorted(rng.uniform([450.0, 1100.0, 2300.0], [800.0, 1900.0, 3200.0]).tolist())
    return {
        "segments": segments,
        "f0_base": f0_base,
        "f0_glide": 0.04,  # +-4 % slow drift around f0_base
        "glide_cycles": float(rng.uniform(0.5, 2.0)),
        "glide_phase": float(rng.uniform(0.0, 2.0 * np.pi)),
        "formants": formants,
        "level_db": SPEECH_DBFS + float(rng.uniform(-3.0, 3.0)),
        "syllable_hz": float(rng.uniform(3.0, 5.0)),
        "noise_seed": int(rng.integers(2**31)),
        "pause_s": pause_s,
        # the pause goes after a segment in the middle half of the utterance
        "pause_after": int(rng.integers(len(segments) // 4, max(len(segments) // 4 + 1, 3 * len(segments) // 4))),
    }


def harmonic_amplitudes(plan: dict, tilt_db_per_khz: float = 0.0) -> np.ndarray:
    """Constant amplitude of each harmonic k = 1..K: a 1/k source shaped by
    three formant bumps and an optional spectral tilt."""
    f0 = plan["f0_base"]
    k = np.arange(1, int(MAX_PARTIAL_HZ / (f0 * (1.0 + plan["f0_glide"]))) + 1)
    fk = k * f0
    shape = 1.0 + sum(1.5 * np.exp(-0.5 * ((fk - fc) / 120.0) ** 2) for fc in plan["formants"])
    return shape / k * 10.0 ** (tilt_db_per_khz * fk / 1000.0 / 20.0)


def render(plan: dict, rate: int, stretch: float = 1.0, tilt_db_per_khz: float = 0.0):
    """Render a plan at ``rate``; returns (samples, voiced f0 per sample, info).

    ``stretch`` scales every duration (pitch is unchanged), which is how the
    synthesis side of a pair is made from its reference.
    """
    rng = np.random.default_rng(plan["noise_seed"])
    seg_n = [max(1, int(round(d * stretch * rate))) for _, d in plan["segments"]]
    n_speech = sum(seg_n)
    voiced = np.concatenate([np.full(n, v) for (v, _), n in zip(plan["segments"], seg_n)])
    u = np.arange(n_speech) / n_speech
    f0 = plan["f0_base"] * (1.0 + plan["f0_glide"] * np.sin(2 * np.pi * plan["glide_cycles"] * u + plan["glide_phase"]))
    phase = 2.0 * np.pi * np.cumsum(f0) / rate

    amps = harmonic_amplitudes(plan, tilt_db_per_khz)  # all below 0.45 * the lowest rate
    # sin(k*phi) by the Chebyshev recursion: one multiply-add per harmonic
    s_prev, s_cur = np.zeros(n_speech), np.sin(phase)
    two_cos = 2.0 * np.cos(phase)
    harm = amps[0] * s_cur
    for a in amps[1:]:
        s_prev, s_cur = s_cur, two_cos * s_cur - s_prev
        harm += a * s_cur
    harm /= np.sqrt(np.mean(harm**2))

    hiss = np.diff(rng.normal(0.0, 1.0, n_speech + 1))  # first difference: tilted up
    hiss /= np.sqrt(np.mean(hiss**2))
    # 8 ms cross-fades between voiced and unvoiced stretches keep the level up
    ramp = max(1, int(0.008 * rate))
    mix = np.convolve(voiced.astype(float), np.ones(ramp) / ramp, mode="same")
    t = np.arange(n_speech) / rate / stretch
    envelope = 0.7 + 0.3 * np.sin(np.pi * plan["syllable_hz"] * t) ** 2
    speech = envelope * (mix * harm + (1.0 - mix) * 0.6 * hiss + 0.05 * rng.normal(0.0, 1.0, n_speech))
    speech *= 10.0 ** (plan["level_db"] / 20.0) / np.sqrt(np.mean(speech**2))

    f0_voiced = np.where(voiced, f0, 0.0)
    if plan["pause_s"] is not None:
        pause_n = int(round(plan["pause_s"] * stretch * rate))
        cut = sum(seg_n[: plan["pause_after"] + 1])
        speech = np.concatenate([speech[:cut], np.zeros(pause_n), speech[cut:]])
        f0_voiced = np.concatenate([f0_voiced[:cut], np.zeros(pause_n), f0_voiced[cut:]])
    floor = 10.0 ** (FLOOR_DBFS / 20.0)
    samples = speech + floor * rng.normal(0.0, 1.0, speech.size)
    info = {
        "rate": rate,
        "speech_samples": n_speech,
        "f0_range": [float(f0.min()), float(f0.max())],
        "partial_amps": (amps / amps.max()).tolist(),
    }
    return samples, f0_voiced, info


def pitch_track(f0_per_sample: np.ndarray, rate: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample the per-sample f0 at the program's analysis frame spacing."""
    dt = HOP / TARGET_RATE
    n_frames = int(f0_per_sample.size / rate / dt)
    times = np.arange(n_frames) * dt
    idx = np.minimum((times * rate).astype(int), f0_per_sample.size - 1)
    return times, f0_per_sample[idx]


# --------------------------------------------------------------------------
# workloads


def _lognormal_quantiles(n: int, median_s: float, sigma: float, lo: float, hi: float) -> np.ndarray:
    z = np.array([NormalDist().inv_cdf((i + 0.5) / n) for i in range(n)])
    return np.clip(median_s * np.exp(sigma * z), lo, hi)


def _features_mixed(rng, root: Path, scale: float) -> dict:
    n = max(4, int(round(36 * scale)))
    durations = _lognormal_quantiles(n, 5.0, 0.5, 1.5, 14.0)
    pauses = np.linspace(0.25, 0.6, n)
    # rates and encodings cycle over the sorted durations, so each rate gets a
    # similar spread of lengths whatever the seed
    slots = [(float(d), float(p), FEATURE_RATES[i % 4], "pcm16" if (i // 4) % 2 == 0 else "float32")
             for i, (d, p) in enumerate(zip(durations, rng.permutation(pauses)))]
    rows, utts = [], {}
    for i in rng.permutation(n):
        total, pause, rate, enc = slots[i]
        uid = f"utt{len(rows):03d}"
        plan = make_plan(rng, total - pause, pause)
        samples, _, info = render(plan, rate)
        write_wav(root / "wav" / f"{uid}.wav", samples, rate, enc)
        rows.append({"utterance_id": uid, "ref_wav": f"wav/{uid}.wav"})
        utts[uid] = dict(info, encoding=enc, audio_s=samples.size / rate)
    write_manifest(root / "manifest.csv", rows)
    return {"utterances": utts}


def _compare_long(rng, root: Path, scale: float) -> dict:
    pairs = COMPARE_PAIRS if scale >= 1.0 else tuple((d * scale, s) for d, s in COMPARE_PAIRS)
    rows, utts = [], {}
    for p, (ref_s, stretch) in enumerate(pairs):
        uid = f"pair{p:02d}"
        plan = make_plan(rng, ref_s - 0.4, 0.4)
        ref, ref_f0, _ = render(plan, TARGET_RATE)
        write_wav(root / "ref" / f"{uid}.wav", ref, TARGET_RATE, "pcm16")
        write_pitch_csv(root / "f0ref" / f"{uid}.csv", *pitch_track(ref_f0, TARGET_RATE))
        if stretch == 1.0:  # identity pair: the synthesis is a copy of the reference
            shutil.copyfile(root / "ref" / f"{uid}.wav", root / "syn" / f"{uid}.wav")
            shutil.copyfile(root / "f0ref" / f"{uid}.csv", root / "f0syn" / f"{uid}.csv")
            syn_s = ref.size / TARGET_RATE
        else:
            syn, syn_f0, _ = render(plan, TARGET_RATE, stretch=stretch, tilt_db_per_khz=-1.5)
            write_wav(root / "syn" / f"{uid}.wav", syn, TARGET_RATE, "float32")
            write_pitch_csv(root / "f0syn" / f"{uid}.csv", *pitch_track(syn_f0, TARGET_RATE))
            syn_s = syn.size / TARGET_RATE
        rows.append({"utterance_id": uid, "ref_wav": f"ref/{uid}.wav", "syn_wav": f"syn/{uid}.wav",
                     "f0_ref": f"f0ref/{uid}.csv", "f0_syn": f"f0syn/{uid}.csv",
                     "token_count": int(round(ref_s * 12))})
        utts[uid] = {"identity": stretch == 1.0, "audio_s": ref.size / TARGET_RATE + syn_s}
    write_manifest(root / "manifest.csv", rows)
    return {"utterances": utts}


def _corpus_stats_short(rng, root: Path, scale: float) -> dict:
    n = max(4, int(round(STATS_PER_CORPUS * scale)))
    utts = {}
    for side, dur_scale, tokens_per_s in (("a", 1.0, 12.0), ("b", 0.93, 13.5)):
        durations = np.linspace(0.8, 3.0, n) * dur_scale
        rows = []
        for d in rng.permutation(durations):
            uid = f"{side}{len(rows):03d}"
            plan = make_plan(rng, float(d), None)
            samples, f0, _ = render(plan, TARGET_RATE)
            tokens = int(round(d * tokens_per_s * rng.uniform(0.85, 1.15)))
            write_wav(root / side / f"{uid}.wav", samples, TARGET_RATE, "pcm16")
            write_pitch_csv(root / side / f"{uid}.csv", *pitch_track(f0, TARGET_RATE))
            rows.append({"utterance_id": uid, "ref_wav": f"{side}/{uid}.wav", "f0_ref": f"{side}/{uid}.csv",
                         "token_count": tokens})
            utts[uid] = {"audio_s": samples.size / TARGET_RATE}
        write_manifest(root / f"manifest_{side}.csv", rows)
    return {"utterances": utts}


def _probe_inputs(root: Path) -> None:
    """One short utterance (two for corpus-stats) for the set-up probes."""
    plan = make_plan(np.random.default_rng(12345), 1.0, None)
    samples, f0, _ = render(plan, TARGET_RATE)
    write_wav(root / "probe" / "p.wav", samples, TARGET_RATE, "pcm16")
    write_pitch_csv(root / "probe" / "p.csv", *pitch_track(f0, TARGET_RATE))
    row = {"utterance_id": "p", "ref_wav": "probe/p.wav", "syn_wav": "probe/p.wav",
           "f0_ref": "probe/p.csv", "f0_syn": "probe/p.csv", "token_count": 12}
    write_manifest(root / "probe" / "manifest.csv", [row])


_BUILDERS = {
    "features_mixed": _features_mixed,
    "compare_long": _compare_long,
    "corpus_stats_short": _corpus_stats_short,
}


def build(workload: str, seed: int, root: Path, scale: float = 1.0) -> dict:
    """Write the workload's corpus under ``root`` and return its metadata."""
    for sub in ("wav", "ref", "syn", "f0ref", "f0syn", "a", "b", "probe"):
        (root / sub).mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([CORPUS_VERSION, WORKLOADS.index(workload), seed])
    meta = _BUILDERS[workload](rng, root, scale)
    _probe_inputs(root)
    meta.update(workload=workload, seed=seed, scale=scale, version=CORPUS_VERSION,
                audio_s=sum(u["audio_s"] for u in meta["utterances"].values()))
    (root / "meta.json").write_text(json.dumps(meta, indent=1), encoding="utf-8")
    return meta


def cached(workload: str, seed: int, cache_dir: Path, scale: float = 1.0) -> tuple[Path, dict]:
    """The corpus for (workload, seed, scale), built once and reused.

    A build goes to a temporary directory that is renamed into place, so an
    interrupted build is never mistaken for a finished one.
    """
    name = f"v{CORPUS_VERSION}-s{seed}" + ("" if scale == 1.0 else f"-x{scale:g}")
    root = cache_dir / workload / name
    if not (root / "meta.json").exists():
        tmp = cache_dir / workload / f".tmp-{name}-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        build(workload, seed, tmp, scale)
        shutil.rmtree(root, ignore_errors=True)
        tmp.rename(root)
    return root, json.loads((root / "meta.json").read_text(encoding="utf-8"))
