"""Correctness checks of the program's outputs, one function per workload.

Each check recomputes what it can from the inputs the benchmark wrote, with
its own numpy code, or tests properties the method must have; none compares
against a stored copy of earlier output.  A check returns a list of problems;
an empty list means the outputs are correct.  The tolerances are explained
in README.md.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from pathlib import Path

import numpy as np

from corpus import TARGET_RATE, read_pitch_csv, read_wav_info

N_MELS = 80
STFT_HOP = 256
GATE_HOP = 220  # 10 ms at 22.05 kHz, rounded as the gate rounds it
PAUSE_CAP = 4410  # 200 ms at 22.05 kHz

# CSV values carry 6 significant digits: relative error at most 5e-6
REL_6G = 1e-5

REPORT_FIELDS = ("l1", "l2", "sconv", "f0_rmse", "pearson_r", "vuv_error", "mae_hqer", "mae_cslope",
                 "mae_ccentroid", "mae_croll95", "delta_mu_f0", "delta_sigma_f0", "delta_spr",
                 "delta_hqer", "delta_cslope", "delta_ccentroid", "delta_croll95")
AGGREGATE = (("L1", "l1", 1.0), ("L2", "l2", 1.0), ("SConv", "sconv", 1.0), ("f0_RMSE/Hz", "f0_rmse", 1.0),
             ("Pearson r", "pearson_r", 1.0), ("E_V/UV", "vuv_error", 1.0), ("MAE(HQER)/%", "mae_hqer", 100.0),
             ("MAE(CSlope)/dB/bin", "mae_cslope", 1.0), ("MAE(CCentroid)/bin", "mae_ccentroid", 1.0),
             ("MAE(CRoll95)/bin", "mae_croll95", 1.0))


def _close(a: float, b: float, rel: float = REL_6G, abs_: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_)


# --------------------------------------------------------------------------
# features_mixed


def read_blob(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if raw[:4] != b"LMSB":
        raise ValueError("bad magic")
    n_bands, n_frames = struct.unpack("<II", raw[4:12])
    values = np.frombuffer(raw, dtype="<f4", offset=16)
    if values.size != n_bands * n_frames:
        raise ValueError(f"{values.size} values for {n_bands}x{n_frames}")
    return values.reshape(n_bands, n_frames)


def slaney_edges_hz(n_mels: int = N_MELS, f_max: float = 8000.0) -> np.ndarray:
    """Band edges of an ``n_mels``-band Slaney filterbank over 0..f_max Hz."""
    def to_mel(f):
        return 3.0 * f / 200.0 if f < 1000.0 else 15.0 + 27.0 * math.log(f / 1000.0) / math.log(6.4)

    mels = np.linspace(0.0, to_mel(f_max), n_mels + 2)
    return np.where(mels < 15.0, 200.0 * mels / 3.0, 1000.0 * np.exp((mels - 15.0) * math.log(6.4) / 27.0))


def cepstral_metrics(values: np.ndarray) -> dict:
    """The four metrics per frame from log-mel values (bands x frames), by an
    explicit DFT along the band axis, each with a bound on how far float32
    storage of the values can move it.  Degenerate frames are dropped.

    Rounding to float32 moves each value v by at most u|v| (u = 2^-24), so
    each windowed, mean-subtracted band moves by at most w_b u (|v_b| +
    mean|v|) and every DFT coefficient by at most E, their sum.  A power
    P = |C|^2 then moves by at most dP = 2|C|E + E^2, which bounds each
    metric below (``*_tol``); README.md spells the bounds out.
    """
    n_bands = values.shape[0]
    v = values.astype(np.float64)
    window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(n_bands) / (n_bands - 1))
    x = (v - v.mean(axis=0)) * window[:, None]
    keep = np.flatnonzero((x**2).sum(axis=0) >= 1e-12)
    x, v = x[:, keep], v[:, keep]
    q = np.arange(n_bands // 2 + 1)
    angle = 2 * np.pi * np.outer(q, np.arange(n_bands)) / n_bands
    power = (np.cos(angle) @ x) ** 2 + (np.sin(angle) @ x) ** 2
    e = 2.0**-24 * (window @ (np.abs(v) + np.abs(v).mean(axis=0))) + 1e-12
    dp = 2 * np.sqrt(power) * e + e**2

    qc = int(0.25 * q.size)
    qs = q[1:].astype(np.float64)
    tail, dtail = power[1:], dp[1:]
    total, dtotal = tail.sum(axis=0), dtail.sum(axis=0)
    denom = np.maximum(total - dtotal, 0.0)
    with np.errstate(divide="ignore"):
        hqer = power[qc:].sum(axis=0) / total
        hqer_tol = (dp[qc:].sum(axis=0) + hqer * dtotal) / denom
        ccentroid = (qs[:, None] * tail).sum(axis=0) / total
        ccentroid_tol = ((qs[:, None] * dtail).sum(axis=0) + ccentroid * dtotal) / denom
        cumfrac_tol = 2 * dtotal / denom
        db = 10.0 * np.log10(tail + 1e-10)
        db_up = 10.0 * np.log10(tail + 1e-10 + dtail) - db
        db_down = db - 10.0 * np.log10(np.maximum(tail + 1e-10 - dtail, 1e-300))
    design = np.stack([qs, np.ones_like(qs)], axis=1)
    weights = (qs - qs.mean()) / ((qs - qs.mean()) ** 2).sum()
    return {
        "frame_index": keep,
        "hqer": hqer,
        "hqer_tol": hqer_tol,
        "cslope": np.linalg.lstsq(design, db, rcond=None)[0][0],
        "cslope_tol": np.abs(weights) @ np.maximum(db_up, db_down),
        "ccentroid": ccentroid,
        "ccentroid_tol": ccentroid_tol,
        "cumfrac": np.cumsum(tail, axis=0) / total,
        "cumfrac_tol": cumfrac_tol,
    }


def check_metrics_csv(values: np.ndarray, csv_path) -> list[str]:
    rows = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    ref = cepstral_metrics(values)
    if rows.shape[0] != ref["frame_index"].size or not np.array_equal(rows[:, 0], ref["frame_index"]):
        return [f"{csv_path}: frame indices differ from the blob's non-degenerate frames"]
    problems = []
    for col, name in enumerate(("hqer", "cslope", "ccentroid"), start=1):
        excess = np.abs(rows[:, col] - ref[name]) - ref[f"{name}_tol"] - REL_6G * np.abs(ref[name])
        if excess.max() > 0:
            i = int(excess.argmax())
            problems.append(f"{csv_path}: {name} {rows[i, col]} at frame {int(rows[i, 0])}, "
                            f"recomputed {ref[name][i]:.6g} +- {ref[f'{name}_tol'][i]:.2g}")
    # croll95 = smallest q whose cumulative fraction reaches 0.95; a
    # neighbouring q passes only where the fraction is within its bound of 0.95
    roll = rows[:, 4].astype(int)
    cum, tol = ref["cumfrac"], ref["cumfrac_tol"]
    frames = np.arange(roll.size)
    if roll.min() < 1 or roll.max() > cum.shape[0]:
        return problems + [f"{csv_path}: croll95 out of range"]
    reached = cum[roll - 1, frames] >= 0.95 - tol
    before = np.where(roll > 1, cum[np.maximum(roll - 2, 0), frames] < 0.95 + tol, True)
    bad = ~(reached & before)
    if bad.any():
        problems.append(f"{csv_path}: croll95 wrong at {int(bad.sum())} frames")
    return problems


def check_features(meta: dict, out_dir: Path) -> list[str]:
    problems = []
    edges = slaney_edges_hz()
    for uid, info in meta["utterances"].items():
        try:
            values = read_blob(out_dir / f"{uid}.lmel")
        except (OSError, ValueError) as exc:
            problems.append(f"{uid}.lmel: {exc}")
            continue
        if values.shape[0] != N_MELS:
            problems.append(f"{uid}.lmel: {values.shape[0]} bands")
            continue
        # length after resampling to 22.05 kHz with the pause capped to 200 ms;
        # the gate leaves 1 to 3 hops of the pause's edges ungated, see README
        speech = info["speech_samples"] * TARGET_RATE / info["rate"]
        lo, hi = speech + PAUSE_CAP, speech + PAUSE_CAP + 3 * GATE_HOP
        if not lo // STFT_HOP <= values.shape[1] <= hi // STFT_HOP:
            problems.append(f"{uid}.lmel: {values.shape[1]} frames, expected {lo // STFT_HOP:.0f}..{hi // STFT_HOP:.0f}")
        problems += check_metrics_csv(values, out_dir / f"{uid}.metrics.csv")
        # the mean spectrum peaks in a band whose filter covers one of the
        # generator's strong partials over its pitch glide
        top = int(np.argmax(np.exp(values.astype(np.float64)).mean(axis=1)))
        f_lo, f_hi = info["f0_range"]
        k = np.flatnonzero(np.asarray(info["partial_amps"]) >= 0.3) + 1
        if not np.any((k * f_hi >= edges[top]) & (k * f_lo <= edges[top + 2])):
            problems.append(f"{uid}.lmel: mean spectrum peaks in band {top} "
                            f"({edges[top]:.0f}-{edges[top + 2]:.0f} Hz), which holds no partial")
    return problems


# --------------------------------------------------------------------------
# compare_long


def read_csv_rows(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_compare(meta: dict, out_dir: Path) -> list[str]:
    problems, reports = [], []
    for uid, info in meta["utterances"].items():
        try:
            rep = json.loads((out_dir / f"{uid}.report.json").read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            problems.append(f"{uid}.report.json: {exc}")
            continue
        if tuple(rep) != REPORT_FIELDS or any(rep[f] is None for f in REPORT_FIELDS):
            problems.append(f"{uid}: report fields missing or null")
            continue
        reports.append(rep)
        if info["identity"]:
            want = {f: 0.0 for f in REPORT_FIELDS} | {"pearson_r": 1.0}
            off = [f for f in REPORT_FIELDS if rep[f] != want[f]]
            if off:
                problems.append(f"{uid}: identity pair reports {', '.join(f'{f}={rep[f]}' for f in off)}")
        # Jensen (mean of squares >= square of mean), allowing the 6-digit rounding
        if rep["l2"] * (1 + REL_6G) < (rep["l1"] * (1 - REL_6G)) ** 2:
            problems.append(f"{uid}: l2 {rep['l2']} < l1^2 {rep['l1'] ** 2}")
        if rep["sconv"] < 0 or not -1 <= rep["pearson_r"] <= 1 or not 0 <= rep["vuv_error"] <= 1:
            problems.append(f"{uid}: sconv, pearson_r or vuv_error out of range")
    try:
        rows = {r["measure"]: r for r in read_csv_rows(out_dir / "aggregate.csv")}
    except OSError as exc:
        return problems + [f"aggregate.csv: {exc}"]
    for label, field, scale in AGGREGATE:
        vals = np.array([r[field] for r in reports], dtype=np.float64) * scale
        row = rows.get(label)
        if row is None or int(row["count"]) != vals.size:
            problems.append(f"aggregate.csv: {label} missing or wrong count")
            continue
        # report values carry 6 digits, so the spread of the inputs bounds the error
        slack = REL_6G * float(np.abs(vals).max(initial=0.0))
        if not _close(float(row["mean"]), vals.mean(), abs_=slack + 1e-12) or \
                not _close(float(row["std"]), vals.std(), abs_=slack + 1e-12):
            problems.append(f"aggregate.csv: {label} mean/std {row['mean']}/{row['std']} "
                            f"!= {vals.mean():.6g}/{vals.std():.6g}")
    return problems


# --------------------------------------------------------------------------
# corpus_stats_short

CHECKED_MEASURES = ("duration_s", "phonemes_per_utterance", "spr", "mu_f0", "sigma_f0")


def corpus_values(corpus_dir: Path, manifest: str) -> dict[str, np.ndarray]:
    """The five checked measures per utterance, from the files the benchmark wrote."""
    out = {m: [] for m in CHECKED_MEASURES}
    for row in read_csv_rows(corpus_dir / manifest):
        rate, n = read_wav_info(corpus_dir / row["ref_wav"])
        duration = n / rate  # 22.05 kHz, no pause: preprocessing keeps every sample
        tokens = int(row["token_count"])
        f0 = read_pitch_csv(corpus_dir / row["f0_ref"])
        out["duration_s"].append(duration)
        out["phonemes_per_utterance"].append(tokens)
        out["spr"].append(tokens / duration)
        out["mu_f0"].append(f0.mean())
        out["sigma_f0"].append(f0.std())
    return {m: np.asarray(v, dtype=np.float64) for m, v in out.items()}


def check_corpus_stats(corpus_dir: Path, out_file: Path, reference_file: Path | None) -> list[str]:
    from scipy.stats import mannwhitneyu

    try:
        rows = {r["measure"]: r for r in read_csv_rows(out_file)}
    except OSError as exc:
        return [f"{out_file.name}: {exc}"]
    problems = []
    a, b = corpus_values(corpus_dir, "manifest_a.csv"), corpus_values(corpus_dir, "manifest_b.csv")
    for name in CHECKED_MEASURES:
        row = rows.get(name)
        if row is None:
            problems.append(f"{out_file.name}: row {name} missing")
            continue
        for side, vals in (("a", a[name]), ("b", b[name])):
            want = {"mean": vals.mean(), "std": vals.std(), "median": np.median(vals)}
            for stat, value in want.items():
                if not _close(float(row[f"{stat}_{side}"]), value):
                    problems.append(f"{name}: {stat}_{side} {row[f'{stat}_{side}']} != {value:.6g}")
            if int(row[f"count_{side}"]) != vals.size:
                problems.append(f"{name}: count_{side} {row[f'count_{side}']} != {vals.size}")
        p = mannwhitneyu(a[name], b[name], alternative="two-sided", method="asymptotic",
                         use_continuity=True).pvalue
        if not _close(float(row["p_value"]), p):
            problems.append(f"{name}: p_value {row['p_value']} != {p:.6g}")
    if reference_file is not None and reference_file.read_bytes() != out_file.read_bytes():
        problems.append("2-worker output differs from the serial one")
    return problems
