"""Independent reference implementations used to check the package.

Everything here is deliberately written the slow, obvious way: explicit
summations for transforms, exhaustive search for alignments, brute-force
enumeration for rank statistics, and scalar loops for filterbanks.  None of
it shares code with the package, except ``monotonicity_suite_loop``, which
checks how the package batches pieces that other tests check one by one.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def naive_rdft(x: np.ndarray) -> np.ndarray:
    """Real-input DFT by direct O(N^2) summation; bins 0..N//2."""
    n = len(x)
    out = np.empty(n // 2 + 1, dtype=complex)
    for q in range(n // 2 + 1):
        acc = 0.0 + 0.0j
        for b in range(n):
            acc += x[b] * np.exp(-2j * np.pi * q * b / n)
        out[q] = acc
    return out


def naive_mel_cepstrogram_frame(frame: np.ndarray) -> np.ndarray:
    """One frame of the mel-axis transform, built step by step."""
    n = len(frame)
    centered = frame - sum(frame) / n
    window = np.array([0.5 - 0.5 * math.cos(2 * math.pi * b / (n - 1)) for b in range(n)])
    return naive_rdft(centered * window)


def naive_rdft_matrix(n: int) -> np.ndarray:
    """The O(N^2) DFT as an explicit twiddle matrix, built term by term.

    Multiplying a frame by this matrix performs exactly the definition's
    double summation; no fast-transform structure is involved.
    """
    out = np.empty((n // 2 + 1, n), dtype=complex)
    for q in range(n // 2 + 1):
        for b in range(n):
            out[q, b] = complex(math.cos(2 * math.pi * q * b / n), -math.sin(2 * math.pi * q * b / n))
    return out


def dtw_enum_min_cost(d: np.ndarray) -> float:
    """Minimal path cost by depth-first search over all monotone paths.

    Branches whose partial cost already reaches the best complete path are
    cut; with non-negative cell costs this cannot discard an optimum, so the
    search remains exhaustive over the optimal region.
    """
    n1, n2 = d.shape
    rows = d.tolist()
    best = [math.inf]

    def walk(i, j, acc):
        acc += rows[i][j]
        if acc >= best[0]:
            return
        if i == n1 - 1 and j == n2 - 1:
            best[0] = acc
            return
        if i + 1 < n1 and j + 1 < n2:
            walk(i + 1, j + 1, acc)
        if i + 1 < n1:
            walk(i + 1, j, acc)
        if j + 1 < n2:
            walk(i, j + 1, acc)

    walk(0, 0, 0.0)
    return best[0]


def dtw_enum_min_cost_unpruned(d: np.ndarray) -> float:
    """Same search without pruning; only usable for small grids."""
    n1, n2 = d.shape
    rows = d.tolist()
    best = [math.inf]

    def walk(i, j, acc):
        acc += rows[i][j]
        if i == n1 - 1 and j == n2 - 1:
            if acc < best[0]:
                best[0] = acc
            return
        if i + 1 < n1 and j + 1 < n2:
            walk(i + 1, j + 1, acc)
        if i + 1 < n1:
            walk(i + 1, j, acc)
        if j + 1 < n2:
            walk(i, j + 1, acc)

    walk(0, 0, 0.0)
    return best[0]


def dtw_loop_reference(a, b, distance: str = "cosine") -> tuple[np.ndarray, float]:
    """DTW as a cell-by-cell Python loop: the package's former implementation.

    Same contract as ``melcep.compare.dtw_align`` (steps {(1,0), (0,1),
    (1,1)}, strict ``<`` so ties prefer diagonal, then up, then left), but
    returns the raw ``(i, j)`` pair array and the total cost.  The distance
    matrix is built in one broadcast, so it also checks that the package's
    in-place builds (the cosine product, the l2 sum one row at a time) keep
    the bits.
    A non-finite total raises; ``dtw_align`` rejects NaN/inf input before
    that point with its own message.
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise ValueError("empty input")
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"feature dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    if distance == "cosine":
        na = np.linalg.norm(a, axis=1)
        nb = np.linalg.norm(b, axis=1)
        an = a / np.maximum(na, 1e-12)[:, None]
        bn = b / np.maximum(nb, 1e-12)[:, None]
        d = np.maximum(1.0 - an @ bn.T, 0.0)
    elif distance == "l2":
        d = np.sqrt(np.square(a[:, None, :] - b[None, :, :]).sum(axis=2))
    else:
        raise ValueError(f"unknown distance {distance!r}; expected 'cosine' or 'l2'")
    n1, n2 = d.shape
    diag_step, up_step, left_step = 0, 1, 2

    inf = math.inf
    dl = d.tolist()
    cost_prev: list[float] = [inf] * n2
    cost_row: list[float] = [inf] * n2
    back = np.zeros((n1, n2), dtype=np.uint8)
    for i in range(n1):
        row = dl[i]
        binds = back[i]
        for j in range(n2):
            if i == 0 and j == 0:
                cost_row[0] = row[0]
                continue
            best = inf
            step = diag_step
            if i > 0 and j > 0:
                best = cost_prev[j - 1]
            if i > 0 and cost_prev[j] < best:
                best = cost_prev[j]
                step = up_step
            if j > 0 and cost_row[j - 1] < best:
                best = cost_row[j - 1]
                step = left_step
            cost_row[j] = row[j] + best
            binds[j] = step
        cost_prev, cost_row = cost_row, cost_prev

    total = cost_prev[n2 - 1]
    if not math.isfinite(total):
        raise ValueError("every alignment path has infinite cost: the distances or their sums overflow float64")

    pairs = [(n1 - 1, n2 - 1)]
    i, j = n1 - 1, n2 - 1
    while (i, j) != (0, 0):
        step = back[i, j]
        if step == diag_step and i > 0 and j > 0:
            i, j = i - 1, j - 1
        elif step == up_step and i > 0:
            i -= 1
        else:
            j -= 1
        pairs.append((i, j))
    pairs.reverse()
    return np.asarray(pairs, dtype=np.intp), float(total)


def mw_exact_p_bruteforce(x, y) -> tuple[float, float]:
    """Mann-Whitney U and exact two-sided p by enumerating rank subsets.

    Every way of assigning the pooled ranks to the x-sample is equally
    likely under the null; the p-value counts assignments whose U is at
    least as far from n1*n2/2 as the observed one.
    """
    x = list(x)
    y = list(y)
    n1, n2 = len(x), len(y)
    pooled = sorted(x + y)
    assert len(set(pooled)) == len(pooled), "brute-force oracle requires untied samples"
    ranks = {v: i + 1 for i, v in enumerate(pooled)}
    u_obs = sum(ranks[v] for v in x) - n1 * (n1 + 1) / 2
    center = n1 * n2 / 2
    extreme = 0
    total = 0
    for combo in itertools.combinations(range(1, n1 + n2 + 1), n1):
        u = sum(combo) - n1 * (n1 + 1) / 2
        total += 1
        if abs(u - center) >= abs(u_obs - center):
            extreme += 1
    return u_obs, extreme / total


def slaney_filterbank_reference(n_mels: int, f_min: float, f_max: float, sample_rate: int, n_fft: int) -> np.ndarray:
    """Slaney filterbank built bin by bin from the closed-form definitions."""

    def to_mel(f):
        if f < 1000.0:
            return 3.0 * f / 200.0
        return 15.0 + 27.0 * math.log(f / 1000.0) / math.log(6.4)

    def to_hz(m):
        if m < 15.0:
            return 200.0 * m / 3.0
        return 1000.0 * math.exp(math.log(6.4) * (m - 15.0) / 27.0)

    n_bins = n_fft // 2 + 1
    mel_lo, mel_hi = to_mel(f_min), to_mel(f_max)
    edges = [to_hz(mel_lo + (mel_hi - mel_lo) * i / (n_mels + 1)) for i in range(n_mels + 2)]
    fb = np.zeros((n_mels, n_bins))
    for i in range(n_mels):
        left, center, right = edges[i], edges[i + 1], edges[i + 2]
        norm = 2.0 / (right - left)
        for k in range(n_bins):
            f = k * sample_rate / n_fft
            if left < f < right:
                if f <= center:
                    w = (f - left) / (center - left)
                else:
                    w = (right - f) / (right - center)
                fb[i, k] = w * norm
    return fb


def gate_silent_segments(x: np.ndarray, rate: int, threshold_db: float) -> list[tuple[float, float]]:
    """Silent segments (start_s, end_s) from a plain frame-RMS gate.

    Scans 20 ms frames every 10 ms and merges consecutive silent frames; a
    segment spans from its first frame's start to its last frame's end.
    """
    frame = int(round(rate * 0.020))
    hop = int(round(rate * 0.010))
    flags = []
    pos = 0
    while pos + frame <= len(x):
        rms = math.sqrt(float(np.mean(np.square(x[pos : pos + frame]))))
        flags.append(20.0 * math.log10(max(rms, 1e-12)) < threshold_db)
        pos += hop
    segments = []
    start = None
    for i, silent in enumerate(flags):
        if silent and start is None:
            start = i
        elif not silent and start is not None:
            segments.append((start * hop / rate, ((i - 1) * hop + frame) / rate))
            start = None
    if start is not None:
        segments.append((start * hop / rate, len(x) / rate))
    return segments


def reflect_pad_reference(x: np.ndarray, pad: int) -> np.ndarray:
    """Reflection padding by index arithmetic: sample i of the padded signal
    reads x at i - pad folded into [0, n) with period 2*(n-1)."""
    n = x.size
    if n == 1:
        return np.full(n + 2 * pad, x[0])
    period = 2 * (n - 1)
    idx = np.mod(np.arange(-pad, n + pad), period)
    return x[np.where(idx >= n, period - idx, idx)]


def stft_full_reference(x: np.ndarray, window: np.ndarray, hop: int) -> np.ndarray:
    """Complex STFT, bins x frames, in one pass: every reflection-padded frame
    windowed into one array and transformed by one rfft."""
    xp = reflect_pad_reference(x, (window.size - hop) // 2)
    frames = np.lib.stride_tricks.sliding_window_view(xp, window.size)[::hop]
    return np.fft.rfft(frames * window, axis=1).T


def log_mel_full_reference(x: np.ndarray, window: np.ndarray, hop: int, fb: np.ndarray,
                           clamp_floor: float) -> np.ndarray:
    """ln(max(fb @ |STFT|, clamp_floor)) from the one-pass STFT, as full-length
    arrays.  The window and filterbank come from the caller; the tests check
    them against scipy and ``slaney_filterbank_reference``."""
    spec = np.abs(stft_full_reference(x, window, hop))
    return np.log(np.maximum(fb @ spec, clamp_floor))


def pearson_reference(x, y) -> float:
    """Pearson correlation from the definition."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xm, ym = x - x.mean(), y - y.mean()
    return float(np.sum(xm * ym) / math.sqrt(np.sum(xm**2) * np.sum(ym**2)))


def silence_mask_loop(x: np.ndarray, rate: int, threshold_db: float) -> np.ndarray:
    """The frame-energy silence gate, its mask filled one hop block at a time.

    Each 10 ms block takes the verdict of the 20 ms frame starting at it; the
    tail past the last frame start takes the last verdict.  Signals shorter
    than one frame get one verdict from their whole RMS.
    """
    frame = max(1, int(round(rate * 0.020)))
    hop = max(1, int(round(rate * 0.010)))
    n = x.size
    if n < frame:
        rms = float(np.sqrt(np.mean(np.square(x)))) if n else 0.0
        return np.full(n, 20.0 * math.log10(max(rms, 1e-12)) < threshold_db)
    n_frames = 1 + (n - frame) // hop
    starts = np.arange(n_frames) * hop
    windows = np.lib.stride_tricks.sliding_window_view(x, frame)[::hop]
    frame_db = 10.0 * np.log10(np.maximum(np.mean(np.square(windows), axis=1), 1e-12**2))
    silent = frame_db < threshold_db
    mask = np.empty(n, dtype=bool)
    for i in range(n_frames):
        end = starts[i] + hop if i < n_frames - 1 else n
        mask[starts[i] : end] = silent[i]
    return mask


def cap_silences_loop(x: np.ndarray, mask: np.ndarray, max_len: int) -> tuple[np.ndarray, list]:
    """The silence cap walked one sample at a time: each True run of ``mask``
    longer than ``max_len`` keeps ``max_len`` samples (a leading run its
    tail, a trailing run its head, an interior run max_len // 2 at its
    start and the rest at its end).  Returns the kept samples and the
    (start, length) of each stretch taken out."""
    keep = np.ones(x.size, dtype=bool)
    removed = []
    start = None
    for k in range(mask.size + 1):
        silent = k < mask.size and mask[k]
        if silent and start is None:
            start = k
        if not silent and start is not None:
            if k - start > max_len:
                if start == 0:
                    lo, hi = 0, k - max_len
                elif k == mask.size:
                    lo, hi = start + max_len, k
                else:
                    lo, hi = start + max_len // 2, k - (max_len - max_len // 2)
                keep[lo:hi] = False
                removed.append((lo, hi - lo))
            start = None
    return x[keep], removed


def metrics_csv_rows(frame_indices, hqer, cslope, ccentroid, croll95) -> str:
    """Per-frame metric CSV written row by row from numpy scalars."""
    out = ["frame_index,hqer,cslope,ccentroid,croll95\n"]
    for i in range(len(frame_indices)):
        out.append(
            f"{int(frame_indices[i])},{hqer[i]:.6g},{cslope[i]:.6g},"
            f"{ccentroid[i]:.6g},{int(croll95[i])}\n"
        )
    return "".join(out)


def monotonicity_suite_loop(n_spectrograms, n_frames, seed, series_fns=None) -> list:
    """``synthlab.run_monotonicity_suite``'s results from one noise
    spectrogram at a time: the package's former loop.

    Each spectrogram gets its own cepstrum and metric series over all of its
    frames; the frames not usable in both the original and the degraded
    version are masked afterwards, and the counts and maxima accumulate
    across spectrograms.
    """
    from melcep.cepstral import mel_cepstrogram, quefrency_power
    from melcep.osmetrics import SERIES, MetricConfig, usable_frames
    from melcep.synthlab import (FILTER_STRENGTHS, KINDS, MONOTONICITY_TOLERANCES, SHRINK_CSLOPE_TOLERANCE,
                                 SHRINK_STRENGTHS, DegradationSpec, StrengthResult, degrade, noise_spectrogram)

    cfg = MetricConfig()
    fns = series_fns or SERIES

    def metric_table(s):
        qp = quefrency_power(mel_cepstrogram(s))
        # the series divide by each frame's power above DC, which a masked frame may lack
        with np.errstate(invalid="ignore", divide="ignore"):
            return {name: fn(qp.power, cfg) for name, fn in fns.items()}, usable_frames(qp)

    results = {}
    for kind in KINDS:
        for strength in SHRINK_STRENGTHS if kind == "variance_shrink" else FILTER_STRENGTHS:
            results[(kind, strength)] = StrengthResult(
                kind, float(strength), 0, {n: 0 for n in fns}, {n: 0.0 for n in fns})
    rng = np.random.default_rng(seed)
    for _ in range(n_spectrograms):
        base = noise_spectrogram(rng, n_frames=n_frames)
        base_metrics, base_ok = metric_table(base)
        for (kind, strength), res in results.items():
            deg_metrics, deg_ok = metric_table(degrade(base, DegradationSpec(kind, strength)))
            ok = base_ok & deg_ok
            res.frames_checked += int(ok.sum())
            for name in fns:
                tol = MONOTONICITY_TOLERANCES.get(name, 0.0)
                if kind == "variance_shrink" and name == "cslope":
                    tol = SHRINK_CSLOPE_TOLERANCE
                excess = deg_metrics[name][ok] - base_metrics[name][ok]
                bad = excess > tol
                res.violations[name] += int(bad.sum())
                if bad.any():
                    res.max_excess[name] = max(res.max_excess[name], float(excess[bad].max()))
    return list(results.values())
