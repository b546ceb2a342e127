"""Pairwise reference-vs-synthesis scoring.

Sequences are aligned with dynamic time warping before any distance is
computed: spectrograms under a framewise cosine distance, pitch contours and
metric curves under the L2 distance.  Utterance-level deltas (synthesis minus
reference) cover pitch statistics, speaking rate, and the oversmoothing
metrics.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .osmetrics import UtteranceMetrics
from .spectral import LogMelSpectrogram

_NORM_EPS = 1e-12
# Backpointer codes: predecessor of each DTW cell.
_DIAG, _UP, _LEFT = 0, 1, 2
# Elements in one row chunk of the l2 distance temporaries (512 KB of
# float64, small enough to stay in cache).
_L2_CHUNK_ELEMS = 1 << 16


@dataclass(frozen=True)
class DtwPath:
    """Monotone alignment path: (i, j) index pairs from (0,0) to (M1-1, M2-1)."""

    pairs: np.ndarray

    def __len__(self) -> int:
        return self.pairs.shape[0]

    @property
    def i(self) -> np.ndarray:
        return self.pairs[:, 0]

    @property
    def j(self) -> np.ndarray:
        return self.pairs[:, 1]


@dataclass
class PitchContour:
    """Framewise f0 in Hz with voiced flags; unvoiced frames store f0 = 0."""

    f0: np.ndarray
    voiced: np.ndarray
    hop: int = 256
    sample_rate: int = 22050

    def __post_init__(self):
        self.f0 = np.asarray(self.f0, dtype=np.float64)
        self.voiced = np.asarray(self.voiced, dtype=bool)
        if self.f0.shape != self.voiced.shape or self.f0.ndim != 1:
            raise ValueError("f0 and voiced must be 1-D arrays of equal length")
        v = self.voiced
        if v.any() and not (np.isfinite(self.f0[v]).all() and (self.f0[v] > 0).all()):
            raise ValueError("voiced frames must have finite positive f0")

    def voiced_f0(self) -> np.ndarray:
        return self.f0[self.voiced]


class PitchMetrics(NamedTuple):
    f0_rmse: float | None
    pearson_r: float | None
    vuv_error: float


class MelDistances(NamedTuple):
    l1: float
    l2: float
    sconv: float


class MetricCurveMae(NamedTuple):
    hqer: float
    cslope: float
    ccentroid: float
    croll95: float


@dataclass
class UtteranceBundle:
    """One utterance's measurements, the unit utterance_deltas compares."""

    duration_s: float
    metrics: UtteranceMetrics | None = None
    pitch: PitchContour | None = None
    token_count: int | None = None

    def spr(self) -> float | None:
        """Speaking rate: tokens produced per second of audio."""
        if self.token_count is None or self.duration_s <= 0:
            return None
        return self.token_count / self.duration_s


@dataclass
class UtteranceDeltas:
    delta_mu_f0: float | None
    delta_sigma_f0: float | None
    delta_spr: float | None
    delta_hqer: float | None
    delta_cslope: float | None
    delta_ccentroid: float | None
    delta_croll95: float | None


@dataclass
class ComparisonReport:
    """All paired scores for one reference/synthesis utterance pair."""

    l1: float
    l2: float
    sconv: float
    f0_rmse: float | None
    pearson_r: float | None
    vuv_error: float | None
    mae_hqer: float | None
    mae_cslope: float | None
    mae_ccentroid: float | None
    mae_croll95: float | None
    delta_mu_f0: float | None
    delta_sigma_f0: float | None
    delta_spr: float | None
    delta_hqer: float | None
    delta_cslope: float | None
    delta_ccentroid: float | None
    delta_croll95: float | None

    def to_json(self) -> str:
        def round6(v):
            return None if v is None else float(format(v, ".6g"))

        return json.dumps({f.name: round6(getattr(self, f.name)) for f in fields(self)})


def _pairwise_distance(a: np.ndarray, b: np.ndarray, distance: str, out: np.ndarray) -> None:
    """Write the len(a) x len(b) framewise distance matrix into ``out``."""
    if distance == "cosine":
        na = np.linalg.norm(a, axis=1)
        nb = np.linalg.norm(b, axis=1)
        an = a / np.maximum(na, _NORM_EPS)[:, None]
        bn = b / np.maximum(nb, _NORM_EPS)[:, None]
        np.maximum(1.0 - an @ bn.T, 0.0, out=out)
        return
    if distance == "l2":
        # Row chunks bound the rows x len(b) x dims temporary; each entry is
        # still one contiguous sum over dims, so the bits do not depend on it.
        rows = max(1, _L2_CHUNK_ELEMS // b.size)
        for s in range(0, a.shape[0], rows):
            out[s : s + rows] = np.sqrt(np.square(a[s : s + rows, None, :] - b[None, :, :]).sum(axis=2))
        return
    raise ValueError(f"unknown distance {distance!r}; expected 'cosine' or 'l2'")


def dtw_align(a, b, distance: str = "cosine", band: int | None = None) -> tuple[DtwPath, float]:
    """Minimal-cost monotone alignment between two frame sequences.

    Parameters
    ----------
    a, b : array-like, frames x dims
        The sequences to align; feature dimensions must match.
    distance : {"cosine", "l2"}
        Framewise distance: 1 - cosine similarity, or the Euclidean norm.
    band : int, optional
        Sakoe-Chiba band half-width around the rescaled diagonal, widened to
        at least the length difference; cells outside the band are never
        visited.  None disables the constraint.

    Returns
    -------
    (DtwPath, float)
        The optimal path under steps {(1,0), (0,1), (1,1)} and its total
        cost.  Ties prefer the diagonal predecessor, then the vertical one.

    The cost lattice is swept one anti-diagonal at a time with numpy, each
    cell getting ``d + min(diag, up, left)`` by the same floating-point
    operations, in the same order, as a cell-by-cell loop.  Time stays
    O(n1*n2) with no per-cell Python work.  Memory is one float64 cost
    lattice and one uint8 backpointer lattice, about 9 bytes per cell; the
    cosine distance briefly adds its float64 matrix product, and the l2
    distance is built in row chunks.
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise ValueError("empty input")
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"feature dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    n1, n2 = a.shape[0], b.shape[0]

    # cost[i+1, j+1] holds cell (i, j); row 0 and column 0 are an inf border.
    cost = np.empty((n1 + 1, n2 + 1))
    cost[0] = math.inf
    cost[1:, 0] = math.inf
    _pairwise_distance(a, b, distance, cost[1:, 1:])
    steps = np.zeros((n1 + 1, n2 + 1), dtype=np.uint8)

    # Row i visits columns lo[i] <= j < hi[i]; cells outside stay inf.
    lo = np.zeros(n1, dtype=np.intp)
    hi = np.full(n1, n2, dtype=np.intp)
    if band is not None:
        window = max(int(band), abs(n1 - n2))
        scale = (n1 - 1) / (n2 - 1) if n1 > 1 and n2 > 1 else 0.0
        center = np.array([int(round(i / scale)) if scale > 0 else 0 for i in range(n1)], dtype=np.intp)
        lo = np.maximum(0, center - window)
        hi = np.minimum(n2, center + window + 1)
        for i in range(n1):
            cost[i + 1, 1 : lo[i] + 1] = math.inf
            cost[i + 1, hi[i] + 1 :] = math.inf

    # Both band edges move right as i grows, so the visited cells (i, k-i) of
    # anti-diagonal k are the rows first[k] <= i < stop[k].
    rows = np.arange(n1)
    diagonals = np.arange(1, n1 + n2 - 1)
    first = np.searchsorted(rows + hi, diagonals, side="right").tolist()
    stop = np.searchsorted(rows + lo, diagonals, side="right").tolist()

    # Cell (i, k-i) sits at flat offset (i+1)*n2 + k+2, so a diagonal and its
    # diag, up and left predecessors are all stride-n2 slices of the lattice.
    flat = cost.reshape(-1)
    flat_steps = steps.reshape(-1)
    best_buf = np.empty(min(n1, n2))
    less_buf = np.empty(min(n1, n2), dtype=bool)
    for k, i0, i1 in zip(diagonals.tolist(), first, stop):
        s = (i0 + 1) * n2 + k + 2
        e = s + (i1 - i0 - 1) * n2 + 1
        best = best_buf[: i1 - i0]
        less = less_buf[: i1 - i0]
        ptr = flat_steps[s:e:n2]
        np.copyto(best, flat[s - n2 - 2 : e - n2 - 2 : n2])
        up = flat[s - n2 - 1 : e - n2 - 1 : n2]
        np.less(up, best, out=less)
        np.copyto(best, up, where=less)
        np.copyto(ptr, less)  # _DIAG == 0, _UP == 1
        left = flat[s - 1 : e - 1 : n2]
        np.less(left, best, out=less)
        np.copyto(best, left, where=less)
        np.copyto(ptr, _LEFT, where=less)
        cell = flat[s:e:n2]
        cell += best

    total = cost[n1, n2]
    if not math.isfinite(total):
        raise ValueError("band constraint left no feasible alignment path")

    back = steps[1:, 1:]
    pairs = [(n1 - 1, n2 - 1)]
    i, j = n1 - 1, n2 - 1
    while (i, j) != (0, 0):
        step = back[i, j]
        if step == _DIAG and i > 0 and j > 0:
            i, j = i - 1, j - 1
        elif step == _UP and i > 0:
            i -= 1
        else:
            j -= 1
        pairs.append((i, j))
    pairs.reverse()
    return DtwPath(np.asarray(pairs, dtype=np.intp)), float(total)


def mel_distances(ref: LogMelSpectrogram, syn: LogMelSpectrogram) -> MelDistances:
    """L1/L2 error and spectral convergence over the DTW-aligned frame pairs.

    Alignment uses the cosine distance; the distances are then taken over the
    aligned band-by-step matrices.  Spectral convergence is the Frobenius
    norm of the aligned difference over the Frobenius norm of the aligned
    reference.
    """
    if ref.n_bands != syn.n_bands:
        raise ValueError("band count mismatch")
    path, _ = dtw_align(ref.values.T, syn.values.T, distance="cosine")
    r = ref.values[:, path.i]
    s = syn.values[:, path.j]
    diff = r - s
    return MelDistances(
        l1=float(np.mean(np.abs(diff))),
        l2=float(np.mean(np.square(diff))),
        sconv=float(np.linalg.norm(diff) / np.linalg.norm(r)),
    )


def pitch_metrics(ref: PitchContour, syn: PitchContour) -> PitchMetrics:
    """RMSE, Pearson r, and V/UV error rate over DTW-aligned pitch contours.

    Contours are aligned on raw Hz with unvoiced frames substituted by zero
    for the alignment only.  RMSE and r are computed over aligned pairs
    voiced on both sides; the V/UV error is the fraction of aligned pairs
    whose voicing flags disagree.  With fewer than two both-voiced pairs (or
    a constant contour) r is reported as missing; with none, RMSE too.
    """
    fa = np.where(ref.voiced, ref.f0, 0.0)
    fb = np.where(syn.voiced, syn.f0, 0.0)
    path, _ = dtw_align(fa[:, None], fb[:, None], distance="l2")
    vr = ref.voiced[path.i]
    vs = syn.voiced[path.j]
    vuv_error = float(np.mean(vr != vs))
    both = vr & vs
    if not both.any():
        return PitchMetrics(None, None, vuv_error)
    x = ref.f0[path.i][both]
    y = syn.f0[path.j][both]
    rmse = float(np.sqrt(np.mean(np.square(y - x))))
    r = None
    if x.size >= 2:
        xc = x - x.mean()
        yc = y - y.mean()
        denom = np.linalg.norm(xc) * np.linalg.norm(yc)
        if denom > 0:
            r = float(np.clip(np.dot(xc, yc) / denom, -1.0, 1.0))
    return PitchMetrics(rmse, r, vuv_error)


def metric_curve_mae(ref: UtteranceMetrics, syn: UtteranceMetrics) -> MetricCurveMae:
    """Framewise MAE of each metric curve after DTW alignment (L2 distance)."""
    a = ref.as_matrix()
    b = syn.as_matrix()
    if a.size == 0 or b.size == 0:
        raise ValueError("empty metric series")
    path, _ = dtw_align(a, b, distance="l2")
    mae = np.mean(np.abs(a[path.i] - b[path.j]), axis=0)
    return MetricCurveMae(*(float(v) for v in mae))


def utterance_deltas(ref: UtteranceBundle, syn: UtteranceBundle) -> UtteranceDeltas:
    """Synthesis-minus-reference differences of utterance-level statistics.

    Pitch mean and std are taken over each side's voiced frames.  Missing
    inputs (no pitch, no token count) yield missing deltas, never zeros.
    """
    def voiced_stats(bundle):
        if bundle.pitch is None:
            return None, None
        v = bundle.pitch.voiced_f0()
        if v.size == 0:
            return None, None
        return float(np.mean(v)), float(np.std(v))

    mu_r, sd_r = voiced_stats(ref)
    mu_s, sd_s = voiced_stats(syn)
    spr_r, spr_s = ref.spr(), syn.spr()

    def metric_delta(name):
        if ref.metrics is None or syn.metrics is None:
            return None
        return syn.metrics.means[name] - ref.metrics.means[name]

    return UtteranceDeltas(
        delta_mu_f0=None if mu_r is None or mu_s is None else mu_s - mu_r,
        delta_sigma_f0=None if sd_r is None or sd_s is None else sd_s - sd_r,
        delta_spr=None if spr_r is None or spr_s is None else spr_s - spr_r,
        delta_hqer=metric_delta("hqer"),
        delta_cslope=metric_delta("cslope"),
        delta_ccentroid=metric_delta("ccentroid"),
        delta_croll95=metric_delta("croll95"),
    )


def build_report(
    ref_mel: LogMelSpectrogram,
    syn_mel: LogMelSpectrogram,
    ref_bundle: UtteranceBundle,
    syn_bundle: UtteranceBundle,
) -> ComparisonReport:
    """Assemble the full comparison report for one utterance pair."""
    dist = mel_distances(ref_mel, syn_mel)
    if ref_bundle.pitch is not None and syn_bundle.pitch is not None:
        pm = pitch_metrics(ref_bundle.pitch, syn_bundle.pitch)
    else:
        pm = PitchMetrics(None, None, None)
    if ref_bundle.metrics is not None and syn_bundle.metrics is not None:
        mae = metric_curve_mae(ref_bundle.metrics, syn_bundle.metrics)
    else:
        mae = MetricCurveMae(None, None, None, None)
    deltas = utterance_deltas(ref_bundle, syn_bundle)
    return ComparisonReport(
        l1=dist.l1,
        l2=dist.l2,
        sconv=dist.sconv,
        f0_rmse=pm.f0_rmse,
        pearson_r=pm.pearson_r,
        vuv_error=pm.vuv_error,
        mae_hqer=mae.hqer,
        mae_cslope=mae.cslope,
        mae_ccentroid=mae.ccentroid,
        mae_croll95=mae.croll95,
        delta_mu_f0=deltas.delta_mu_f0,
        delta_sigma_f0=deltas.delta_sigma_f0,
        delta_spr=deltas.delta_spr,
        delta_hqer=deltas.delta_hqer,
        delta_cslope=deltas.delta_cslope,
        delta_ccentroid=deltas.delta_ccentroid,
        delta_croll95=deltas.delta_croll95,
    )


def load_pitch_csv(path, hop: int = 256, sample_rate: int = 22050) -> PitchContour:
    """Read a pitch contour CSV with header ``time_s,f0_hz``.

    Empty or non-positive f0 cells mark unvoiced frames.  Frame times must
    be uniformly spaced at hop/sample_rate seconds (within 1e-6 s).
    """
    times: list[float] = []
    f0: list[float] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header[:2]] != ["time_s", "f0_hz"]:
            raise ValueError(f"pitch CSV {path!s} must start with header 'time_s,f0_hz'")
        for row in reader:
            if not row or not row[0].strip():
                continue
            times.append(float(row[0]))
            cell = row[1].strip() if len(row) > 1 else ""
            f0.append(float(cell) if cell else 0.0)
    if not times:
        raise ValueError(f"pitch CSV {path!s} has no rows")
    expected_dt = hop / sample_rate
    dt = np.diff(np.asarray(times))
    if dt.size and np.abs(dt - expected_dt).max() > 1e-6:
        raise ValueError(
            f"pitch CSV {path!s} frame times are not uniform at {expected_dt:.6f} s"
        )
    f0_arr = np.asarray(f0)
    voiced = f0_arr > 0
    return PitchContour(np.where(voiced, f0_arr, 0.0), voiced, hop=hop, sample_rate=sample_rate)
