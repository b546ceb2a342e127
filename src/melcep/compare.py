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
# Elements in one row chunk of the l2 distance temporary (512 KB of
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
    """Write the len(a) x len(b) framewise distance matrix into ``out``.

    Both distances are built in place in ``out``; no other temporary is as
    large as the matrix.
    """
    if distance == "cosine":
        an = a / np.maximum(np.linalg.norm(a, axis=1), _NORM_EPS)[:, None]
        bn = b / np.maximum(np.linalg.norm(b, axis=1), _NORM_EPS)[:, None]
        np.matmul(an, bn.T, out=out)
        np.subtract(1.0, out, out=out)
        np.maximum(out, 0.0, out=out)
        return
    if distance == "l2":
        # Squared differences are added one dimension at a time, in dimension
        # order, which are the additions of .sum(axis=2) over the full
        # (len(a), len(b), dims) difference, without building it.  Row
        # chunks bound the one rows x len(b) temporary.
        at = np.ascontiguousarray(a.T)
        bt = np.ascontiguousarray(b.T)
        rows = max(1, _L2_CHUNK_ELEMS // b.shape[0])
        tmp = np.empty((min(rows, a.shape[0]), b.shape[0]))
        for s in range(0, a.shape[0], rows):
            acc = out[s : s + rows]
            sq = tmp[: acc.shape[0]]
            np.subtract(at[0, s : s + rows, None], bt[0], out=acc)
            np.square(acc, out=acc)
            for c in range(1, at.shape[0]):
                np.subtract(at[c, s : s + rows, None], bt[c], out=sq)
                np.square(sq, out=sq)
                np.add(acc, sq, out=acc)
            np.sqrt(acc, out=acc)
        return
    raise ValueError(f"unknown distance {distance!r}; expected 'cosine' or 'l2'")


def dtw_align(a, b, distance: str = "cosine", band: int | None = None) -> tuple[DtwPath, float]:
    """Minimal-cost monotone alignment between two frame sequences.

    Parameters
    ----------
    a, b : array-like, frames x dims
        The sequences to align; feature dimensions must match and every
        value must be finite.
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

    Raises
    ------
    ValueError
        On empty, mismatched or non-finite input, an unknown distance, or
        when every path's cost overflows to infinity (l2 on huge values).

    The cells are swept one anti-diagonal at a time with numpy.  Only three
    diagonals of accumulated cost are kept, in contiguous buffers, and each
    cell gets ``d + min(diag, up, left)``.  With finite input every distance
    and cost lies in [0, inf] (no NaN, no -0.0), so ``np.minimum`` yields
    the bits of a cell-by-cell loop's strict-``<`` select in the order
    diag, up, left, and two ``np.less`` masks record its choices.  Time is
    O(n1*n2) with no per-cell Python work; memory is the float64 distance
    matrix plus two bool decision arrays, about 10 bytes per cell.
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise ValueError("empty input")
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"feature dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("non-finite input: frames must not contain NaN or inf")
    n1, n2 = a.shape[0], b.shape[0]
    d = np.empty((n1, n2))
    _pairwise_distance(a, b, distance, d)

    # Row i visits columns lo[i] <= j < hi[i].
    lo = np.zeros(n1, dtype=np.intp)
    hi = np.full(n1, n2, dtype=np.intp)
    if band is not None:
        window = max(int(band), abs(n1 - n2))
        scale = (n1 - 1) / (n2 - 1) if n1 > 1 and n2 > 1 else 0.0
        center = np.array([int(round(i / scale)) if scale > 0 else 0 for i in range(n1)], dtype=np.intp)
        lo = np.maximum(0, center - window)
        hi = np.minimum(n2, center + window + 1)

    # Both band edges move right as i grows, so the visited cells (i, k-i) of
    # anti-diagonal k are the rows first[k] <= i < stop[k], and each bound
    # moves by at most one row from one diagonal to the next.
    rows = np.arange(n1)
    diagonals = np.arange(n1 + n2 - 1)
    first = np.searchsorted(rows + hi, diagonals, side="right")
    stop = np.searchsorted(rows + lo, diagonals, side="right")
    # Decisions of diagonal k's cells, row by row, start at off[k].
    off = np.zeros(n1 + n2, dtype=np.intp)
    np.cumsum(stop - first, out=off[1:])
    first, stop, off = first.tolist(), stop.tolist(), off.tolist()
    took_up = np.empty(off[-1], dtype=bool)
    took_left = np.empty(off[-1], dtype=bool)
    took_up[0] = took_left[0] = False

    # Each buffer holds one diagonal's costs at index row + 1, and cells
    # outside the band must read inf.  The reads of diagonal k reach one row
    # past each end of the rows of k-1 and k-2, since the row bounds move by
    # at most one per diagonal.  Below the rows, a buffer may hold an older
    # diagonal's cost, so that cell is reset after each write; above them it
    # still holds its initial inf, because stop never decreases.
    inf = math.inf
    prev2, prev, cur = np.full((3, n1 + 2), inf)
    prev[1] = d[0, 0]
    # Cell (i, k-i) sits at flat offset i*(n2-1) + k of d.  With n2 == 1
    # every diagonal has one cell, so the stride is never used.
    d_flat = d.reshape(-1)
    stride = max(n2 - 1, 1)
    for k in range(1, n1 + n2 - 1):
        i0, i1, o = first[k], stop[k], off[k]
        n = i1 - i0
        diag = prev2[i0:i1]
        up = prev[i0:i1]
        left = prev[i0 + 1 : i1 + 1]
        # cur's slot for these rows: the cheapest predecessor, then the cost
        best = cur[i0 + 1 : i1 + 1]
        s = i0 * (n2 - 1) + k
        np.minimum(diag, up, out=best)
        np.less(up, diag, out=took_up[o : o + n])
        np.less(left, best, out=took_left[o : o + n])
        np.minimum(best, left, out=best)
        np.add(best, d_flat[s : s + n * stride : stride], out=best)
        cur[i0] = inf
        prev2, prev, cur = prev, cur, prev2

    total = prev[n1]
    if not math.isfinite(total):
        raise ValueError("every alignment path has infinite cost: the distances or their sums overflow float64")

    # A left decision overrides up, and up overrides diagonal.
    pairs = [(n1 - 1, n2 - 1)]
    i, j = n1 - 1, n2 - 1
    while i or j:
        c = off[i + j] + i - first[i + j]
        if took_left[c]:
            j -= 1
        elif took_up[c]:
            i -= 1
        else:
            i, j = i - 1, j - 1
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
