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
from dataclasses import dataclass, fields, make_dataclass
from typing import NamedTuple

import numpy as np

from .osmetrics import METRIC_NAMES, UtteranceMetrics
from .spectral import LogMelSpectrogram

_NORM_EPS = 1e-12
# Elements in one row chunk of the l2 distance temporary (512 KB of
# float64, small enough to stay in cache).
_L2_CHUNK_ELEMS = 1 << 16
# Largest n1 x n2 that ``dtw_align`` takes, checked before it allocates.  Its
# float64 cost matrix measured 8.05-8.40 B/cell under tracemalloc (3000 x 3600
# frames) at about 115 ns/cell (2-core KVM guest), so 2**27 cells cost about
# 1.1 GB and 15 s: two minutes a side at 86 frames/s.  A few pool workers can
# each hold one in 8 GB; a 3-minute pair (1.9 GB) fails its own entry instead
# of drawing the OOM killer onto a worker, which fails its whole chunk.  The
# benchmark's largest pair is about 2.8M cells.
DTW_MAX_CELLS = 1 << 27


@dataclass(frozen=True)
class DtwPath:
    """Monotone alignment path: (i, j) index pairs from (0,0) to (M1-1, M2-1)."""

    pairs: np.ndarray

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


MetricCurveMae = NamedTuple("MetricCurveMae", [(name, float) for name in METRIC_NAMES])

# The utterance-level measures of UtteranceBundle.measures(), in report order.
MEASURES = ("mu_f0", "sigma_f0", "spr", *METRIC_NAMES)


@dataclass
class UtteranceBundle:
    """One utterance's measurements: the per-wav record of every subcommand."""

    duration_s: float
    metrics: UtteranceMetrics
    pitch: PitchContour | None = None
    token_count: int | None = None

    def measures(self) -> dict[str, float | None]:
        """Utterance-level measures, None where the pitch or token count is missing.

        ``mu_f0`` and ``sigma_f0`` are the mean and population std of the
        voiced f0; ``spr`` is the speaking rate in tokens per second of
        audio; the metric names map to their utterance means.
        """
        voiced = self.pitch.voiced_f0() if self.pitch is not None else np.empty(0)
        has_tokens = self.token_count is not None and self.duration_s > 0
        values = (  # in MEASURES order
            float(np.mean(voiced)) if voiced.size else None,
            float(np.std(voiced)) if voiced.size else None,
            self.token_count / self.duration_s if has_tokens else None,
            *(self.metrics.means[name] for name in METRIC_NAMES),
        )
        return dict(zip(MEASURES, values))


UtteranceDeltas = NamedTuple("UtteranceDeltas", [(f"delta_{name}", float | None) for name in MEASURES])


def _report_json(report) -> str:
    def round6(v):
        return None if v is None else float(format(v, ".6g"))

    return json.dumps({f.name: round6(getattr(report, f.name)) for f in fields(report)})


# The mel distances, pitch metrics, metric-curve MAEs and deltas, in that
# order.  ``__module__`` names this module, so that reports pickle across the
# worker pool.
ComparisonReport = make_dataclass(
    "ComparisonReport",
    [*MelDistances._fields, *PitchMetrics._fields, *(f"mae_{name}" for name in MetricCurveMae._fields),
     *UtteranceDeltas._fields],
    namespace={"__module__": __name__, "to_json": _report_json,
               "__doc__": "All paired scores for one reference/synthesis utterance pair; None marks missing."},
)


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


def dtw_align(a, b, distance: str = "cosine") -> tuple[DtwPath, float]:
    """Minimal-cost monotone alignment between two frame sequences.

    Parameters
    ----------
    a, b : array-like, frames x dims
        The sequences to align; feature dimensions must match and every
        value must be finite.
    distance : {"cosine", "l2"}
        Framewise distance: 1 - cosine similarity, or the Euclidean norm.

    Returns
    -------
    (DtwPath, float)
        The optimal path under steps {(1,0), (0,1), (1,1)} and its total
        cost.  Ties prefer the diagonal predecessor, then the vertical one.

    Raises
    ------
    ValueError
        On empty, mismatched or non-finite input, more than
        ``DTW_MAX_CELLS`` cells, an unknown distance, or when every path's
        cost overflows to infinity (l2 on huge values).

    Costs are accumulated in place in the distance matrix, one anti-diagonal
    at a time with numpy: each cell gets ``d + min(diag, up, left)``.  With
    finite input no distance or cost is NaN or -0.0, so ``np.minimum``
    yields the bits of a cell-by-cell loop's strict-``<`` select in the
    order diag, up, left, and the path is traced back from the stored costs
    with the same comparisons.  Time is O(n1*n2) with no per-cell Python
    work; memory is the float64 matrix, about 8 bytes per cell.
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
    if n1 * n2 > DTW_MAX_CELLS:
        raise ValueError(f"cannot align {n1} x {n2} frames: the cost matrix needs {8 * n1 * n2} bytes, "
                         f"over the budget of {DTW_MAX_CELLS} cells ({8 * DTW_MAX_CELLS} bytes)")
    cost = np.empty((n1, n2))
    _pairwise_distance(a, b, distance, cost)

    # Row 0 and column 0 each have one predecessor.
    np.cumsum(cost[0], out=cost[0])
    np.cumsum(cost[:, 0], out=cost[:, 0])
    # Cell (i, k-i) sits at flat offset i*(n2-1) + k, and its left, up and
    # diagonal predecessors 1, n2 and n2+1 cells before it.  Anti-diagonal
    # k's interior cells (i, j >= 1) are the rows i0 <= i < i1; there are
    # none when either sequence has one frame.
    flat, step = cost.reshape(-1), n2 - 1
    best = np.empty(min(n1, n2))
    for k in range(2, n1 + n2 - 1 if min(n1, n2) > 1 else 2):
        i0, i1 = max(1, k - step), min(n1, k)
        s, e = i0 * step + k, i1 * step + k
        m = best[: i1 - i0]
        np.minimum(flat[s - n2 - 1 : e - n2 - 1 : step], flat[s - n2 : e - n2 : step], out=m)
        np.minimum(m, flat[s - 1 : e - 1 : step], out=m)
        np.add(flat[s:e:step], m, out=flat[s:e:step])

    total = float(cost[n1 - 1, n2 - 1])
    if not math.isfinite(total):
        raise ValueError("every alignment path has infinite cost: the distances or their sums overflow float64")

    # The forward pass's comparisons; row 0 and column 0 run straight to (0, 0).
    at = cost.item
    i, j = n1 - 1, n2 - 1
    pairs = [(i, j)]
    while i and j:
        diag, up, left = at(i - 1, j - 1), at(i - 1, j), at(i, j - 1)
        if left < min(diag, up):
            j -= 1
        elif up < diag:
            i -= 1
        else:
            i, j = i - 1, j - 1
        pairs.append((i, j))
    pairs += [(r, 0) for r in range(i - 1, -1, -1)] + [(0, c) for c in range(j - 1, -1, -1)]
    pairs.reverse()
    return DtwPath(np.asarray(pairs, dtype=np.intp)), total


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
    path, _ = dtw_align(a, b, distance="l2")
    mae = np.mean(np.abs(a[path.i] - b[path.j]), axis=0)
    return MetricCurveMae(*(float(v) for v in mae))


def utterance_deltas(ref: UtteranceBundle, syn: UtteranceBundle) -> UtteranceDeltas:
    """Synthesis-minus-reference differences of ``UtteranceBundle.measures``.

    A measure missing on either side (no pitch, no token count) yields a
    missing delta, never zero.
    """
    r, s = ref.measures(), syn.measures()
    return UtteranceDeltas(*(None if r[k] is None or s[k] is None else s[k] - r[k] for k in MEASURES))


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
    mae = metric_curve_mae(ref_bundle.metrics, syn_bundle.metrics)
    return ComparisonReport(*dist, *pm, *mae, *utterance_deltas(ref_bundle, syn_bundle))


def load_pitch_csv(path, hop: int = 256, sample_rate: int = 22050) -> PitchContour:
    """Read a pitch contour CSV with header ``time_s,f0_hz``.

    Every cell is a finite number, except that an f0 cell may be empty;
    rows whose cells are all blank are skipped.  Empty or non-positive f0
    cells mark unvoiced frames.  Frame times must be uniformly spaced at
    hop/sample_rate seconds (within 1e-6 s).
    """
    times: list[float] = []
    f0: list[float] = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header[:2]] != ["time_s", "f0_hz"]:
            raise ValueError(f"pitch CSV {path!s} must start with header 'time_s,f0_hz'")
        for row in reader:
            if not any(cell.strip() for cell in row):
                continue
            cell = row[1].strip() if len(row) > 1 else ""
            try:
                t, hz = float(row[0]), float(cell) if cell else 0.0
            except ValueError:
                t = hz = math.nan
            # a NaN time would pass the spacing check below: NaN > 1e-6 is False
            if not (math.isfinite(t) and math.isfinite(hz)):
                raise ValueError(f"pitch CSV {path!s} row {reader.line_num}: expected finite numbers, got {row[:2]!r}")
            times.append(t)
            f0.append(hz)
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
    return PitchContour(np.where(voiced, f0_arr, 0.0), voiced)
