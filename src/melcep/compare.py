"""Pairwise reference-vs-synthesis scoring.

``build_report`` aligns each pair once, by dynamic time warping of the
log-mel frames under a framewise cosine distance, and takes the mel
distances, the pitch scores and the metric-curve errors along that path.
Utterance-level deltas (synthesis minus reference) cover pitch statistics,
speaking rate, and the oversmoothing metrics.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .audio import PreprocessConfig
from .osmetrics import METRIC_LABELS, METRIC_NAMES, UtteranceMetrics
from .spectral import LogMelSpectrogram, StftConfig
from .stats import measure_values, summarize_values

_NORM_EPS = 1e-12
# Largest n1 x n2 that ``dtw_align`` takes, checked before it allocates.  Its
# float64 cost matrix takes about 8 B/cell (test_dtw_peak_memory_per_cell),
# so 2**27 cells take about 1.1 GB: two minutes a side at 86 frames/s.  A few
# pool workers can each hold one in 8 GB; a 3-minute pair (1.9 GB) fails its
# own entry instead of drawing the OOM killer onto a worker, which fails its
# whole chunk.  The benchmark's largest pair is about 2.8M cells.
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
    vuv_error: float | None


class MelDistances(NamedTuple):
    l1: float
    l2: float
    sconv: float


MetricCurveMae = NamedTuple("MetricCurveMae", [(name, float | None) for name in METRIC_NAMES])

# The utterance-level measures of UtteranceBundle.measures(), in report order.
MEASURES = ("mu_f0", "sigma_f0", "spr", *METRIC_NAMES)


@dataclass
class UtteranceBundle:
    """One utterance's measurements, as ``cli.analyze_mel`` (and so ``cli.analyze``) returns them.

    ``pitch`` is the contour as read, which the utterance measures use.
    ``frame_pitch`` is the same contour with one value per log-mel frame,
    which the aligned scores use; it defaults to ``pitch``.  ``mel`` is the
    log-mel the metrics come from, whose frames ``build_report`` aligns.
    """

    duration_s: float
    metrics: UtteranceMetrics
    pitch: PitchContour | None = None
    token_count: int | None = None
    frame_pitch: PitchContour | None = None
    mel: LogMelSpectrogram | None = None

    def __post_init__(self):
        if self.frame_pitch is None:
            self.frame_pitch = self.pitch

    def measures(self) -> dict[str, float | None]:
        """Utterance-level measures, None where the pitch or token count is missing.

        ``mu_f0`` and ``sigma_f0`` are the mean and population std of the
        voiced f0; ``spr`` is the speaking rate in tokens per second of
        ``duration_s``, the length of the preprocessed, silence-capped
        signal; the metric names map to their utterance means.
        """
        voiced = self.pitch.voiced_f0() if self.pitch is not None else np.empty(0)
        has_tokens = self.token_count is not None and self.duration_s > 0
        return {
            "mu_f0": float(np.mean(voiced)) if voiced.size else None,
            "sigma_f0": float(np.std(voiced)) if voiced.size else None,
            "spr": self.token_count / self.duration_s if has_tokens else None,
            **self.metrics.means,
        }


UtteranceDeltas = NamedTuple("UtteranceDeltas", [(f"delta_{name}", float | None) for name in MEASURES])


# The mel distances, pitch metrics, metric-curve MAEs and deltas, in that order.
_REPORT_FIELDS = (*MelDistances._fields, *PitchMetrics._fields, *(f"mae_{name}" for name in MetricCurveMae._fields),
                  *UtteranceDeltas._fields)


class ComparisonReport(NamedTuple("ComparisonReport", [(name, float | None) for name in _REPORT_FIELDS])):
    """All paired scores for one reference/synthesis utterance pair; None marks missing."""

    __slots__ = ()

    def to_json(self) -> str:
        """The fields in order as a JSON object, each number rounded to 6 significant digits."""
        return json.dumps({name: None if v is None else float(format(v, ".6g")) for name, v in zip(self._fields, self)})


# The aggregate.csv rows: label, ComparisonReport field and scale, in report-field order.
AGGREGATE_MEASURES = (
    ("L1", "l1", 1.0), ("L2", "l2", 1.0), ("SConv", "sconv", 1.0),
    ("f0_RMSE/Hz", "f0_rmse", 1.0), ("Pearson r", "pearson_r", 1.0), ("E_V/UV", "vuv_error", 1.0),
    *((f"MAE({label})/{unit}", f"mae_{name}", scale)
      for name in METRIC_NAMES for label, unit, scale in [METRIC_LABELS[name]]),
)


def aggregate_csv(reports) -> str:
    """``aggregate.csv``: per ``AGGREGATE_MEASURES`` row, the mean, population std and
    count of the scaled field over the reports that have it; ``,,,0`` where none has."""
    lines = ["measure,mean,std,count"]
    for label, name, scale in AGGREGATE_MEASURES:
        m = summarize_values(measure_values(reports, name) * scale)
        lines.append(f"{label},,,0" if m is None else f"{label},{m.mean:.6g},{m.std:.6g},{m.count}")
    return "\n".join(lines) + "\n"


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
        # One row at a time: each frame's squared differences summed over
        # the dimensions are the additions of the one-broadcast
        # .sum(axis=2), pairwise order included, without building it.
        for frame, row in zip(a, out):
            np.sqrt(np.square(frame - b).sum(axis=1), out=row)
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
        On input that is not 2-D, empty, mismatched or non-finite, more than
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
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"expected 2-D frames x dims arrays, got shapes {a.shape} and {b.shape}")
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


def _diagonal(n1: int, n2: int) -> DtwPath:
    """The path of a scorer called without one: frame k with frame k, for sequences of equal length."""
    if n1 != n2:
        raise ValueError(f"sequences of {n1} and {n2} frames need a path to be paired")
    return DtwPath(np.repeat(np.arange(n1), 2).reshape(-1, 2))


def mel_distances(ref: LogMelSpectrogram, syn: LogMelSpectrogram, path: DtwPath | None = None) -> MelDistances:
    """L1, L2 and spectral convergence over the frame pairs of ``path``.

    ``path`` pairs the frames of the two spectrograms (in ``build_report``,
    their cosine path); without one, spectrograms of equal frame count are
    paired frame by frame.  Over the aligned band-by-step log-mel matrices,
    ``l1`` is the mean absolute difference, ``l2`` the mean squared difference
    (no root) and ``sconv`` the Frobenius norm of the difference over that of
    the aligned reference.
    """
    if ref.n_bands != syn.n_bands:
        raise ValueError("band count mismatch")
    if path is None:
        path = _diagonal(ref.n_frames, syn.n_frames)
    r = ref.values[:, path.i]
    s = syn.values[:, path.j]
    diff = r - s
    return MelDistances(
        l1=float(np.mean(np.abs(diff))),
        l2=float(np.mean(np.square(diff))),
        sconv=float(np.linalg.norm(diff) / np.linalg.norm(r)),
    )


def pitch_metrics(ref: PitchContour, syn: PitchContour, path: DtwPath | None = None) -> PitchMetrics:
    """RMSE, Pearson r, and V/UV error rate over the frame pairs of ``path``.

    ``path`` runs from the first to the last frame of both contours (in
    ``build_report``, the cosine path of their log-mel frames); without one,
    contours of equal length are paired frame by frame.  RMSE and r are
    computed over pairs voiced on both sides; the V/UV error is the fraction
    of pairs whose voicing flags disagree.  With fewer than two both-voiced
    pairs (or a constant contour) r is reported as missing; with none, RMSE
    too.
    """
    n1, n2 = ref.f0.size, syn.f0.size
    if path is None:
        path = _diagonal(n1, n2)
    if tuple(path.pairs[-1]) != (n1 - 1, n2 - 1):
        raise ValueError(f"the path ends at {tuple(path.pairs[-1].tolist())}, not at the contours' last frames "
                         f"({n1 - 1}, {n2 - 1})")
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


def _series_rows(metrics: UtteranceMetrics, frames: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each frame's row in the series of ``metrics``, and whether it has one (the frame is usable)."""
    rows = np.minimum(np.searchsorted(metrics.frame_indices, frames), metrics.n_frames - 1)
    return rows, metrics.frame_indices[rows] == frames


def metric_curve_mae(ref: UtteranceMetrics, syn: UtteranceMetrics, path: DtwPath | None = None) -> MetricCurveMae:
    """Mean absolute difference of each metric curve over the frame pairs of
    ``path`` whose two frames are both usable (in ``frame_indices``).

    ``path`` pairs the frames of the grids the metrics were taken on (in
    ``build_report``, their log-mel's cosine path); without one, grids of
    equal ``grid_frames`` are paired frame by frame, as the mel and pitch
    scorers pair theirs.  Every field is None when no pair is usable on both sides.
    """
    if path is None:
        path = _diagonal(ref.grid_frames, syn.grid_frames)
    i, usable_i = _series_rows(ref, path.i)
    j, usable_j = _series_rows(syn, path.j)
    both = usable_i & usable_j
    if not both.any():
        return MetricCurveMae(*[None] * len(METRIC_NAMES))
    mae = np.mean(np.abs(ref.as_matrix()[i[both]] - syn.as_matrix()[j[both]]), axis=0)
    return MetricCurveMae(*(float(v) for v in mae))


def utterance_deltas(ref: UtteranceBundle, syn: UtteranceBundle) -> UtteranceDeltas:
    """Synthesis-minus-reference differences of ``UtteranceBundle.measures``.

    A measure missing on either side (no pitch, no token count) yields a
    missing delta, never zero.
    """
    r, s = ref.measures(), syn.measures()
    return UtteranceDeltas(*(None if r[k] is None or s[k] is None else s[k] - r[k] for k in MEASURES))


def build_report(ref: UtteranceBundle, syn: UtteranceBundle) -> ComparisonReport:
    """The report of a reference and a synthesis bundle, aligned once by
    cosine DTW of their ``mel`` frames.  The mel distances, the pitch scores
    (over each bundle's ``frame_pitch``) and the metric-curve errors are
    taken along that path.  Before it aligns, a ``ValueError`` names a bundle
    without ``mel``, or one whose ``metrics`` grid or ``frame_pitch`` (if
    any) differs from its mel in frame count.
    """
    for side, b in (("ref", ref), ("syn", syn)):
        if b.mel is None:
            raise ValueError(f"build_report aligns the bundles by their mel, which the {side} bundle lacks")
        pitch_frames = None if b.frame_pitch is None else b.frame_pitch.f0.size
        for part, count in (("metrics", b.metrics.grid_frames), ("frame_pitch", pitch_frames)):
            if count not in (None, b.mel.n_frames):
                raise ValueError(f"the {side} bundle's {part} covers {count} frames, its mel {b.mel.n_frames}")
    path, _ = dtw_align(ref.mel.values.T, syn.mel.values.T)
    dist = mel_distances(ref.mel, syn.mel, path)
    has_pitch = ref.frame_pitch is not None and syn.frame_pitch is not None
    pm = pitch_metrics(ref.frame_pitch, syn.frame_pitch, path) if has_pitch else PitchMetrics(None, None, None)
    mae = metric_curve_mae(ref.metrics, syn.metrics, path)
    return ComparisonReport(*dist, *pm, *mae, *utterance_deltas(ref, syn))


def load_pitch_csv(path, hop: int = StftConfig.hop, sample_rate: int = PreprocessConfig.target_rate) -> PitchContour:
    """Read a pitch contour CSV with header ``time_s,f0_hz``.

    Every cell is a finite number, except that an f0 cell may be empty;
    rows whose cells are all blank are skipped.  Empty or non-positive f0
    cells mark unvoiced frames.  Frame times must start at 0 and be
    uniformly spaced at hop/sample_rate seconds (both within 1e-6 s).
    Every ``ValueError`` names the file, also for text that is not UTF-8.
    """
    times: list[float] = []
    f0: list[float] = []
    try:
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
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValueError(f"cannot parse pitch CSV {path!s}: {exc}") from exc
    if not times:
        raise ValueError(f"pitch CSV {path!s} has no rows")
    if abs(times[0]) > 1e-6:
        raise ValueError(f"pitch CSV {path!s} starts at {times[0]:g} s, not at 0")
    expected_dt = hop / sample_rate
    dt = np.diff(np.asarray(times))
    if dt.size and np.abs(dt - expected_dt).max() > 1e-6:
        raise ValueError(
            f"pitch CSV {path!s} frame times are not uniform at {expected_dt:.6f} s"
        )
    f0_arr = np.asarray(f0)
    voiced = f0_arr > 0
    return PitchContour(np.where(voiced, f0_arr, 0.0), voiced)
