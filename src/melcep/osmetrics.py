"""Cepstral oversmoothing metrics, framewise and utterance-aggregated.

All four metrics work on the quefrency power of one frame, always excluding
the DC bin (q = 0):

* high-quefrency energy ratio: share of power at or above a cutoff quefrency
  (reported in percent when tabulated);
* cepstral slope: least-squares slope of the dB power versus quefrency;
* cepstral centroid: energy-weighted mean quefrency;
* 95% rolloff: smallest quefrency accumulating 95% of the power, plus a
  differentiable soft-quantile surrogate.

Lower values of all four indicate stronger oversmoothing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .cepstral import QuefrencyPower


# The cumulative power fraction whose quefrency CRoll95 reports.
ROLLOFF_FRACTION = 0.95


class DegenerateFrameError(ValueError):
    """Raised when a frame carries no quefrency power above DC."""


@dataclass(frozen=True)
class MetricConfig:
    """Shared metric parameters.

    ``cutoff_q`` defaults to floor(0.25 * Q) when left as None, resolved
    against the actual quefrency count at call time.
    """

    cutoff_q: int | None = None
    eps: float = 1e-10
    soft_tau: float = 50.0

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.soft_tau < 0:
            raise ValueError("soft_tau must be non-negative")

    def resolve_cutoff(self, n_quefrencies: int) -> int:
        qc = self.cutoff_q if self.cutoff_q is not None else int(0.25 * n_quefrencies)
        if not 1 <= qc <= n_quefrencies:
            raise ValueError(f"cutoff_q must be in [1, {n_quefrencies}]")
        return qc


def hqer_series(p, cfg: MetricConfig = MetricConfig()) -> np.ndarray:
    """High-quefrency energy ratio per frame; every frame needs power above DC."""
    power = np.asarray(p, dtype=np.float64)
    qc = cfg.resolve_cutoff(power.shape[0])
    return power[qc:].sum(axis=0) / power[1:].sum(axis=0)


def cslope_series(p, cfg: MetricConfig = MetricConfig()) -> np.ndarray:
    """Least-squares slope of 10*log10(P + eps) against q over q = 1..Q-1."""
    power = np.asarray(p, dtype=np.float64)
    n_q = power.shape[0]
    if n_q < 3:
        raise ValueError("need at least 3 quefrency bins for a slope")
    q = np.arange(1, n_q, dtype=np.float64)
    y = 10.0 * np.log10(power[1:, :] + cfg.eps)
    qc = q - q.mean()
    return (qc[:, None] * (y - y.mean(axis=0, keepdims=True))).sum(axis=0) / np.square(qc).sum()


def ccentroid_series(p, cfg: MetricConfig = MetricConfig()) -> np.ndarray:
    """Energy-weighted mean quefrency per frame; every frame needs power above DC."""
    tail = np.asarray(p, dtype=np.float64)[1:]
    q = np.arange(1, tail.shape[0] + 1, dtype=np.float64)
    return (q[:, None] * tail).sum(axis=0) / tail.sum(axis=0)


def croll95_series(p, cfg: MetricConfig = MetricConfig()) -> np.ndarray:
    """Smallest integer q whose cumulative power fraction reaches
    ``ROLLOFF_FRACTION``; every frame needs power above DC."""
    tail = np.asarray(p, dtype=np.float64)[1:]
    frac = np.cumsum(tail, axis=0) / tail.sum(axis=0)
    return np.argmax(frac >= ROLLOFF_FRACTION, axis=0) + 1


def croll95_soft_series(p, cfg: MetricConfig = MetricConfig()) -> np.ndarray:
    """Soft-quantile rolloff surrogate; every frame needs power above DC.

    Weights each quefrency by softmax(-tau * |F(q) - ROLLOFF_FRACTION|) over
    q = 1..Q-1, where F is the cumulative power fraction; tau = 0 gives the
    unweighted mean of q, large tau approaches the hard rolloff up to ties on
    the plateau where F has already reached 1.
    """
    tail = np.asarray(p, dtype=np.float64)[1:]
    frac = np.cumsum(tail, axis=0) / tail.sum(axis=0)
    q = np.arange(1, tail.shape[0] + 1, dtype=np.float64)
    logits = -cfg.soft_tau * np.abs(frac - ROLLOFF_FRACTION)
    logits -= logits.max(axis=0, keepdims=True)
    weights = np.exp(logits)
    weights /= weights.sum(axis=0, keepdims=True)
    return (q[:, None] * weights).sum(axis=0)


SERIES = {
    "hqer": hqer_series,
    "cslope": cslope_series,
    "ccentroid": ccentroid_series,
    "croll95": croll95_series,
}
METRIC_NAMES = tuple(SERIES)
# Each metric's name, unit and scale in tabulated output (aggregate.csv).
METRIC_LABELS = {
    "hqer": ("HQER", "%", 100.0),
    "cslope": ("CSlope", "dB/bin", 1.0),
    "ccentroid": ("CCentroid", "bin", 1.0),
    "croll95": ("CRoll95", "bin", 1.0),
}


class UtteranceMetrics:
    """Framewise metric series over the non-degenerate frames of an utterance:
    ``frame_indices`` and one array per ``SERIES`` metric, named after it."""

    def __init__(self, frame_indices: np.ndarray, **series: np.ndarray):
        self.frame_indices = frame_indices
        for name in METRIC_NAMES:
            setattr(self, name, series[name])

    @property
    def n_frames(self) -> int:
        return self.frame_indices.size

    @property
    def means(self) -> dict[str, float]:
        """Each metric's utterance mean, from the series as they are now."""
        return {name: float(np.mean(getattr(self, name))) for name in METRIC_NAMES}

    def as_matrix(self) -> np.ndarray:
        """Frames x metrics float matrix in METRIC_NAMES order, as ``metric_curve_mae`` scores it."""
        return np.stack([getattr(self, name) for name in METRIC_NAMES], axis=1).astype(np.float64, copy=False)

    def to_csv(self, path) -> None:
        columns = [self.frame_indices] + [getattr(self, name) for name in METRIC_NAMES]
        # integer columns (frame index, rolloff bin) are written as integers
        row = ",".join("%d" if column.dtype.kind in "iu" else "%.6g" for column in columns) + "\n"
        values = itertools.chain.from_iterable(zip(*(column.tolist() for column in columns)))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(("frame_index",) + METRIC_NAMES) + "\n" + row * self.n_frames % tuple(values))


def usable_frames(qp: QuefrencyPower) -> np.ndarray:
    """Frames the metrics are taken over: not degenerate, with power above DC."""
    return ~qp.degenerate & (qp.power[1:].sum(axis=0) > 0)


def _scalar(series_fn, p, cfg):
    power = np.asarray(p, dtype=np.float64)[:, None]
    if not power[1:].sum() > 0:  # the power test of usable_frames
        raise DegenerateFrameError("frame has no quefrency power above DC")
    return series_fn(power, cfg)[0].item()


def hqer(p, cfg: MetricConfig = MetricConfig()) -> float:
    return _scalar(hqer_series, p, cfg)


def cslope(p, cfg: MetricConfig = MetricConfig()) -> float:
    return _scalar(cslope_series, p, cfg)


def ccentroid(p, cfg: MetricConfig = MetricConfig()) -> float:
    return _scalar(ccentroid_series, p, cfg)


def croll95(p, cfg: MetricConfig = MetricConfig()) -> int:
    return _scalar(croll95_series, p, cfg)


def croll95_soft(p, cfg: MetricConfig = MetricConfig()) -> float:
    return _scalar(croll95_soft_series, p, cfg)


def utterance_metrics(p: QuefrencyPower, cfg: MetricConfig = MetricConfig()) -> UtteranceMetrics:
    """Framewise series over the ``usable_frames``."""
    keep = usable_frames(p)
    if not keep.any():
        raise DegenerateFrameError("all frames degenerate")
    power = p.power[:, keep]
    return UtteranceMetrics(np.flatnonzero(keep), **{name: fn(power, cfg) for name, fn in SERIES.items()})
