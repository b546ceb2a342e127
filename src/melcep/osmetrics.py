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

from dataclasses import dataclass, field

import numpy as np

from .cepstral import QuefrencyPower

METRIC_NAMES = ("hqer", "cslope", "ccentroid", "croll95")


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
    rolloff_fraction: float = 0.95
    soft_tau: float = 50.0

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if not 0.0 < self.rolloff_fraction < 1.0:
            raise ValueError("rolloff_fraction must be in (0, 1)")
        if self.soft_tau < 0:
            raise ValueError("soft_tau must be non-negative")

    def resolve_cutoff(self, n_quefrencies: int) -> int:
        qc = self.cutoff_q if self.cutoff_q is not None else int(0.25 * n_quefrencies)
        if not 1 <= qc <= n_quefrencies:
            raise ValueError(f"cutoff_q must be in [1, {n_quefrencies}]")
        return qc


@dataclass
class UtteranceMetrics:
    """Framewise metric series over the non-degenerate frames of an utterance."""

    frame_indices: np.ndarray
    hqer: np.ndarray
    cslope: np.ndarray
    ccentroid: np.ndarray
    croll95: np.ndarray
    means: dict = field(default_factory=dict)
    stds: dict = field(default_factory=dict)

    @property
    def n_frames(self) -> int:
        return self.frame_indices.size

    def as_matrix(self) -> np.ndarray:
        """Frames x 4 matrix in METRIC_NAMES order, for curve alignment."""
        return np.stack([self.hqer, self.cslope, self.ccentroid, self.croll95.astype(float)], axis=1)

    def to_csv(self, path) -> None:
        columns = (self.frame_indices, self.hqer, self.cslope, self.ccentroid, self.croll95)
        rows = zip(*(column.tolist() for column in columns))
        lines = [f"{int(i)},{h:.6g},{s:.6g},{c:.6g},{int(r)}\n" for i, h, s, c, r in rows]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("frame_index,hqer,cslope,ccentroid,croll95\n" + "".join(lines))


def _power_matrix(p) -> np.ndarray:
    power = p.power if isinstance(p, QuefrencyPower) else np.asarray(p, dtype=np.float64)
    if power.ndim == 1:
        power = power[:, None]
    return power


def hqer_series(p, cfg: MetricConfig | None = None) -> np.ndarray:
    """High-quefrency energy ratio per frame; NaN where the frame is degenerate."""
    cfg = cfg or MetricConfig()
    power = _power_matrix(p)
    qc = cfg.resolve_cutoff(power.shape[0])
    tail = power[1:, :]
    total = tail.sum(axis=0)
    high = power[qc:, :].sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(total > 0, high / total, np.nan)


def cslope_series(p, cfg: MetricConfig | None = None) -> np.ndarray:
    """Least-squares slope of 10*log10(P + eps) against q over q = 1..Q-1."""
    cfg = cfg or MetricConfig()
    power = _power_matrix(p)
    n_q = power.shape[0]
    if n_q < 3:
        raise ValueError("need at least 3 quefrency bins for a slope")
    q = np.arange(1, n_q, dtype=np.float64)
    y = 10.0 * np.log10(power[1:, :] + cfg.eps)
    qc = q - q.mean()
    return (qc[:, None] * (y - y.mean(axis=0, keepdims=True))).sum(axis=0) / np.square(qc).sum()


def ccentroid_series(p, cfg: MetricConfig | None = None) -> np.ndarray:
    """Energy-weighted mean quefrency per frame; NaN where degenerate."""
    power = _power_matrix(p)
    q = np.arange(1, power.shape[0], dtype=np.float64)
    tail = power[1:, :]
    total = tail.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(total > 0, (q[:, None] * tail).sum(axis=0) / total, np.nan)


def croll95_series(p, cfg: MetricConfig | None = None) -> np.ndarray:
    """Smallest q whose cumulative power fraction reaches the rolloff fraction."""
    cfg = cfg or MetricConfig()
    power = _power_matrix(p)
    tail = power[1:, :]
    total = tail.sum(axis=0)
    out = np.full(power.shape[1], np.nan)
    ok = total > 0
    if ok.any():
        frac = np.cumsum(tail[:, ok], axis=0) / total[ok]
        out[ok] = np.argmax(frac >= cfg.rolloff_fraction, axis=0) + 1
    return out


def croll95_soft_series(p, cfg: MetricConfig | None = None) -> np.ndarray:
    """Soft-quantile rolloff surrogate.

    Weights each quefrency by softmax(-tau * |F(q) - fraction|) over
    q = 1..Q-1, where F is the cumulative power fraction; tau = 0 gives the
    unweighted mean of q, large tau approaches the hard rolloff up to ties on
    the plateau where F has already reached 1.
    """
    cfg = cfg or MetricConfig()
    power = _power_matrix(p)
    q = np.arange(1, power.shape[0], dtype=np.float64)
    tail = power[1:, :]
    total = tail.sum(axis=0)
    out = np.full(power.shape[1], np.nan)
    ok = total > 0
    if ok.any():
        frac = np.cumsum(tail[:, ok], axis=0) / total[ok]
        logits = -cfg.soft_tau * np.abs(frac - cfg.rolloff_fraction)
        logits -= logits.max(axis=0, keepdims=True)
        weights = np.exp(logits)
        weights /= weights.sum(axis=0, keepdims=True)
        out[ok] = (q[:, None] * weights).sum(axis=0)
    return out


def _scalar(series_fn, p, cfg) -> float:
    value = series_fn(np.asarray(p, dtype=np.float64)[:, None], cfg)[0]
    if np.isnan(value):
        raise DegenerateFrameError("frame has no quefrency power above DC")
    return float(value)


def hqer(p, cfg: MetricConfig | None = None) -> float:
    return _scalar(hqer_series, p, cfg)


def cslope(p, cfg: MetricConfig | None = None) -> float:
    return float(cslope_series(np.asarray(p, dtype=np.float64)[:, None], cfg)[0])


def ccentroid(p, cfg: MetricConfig | None = None) -> float:
    return _scalar(ccentroid_series, p, cfg)


def croll95(p, cfg: MetricConfig | None = None) -> int:
    return int(_scalar(croll95_series, p, cfg))


def croll95_soft(p, cfg: MetricConfig | None = None) -> float:
    return _scalar(croll95_soft_series, p, cfg)


def utterance_metrics(p: QuefrencyPower, cfg: MetricConfig | None = None) -> UtteranceMetrics:
    """Framewise series over non-degenerate frames plus utterance mean and std.

    Degenerate (silent) frames are excluded from the series and from the
    aggregates; the std is the population standard deviation.
    """
    cfg = cfg or MetricConfig()
    keep = ~p.degenerate & (p.power[1:, :].sum(axis=0) > 0)
    if not keep.any():
        raise DegenerateFrameError("all frames degenerate")
    power = p.power[:, keep]
    um = UtteranceMetrics(
        frame_indices=np.flatnonzero(keep),
        hqer=hqer_series(power, cfg),
        cslope=cslope_series(power, cfg),
        ccentroid=ccentroid_series(power, cfg),
        croll95=croll95_series(power, cfg).astype(int),
    )
    for name in METRIC_NAMES:
        series = getattr(um, name)
        um.means[name] = float(np.mean(series))
        um.stds[name] = float(np.std(series))
    return um
