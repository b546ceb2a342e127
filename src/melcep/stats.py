"""Corpus-level descriptive statistics and the Mann-Whitney U test.

The summary table mirrors the usual corpus-comparison layout: one row per
measure (duration, phonemes per utterance, speaking rate, pitch mean and
std, and the four oversmoothing metrics), reported as mean, std, median and
count.  Two corpora are compared measure-by-measure with a two-sided
Mann-Whitney U test.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .osmetrics import METRIC_NAMES

# The rows of the corpus-stats table, in order.
MEASURES = ("duration_s", "phonemes_per_utterance", "spr", "mu_f0", "sigma_f0", *METRIC_NAMES)

# Largest combined sample size handled by exact enumeration (untied samples).
EXACT_MAX_N = 12

# Per-utterance measures entering a corpus summary; None marks missing.
UtteranceStats = namedtuple("UtteranceStats", ("utterance_id", *MEASURES), defaults=(None,) * len(MEASURES))


@dataclass
class MeasureSummary:
    mean: float
    std: float
    median: float
    count: int


@dataclass
class CorpusSummary:
    measures: dict[str, MeasureSummary] = field(default_factory=dict)


def measure_values(records, name: str) -> np.ndarray:
    """The non-None values of field ``name`` over the records, as float64."""
    vals = [getattr(u, name) for u in records if getattr(u, name) is not None]
    return np.asarray(vals, dtype=np.float64)


def _median(values: np.ndarray) -> float:
    """``np.median`` of a non-empty 1-D float array, bit for bit: the middle
    sorted value, or the mean of the two middle ones; NaN if any value is NaN.
    Like ``np.mean``'s sum, it starts from +0.0, so a median of -0.0 reads 0.0.

    ``np.median`` imports ``numpy.ma`` on its first call, which costs more
    than all of a small summary.
    """
    ordered = np.sort(values)
    if np.isnan(ordered[-1]):
        return math.nan
    mid = ordered.size // 2
    if ordered.size % 2:
        return float(ordered[mid]) + 0.0
    return (float(ordered[mid - 1]) + float(ordered[mid]) + 0.0) / 2.0


def summarize_values(values: np.ndarray) -> MeasureSummary | None:
    """Mean, population std (divisor N), median and count; None when empty."""
    if values.size == 0:
        return None
    return MeasureSummary(mean=float(np.mean(values)), std=float(np.std(values)),
                          median=_median(values), count=values.size)


def summarize(corpus: list[UtteranceStats]) -> CorpusSummary:
    """Per-measure ``summarize_values`` over the utterances that have the measure."""
    if not corpus:
        raise ValueError("empty corpus")
    measures = {name: summarize_values(measure_values(corpus, name)) for name in MEASURES}
    return CorpusSummary({name: m for name, m in measures.items() if m is not None})


def _midranks(a: np.ndarray) -> np.ndarray:
    """Ranks from 1, ties sharing their mean rank; all NaN if any value is
    NaN.  ``scipy.stats.rankdata(a)`` bit for bit."""
    if np.isnan(a).any():
        return np.full(a.size, np.nan)
    order = np.argsort(a, kind="stable")
    ordered = a[order]
    first = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    counts = np.diff(first, append=a.size)
    ranks = np.empty(a.size)
    ranks[order] = np.repeat(first + 1 + (counts - 1) / 2, counts)
    return ranks


def _u_statistic(x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """U for x (count of (x, y) pairs with x > y, ties counted half)."""
    n1 = x.size
    ranked = _midranks(np.concatenate([x, y]))
    r1 = ranked[:n1].sum()
    return r1 - n1 * (n1 + 1) / 2.0, ranked

def exact_u_counts(n1: int, n2: int) -> np.ndarray:
    """Null distribution of U: counts[u] = number of rank assignments with U = u.

    Built by dynamic programming over the ranks: c[j][u] counts the ways to
    pick j of the first i ranks so that the chosen ranks exceed u = sum - j(j+1)/2
    smaller unchosen ones.
    """
    total_u = n1 * n2
    counts = np.zeros((n1 + 1, total_u + 1), dtype=np.float64)
    counts[0, 0] = 1.0
    for i in range(1, n1 + n2 + 1):
        for j in range(min(i, n1), 0, -1):
            # picking rank i as the j-th chosen item adds i - j to U
            add = i - j
            counts[j, add:] += counts[j - 1, : total_u + 1 - add]
    return counts[n1]


def exact_p(u: float, n1: int, n2: int) -> float:
    """Two-sided exact p: probability of a U at least as extreme as observed."""
    counts = exact_u_counts(n1, n2)
    total = counts.sum()
    lo = min(u, n1 * n2 - u)
    hi = n1 * n2 - lo
    u_values = np.arange(counts.size)
    p = (counts[u_values <= lo].sum() + counts[u_values >= hi].sum()) / total
    return min(1.0, float(p))


def normal_p(u: float, n1: int, n2: int, ranked: np.ndarray) -> float:
    """Two-sided normal approximation with tie-corrected variance and
    continuity correction 0.5 (deviations smaller than the correction are
    treated as zero)."""
    n = n1 + n2
    _, tie_counts = np.unique(ranked, return_counts=True)
    tie_term = float(np.sum(tie_counts**3 - tie_counts))
    t_factor = 1.0 - tie_term / (n**3 - n)
    if t_factor <= 0.0:
        return 1.0
    sd = math.sqrt(t_factor * n1 * n2 * (n + 1) / 12.0)
    z = max(0.0, abs(u - n1 * n2 / 2.0) - 0.5) / sd
    return math.erfc(z / math.sqrt(2.0))


def mann_whitney_u(x, y) -> tuple[float, float]:
    """Mann-Whitney U statistic and two-sided p-value.

    U counts the (x, y) pairs with x above y (midranks for ties).  The
    p-value comes from exact enumeration of the null U distribution when the
    combined sample has at most 12 untied values, and otherwise from the
    tie-corrected normal approximation with continuity correction.  When all
    values are identical the p-value is 1 by convention.  NaN has no rank and
    raises ``ValueError``; infinities rank as usual.

    Returns
    -------
    (U, p)
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n1, n2 = x.size, y.size
    if n1 < 1 or n2 < 1:
        raise ValueError("both samples must be non-empty")
    if np.isnan(x).any() or np.isnan(y).any():
        raise ValueError("NaN in a sample: the test is undefined")
    u, ranked = _u_statistic(x, y)
    # equal values share a midrank, and distinct values never do; unlike a
    # plain np.unique, one with return_counts leaves numpy.ma unimported
    distinct, _ = np.unique(ranked, return_counts=True)
    has_ties = distinct.size < ranked.size
    if not has_ties and n1 + n2 <= EXACT_MAX_N:
        return float(u), exact_p(u, n1, n2)
    return float(u), normal_p(u, n1, n2, ranked)
