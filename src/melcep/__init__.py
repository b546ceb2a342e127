"""Cepstral-domain oversmoothing metrics for mel-spectrogram TTS evaluation."""

from .audio import PreprocessConfig, SilentSignalError, Waveform, load_wav, preprocess
from .cepstral import MelCepstrogram, QuefrencyPower, mel_cepstrogram, quefrency_power
from .compare import (
    ComparisonReport,
    DtwPath,
    PitchContour,
    UtteranceBundle,
    build_report,
    dtw_align,
    load_pitch_csv,
    mel_distances,
    metric_curve_mae,
    pitch_metrics,
    utterance_deltas,
)
from .osmetrics import (
    DegenerateFrameError,
    MetricConfig,
    UtteranceMetrics,
    ccentroid,
    croll95,
    croll95_soft,
    cslope,
    hqer,
    utterance_metrics,
)
from .spectral import (
    LogMelSpectrogram,
    MelConfig,
    StftConfig,
    log_mel,
    mel_filterbank,
    read_blob,
    stft,
    write_blob,
)
from .stats import CorpusSummary, UtteranceStats, mann_whitney_u, summarize
from .synthlab import DegradationSpec, degrade, run_monotonicity_suite, synth_harmonic_spectrogram

__version__ = "0.1.0"
