"""The bench's layer tracer still sees every stage of the analysis.

``bench/layertrace.py`` times a stage by rebinding its name in the module
that calls it, most of them in ``melcep.cli``.  A stage renamed away there
fails a traced bench run; a call that bypasses cli's global makes its layer
read 0 without any error.  The bench's own smoke test checks only the metric
names, so this test checks the spans.  The tracer is imported from its file,
which nothing here edits.
"""

import importlib.util
from pathlib import Path

from melcep import audio, cli, compare, osmetrics, spectral, stats

from conftest import SR, speechlike, write_wav_bytes

LAYERTRACE = Path(__file__).resolve().parents[1] / "bench" / "layertrace.py"
MEL_SPANS = ["cepstral.mel_cepstrogram", "cepstral.quefrency_power", "osmetrics.utterance_metrics"]
WAV_SPANS = ["audio.load_wav", "audio.preprocess", "spectral.log_mel", *MEL_SPANS]


def _tracer():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def _top_level_spans(tracer, start: int) -> list[str]:
    return [name for name, _, _, parent, _, _ in tracer.spans[start:] if parent is None]


def test_tracer_sees_each_stage_of_analyze_and_analyze_mel(tmp_path, rng):
    wav = tmp_path / "utt.wav"
    write_wav_bytes(wav, speechlike(rng, 0.5), SR)
    owners = (audio, cli, compare, osmetrics, spectral, stats, osmetrics.UtteranceMetrics)
    before = [dict(vars(owner)) for owner in owners]
    tracer = _tracer()
    tracer.install()
    try:
        bundle = cli.analyze(wav)
        assert _top_level_spans(tracer, 0) == WAV_SPANS
        start = len(tracer.spans)
        cli.analyze_mel(bundle.mel, bundle.duration_s)
        assert _top_level_spans(tracer, start) == MEL_SPANS
    finally:
        tracer.uninstall()
    for owner, attrs in zip(owners, before):
        now = vars(owner)
        assert now.keys() == attrs.keys() and all(now[name] is value for name, value in attrs.items()), owner
