"""The bench's layer tracer still sees every stage of the analysis.

``bench/layertrace.py`` times a stage by rebinding its name in the module
that calls it, most of them in ``melcep.cli``.  A stage renamed away there
fails a traced bench run; a call that bypasses cli's global makes its layer
read 0 without any error.  The bench's own smoke test checks only the metric
names, so this test checks the spans.  The tracer is imported from its file,
which nothing here edits.
"""

import contextlib
import importlib.util
from pathlib import Path

from melcep import audio, cli, compare, osmetrics, spectral, stats

from conftest import SR, speechlike, write_wav_bytes

LAYERTRACE = Path(__file__).resolve().parents[1] / "bench" / "layertrace.py"
MEL_SPANS = ["cepstral.mel_cepstrogram", "cepstral.quefrency_power", "osmetrics.utterance_metrics"]
WAV_SPANS = ["audio.load_wav", "audio.preprocess", "spectral.log_mel", *MEL_SPANS]
# every object whose attributes the tracer rebinds
OWNERS = (audio, cli, compare, osmetrics, spectral, stats, osmetrics.UtteranceMetrics)


def _tracer():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def _top_level_spans(tracer, start: int) -> list[str]:
    return [name for name, _, _, parent, _, _ in tracer.spans[start:] if parent is None]


@contextlib.contextmanager
def _installed():
    """A tracer installed for the block; after it, every attribute it rebound is the original again."""
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = _tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()
    for owner, attrs in zip(OWNERS, before):
        now = vars(owner)
        assert now.keys() == attrs.keys() and all(now[name] is value for name, value in attrs.items()), owner


def test_tracer_sees_each_stage_of_analyze_and_analyze_mel(tmp_path, rng):
    wav = tmp_path / "utt.wav"
    write_wav_bytes(wav, speechlike(rng, 0.5), SR)
    with _installed() as tracer:
        bundle = cli.analyze(wav)
        assert _top_level_spans(tracer, 0) == WAV_SPANS
        start = len(tracer.spans)
        cli.analyze_mel(bundle.mel, bundle.duration_s)
        assert _top_level_spans(tracer, start) == MEL_SPANS


def test_tracer_sees_one_u_test_per_corpus_stats_row(tmp_path, rng):
    """The table function calls ``mann_whitney_u`` through the stats module's
    global, which the tracer rebinds; a row left out runs no test."""
    manifests = []
    for side in "ab":
        lines = ["utterance_id,ref_wav,token_count"]
        for k in range(2):
            wav = tmp_path / f"{side}{k}.wav"
            write_wav_bytes(wav, speechlike(rng, 0.4 + 0.1 * k), SR)
            lines.append(f"{side}{k},{wav},{12 + k if side == 'a' else ''}")  # no token counts in b
        manifests.append(tmp_path / f"{side}.csv")
        manifests[-1].write_text("\n".join(lines) + "\n")
    out = tmp_path / "stats.csv"
    with _installed() as tracer:
        argv = ["corpus-stats", "--manifest-a", str(manifests[0]), "--manifest-b", str(manifests[1]), "--out", str(out)]
        assert cli.main(argv) == 0
    rows = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
    assert rows == ["duration_s", "hqer", "cslope", "ccentroid", "croll95"]
    assert [span[0] for span in tracer.spans].count("stats.mann_whitney_u") == len(rows)
