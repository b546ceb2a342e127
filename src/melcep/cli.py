"""Batch evaluation front end.

Subcommands:

* features:     extract log-mel blobs and per-utterance metric CSVs.
* compare:      score reference/synthesis pairs and aggregate them.
* corpus-stats: compare two corpora measure-by-measure with p-values.
* synthlab:     run the degradation monotonicity property suite.

Manifests are CSV files with a header row; per-entry failures are logged and
never abort a batch.  Exit codes: 0 success, 1 usage or config error,
2 partial batch failure, 3 property failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import compare as cmp
from . import spectral, stats, synthlab
from .audio import PreprocessConfig, load_wav, preprocess
from .cepstral import mel_cepstrogram, quefrency_power
from .osmetrics import MetricConfig, utterance_metrics
from .spectral import MelConfig, StftConfig, log_mel

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARTIAL = 2
EXIT_PROPERTY = 3

MANIFEST_FIELDS = ("utterance_id", "ref_wav", "syn_wav", "f0_ref", "f0_syn", "token_count", "speaker_id")

# Aggregate row labels for the compare table, in report-field order.
AGGREGATE_MEASURES = (
    ("L1", "l1", 1.0),
    ("L2", "l2", 1.0),
    ("SConv", "sconv", 1.0),
    ("f0_RMSE/Hz", "f0_rmse", 1.0),
    ("Pearson r", "pearson_r", 1.0),
    ("E_V/UV", "vuv_error", 1.0),
    ("MAE(HQER)/%", "mae_hqer", 100.0),
    ("MAE(CSlope)/dB/bin", "mae_cslope", 1.0),
    ("MAE(CCentroid)/bin", "mae_ccentroid", 1.0),
    ("MAE(CRoll95)/bin", "mae_croll95", 1.0),
)


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class ManifestEntry:
    utterance_id: str
    ref_wav: str
    syn_wav: str | None = None
    f0_ref: str | None = None
    f0_syn: str | None = None
    token_count: int | None = None
    speaker_id: str | None = None


@dataclass(frozen=True)
class RunConfig:
    preprocess: PreprocessConfig
    stft: StftConfig
    mel: MelConfig
    metric: MetricConfig


def _parse_bool(value: str) -> bool:
    v = value.lower()
    if v in ("1", "true", "yes"):
        return True
    if v in ("0", "false", "no"):
        return False
    raise ValueError(f"expected 1/true/yes or 0/false/no, got {value!r}")


_CONFIG_KEYS = {
    "target_rate": ("preprocess", int),
    "silence_trim_ms": ("preprocess", float),
    "silence_threshold_db": ("preprocess", float),
    "highpass_hz": ("preprocess", float),
    "target_level_dbfs": ("preprocess", lambda v: None if v.lower() in ("none", "off") else float(v)),
    "cap_long_silence": ("preprocess", _parse_bool),
    "n_fft": ("stft", int),
    "win_length": ("stft", int),
    "hop": ("stft", int),
    "n_mels": ("mel", int),
    "f_min": ("mel", float),
    "f_max": ("mel", float),
    "clamp_floor": ("mel", float),
    "cutoff_q": ("metric", int),
    "eps": ("metric", float),
    "rolloff_fraction": ("metric", float),
    "soft_tau": ("metric", float),
}


def load_run_config(path=None, qc=None, eps=None) -> RunConfig:
    """Build the run configuration from an optional key=value file plus flag
    overrides (flags win)."""
    sections = {"preprocess": {}, "stft": {}, "mel": {}, "metric": {}}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise UsageError(f"cannot read config file: {exc}") from exc
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"config line {lineno}: expected key=value, got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise UsageError(f"config line {lineno}: unknown key {key!r}")
            section, conv = _CONFIG_KEYS[key]
            try:
                sections[section][key] = conv(value)
            except ValueError as exc:
                raise UsageError(f"config line {lineno}: bad value for {key}: {exc}") from exc
    if qc is not None:
        sections["metric"]["cutoff_q"] = qc
    if eps is not None:
        sections["metric"]["eps"] = eps
    try:
        run = RunConfig(
            preprocess=PreprocessConfig(**sections["preprocess"]),
            stft=StftConfig(**sections["stft"]),
            mel=MelConfig(**sections["mel"]),
            metric=MetricConfig(**sections["metric"]),
        )
        # the mel cepstrum has n_mels // 2 + 1 quefrency bins
        run.metric.resolve_cutoff(run.mel.n_mels // 2 + 1)
    except ValueError as exc:
        raise UsageError(f"invalid configuration: {exc}") from exc
    return run


def read_manifest(path) -> list[ManifestEntry]:
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read manifest: {exc}") from exc
    with fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise UsageError("empty manifest")
        unknown = set(reader.fieldnames) - set(MANIFEST_FIELDS)
        if unknown:
            raise UsageError(f"unknown manifest columns: {sorted(unknown)}")
        if "utterance_id" not in reader.fieldnames or "ref_wav" not in reader.fieldnames:
            raise UsageError("manifest must have utterance_id and ref_wav columns")
        entries = []
        for lineno, row in enumerate(reader, 2):
            def cell(name):
                value = (row.get(name) or "").strip()
                return value or None
            if cell("utterance_id") is None or cell("ref_wav") is None:
                raise UsageError(f"manifest line {lineno}: utterance_id and ref_wav are required")
            token = cell("token_count")
            if token is not None:
                try:
                    token = int(token)
                except ValueError:
                    raise UsageError(f"manifest line {lineno}: token_count must be an integer") from None
            if cell("f0_syn") is not None and cell("syn_wav") is None:
                raise UsageError(f"manifest line {lineno}: f0_syn given without syn_wav")
            entries.append(
                ManifestEntry(
                    utterance_id=cell("utterance_id"),
                    ref_wav=cell("ref_wav"),
                    syn_wav=cell("syn_wav"),
                    f0_ref=cell("f0_ref"),
                    f0_syn=cell("f0_syn"),
                    token_count=token,
                    speaker_id=cell("speaker_id"),
                )
            )
    if not entries:
        raise UsageError("empty manifest")
    ids = [e.utterance_id for e in entries]
    if len(set(ids)) != len(ids):
        raise UsageError("duplicate utterance_id in manifest")
    return sorted(entries, key=lambda e: e.utterance_id)


def _analyze(entry: ManifestEntry, wav_path, f0_path, run: RunConfig):
    """The per-wav pipeline of every subcommand: preprocess, log-mel,
    utterance metrics and, given a pitch CSV, the pitch contour."""
    wave = preprocess(load_wav(wav_path), run.preprocess)
    mel = log_mel(wave, run.stft, run.mel)
    metrics = utterance_metrics(quefrency_power(mel_cepstrogram(mel)), run.metric)
    pitch = None
    if f0_path is not None:
        pitch = cmp.load_pitch_csv(f0_path, hop=run.stft.hop, sample_rate=run.preprocess.target_rate)
    bundle = cmp.UtteranceBundle(
        duration_s=wave.duration_s,
        metrics=metrics,
        pitch=pitch,
        token_count=entry.token_count,
    )
    return mel, bundle


def _features_worker(payload) -> None:
    entry, run, out_dir = payload
    mel, bundle = _analyze(entry, entry.ref_wav, None, run)
    spectral.write_blob(mel, Path(out_dir) / f"{entry.utterance_id}.lmel")
    bundle.metrics.to_csv(Path(out_dir) / f"{entry.utterance_id}.metrics.csv")


def _compare_worker(payload) -> cmp.ComparisonReport:
    entry, run, out_dir = payload
    if entry.syn_wav is None:
        raise ValueError("entry has no syn_wav")
    ref_mel, ref_bundle = _analyze(entry, entry.ref_wav, entry.f0_ref, run)
    syn_mel, syn_bundle = _analyze(entry, entry.syn_wav, entry.f0_syn, run)
    report = cmp.build_report(ref_mel, syn_mel, ref_bundle, syn_bundle)
    path = Path(out_dir) / f"{entry.utterance_id}.report.json"
    path.write_text(report.to_json() + "\n", encoding="utf-8")
    return report


def _stats_worker(payload) -> stats.UtteranceStats:
    entry, run = payload
    _, bundle = _analyze(entry, entry.ref_wav, entry.f0_ref, run)
    return stats.UtteranceStats(
        utterance_id=entry.utterance_id,
        duration_s=bundle.duration_s,
        phonemes_per_utterance=entry.token_count,
        **bundle.measures(),
    )


def _message(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _guarded(worker, payload) -> tuple[str | None, object]:
    """(None, result) of one entry, or (error message, None) if it raised."""
    try:
        return None, worker(payload)
    except Exception as exc:
        return _message(exc), None


def _run_pool(worker, payloads, workers: int) -> list[tuple[str | None, object]]:
    """(error, result) per payload, in payload order.

    A worker process that dies (killed, ``os._exit``) breaks the pool: the
    entries that finished keep their results, and every other entry fails
    with the pool's error.  None is retried in this process, which the same
    entry could kill.
    """
    call = functools.partial(_guarded, worker)
    if workers <= 1 or len(payloads) <= 1:
        return [call(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(call, p) for p in payloads]
    # every future is done here; an exception in one is the pool's, not the entry's
    return [(_message(f.exception()), None) if f.exception() else f.result() for f in futures]


def _write_error_log(out_dir: Path, failures: list[tuple[str, ...]]) -> None:
    """One tab-separated line per failure (key fields, then the message), sorted."""
    if failures:
        lines = ["\t".join(failure) for failure in sorted(failures)]
        (out_dir / "errors.log").write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_features(args) -> int:
    run = load_run_config(args.config, args.qc, args.eps)
    entries = read_manifest(args.manifest)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = _run_pool(_features_worker, [(e, run, str(out_dir)) for e in entries], args.workers)
    failures = [(e.utterance_id, err) for e, (err, _) in zip(entries, results) if err is not None]
    _write_error_log(out_dir, failures)
    for utt, err in failures:
        print(f"error: {utt}: {err}", file=sys.stderr)
    return EXIT_PARTIAL if failures else EXIT_OK


def _aggregate_rows(reports) -> list[tuple[str, float | None, float | None, int]]:
    rows = []
    for label, field_name, scale in AGGREGATE_MEASURES:
        values = [getattr(r, field_name) for r in reports if getattr(r, field_name) is not None]
        if values:
            arr = np.asarray(values, dtype=np.float64) * scale
            rows.append((label, float(np.mean(arr)), float(np.std(arr)), len(values)))
        else:
            rows.append((label, None, None, 0))
    return rows


def cmd_compare(args) -> int:
    run = load_run_config(args.config, args.qc, args.eps)
    entries = read_manifest(args.manifest)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = _run_pool(_compare_worker, [(e, run, str(out_dir)) for e in entries], args.workers)
    failures = [(e.utterance_id, err) for e, (err, _) in zip(entries, results) if err is not None]
    reports = [report for err, report in results if err is None]
    _write_error_log(out_dir, failures)
    for utt, err in failures:
        print(f"error: {utt}: {err}", file=sys.stderr)

    lines = ["measure,mean,std,count"]
    for label, mean, std, count in _aggregate_rows(reports):
        if mean is None:
            lines.append(f"{label},,,0")
        else:
            lines.append(f"{label},{mean:.6g},{std:.6g},{count}")
    (out_dir / "aggregate.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return EXIT_PARTIAL if failures else EXIT_OK


def cmd_corpus_stats(args) -> int:
    run = load_run_config(args.config, args.qc, args.eps)
    manifests = (("a", read_manifest(args.manifest_a)), ("b", read_manifest(args.manifest_b)))
    labelled = [(label, entry) for label, entries in manifests for entry in entries]
    results = _run_pool(_stats_worker, [(entry, run) for _, entry in labelled], args.workers)
    corpora = {label: [] for label, _ in manifests}
    failures = []
    for (label, entry), (err, record) in zip(labelled, results):
        if err is None:
            corpora[label].append(record)
        else:
            failures.append((label, entry.utterance_id, err))
            print(f"error: {entry.utterance_id}: {err}", file=sys.stderr)
    out_dir = Path(args.out).parent
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_error_log(out_dir, failures)
    if not all(corpora.values()):
        print("error: no usable entries in one of the manifests", file=sys.stderr)
        return EXIT_PARTIAL

    summaries = [stats.summarize(corpus).measures for corpus in corpora.values()]
    lines = ["measure,mean_a,std_a,median_a,count_a,mean_b,std_b,median_b,count_b,p_value"]
    for name in stats.MEASURES:
        if not all(name in summary for summary in summaries):
            print(f"warning: measure {name} missing from a corpus; row omitted", file=sys.stderr)
            continue
        _, p = stats.mann_whitney_u(*(stats.measure_values(corpus, name) for corpus in corpora.values()))
        row = [name]
        for summary in summaries:
            m = summary[name]
            row += [f"{m.mean:.6g}", f"{m.std:.6g}", f"{m.median:.6g}", str(m.count)]
        lines.append(",".join(row + [f"{p:.6g}"]))
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return EXIT_PARTIAL if failures else EXIT_OK


def cmd_synthlab(args) -> int:
    series_fns = None
    if args.inject_fault:
        # negative control: a metric that grows under smoothing must trip the gate
        from .osmetrics import hqer_series

        def inverted_hqer(p, cfg=None):
            return 1.0 - hqer_series(p, cfg)

        series_fns = dict(synthlab._SERIES_FNS, hqer=inverted_hqer)
    report = synthlab.run_monotonicity_suite(
        n_spectrograms=args.spectrograms,
        seed=args.seed,
        series_fns=series_fns,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "monotonicity.csv").write_text(report.to_csv(), encoding="utf-8")
    prop_lines = []
    for res in report.results:
        status = "PASS" if res.passed else "FAIL"
        prop_lines.append(f"{status} monotonicity {res.kind} strength={res.strength:.6g}")
        print(prop_lines[-1])
    (out_dir / "properties.txt").write_text("\n".join(prop_lines) + "\n", encoding="utf-8")
    return EXIT_OK if report.passed else EXIT_PROPERTY


def _positive_int(value: str) -> int:
    """argparse type of the count flags: an integer of at least 1."""
    try:
        count = int(value)
    except ValueError:
        count = 0
    if count < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {value!r}")
    return count


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="melcep", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, manifest=True):
        if manifest:
            p.add_argument("--manifest", required=True, help="manifest CSV path")
        p.add_argument("--out", required=True, help="output directory or file")
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--workers", type=_positive_int, default=1, help="parallel worker processes")
        p.add_argument("--qc", type=int, default=None, help="metric cutoff quefrency override")
        p.add_argument("--eps", type=float, default=None, help="metric epsilon override")

    add_common(sub.add_parser("features", help="extract log-mel blobs and metric CSVs"))
    add_common(sub.add_parser("compare", help="score reference/synthesis pairs"))

    p_stats = sub.add_parser("corpus-stats", help="compare two corpora with p-values")
    p_stats.add_argument("--manifest-a", required=True)
    p_stats.add_argument("--manifest-b", required=True)
    add_common(p_stats, manifest=False)

    p_lab = sub.add_parser("synthlab", help="run the degradation monotonicity suite")
    p_lab.add_argument("--out", required=True)
    p_lab.add_argument("--spectrograms", type=_positive_int, default=100)
    p_lab.add_argument("--seed", type=int, default=synthlab.DEFAULT_SEED)
    p_lab.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "features":
            return cmd_features(args)
        if args.command == "compare":
            return cmd_compare(args)
        if args.command == "corpus-stats":
            return cmd_corpus_stats(args)
        return cmd_synthlab(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
