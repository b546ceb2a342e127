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
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

from . import compare as cmp
from . import spectral, stats, synthlab
from .audio import PreprocessConfig, load_wav, preprocess
from .cepstral import mel_cepstrogram, quefrency_power
from .osmetrics import METRIC_LABELS, METRIC_NAMES, SERIES, MetricConfig, utterance_metrics
from .spectral import MelConfig, StftConfig, log_mel

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARTIAL = 2
EXIT_PROPERTY = 3

# Aggregate row labels for the compare table, in report-field order.
AGGREGATE_MEASURES = (
    ("L1", "l1", 1.0),
    ("L2", "l2", 1.0),
    ("SConv", "sconv", 1.0),
    ("f0_RMSE/Hz", "f0_rmse", 1.0),
    ("Pearson r", "pearson_r", 1.0),
    ("E_V/UV", "vuv_error", 1.0),
    *((f"MAE({label})/{unit}", f"mae_{name}", scale)
      for name in METRIC_NAMES for label, unit, scale in [METRIC_LABELS[name]]),
)


class UsageError(Exception):
    pass


def _keep_freed_heap() -> None:
    """Keep the heap that one utterance frees for the next, under glibc.

    glibc sets its mmap and trim thresholds from the largest recent free.
    For short utterances that is about 0.5 MB, so each utterance's 1-2 MB
    of temporaries would go back to the kernel and be faulted in again by
    the next one.  Fixed thresholds, which also stop that adjustment, keep
    them in the heap until the process exits.  Set before the worker pool
    forks, so the workers inherit it.  A no-op where glibc's mallopt is
    absent (macOS, Windows, musl).
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        import ctypes

        mallopt = ctypes.CDLL(None).mallopt
    except (ImportError, OSError, AttributeError, ValueError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD


@dataclass(frozen=True)
class ManifestEntry:
    utterance_id: str
    ref_wav: str
    syn_wav: str | None = None
    f0_ref: str | None = None
    f0_syn: str | None = None
    token_count: int | None = None
    speaker_id: str | None = None


MANIFEST_FIELDS = tuple(f.name for f in fields(ManifestEntry))


@dataclass(frozen=True)
class RunConfig:
    preprocess: PreprocessConfig = PreprocessConfig()
    stft: StftConfig = StftConfig()
    mel: MelConfig = MelConfig()
    metric: MetricConfig = MetricConfig()

    def __post_init__(self):
        # the mel cepstrum has n_mels // 2 + 1 quefrency bins
        self.metric.resolve_cutoff(self.mel.n_mels // 2 + 1)
        # not mel_filterbank: its 300 kB freed here gave forked workers a third more page faults
        spectral.mel_band_edges(self.mel, self.preprocess.target_rate, self.stft.n_fft)


def _parse_bool(value: str) -> bool:
    v = value.lower()
    if v in ("1", "true", "yes"):
        return True
    if v in ("0", "false", "no"):
        return False
    raise ValueError(f"expected 1/true/yes or 0/false/no, got {value!r}")


def _finite_float(value: str) -> float:
    """Type of every float config key and of ``--eps``: a number, not NaN or inf."""
    try:
        number = float(value)
    except ValueError:
        number = math.nan
    if not math.isfinite(number):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {value!r}")
    return number


# Config file key -> (RunConfig section, parser of the field's annotation), for
# every section field but soft_tau, which only the library function croll95_soft
# reads.  cutoff_q's None (a quarter of the quefrencies) has no spelling in a file.
_PARSERS = {
    "int": int,
    "int | None": int,
    "float": _finite_float,
    "float | None": lambda v: None if v.lower() in ("none", "off") else _finite_float(v),
    "bool": _parse_bool,
}
_CONFIG_KEYS = {
    f.name: (section.name, _PARSERS[f.type])
    for section in fields(RunConfig)
    for f in fields(section.default)
    if f.name != "soft_tau"
}


def load_run_config(path=None, qc=None, eps=None) -> RunConfig:
    """Build the run configuration from an optional key=value file plus flag
    overrides (flags win)."""
    sections = {section.name: {} for section in fields(RunConfig)}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8-sig")
        except (OSError, UnicodeDecodeError) as exc:
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
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise UsageError(f"config line {lineno}: bad value for {key}: {exc}") from exc
    if qc is not None:
        sections["metric"]["cutoff_q"] = qc
    if eps is not None:
        sections["metric"]["eps"] = eps
    try:
        return RunConfig(**{f.name: replace(f.default, **sections[f.name]) for f in fields(RunConfig)})
    except ValueError as exc:
        raise UsageError(f"invalid configuration: {exc}") from exc


def read_manifest(path) -> list[ManifestEntry]:
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.DictReader(fh)
            fieldnames, rows = reader.fieldnames, [(reader.line_num, row) for row in reader]
    except OSError as exc:
        raise UsageError(f"cannot read manifest: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise UsageError(f"cannot parse manifest: {exc}") from exc
    if fieldnames is None:
        raise UsageError("empty manifest")
    unknown = set(fieldnames) - set(MANIFEST_FIELDS)
    if unknown:
        raise UsageError(f"unknown manifest columns: {sorted(unknown)}")
    if repeated := [name for name in MANIFEST_FIELDS if fieldnames.count(name) > 1]:
        raise UsageError(f"manifest columns named more than once: {repeated}")
    if "utterance_id" not in fieldnames or "ref_wav" not in fieldnames:
        raise UsageError("manifest must have utterance_id and ref_wav columns")
    entries = []
    for lineno, row in rows:
        # DictReader files the cells past the header under the key None
        if any(extra.strip() for extra in row.get(None, ())):
            raise UsageError(f"manifest line {lineno}: more cells than header columns")
        cells = {name: (row.get(name) or "").strip() or None for name in MANIFEST_FIELDS}
        if cells["utterance_id"] is None or cells["ref_wav"] is None:
            raise UsageError(f"manifest line {lineno}: utterance_id and ref_wav are required")
        if cells["token_count"] is not None:
            try:
                cells["token_count"] = int(cells["token_count"])
            except ValueError:
                cells["token_count"] = -1
            if cells["token_count"] < 0:
                raise UsageError(f"manifest line {lineno}: token_count must be a non-negative integer")
        if cells["f0_syn"] is not None and cells["syn_wav"] is None:
            raise UsageError(f"manifest line {lineno}: f0_syn given without syn_wav")
        entries.append(ManifestEntry(**cells))
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


def _guarded(worker, payloads) -> list[tuple[str | None, object]]:
    """Per payload, (None, result), or (error message, None) if it raised."""
    out = []
    for payload in payloads:
        try:
            out.append((None, worker(payload)))
        except Exception as exc:
            out.append((_message(exc), None))
    return out


# Pool chunks per worker process.  1, 2, 4 and 8 cost the same within noise on
# 80 short utterances with 2 workers (2-core guest); more chunks even out
# entries of unequal length, fewer pay less dispatch.
CHUNKS_PER_WORKER = 4


def _chunks(payloads: list, workers: int) -> list[list]:
    """``payloads`` cut into ``min(len(payloads), CHUNKS_PER_WORKER * workers)``
    contiguous chunks whose sizes differ by at most one, in order."""
    n_chunks = min(len(payloads), CHUNKS_PER_WORKER * workers)
    bounds = [len(payloads) * k // n_chunks for k in range(n_chunks + 1)]
    return [payloads[start:stop] for start, stop in zip(bounds, bounds[1:])]


def _run_pool(worker, payloads, workers: int) -> list[tuple[str | None, object]]:
    """(error, result) per payload, in payload order.

    With more than one worker the payloads are cut into contiguous chunks,
    at most ``CHUNKS_PER_WORKER`` per worker, and each pool task runs one
    chunk, so the pickling, the pipe round trip and the wake-ups of the
    executor's threads are paid per chunk, not per entry.  A worker process
    that dies (killed, ``os._exit``) breaks the pool: the chunks that
    returned keep their results, and every entry of the other chunks fails
    with the pool's error, even one that finished before the crash.  None
    is retried in this process, which the same entry could kill.
    """
    if workers <= 1 or len(payloads) <= 1:
        return _guarded(worker, payloads)
    # imported here, as a serial run would pay about 30 ms for it
    from concurrent.futures import ProcessPoolExecutor

    chunks = _chunks(payloads, workers)
    # a forking pool starts all of its processes at the first submit
    with ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
        futures = [pool.submit(_guarded, worker, chunk) for chunk in chunks]
    # every future is done here; an exception in one is the pool's, not its entries'
    results = []
    for future, chunk in zip(futures, chunks):
        error = future.exception()
        results += [(_message(error), None)] * len(chunk) if error else future.result()
    return results


def _run_batch(worker, jobs, workers: int, log_dir: Path) -> tuple[list[tuple[tuple[str, ...], object]], bool]:
    """Run ``worker`` on each (key, payload) job, the key being the entry's
    errors.log fields with the utterance id last.  Prints and logs every
    failure; returns the (key, result) of each success and whether any failed."""
    log_dir.mkdir(parents=True, exist_ok=True)
    done, failures = [], []
    for (key, _), (err, result) in zip(jobs, _run_pool(worker, [payload for _, payload in jobs], workers)):
        if err is None:
            done.append((key, result))
        else:
            failures.append(key + (err,))
            print(f"error: {key[-1]}: {err}", file=sys.stderr)
    if failures:
        lines = ["\t".join(failure) for failure in sorted(failures)]
        (log_dir / "errors.log").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return done, bool(failures)


def cmd_features(args, run: RunConfig) -> int:
    out_dir = Path(args.out)
    jobs = [((e.utterance_id,), (e, run, str(out_dir))) for e in read_manifest(args.manifest)]
    _, failed = _run_batch(_features_worker, jobs, args.workers, out_dir)
    return EXIT_PARTIAL if failed else EXIT_OK


def cmd_compare(args, run: RunConfig) -> int:
    out_dir = Path(args.out)
    jobs = [((e.utterance_id,), (e, run, str(out_dir))) for e in read_manifest(args.manifest)]
    done, failed = _run_batch(_compare_worker, jobs, args.workers, out_dir)
    reports = [report for _, report in done]
    lines = ["measure,mean,std,count"]
    for label, field_name, scale in AGGREGATE_MEASURES:
        m = stats.summarize_values(stats.measure_values(reports, field_name) * scale)
        lines.append(f"{label},,,0" if m is None else f"{label},{m.mean:.6g},{m.std:.6g},{m.count}")
    (out_dir / "aggregate.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return EXIT_PARTIAL if failed else EXIT_OK


def cmd_corpus_stats(args, run: RunConfig) -> int:
    manifests = (("a", read_manifest(args.manifest_a)), ("b", read_manifest(args.manifest_b)))
    jobs = [((label, e.utterance_id), (e, run)) for label, entries in manifests for e in entries]
    done, failed = _run_batch(_stats_worker, jobs, args.workers, Path(args.out).parent)
    corpora = {label: [record for (tag, _), record in done if tag == label] for label, _ in manifests}
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
    return EXIT_PARTIAL if failed else EXIT_OK


def cmd_synthlab(args) -> int:
    series_fns = None
    if args.inject_fault:
        # negative control: a metric that grows under smoothing must trip the gate
        hqer_series = SERIES["hqer"]
        series_fns = dict(SERIES, hqer=lambda p, cfg=None: 1.0 - hqer_series(p, cfg))
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


def _int_at_least(minimum: int):
    """argparse type of the count flags (1) and ``--seed`` (0): an integer of
    at least ``minimum``."""
    def parse(value: str) -> int:
        try:
            number = int(value)
        except ValueError:
            number = minimum - 1
        if number < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer of at least {minimum}, got {value!r}")
        return number
    return parse


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
        p.add_argument("--workers", type=_int_at_least(1), default=1, help="parallel worker processes")
        p.add_argument("--qc", type=int, default=None, help="metric cutoff quefrency override")
        p.add_argument("--eps", type=_finite_float, default=None, help="metric epsilon override")

    add_common(sub.add_parser("features", help="extract log-mel blobs and metric CSVs"))
    add_common(sub.add_parser("compare", help="score reference/synthesis pairs"))

    p_stats = sub.add_parser("corpus-stats", help="compare two corpora with p-values")
    p_stats.add_argument("--manifest-a", required=True)
    p_stats.add_argument("--manifest-b", required=True)
    add_common(p_stats, manifest=False)

    p_lab = sub.add_parser("synthlab", help="run the degradation monotonicity suite")
    p_lab.add_argument("--out", required=True)
    p_lab.add_argument("--spectrograms", type=_int_at_least(1), default=100)
    p_lab.add_argument("--seed", type=_int_at_least(0), default=synthlab.DEFAULT_SEED)
    p_lab.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    _keep_freed_heap()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "synthlab":
            return cmd_synthlab(args)
        run = load_run_config(args.config, args.qc, args.eps)
        commands = {"features": cmd_features, "compare": cmd_compare, "corpus-stats": cmd_corpus_stats}
        return commands[args.command](args, run)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
