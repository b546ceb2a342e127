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
import contextlib
import csv
import math
import os
import re
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

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
        # the mel cepstrum has n_mels // 2 + 1 quefrency bins, and CSlope fits a line through bins 1 and up
        n_quefrencies = self.mel.n_mels // 2 + 1
        if n_quefrencies < 3:
            raise ValueError(f"n_mels must be at least 4 for the 3 quefrency bins of CSlope, got {self.mel.n_mels}")
        self.metric.resolve_cutoff(n_quefrencies)
        # the band edges alone: mel_filterbank's 300 kB, freed here before the pool forks, would cost each worker faults
        spectral.mel_band_edges(self.mel, self.preprocess.target_rate, self.stft.n_fft)


def _finite_float(value: str) -> float:
    """Parser of every float config key: a number, not NaN or inf."""
    try:
        number = float(value)
    except ValueError:
        number = math.nan
    if not math.isfinite(number):
        raise ValueError(f"expected a finite number, got {value!r}")
    return number


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


# Config file key -> (RunConfig section, parser of the field's annotation), for
# every section field but soft_tau, which only the library function croll95_soft
# reads.  cutoff_q's None (a quarter of the quefrencies) has no spelling in a file.
_PARSERS = {
    "int": int,
    "int | None": int,
    "float": _finite_float,
    "float | None": lambda v: None if v.lower() == "none" else _finite_float(v),
}
_CONFIG_KEYS = {
    f.name: (section.name, _PARSERS[f.type])
    for section in fields(RunConfig)
    for f in fields(section.default)
    if f.name != "soft_tau"
}


def load_run_config(path=None) -> RunConfig:
    """Build the run configuration from an optional key=value file."""
    sections = {section.name: {} for section in fields(RunConfig)}
    key_lines = {}
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
            if key in key_lines:
                raise UsageError(f"config line {lineno}: key {key!r} already set on line {key_lines[key]}")
            key_lines[key] = lineno
            section, conv = _CONFIG_KEYS[key]
            try:
                sections[section][key] = conv(value)
            except ValueError as exc:
                raise UsageError(f"config line {lineno}: bad value for {key}: {exc}") from exc
    try:
        return RunConfig(**{f.name: replace(f.default, **sections[f.name]) for f in fields(RunConfig)})
    except ValueError as exc:
        raise UsageError(f"invalid configuration: {exc}") from exc


# An utterance id names its output files in the output directory and is one
# tab-separated field of errors.log, whose lines and fields a control character
# in an id or a message would split.
_CONTROL_CHAR = re.compile(r"[\x00-\x1f\x7f-\x9f]")
_UNSAFE_ID_CHAR = re.compile(rf"[/\\]|{_CONTROL_CHAR.pattern}")


def read_manifest(path, required=("utterance_id", "ref_wav")) -> list[ManifestEntry]:
    """The manifest's entries, sorted by id; a header without a ``required`` column is a usage error."""
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
    if any(name not in fieldnames for name in required):
        raise UsageError(f"manifest must have {', '.join(required[:-1])} and {required[-1]} columns")
    entries, id_lines = [], {}
    for lineno, row in rows:
        # DictReader files the cells past the header under the key None
        if any(extra.strip() for extra in row.get(None, ())):
            raise UsageError(f"manifest line {lineno}: more cells than header columns")
        cells = {name: (row.get(name) or "").strip() or None for name in MANIFEST_FIELDS}
        uid = cells["utterance_id"]
        if uid is None or cells["ref_wav"] is None:
            raise UsageError(f"manifest line {lineno}: utterance_id and ref_wav are required")
        if uid in (".", "..") or _UNSAFE_ID_CHAR.search(uid):
            raise UsageError(f"manifest line {lineno}: utterance_id {uid!r} must not be '.' or '..' "
                             "or hold '/', '\\' or a control character")
        if uid in id_lines:
            raise UsageError(f"manifest line {lineno}: duplicate utterance_id {uid!r}, first on line {id_lines[uid]}")
        id_lines[uid] = lineno
        if cells["token_count"] is not None:
            try:
                cells["token_count"] = _int_at_least(0)(cells["token_count"])
            except argparse.ArgumentTypeError:
                raise UsageError(f"manifest line {lineno}: token_count must be a non-negative integer") from None
        if cells["f0_syn"] is not None and cells["syn_wav"] is None:
            raise UsageError(f"manifest line {lineno}: f0_syn given without syn_wav")
        entries.append(ManifestEntry(**cells))
    if not entries:
        raise UsageError("empty manifest")
    return sorted(entries, key=lambda e: e.utterance_id)


def _analyze(entry: ManifestEntry, wav_path, f0_path, run: RunConfig):
    """The per-wav pipeline of every subcommand: preprocess, log-mel,
    utterance metrics and, given a pitch CSV, the pitch contour.

    The CSV's row k is the frame of samples k*hop to (k+1)*hop of the
    resampled wav, before the silence cap; a CSV whose row count is more
    than one off that wav's frame count fails the entry.  Each log-mel frame
    takes the row under the middle of its hop, traced back through the cap.
    """
    wave = preprocess(load_wav(wav_path), run.preprocess)
    mel = log_mel(wave, run.stft, run.mel)
    metrics = utterance_metrics(quefrency_power(mel_cepstrogram(mel)), run.metric)
    pitch = frame_pitch = None
    if f0_path is not None:
        hop = run.stft.hop
        pitch = cmp.load_pitch_csv(f0_path, hop=hop, sample_rate=run.preprocess.target_rate)
        n_rows, n_frames = pitch.f0.size, wave.source_length // hop
        if abs(n_rows - n_frames) > 1:
            raise ValueError(f"pitch CSV {f0_path!s} has {n_rows} rows, but its wav has {n_frames} frames "
                             f"of {hop} samples at {run.preprocess.target_rate} Hz")
        rows = np.minimum(wave.source_positions(np.arange(mel.n_frames) * hop + hop // 2) // hop, n_rows - 1)
        frame_pitch = cmp.PitchContour(pitch.f0[rows], pitch.voiced[rows])
    bundle = cmp.UtteranceBundle(
        duration_s=wave.duration_s,
        metrics=metrics,
        pitch=pitch,
        token_count=entry.token_count,
        frame_pitch=frame_pitch,
    )
    return mel, bundle


def _features_worker(payload) -> None:
    entry, run, (blob_path, csv_path) = payload
    mel, bundle = _analyze(entry, entry.ref_wav, None, run)
    spectral.write_blob(mel, blob_path)
    bundle.metrics.to_csv(csv_path)


def _compare_worker(payload) -> cmp.ComparisonReport:
    entry, run, (report_path,) = payload
    if entry.syn_wav is None:
        raise ValueError("entry has no syn_wav")
    ref_mel, ref_bundle = _analyze(entry, entry.ref_wav, entry.f0_ref, run)
    syn_mel, syn_bundle = _analyze(entry, entry.syn_wav, entry.f0_syn, run)
    report = cmp.build_report(ref_mel, syn_mel, ref_bundle, syn_bundle)
    report_path.write_text(report.to_json() + "\n", encoding="utf-8")
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
    """``Type: text`` on one line: each control character, such as one in a
    wav path, is written as its Python escape (``\\t``, ``\\n``, ``\\x1b``)."""
    return _CONTROL_CHAR.sub(lambda m: repr(m.group())[1:-1], f"{type(exc).__name__}: {exc}")


def _guarded(worker, payloads) -> list[tuple[str | None, object]]:
    """Per payload, (None, result), or (error message, None) if it raised."""
    out = []
    for payload in payloads:
        try:
            out.append((None, worker(payload)))
        except Exception as exc:
            out.append((_message(exc), None))
    return out


# Pool chunks per worker process: more chunks even out entries of unequal
# length, fewer pay less dispatch.
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
    # imported here, so that a serial run does not pay for it
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
    """Run ``worker`` on each (key, outputs, payload) job, the key being the
    entry's errors.log fields with the utterance id last and ``outputs`` the
    paths of the files the entry writes.  Each failure's fields and message
    go to stderr joined by ': ' and to errors.log joined by tabs, and its
    outputs are removed; returns the (key, result) of each success and
    whether any failed."""
    done, failures = [], []
    for (key, outputs, _), (err, result) in zip(jobs, _run_pool(worker, [payload for _, _, payload in jobs], workers)):
        if err is None:
            done.append((key, result))
            continue
        failures.append(key + (err,))
        print("error: " + ": ".join(failures[-1]), file=sys.stderr)
        # written before the failure, or by an earlier run: either would pass for this run's
        for path in outputs:
            with contextlib.suppress(OSError):  # such as a directory in the way, which failed the entry
                path.unlink()
    # each run owns errors.log: an earlier run's must not outlive a clean one
    log = log_dir / "errors.log"
    if failures:
        lines = ["\t".join(failure) for failure in sorted(failures)]
        log.write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        log.unlink(missing_ok=True)
    return done, bool(failures)


def _out_dir(path) -> Path:
    """Make the output directory ``path`` before any entry runs; an unusable path is a usage error."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot make output directory: {exc}") from exc
    return Path(path)


def _output_jobs(entries, run: RunConfig, out_dir: Path, *suffixes: str) -> list:
    """One job per entry, whose payload ends with its ``<id><suffix>`` paths in ``out_dir``."""
    jobs = []
    for e in entries:
        outputs = tuple(out_dir / f"{e.utterance_id}{suffix}" for suffix in suffixes)
        jobs.append(((e.utterance_id,), outputs, (e, run, outputs)))
    return jobs


def cmd_features(args, run: RunConfig) -> int:
    entries = read_manifest(args.manifest)
    out_dir = _out_dir(args.out)
    jobs = _output_jobs(entries, run, out_dir, ".lmel", ".metrics.csv")
    _, failed = _run_batch(_features_worker, jobs, args.workers, out_dir)
    return EXIT_PARTIAL if failed else EXIT_OK


def cmd_compare(args, run: RunConfig) -> int:
    entries = read_manifest(args.manifest, required=("utterance_id", "ref_wav", "syn_wav"))
    out_dir = _out_dir(args.out)
    jobs = _output_jobs(entries, run, out_dir, ".report.json")
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
    jobs = [((label, e.utterance_id), (), (e, run)) for label, entries in manifests for e in entries]
    out = Path(args.out)
    log_dir = _out_dir(out.parent)
    if out.is_dir():
        raise UsageError(f"--out {args.out} is a directory, not a file")
    done, failed = _run_batch(_stats_worker, jobs, args.workers, log_dir)
    corpora = [[record for (tag, _), record in done if tag == label] for label, _ in manifests]
    if not all(corpora):
        out.unlink(missing_ok=True)  # an earlier run's table would pass for this run's
        for (label, _), corpus in zip(manifests, corpora):
            if not corpus:
                print(f"error: no usable entries in manifest {label}", file=sys.stderr)
        return EXIT_PARTIAL

    lines = ["measure,mean_a,std_a,median_a,count_a,mean_b,std_b,median_b,count_b,p_value"]
    for name in stats.MEASURES:
        values = [stats.measure_values(corpus, name) for corpus in corpora]
        summaries = [stats.summarize_values(v) for v in values]
        if None in summaries:
            print(f"warning: measure {name} missing from a corpus; row omitted", file=sys.stderr)
            continue
        _, p = stats.mann_whitney_u(*values)
        cells = [f"{m.mean:.6g},{m.std:.6g},{m.median:.6g},{m.count}" for m in summaries]
        lines.append(",".join([name, *cells, f"{p:.6g}"]))
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return EXIT_PARTIAL if failed else EXIT_OK


def cmd_synthlab(args) -> int:
    out_dir = _out_dir(args.out)
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
    (out_dir / "monotonicity.csv").write_text(report.to_csv(), encoding="utf-8")
    prop_lines = []
    for res in report.results:
        status = "PASS" if res.passed else "FAIL"
        prop_lines.append(f"{status} monotonicity {res.kind} strength={res.strength:.6g}")
        print(prop_lines[-1])
    (out_dir / "properties.txt").write_text("\n".join(prop_lines) + "\n", encoding="utf-8")
    return EXIT_OK if report.passed else EXIT_PROPERTY


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
        run = load_run_config(args.config)
        commands = {"features": cmd_features, "compare": cmd_compare, "corpus-stats": cmd_corpus_stats}
        return commands[args.command](args, run)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
