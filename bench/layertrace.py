"""Outside-in layer trace: spans recorded around the program's public functions.

The wrappers are installed by rebinding module attributes from the
benchmark's own files; the program's sources are not edited.  Each wrapper
records a span (name, start, end, parent span, utterance id, pass) in memory
and may add to a per-pass count.  ``layer_metrics`` turns the spans of the
traced passes into the per-layer numbers of BENCHMARK.json.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# DTW alignments are attributed by the compare function that called them.
DTW_PARENTS = {"compare.mel_distances": "dtw_mel", "compare.pitch_metrics": "dtw_pitch",
               "compare.metric_curve_mae": "dtw_curves"}

PER_LAYER = (
    ("setup.import_ms", "ms"), ("setup.warmup_ms", "ms"),
    ("cli.read_manifest_ms", "ms"), ("cli.self_ms", "ms"), ("cli.entries", "count"),
    ("audio.load_wav_ms", "ms"), ("audio.resample_ms", "ms"), ("audio.resample_samples", "count"),
    ("audio.silence_mask_ms", "ms"), ("audio.preprocess_self_ms", "ms"),
    ("spectral.stft_ms", "ms"), ("spectral.stft_frames", "count"), ("spectral.log_mel_self_ms", "ms"),
    ("spectral.write_blob_ms", "ms"), ("spectral.blob_bytes", "count"),
    ("cepstral.mel_cepstrogram_ms", "ms"), ("cepstral.quefrency_power_ms", "ms"),
    ("osmetrics.utterance_metrics_ms", "ms"), ("osmetrics.to_csv_ms", "ms"), ("osmetrics.frames_kept", "count"),
    ("compare.dtw_mel_ms", "ms"), ("compare.dtw_pitch_ms", "ms"), ("compare.dtw_curves_ms", "ms"),
    ("compare.dtw_cells", "count"), ("compare.dtw_ns_per_cell", "ns"), ("compare.dtw_peak_alloc_mb", "MB"),
    ("compare.load_pitch_csv_ms", "ms"), ("compare.build_report_self_ms", "ms"),
    ("stats.mann_whitney_u_ms", "ms"),
    ("trace.overhead_ms", "ms"),
)


def _frames(x) -> int:
    """Sequence length as ``dtw_align`` sees it (it applies ``np.atleast_2d``)."""
    return np.atleast_2d(x).shape[0]


class Tracer:
    """Span recorder.  Spans are lists [name, start, end, parent, utt, pass]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.stack: list[int] = []
        self.utt: str | None = None
        self.pass_no = 0
        self._restore: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else None, self.utt, self.pass_no]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counts[(self.pass_no, name)] += value

    def wrap(self, owner, attr: str, name: str, on_call=None, on_result=None) -> None:
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(self, args)
            out = self.span(name, orig, *args, **kwargs)
            if on_result is not None:
                on_result(self, args, out)
            return out

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, orig))

    def install(self) -> None:
        """Wrap every layer boundary the CLI crosses.

        The CLI imported ``load_wav``, ``preprocess``, ``log_mel`` and the
        cepstral/metric functions by name, so those are rebound in
        ``melcep.cli``; functions the CLI reaches through a module
        (``spectral.write_blob``, ``cmp.build_report``, ...) and the calls
        made inside a layer (``audio.resample``, ``spectral.stft``,
        ``compare.dtw_align``) are rebound in their own module.
        """
        from melcep import audio, cli, compare, osmetrics, spectral, stats

        def set_utt(tr, args):
            tr.utt = Path(args[0]).stem

        def resampled(tr, args, out):
            if args[1] != args[2]:
                tr.count("audio.resample_samples", out.size)

        def dtw_cells(tr, args, out):
            tr.count("compare.dtw_cells", _frames(args[0]) * _frames(args[1]))

        self.wrap(cli, "read_manifest", "cli.read_manifest",
                  on_result=lambda tr, a, out: tr.count("cli.entries", len(out)))
        self.wrap(cli, "load_wav", "audio.load_wav", on_call=set_utt)
        self.wrap(cli, "preprocess", "audio.preprocess")
        self.wrap(audio, "resample", "audio.resample", on_result=resampled)
        self.wrap(audio, "silence_mask", "audio.silence_mask")
        self.wrap(cli, "log_mel", "spectral.log_mel")
        self.wrap(spectral, "stft", "spectral.stft",
                  on_result=lambda tr, a, out: tr.count("spectral.stft_frames", out.shape[1]))
        self.wrap(spectral, "write_blob", "spectral.write_blob",
                  on_result=lambda tr, a, out: tr.count("spectral.blob_bytes", 16 + 4 * a[0].values.size))
        self.wrap(cli, "mel_cepstrogram", "cepstral.mel_cepstrogram")
        self.wrap(cli, "quefrency_power", "cepstral.quefrency_power")
        self.wrap(cli, "utterance_metrics", "osmetrics.utterance_metrics",
                  on_result=lambda tr, a, out: tr.count("osmetrics.frames_kept", out.n_frames))
        self.wrap(osmetrics.UtteranceMetrics, "to_csv", "osmetrics.to_csv")
        self.wrap(compare, "load_pitch_csv", "compare.load_pitch_csv")
        self.wrap(compare, "build_report", "compare.build_report")
        for fn in DTW_PARENTS:
            self.wrap(compare, fn.split(".")[1], fn)
        self.wrap(compare, "dtw_align", "compare.dtw_align", on_result=dtw_cells)
        self.wrap(stats, "mann_whitney_u", "stats.mann_whitney_u")

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    def dump(self, path) -> None:
        """Write the spans, one JSON list per line, times in ns from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('["name","start_ns","end_ns","parent","utterance_id","pass"]\n')
            for name, start, end, parent, utt, pass_no in self.spans:
                fh.write(json.dumps([name, round((start - t0) * 1e9), round((end - t0) * 1e9), parent, utt, pass_no]))
                fh.write("\n")


def _rss_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def peak_alloc_pass(run_pass) -> float:
    """Run one pass measuring each ``dtw_align`` call's peak memory growth:
    the largest resident-set size a sampling thread sees during the call,
    minus the size at its start.  Returns the largest growth of any call in
    MB (0 when the pass makes none).

    tracemalloc would count allocations exactly, but it slows the
    pure-Python DTW loop about 25-fold, which does not fit a run.
    """
    from melcep import compare

    orig = compare.dtw_align
    peaks = [0.0]

    def sampled(*args, **kwargs):
        base = top = _rss_bytes()
        stop = threading.Event()

        def poll():
            nonlocal top
            while not stop.wait(0.001):
                top = max(top, _rss_bytes())

        poller = threading.Thread(target=poll)
        poller.start()
        try:
            return orig(*args, **kwargs)
        finally:
            stop.set()
            poller.join()
            peaks.append((max(top, _rss_bytes()) - base) / 2**20)

    compare.dtw_align = sampled
    try:
        run_pass()
    finally:
        compare.dtw_align = orig
    return max(peaks)


def layer_metrics(tracer: Tracer, passes: list[int]) -> dict[str, float]:
    """Median over the traced passes of each per-pass layer total."""
    spans = tracer.spans
    child_ms = defaultdict(float)  # span index -> ms covered by its direct children
    dtw_under = defaultdict(float)  # build_report span index -> ms of dtw_align below it
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child_ms[parent] += (end - start) * 1e3
    for name, start, end, parent, _, _ in spans:
        if name == "compare.dtw_align" and parent is not None:
            report = spans[parent][3]
            if report is not None and spans[report][0] == "compare.build_report":
                dtw_under[report] += (end - start) * 1e3

    per_pass = {p: defaultdict(float) for p in passes}
    for idx, (name, start, end, parent, _, pass_no) in enumerate(spans):
        if pass_no not in per_pass:
            continue
        acc = per_pass[pass_no]
        ms = (end - start) * 1e3
        self_ms = ms - child_ms[idx]
        if name == "cli":
            acc["cli.self_ms"] += self_ms
        elif name == "cli.read_manifest":
            acc["cli.read_manifest_ms"] += ms
        elif name == "audio.preprocess":
            acc["audio.preprocess_self_ms"] += self_ms
        elif name == "spectral.log_mel":
            acc["spectral.log_mel_self_ms"] += self_ms
        elif name == "compare.build_report":
            acc["compare.build_report_self_ms"] += ms - dtw_under[idx]
        elif name == "compare.dtw_align":
            parent_name = spans[parent][0] if parent is not None else None
            acc[f"compare.{DTW_PARENTS.get(parent_name, 'dtw_other')}_ms"] += ms
            acc["dtw_total_ms"] += ms
        elif name not in DTW_PARENTS:
            acc[f"{name}_ms"] += ms
    for (pass_no, name), value in tracer.counts.items():
        if pass_no in per_pass:
            per_pass[pass_no][name] += value
    for acc in per_pass.values():
        cells = acc.get("compare.dtw_cells", 0.0)
        acc["compare.dtw_ns_per_cell"] = acc["dtw_total_ms"] * 1e6 / cells if cells else 0.0

    names = [n for n, _ in PER_LAYER if not n.startswith(("setup.", "trace.", "compare.dtw_peak"))]
    return {n: statistics.median(per_pass[p].get(n, 0.0) for p in passes) for n in names}
