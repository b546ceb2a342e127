"""One workload in a fresh interpreter: a warm-up pass, then timed passes.

Started by ``run.py`` with the corpus directory as working directory, the
repository's ``src`` on PYTHONPATH and BLAS/OpenMP threads pinned to 1.
Usage: ``python3 bench/child.py SPEC.json``; the spec names the CLI argv,
the output paths to clear before each pass, the run length and whether to
trace.  The result (per-pass wall and CPU times, failures, peak RSS and, when
traced, the per-layer metrics) is written to the spec's ``result`` path.

Untraced runs install no wrappers.  A traced run times untraced passes for
half its length and traced passes for the other half, so the difference of
their medians is the tracing overhead, then makes one more pass that
samples the memory growth of each DTW alignment.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import layertrace

_ERROR = re.compile(r"^error: (\S+): ", re.M)


def _cpu(who) -> float:
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime


class Workload:
    def __init__(self, spec: dict):
        from melcep import cli

        self.main = cli.main
        self.argv = spec["argv"]
        self.clear = [Path(p) for p in spec["clear"]]

    def run_pass(self, main=None, argv=None, clear=None) -> dict:
        for path in self.clear if clear is None else clear:
            shutil.rmtree(path, ignore_errors=True)
            path.mkdir(parents=True)
        main, argv = main or self.main, argv or self.argv
        err = io.StringIO()
        cpu_self, cpu_children = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        with contextlib.redirect_stderr(err):
            rc = main(argv)
        wall = time.perf_counter() - start
        cpu = _cpu(resource.RUSAGE_SELF) - cpu_self + _cpu(resource.RUSAGE_CHILDREN) - cpu_children
        if rc not in (0, 2):
            raise SystemExit(f"melcep {' '.join(argv)} exited {rc}:\n{err.getvalue()}")
        return {"wall_s": wall, "cpu_s": cpu, "failed": len(_ERROR.findall(err.getvalue())), "rc": rc}

    def timed(self, seconds: float, main=None) -> list[dict]:
        """Whole passes until ``seconds`` have elapsed (at least one)."""
        passes, start = [], time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            passes.append(self.run_pass(main))
        return passes


def main() -> None:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    import melcep

    src = Path(spec["src"]).resolve()
    if src not in Path(melcep.__file__).resolve().parents:
        raise SystemExit(f"melcep imported from {melcep.__file__}, not from {src}")
    work = Workload(spec)
    work.run_pass()  # warm-up: imports, filterbank cache, BLAS init, allocator

    result = {}
    if not spec["trace"]:
        passes = work.timed(spec["seconds"])
    else:
        plain = work.timed(spec["seconds"] / 2)
        tracer = layertrace.Tracer()
        tracer.install()
        try:
            def traced_main(argv):
                tracer.pass_no += 1
                tracer.utt = None
                return tracer.span("cli", work.main, argv)

            traced = work.timed(spec["seconds"] / 2, traced_main)
        finally:
            tracer.uninstall()
        layers = layertrace.layer_metrics(tracer, list(range(1, len(traced) + 1)))
        layers["trace.overhead_ms"] = 1e3 * (statistics.median(p["wall_s"] for p in traced)
                                             - statistics.median(p["wall_s"] for p in plain))
        layers["compare.dtw_peak_alloc_mb"] = layertrace.peak_alloc_pass(work.run_pass)
        tracer.dump(spec["spans"])
        result["layers"] = layers
        passes = plain + traced

    if spec.get("reference"):  # once, outside the timed passes, into its own directory
        work.run_pass(argv=spec["reference"]["argv"], clear=[Path(p) for p in spec["reference"]["clear"]])
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result.update(passes=passes, peak_rss_mb=max(self_rss, child_rss) / 1024.0)
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
