"""melcep benchmark: one workload end to end through ``melcep.cli.main``.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The run builds (or reuses) the workload's
synthetic corpus for the seed, runs the workload in a fresh child process
for S seconds of whole passes, times several fresh-interpreter starts for
``setup_s``, checks the outputs and prints one JSON object as its last
line: the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The full record (per-pass times, versions, thread settings,
check results) goes to ``bench_results/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import checks
import corpus
import layertrace

HERE = Path(__file__).resolve().parent
END_TO_END = (("setup_s", "s"), ("audio_s_per_s", "1/s"), ("cpu_ms_per_audio_s", "ms/s"), ("peak_rss_mb", "MB"))
THREADS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
CHILD_TIMEOUT_S = 150
SETUP_STARTS = 7  # fresh starts per run; setup_s is their median


def cli_argv(workload: str, out: Path, probe: bool = False) -> list[str]:
    """``melcep`` arguments of a workload; ``probe`` swaps in the one-utterance manifest."""
    if workload == "corpus_stats_short":
        a, b = ("probe/manifest.csv",) * 2 if probe else ("manifest_a.csv", "manifest_b.csv")
        return ["corpus-stats", "--manifest-a", a, "--manifest-b", b, "--out", str(out / "stats.csv")]
    sub = "features" if workload == "features_mixed" else "compare"
    return [sub, "--manifest", "probe/manifest.csv" if probe else "manifest.csv", "--out", str(out)]


def measure_setup(workload: str, corpus_dir: Path, work: Path, env: dict) -> list[dict]:
    """Time ``SETUP_STARTS`` fresh interpreters that import the CLI and run it
    once on the probe utterance.  They follow the child run, which has
    already compiled the bytecode and warmed the file cache."""
    out = []
    for _ in range(SETUP_STARTS):
        probe_out = work / "probe"
        shutil.rmtree(probe_out, ignore_errors=True)
        argv = [sys.executable, str(HERE / "probe.py"), env["PYTHONPATH"], str(probe_out)]
        start = time.perf_counter()
        proc = subprocess.run(argv + cli_argv(workload, probe_out, probe=True), cwd=corpus_dir, env=env,
                              capture_output=True, text=True, timeout=60)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise SystemExit(f"set-up probe failed:\n{proc.stderr}")
        out.append(dict(json.loads(proc.stdout.splitlines()[-1]), setup_s=wall))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0, help="corpus size factor (tests use a tiny corpus)")
    args = ap.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "melcep" / "cli.py").is_file():
        print(f"error: no melcep sources under {src}; run from the repository root", file=sys.stderr)
        return 2
    results = root / "bench_results"
    work = results / "work" / args.workload
    work.mkdir(parents=True, exist_ok=True)
    corpus_dir, meta = corpus.cached(args.workload, args.seed, root / ".bench_cache", args.scale)
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0", **THREADS)
    env.pop("PYTHONSTARTUP", None)

    out = work / "out"
    argv, reference = cli_argv(args.workload, out), None
    if args.workload == "corpus_stats_short":
        # the traced run is serial, as spans recorded in pool workers would be
        # lost; either way the output is compared once with a run on the other
        # worker count, so the 2-worker path is checked against the serial one
        workers, other = ("1", "2") if args.trace else ("2", "1")
        argv += ["--workers", workers]
        reference = {"argv": cli_argv(args.workload, work / "reference") + ["--workers", other],
                     "clear": [str(work / "reference")]}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spec = {"argv": argv, "clear": [str(out)], "reference": reference, "seconds": args.seconds,
            "trace": bool(args.trace), "src": str(src), "result": str(work / "child.json"),
            "spans": str(results / f"{tag}.spans.jsonl")}
    (work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    subprocess.run([sys.executable, str(HERE / "child.py"), str(work / "spec.json")], cwd=corpus_dir, env=env,
                   check=True, timeout=CHILD_TIMEOUT_S)
    child = json.loads((work / "child.json").read_text(encoding="utf-8"))
    setup = measure_setup(args.workload, corpus_dir, work, env)

    if args.workload == "features_mixed":
        problems = checks.check_features(meta, out)
    elif args.workload == "compare_long":
        problems = checks.check_compare(meta, out)
    else:
        problems = checks.check_corpus_stats(corpus_dir, out / "stats.csv", work / "reference" / "stats.csv")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    passes = child["passes"]
    audio_s = meta["audio_s"]
    end_to_end = {
        "setup_s": statistics.median(s["setup_s"] for s in setup),
        "audio_s_per_s": audio_s / statistics.median(p["wall_s"] for p in passes),
        "cpu_ms_per_audio_s": 1e3 * statistics.median(p["cpu_s"] for p in passes) / audio_s,
        "peak_rss_mb": child["peak_rss_mb"],
    }
    if args.trace:
        layers = dict(child["layers"], **{
            "setup.import_ms": statistics.median(s["import_ms"] for s in setup),
            "setup.warmup_ms": statistics.median(s["warmup_ms"] for s in setup),
        })
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in layertrace.PER_LAYER}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END}
    entries = len(meta["utterances"])  # manifest entries per pass
    summary = {
        "correct": not problems,
        "attempted": entries * len(passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
    }
    record = dict(summary, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  scale=args.scale, audio_s=audio_s, passes=passes, setup=setup, end_to_end=end_to_end,
                  problems=problems, nproc=os.cpu_count(), python=platform.python_version(),
                  numpy=np.__version__, scipy=scipy.__version__, threads=THREADS, pythonhashseed="0")
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes over {audio_s:.1f} s of audio, "
          f"{len(setup)} set-up starts, {len(problems)} check problems")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
