"""Smoke runs of the benchmark on tiny corpora, and a negative control for
each output check: a corrupted output must make the check fail.

    python3 -m pytest bench/test_bench.py

Each workload runs once through ``run.py`` in a scratch root whose ``src``
links to this repository's sources; the checks then run again on the outputs
it left, before and after one value is corrupted.
"""

from __future__ import annotations

import json
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import corpus
import layertrace

REPO = Path(__file__).resolve().parent.parent
SCALE = 0.25  # 9 short utterances, 3 short pairs, 2 x 10 utterances


def run_bench(root: Path, workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(REPO / "bench" / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.2", "--trace", str(trace), "--scale", str(SCALE)],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench_root")
    (root / "src").symlink_to(REPO / "src")
    return root


@pytest.fixture(scope="module")
def smoke(root):
    return {w: run_bench(root, w, 0) for w in corpus.WORKLOADS}


def outputs(root: Path, workload: str) -> tuple[Path, dict, Path]:
    corpus_dir, meta = corpus.cached(workload, 7, root / ".bench_cache", SCALE)
    return corpus_dir, meta, root / "bench_results" / "work" / workload


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_smoke_run_is_correct(smoke, workload):
    result = smoke[workload]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {"setup_s", "audio_s_per_s", "cpu_ms_per_audio_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_traced_run_reports_every_layer(root, workload):
    result = run_bench(root, workload, 1)
    assert result["correct"]
    metrics = result["metrics"]
    assert list(metrics) == [name for name, _ in layertrace.PER_LAYER]
    assert metrics["cli.self_ms"]["value"] >= 0
    assert metrics["cli.entries"]["value"] > 0
    spans = root / "bench_results" / f"{workload}-seed7-trace1.spans.jsonl"
    assert len(spans.read_text().splitlines()) > 1
    if workload == "compare_long":
        assert metrics["compare.dtw_cells"]["value"] > 0
        assert metrics["compare.dtw_peak_alloc_mb"]["value"] > 0


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(REPO / "bench", tmp_path / "bench")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "features_mixed", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode != 0 and proc.stdout == ""


def test_features_check_catches_one_corrupted_blob_value(root, smoke):
    _, meta, work = outputs(root, "features_mixed")
    out = work / "out"
    assert checks.check_features(meta, out) == []
    blob = out / f"{next(iter(meta['utterances']))}.lmel"
    raw = bytearray(blob.read_bytes())
    n_bands, n_frames = struct.unpack("<II", raw[4:12])
    at = 16 + 4 * (40 * n_frames + n_frames // 2)  # band 40, middle frame
    (value,) = struct.unpack("<f", raw[at:at + 4])
    raw[at:at + 4] = struct.pack("<f", value + 1.0)
    blob.write_bytes(bytes(raw))
    assert checks.check_features(meta, out)


@pytest.mark.parametrize("uid, field", [("pair00", "mae_cslope"), ("pair01", "l1")])
def test_compare_check_catches_one_corrupted_report_field(root, smoke, uid, field):
    _, meta, work = outputs(root, "compare_long")
    out = work / f"out_{field}"
    shutil.copytree(work / "out", out)
    assert checks.check_compare(meta, out) == []
    path = out / f"{uid}.report.json"
    report = json.loads(path.read_text())
    report[field] = report[field] * 1.01 + 1e-4
    path.write_text(json.dumps(report))
    assert checks.check_compare(meta, out)


@pytest.mark.parametrize("corrupt", ["row", "reference"])
def test_corpus_stats_check_catches_one_corrupted_row(root, smoke, corrupt):
    corpus_dir, _, work = outputs(root, "corpus_stats_short")
    out, reference = work / "out" / "stats.csv", work / "reference" / "stats.csv"
    assert checks.check_corpus_stats(corpus_dir, out, reference) == []
    corrupted = work / f"{corrupt}.csv"
    lines = (out if corrupt == "row" else reference).read_text().splitlines()
    cells = lines[3].split(",")  # the spr row
    cells[1] = f"{float(cells[1]) * 1.001:.6g}"
    lines[3] = ",".join(cells)
    corrupted.write_text("\n".join(lines) + "\n")
    if corrupt == "row":
        assert checks.check_corpus_stats(corpus_dir, corrupted, None)
    else:
        assert checks.check_corpus_stats(corpus_dir, out, corrupted)
