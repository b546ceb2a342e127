import csv
import dataclasses
import functools
import json
import math
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
import wave
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from melcep import audio, cli, spectral
from melcep.audio import PreprocessConfig
from melcep.cli import MANIFEST_FIELDS, UsageError, load_run_config, main, read_manifest
from melcep.compare import AGGREGATE_MEASURES, ComparisonReport, PitchContour, aggregate_csv, build_report
from melcep.osmetrics import METRIC_NAMES, MetricConfig
from melcep.spectral import LogMelSpectrogram, MelConfig, read_blob
from melcep.stats import stats_csv
from melcep.synthlab import run_monotonicity_suite

from conftest import SR, speechlike, tone, write_wav_bytes

HOP_S = 256 / 22050
# what subprocesses put on PYTHONPATH to import the melcep under test: a
# checkout's src/, or the site-packages of an installed package
PACKAGE_PARENT = str(Path(cli.__file__).resolve().parents[1])


def _write_manifest(path, rows, fields=("utterance_id", "ref_wav", "syn_wav", "f0_ref", "f0_syn", "token_count", "speaker_id")):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(fields))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def _write_pitch(path, f0_values):
    lines = ["time_s,f0_hz"]
    for i, v in enumerate(f0_values):
        lines.append(f"{i * HOP_S:.8f},{v if v > 0 else ''}")
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Three utterances with wavs and pitch CSVs plus a manifest."""
    root = tmp_path_factory.mktemp("corpus")
    rng = np.random.default_rng(42)
    rows = []
    for k in range(3):
        utt = f"utt{k:02d}"
        wav = root / f"{utt}.wav"
        samples = speechlike(rng, 0.6 + 0.15 * k)
        write_wav_bytes(wav, samples, SR, "float32")
        f0 = root / f"{utt}.f0.csv"
        # one row per 256-sample frame of the wav
        contour = 115.0 + 8.0 * np.sin(np.arange(samples.size // 256) / 6.0 + k)
        contour[10:14] = 0.0
        _write_pitch(f0, contour)
        rows.append(
            {
                "utterance_id": utt,
                "ref_wav": str(wav),
                "syn_wav": str(wav),
                "f0_ref": str(f0),
                "f0_syn": str(f0),
                "token_count": 30 + k,
                "speaker_id": "spk0",
            }
        )
    manifest = root / "manifest.csv"
    _write_manifest(manifest, rows)
    return root, manifest, rows


def test_features_happy_path(corpus, tmp_path):
    root, manifest, rows = corpus
    out = tmp_path / "feat"
    assert main(["features", "--manifest", str(manifest), "--out", str(out)]) == 0
    for row in rows:
        blob = out / f"{row['utterance_id']}.lmel"
        metrics = out / f"{row['utterance_id']}.metrics.csv"
        assert blob.exists() and metrics.exists()
        s = read_blob(blob)
        assert s.n_bands == 80 and s.n_frames > 10
        header = metrics.read_text().splitlines()[0]
        assert header == "frame_index,hqer,cslope,ccentroid,croll95"
    assert not (out / "errors.log").exists()


def test_features_deterministic_across_runs(corpus, tmp_path):
    _, manifest, rows = corpus
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["features", "--manifest", str(manifest), "--out", str(out1)]) == 0
    assert main(["features", "--manifest", str(manifest), "--out", str(out2)]) == 0
    for row in rows:
        for suffix in (".lmel", ".metrics.csv"):
            name = row["utterance_id"] + suffix
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_features_parallel_matches_serial(corpus, tmp_path):
    _, manifest, rows = corpus
    out1, out2 = tmp_path / "serial", tmp_path / "parallel"
    assert main(["features", "--manifest", str(manifest), "--out", str(out1)]) == 0
    assert main(["features", "--manifest", str(manifest), "--out", str(out2), "--workers", "3"]) == 0
    for row in rows:
        for suffix in (".lmel", ".metrics.csv"):
            name = row["utterance_id"] + suffix
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_features_silent_entry_partial_failure(corpus, tmp_path):
    root, _, rows = corpus
    silent = tmp_path / "silent.wav"
    write_wav_bytes(silent, np.zeros(SR), SR, "pcm16")
    manifest = tmp_path / "m.csv"
    _write_manifest(
        manifest,
        [dict(rows[0])] + [{"utterance_id": "zz_silent", "ref_wav": str(silent)}],
    )
    out = tmp_path / "out"
    assert main(["features", "--manifest", str(manifest), "--out", str(out)]) == 2
    log = (out / "errors.log").read_text()
    assert "zz_silent" in log and "silent" in log.lower()
    assert (out / f"{rows[0]['utterance_id']}.lmel").exists()


def test_unreadable_wavs_fail_their_own_entries(corpus, tmp_path):
    """An 8-bit PCM wav and a wav cut inside its fmt chunk each fail their
    own entry with a ValueError that names the file; the good entry runs."""
    _, _, rows = corpus
    pcm8, cut = tmp_path / "pcm8.wav", tmp_path / "cut.wav"
    with wave.open(str(pcm8), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(1)
        w.setframerate(16000)
        w.writeframes(bytes(1600))
    cut.write_bytes(Path(rows[0]["ref_wav"]).read_bytes()[:30])
    manifest = tmp_path / "m.csv"
    _write_manifest(manifest, [dict(rows[0]), {"utterance_id": "zz_pcm8", "ref_wav": str(pcm8)},
                               {"utterance_id": "zz_cut", "ref_wav": str(cut)}])
    out = tmp_path / "out"
    assert main(["features", "--manifest", str(manifest), "--out", str(out)]) == 2
    uid = rows[0]["utterance_id"]
    assert (out / f"{uid}.lmel").stat().st_size > 0 and (out / f"{uid}.metrics.csv").stat().st_size > 0
    assert (out / "errors.log").read_text().splitlines() == [
        f"zz_cut\tValueError: unreadable WAV file {cut}: fmt chunk of 10 bytes; it needs 16",
        f"zz_pcm8\tValueError: unreadable WAV file {pcm8}: unsupported encoding: format tag 0x1, 8 bits, "
        "1 channel(s), 1-byte blocks; expected PCM of 9-32 bits or float32",
    ]


def test_control_characters_in_a_message_are_escaped(corpus, tmp_path, capsys):
    """A tab and a newline in a wav path split the entry's errors.log record
    into two lines of three fields, and U+2028 split it for ``str.splitlines``;
    they are written as Python escapes."""
    _, _, rows = corpus
    weird = tmp_path / "we\tird\nna\u2028me.wav"
    weird.write_bytes(Path(rows[0]["ref_wav"]).read_bytes()[:30])
    manifest = tmp_path / "m.csv"
    _write_manifest(manifest, [dict(rows[0]), {"utterance_id": "u1", "ref_wav": str(weird)}])
    out = tmp_path / "out"
    assert main(["features", "--manifest", str(manifest), "--out", str(out)]) == 2
    escaped = f"ValueError: unreadable WAV file {tmp_path}/we\\tird\\nna\\u2028me.wav: fmt chunk of 10 bytes; it needs 16"
    assert (out / "errors.log").read_text() == f"u1\t{escaped}\n"
    assert capsys.readouterr().err == f"error: u1: {escaped}\n"


def test_empty_manifest_exit_1(tmp_path, capsys):
    manifest = tmp_path / "empty.csv"
    manifest.write_text("utterance_id,ref_wav\n")
    out = tmp_path / "out"
    assert main(["features", "--manifest", str(manifest), "--out", str(out)]) == 1
    assert "empty manifest" in capsys.readouterr().err


def test_unknown_manifest_column_exit_1(tmp_path, capsys):
    manifest = tmp_path / "bad.csv"
    manifest.write_text("utterance_id,ref_wav,surprise\nu,a.wav,x\n")
    assert main(["features", "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 1
    assert "surprise" in capsys.readouterr().err


def test_manifest_row_wider_than_header_exit_1(tmp_path, monkeypatch, capsys):
    """An unquoted comma in a path made a row one cell wider than the header,
    and the cell past the header was dropped: ``ref_wav`` read ``/tmp/a``."""
    loaded = []
    monkeypatch.setattr(cli, "load_wav", loaded.append)
    manifest = tmp_path / "wide.csv"
    manifest.write_text("utterance_id,ref_wav\nu0,a.wav\n\nu1,/tmp/a,b.wav\n")
    assert main(["features", "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 1
    # the file's line, counting the blank one that the csv module skips
    assert "manifest line 4: more cells than header columns" in capsys.readouterr().err
    assert loaded == [] and not (tmp_path / "o").exists()


def test_manifest_empty_trailing_cells_accepted(tmp_path):
    manifest = tmp_path / "m.csv"
    manifest.write_text("utterance_id,ref_wav\nu1,a.wav,,\nu2,b.wav, \n")
    assert [(e.utterance_id, e.ref_wav) for e in read_manifest(manifest)] == [("u1", "a.wav"), ("u2", "b.wav")]


def test_missing_manifest_exit_1(tmp_path, capsys):
    assert main(["features", "--manifest", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")]) == 1


def test_usage_error_exit_1(capsys):
    assert main(["features", "--out", "somewhere"]) == 1  # missing --manifest
    assert main(["not-a-command"]) == 1


def test_compare_identity_pairs(corpus, tmp_path):
    _, manifest, rows = corpus
    out = tmp_path / "cmp"
    assert main(["compare", "--manifest", str(manifest), "--out", str(out)]) == 0
    for row in rows:
        report = json.loads((out / f"{row['utterance_id']}.report.json").read_text())
        assert report == {name: 1.0 if name == "pearson_r" else 0.0 for name in report}

    agg = {line.split(",")[0]: line.split(",") for line in (out / "aggregate.csv").read_text().splitlines()[1:]}
    for label in ("L1", "L2", "SConv", "E_V/UV", "MAE(HQER)/%"):
        assert float(agg[label][1]) == 0.0
    assert float(agg["Pearson r"][1]) == 1.0


def test_compare_aggregate_labels_match_table(corpus, tmp_path):
    _, manifest, _ = corpus
    out = tmp_path / "cmp2"
    main(["compare", "--manifest", str(manifest), "--out", str(out)])
    labels = [line.split(",")[0] for line in (out / "aggregate.csv").read_text().splitlines()[1:]]
    assert labels == [
        "L1", "L2", "SConv", "f0_RMSE/Hz", "Pearson r", "E_V/UV",
        "MAE(HQER)/%", "MAE(CSlope)/dB/bin", "MAE(CCentroid)/bin", "MAE(CRoll95)/bin",
    ]
    assert [m[0] for m in AGGREGATE_MEASURES] == labels


def test_aggregate_csv_is_the_table_compare_writes(corpus, tmp_path):
    """``compare.aggregate_csv`` of the pairs' reports is the aggregate.csv that compare writes."""
    _, _, rows = corpus
    # each reference against the next utterance, so that no row reads 0
    shifted = [dict(r, syn_wav=rows[k - 1]["ref_wav"], f0_syn=rows[k - 1]["f0_ref"]) for k, r in enumerate(rows)]
    manifest, out = tmp_path / "shifted.csv", tmp_path / "cmp"
    _write_manifest(manifest, shifted)
    assert main(["compare", "--manifest", str(manifest), "--out", str(out)]) == 0
    reports = [build_report(cli.analyze(e.ref_wav, e.f0_ref, e.token_count), cli.analyze(e.syn_wav, e.f0_syn, e.token_count))
               for e in read_manifest(manifest)]
    assert (out / "aggregate.csv").read_bytes() == aggregate_csv(reports).encode()
    assert all(float(line.split(",")[1]) != 0.0 for line in aggregate_csv(reports).splitlines()[1:4])


def test_compare_failure_names_the_side_that_failed(corpus, tmp_path, capsys):
    """A silent reference and a silent synthesis once logged the same line.
    A failure of the entry or of the pair names no side."""
    _, _, rows = corpus
    silent, latin1 = tmp_path / "silent.wav", tmp_path / "latin1.f0.csv"
    write_wav_bytes(silent, np.zeros(SR // 2), SR, "pcm16")
    latin1.write_bytes(b"time_s,f0_hz\n0.0,\xff\n")
    wav = rows[0]["ref_wav"]
    pairs = [{"utterance_id": "ref_silent", "ref_wav": str(silent), "syn_wav": wav},
             {"utterance_id": "syn_silent", "ref_wav": wav, "syn_wav": str(silent)},
             {"utterance_id": "syn_latin1", "ref_wav": wav, "syn_wav": wav, "f0_syn": str(latin1)},
             {"utterance_id": "no_syn", "ref_wav": wav}]
    manifest, out = tmp_path / "m.csv", tmp_path / "cmp"
    _write_manifest(manifest, pairs, fields=("utterance_id", "ref_wav", "syn_wav", "f0_syn"))
    assert main(["compare", "--manifest", str(manifest), "--out", str(out)]) == 2
    silence = "SilentSignalError: signal entirely silent after trimming"
    assert (out / "errors.log").read_text().splitlines() == [
        "no_syn\tValueError: entry has no syn_wav",
        f"ref_silent\tref: {silence}",
        f"syn_latin1\tsyn: ValueError: cannot parse pitch CSV {latin1}: "
        "'utf-8' codec can't decode byte 0xff in position 17: invalid start byte",
        f"syn_silent\tsyn: {silence}",
    ]
    err = capsys.readouterr().err
    assert f"error: ref_silent: ref: {silence}\n" in err and f"error: syn_silent: syn: {silence}\n" in err


def test_compare_constant_log_offset_pair(tmp_path):
    rng = np.random.default_rng(7)
    x = 0.08 * rng.normal(0, 1, int(0.7 * SR))
    ref = tmp_path / "ref.wav"
    syn = tmp_path / "syn.wav"
    write_wav_bytes(ref, x, SR, "float32")
    write_wav_bytes(syn, np.e * x, SR, "float32")
    manifest = tmp_path / "m.csv"
    _write_manifest(manifest, [{"utterance_id": "pair", "ref_wav": str(ref), "syn_wav": str(syn)}])
    config = tmp_path / "cfg.txt"
    config.write_text("target_level_dbfs = none\n")

    out = tmp_path / "out"
    assert main(["compare", "--manifest", str(manifest), "--out", str(out), "--config", str(config)]) == 0
    report = json.loads((out / "pair.report.json").read_text())
    assert report["l1"] == pytest.approx(1.0, abs=1e-4)
    assert report["l2"] == pytest.approx(1.0, abs=1e-4)
    assert report["mae_hqer"] == pytest.approx(0.0, abs=1e-6)
    agg = {line.split(",")[0]: line.split(",") for line in (out / "aggregate.csv").read_text().splitlines()[1:]}
    assert float(agg["L1"][1]) == pytest.approx(1.0, abs=1e-4)


def test_compare_entry_without_syn_fails_partially(corpus, tmp_path):
    _, _, rows = corpus
    manifest = tmp_path / "m.csv"
    _write_manifest(manifest, [rows[0], dict(rows[1], syn_wav="", f0_syn="")])
    out = tmp_path / "out"
    assert main(["compare", "--manifest", str(manifest), "--out", str(out)]) == 2
    assert (out / "errors.log").read_text() == "utt01\tValueError: entry has no syn_wav\n"
    assert (out / "utt00.report.json").exists() and not (out / "utt01.report.json").exists()


def test_compare_manifest_without_syn_wav_column_is_usage_error(corpus, tmp_path, monkeypatch, capsys):
    """Without the column every entry ran to its own failure, exit 2."""
    _, _, rows = corpus
    manifest = tmp_path / "m.csv"
    fields = ("utterance_id", "ref_wav", "f0_ref", "token_count")
    _write_manifest(manifest, [{k: r[k] for k in fields} for r in rows], fields=fields)
    loaded = []
    monkeypatch.setattr(cli, "load_wav", loaded.append)
    out = tmp_path / "out"
    assert main(["compare", "--manifest", str(manifest), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: manifest must have utterance_id, ref_wav and syn_wav columns\n"
    assert not out.exists() and loaded == []


def test_corpus_stats_same_corpus_high_p(corpus, tmp_path):
    _, manifest, _ = corpus
    out = tmp_path / "stats.csv"
    code = main([
        "corpus-stats", "--manifest-a", str(manifest), "--manifest-b", str(manifest),
        "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "measure,mean_a,std_a,median_a,count_a,mean_b,std_b,median_b,count_b,p_value"
    assert len(lines) > 5
    # with token counts and pitch CSVs every measure has a row, in this order
    assert [line.split(",")[0] for line in lines[1:]] == [
        "duration_s", "phonemes_per_utterance", "spr", "mu_f0", "sigma_f0",
        "hqer", "cslope", "ccentroid", "croll95",
    ]
    for line in lines[1:]:
        assert float(line.split(",")[-1]) >= 0.99


def test_corpus_stats_disjoint_durations_low_p(tmp_path):
    rng = np.random.default_rng(3)
    manifests = []
    for name, base in (("a", 0.32), ("b", 0.78)):
        rows = []
        for k in range(20):
            wav = tmp_path / f"{name}{k:02d}.wav"
            write_wav_bytes(wav, speechlike(rng, base + 0.012 * k), SR, "float32")
            rows.append({"utterance_id": f"{name}{k:02d}", "ref_wav": str(wav)})
        manifest = tmp_path / f"manifest_{name}.csv"
        _write_manifest(manifest, rows, fields=("utterance_id", "ref_wav"))
        manifests.append(manifest)
    out = tmp_path / "stats.csv"
    code = main([
        "corpus-stats", "--manifest-a", str(manifests[0]), "--manifest-b", str(manifests[1]),
        "--out", str(out),
    ])
    assert code == 0
    rows = {line.split(",")[0]: line.split(",") for line in out.read_text().strip().splitlines()[1:]}
    # disjoint 20-vs-20 samples: exact two-sided p would be 2/C(40,20) ~ 1.5e-11,
    # so the normal-branch value must sit far below the 0.01 gate
    assert float(rows["duration_s"][-1]) < 0.01
    assert float(rows["duration_s"][1]) < float(rows["duration_s"][5])


def test_corpus_stats_warns_on_missing_measure(corpus, tmp_path, capsys):
    _, _, rows = corpus
    manifest = tmp_path / "nm.csv"
    slim = [{"utterance_id": r["utterance_id"], "ref_wav": r["ref_wav"]} for r in rows]
    _write_manifest(manifest, slim, fields=("utterance_id", "ref_wav"))
    out = tmp_path / "st.csv"
    assert main(["corpus-stats", "--manifest-a", str(manifest), "--manifest-b", str(manifest), "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "phonemes_per_utterance" in err and "omitted" in err
    measures = [line.split(",")[0] for line in out.read_text().strip().splitlines()[1:]]
    assert "phonemes_per_utterance" not in measures
    assert "hqer" in measures


def test_stats_csv_is_the_table_corpus_stats_writes(corpus, tmp_path, capsys):
    """``stats.stats_csv`` of the two corpora's records is the table corpus-stats
    writes, and the measures it leaves out are those the CLI warns about."""
    _, manifest, rows = corpus
    slim = tmp_path / "slim.csv"
    _write_manifest(slim, [{"utterance_id": r["utterance_id"], "ref_wav": r["ref_wav"]} for r in rows[:2]],
                    fields=("utterance_id", "ref_wav"))
    out = tmp_path / "stats.csv"
    assert main(["corpus-stats", "--manifest-a", str(manifest), "--manifest-b", str(slim), "--out", str(out)]) == 0
    warned = [line.split()[2] for line in capsys.readouterr().err.splitlines()]
    corpora = [[cli._stats_worker((e, load_run_config())) for e in read_manifest(m)] for m in (manifest, slim)]
    table, omitted = stats_csv(*corpora)
    assert out.read_bytes() == table.encode()
    assert omitted == warned == ["phonemes_per_utterance", "spr", "mu_f0", "sigma_f0"]


def test_synthlab_default_passes(tmp_path):
    out = tmp_path / "lab"
    assert main(["synthlab", "--out", str(out), "--spectrograms", "20"]) == 0
    csv_lines = (out / "monotonicity.csv").read_text().strip().splitlines()
    assert len(csv_lines) == 1 + 11  # header + (4 + 4 + 3) kind/strength rows
    props = (out / "properties.txt").read_text().strip().splitlines()
    assert len(props) == 11
    assert all(line.startswith("PASS") for line in props)


def test_synthlab_prints_and_writes_the_suite_properties(tmp_path, capsys):
    out = tmp_path / "lab"
    assert main(["synthlab", "--out", str(out), "--spectrograms", "3"]) == 0
    properties = run_monotonicity_suite(n_spectrograms=3).to_properties()
    assert capsys.readouterr().out == (out / "properties.txt").read_text() == properties
    assert properties.splitlines()[0] == "PASS monotonicity mel_moving_average strength=3"


def test_synthlab_injected_fault_exit_3(tmp_path):
    out = tmp_path / "lab-bad"
    assert main(["synthlab", "--out", str(out), "--spectrograms", "4", "--inject-fault"]) == 3
    props = (out / "properties.txt").read_text()
    assert "FAIL" in props


def test_load_run_config_overrides(tmp_path):
    config = tmp_path / "cfg.txt"
    config.write_text(
        "# comment line\n"
        "cutoff_q = 5\n"
        "eps = 1e-8\n"
        "silence_trim_ms = 150\n"
        "n_mels = 40\n"
    )
    run = load_run_config(config)
    assert run.metric.cutoff_q == 5
    assert run.metric.eps == 1e-8
    assert run.preprocess.silence_trim_ms == 150.0
    assert run.mel.n_mels == 40


@pytest.mark.parametrize("command", ["features", "compare", "corpus-stats"])
def test_out_of_range_qc_is_config_error(corpus, tmp_path, capsys, command):
    _, manifest, _ = corpus
    out = tmp_path / "out"
    config = tmp_path / "cfg.txt"
    config.write_text("cutoff_q = 100\n")
    assert main(_batch_argv(command, manifest, out) + ["--config", str(config)]) == 1
    assert "cutoff_q must be in [1, 41]" in capsys.readouterr().err
    assert not out.exists()


# the cutoff and epsilon are set in the config file only
@pytest.mark.parametrize("command", ["features", "compare", "corpus-stats"])
@pytest.mark.parametrize("flag", [["--qc", "5"], ["--eps", "1e-6"]], ids=["qc", "eps"])
def test_metric_flags_are_unrecognised(corpus, tmp_path, capsys, command, flag):
    _, manifest, _ = corpus
    out = tmp_path / "out"
    assert main(_batch_argv(command, manifest, out) + flag) == 1
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not out.exists()


def test_corpus_stats_writes_error_log(corpus, tmp_path):
    _, manifest, rows = corpus
    missing = {"utterance_id": "zz_missing", "ref_wav": str(tmp_path / "nope.wav")}
    with_missing = tmp_path / "a.csv"
    _write_manifest(with_missing, [dict(r) for r in rows] + [missing])
    out = tmp_path / "stats" / "stats.csv"
    argv = ["corpus-stats", "--manifest-a", str(with_missing), "--manifest-b", str(manifest), "--out", str(out)]
    assert main(argv) == 2
    assert out.exists()
    lines = (out.parent / "errors.log").read_text().splitlines()
    assert len(lines) == 1 and lines[0].startswith("a\tzz_missing\t")

    # a manifest with no usable entry still leaves its failures in errors.log
    only_missing = tmp_path / "b.csv"
    _write_manifest(only_missing, [missing])
    out = tmp_path / "stats2" / "stats.csv"
    argv = ["corpus-stats", "--manifest-a", str(manifest), "--manifest-b", str(only_missing), "--out", str(out)]
    assert main(argv) == 2
    assert not out.exists()
    lines = (out.parent / "errors.log").read_text().splitlines()
    assert len(lines) == 1 and lines[0].startswith("b\tzz_missing\t")


def test_corpus_stats_stderr_names_the_manifest(corpus, tmp_path, capsys):
    """The same id failing in both manifests printed two lines that only the
    file name told apart; stderr carries the errors.log fields, the manifest
    tag first."""
    _, _, rows = corpus
    argv = ["corpus-stats", "--out", str(tmp_path / "stats.csv")]
    for tag in ("a", "b"):
        _write_manifest(tmp_path / f"{tag}.csv", [dict(r) for r in rows] +
                        [{"utterance_id": "u1", "ref_wav": str(tmp_path / f"missing_{tag}.wav")}])
        argv += [f"--manifest-{tag}", str(tmp_path / f"{tag}.csv")]
    assert main(argv) == 2
    log = (tmp_path / "errors.log").read_text().splitlines()
    assert [line.split("\t")[:2] for line in log] == [["a", "u1"], ["b", "u1"]]
    assert capsys.readouterr().err.splitlines() == ["error: " + line.replace("\t", ": ") for line in log]
    assert "missing_a.wav" in log[0] and "missing_b.wav" in log[1]


def test_corpus_stats_without_a_usable_entry_removes_an_earlier_table(corpus, tmp_path, capsys):
    _, manifest, _ = corpus
    out = tmp_path / "stats" / "stats.csv"
    argv = ["corpus-stats", "--manifest-a", str(manifest), "--out", str(out), "--manifest-b"]
    assert main(argv + [str(manifest)]) == 0
    assert out.exists()
    capsys.readouterr()
    only_missing = tmp_path / "b.csv"
    _write_manifest(only_missing, [{"utterance_id": "zz_missing", "ref_wav": str(tmp_path / "nope.wav")}])
    assert main(argv + [str(only_missing)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.splitlines()[-1] == "error: no usable entries in manifest b"


def test_config_keys_are_the_section_fields_but_soft_tau(tmp_path):
    assert list(cli._CONFIG_KEYS) == [
        "target_rate", "silence_trim_ms", "silence_threshold_db", "highpass_hz", "target_level_dbfs",
        "n_fft", "win_length", "hop", "n_mels", "f_min", "f_max", "clamp_floor", "cutoff_q", "eps",
    ]
    assert [section for section, _ in cli._CONFIG_KEYS.values()] == (
        ["preprocess"] * 5 + ["stft"] * 3 + ["mel"] * 4 + ["metric"] * 2
    )
    assert "bool" not in cli._PARSERS
    # only target_level_dbfs spells None, and only as none; cutoff_q's None is its default
    config = tmp_path / "cfg.txt"
    config.write_text("target_level_dbfs = NONE\n")
    assert load_run_config(config).preprocess.target_level_dbfs is None
    config.write_text("target_level_dbfs = off\n")
    with pytest.raises(UsageError, match="config line 1: bad value for target_level_dbfs: could not convert string"):
        load_run_config(config)
    config.write_text("target_level_dbfs = 0\n")  # full scale, the highest target accepted
    assert load_run_config(config).preprocess.target_level_dbfs == 0.0
    config.write_text("cutoff_q = none\n")
    with pytest.raises(UsageError, match="config line 1: bad value for cutoff_q: invalid literal for int"):
        load_run_config(config)


# a valid value of each config key that moves the outputs of _key_fixture's wav
_KEY_VALUES = {
    "target_rate": "16000",
    "silence_trim_ms": "100",
    "silence_threshold_db": "-60",  # under the rumble: the pause is no longer silent, so it is not capped
    "highpass_hz": "100",
    "target_level_dbfs": "none",
    "n_fft": "2048",
    "win_length": "512",
    "hop": "128",
    "n_mels": "64",
    "f_min": "50",
    "f_max": "7000",
    "clamp_floor": "1e-3",
    "cutoff_q": "5",
    "eps": "1e-3",
}


@pytest.fixture(scope="module")
def key_outputs(tmp_path_factory):
    """The .lmel and .metrics.csv bytes of ``features`` on a float32
    speech-like wav with a 0.6 s zero pause, under a 30 Hz rumble at
    -57 dBFS, run with a config file (None: the defaults)."""
    root = tmp_path_factory.mktemp("keys")
    rng = np.random.default_rng(7)
    x = np.concatenate([speechlike(rng, 0.5), np.zeros(int(0.6 * SR)), speechlike(rng, 0.5)])
    write_wav_bytes(root / "u.wav", x + tone(30.0, x.size / SR, -57.0), SR, "float32")
    manifest = root / "m.csv"
    _write_manifest(manifest, [{"utterance_id": "u", "ref_wav": str(root / "u.wav")}], fields=("utterance_id", "ref_wav"))

    @functools.cache
    def outputs(config):
        out = root / f"out{len(list(root.glob('out*')))}"
        argv = ["features", "--manifest", str(manifest), "--out", str(out)]
        assert main(argv + (["--config", str(config)] if config else [])) == 0
        return (out / "u.lmel").read_bytes(), (out / "u.metrics.csv").read_bytes()
    return outputs


@pytest.mark.parametrize("key", list(cli._CONFIG_KEYS))
def test_every_config_key_reaches_an_output(key_outputs, tmp_path, key):
    """A key that no code reads would pass every other test; soft_tau was one."""
    config = tmp_path / "cfg.txt"
    config.write_text(f"{key} = {_KEY_VALUES[key]}\n")
    section = cli._CONFIG_KEYS[key][0]
    assert getattr(getattr(load_run_config(config), section), key) != getattr(getattr(load_run_config(), section), key)
    assert key_outputs(config) != key_outputs(None)


def test_readme_lists_the_config_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listed = readme.split("### Config file keys", 1)[1].split("`", 2)[1]
    assert [key.strip() for key in listed.split(",")] == list(cli._CONFIG_KEYS)


def test_readme_lists_the_output_fields():
    """The README copies four more lists by hand; a metric added to SERIES
    would leave each of them stale."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

    def listed(anchor):
        return [" ".join(item.split()) for item in readme.split(anchor, 1)[1].split("`", 2)[1].split(",")]

    assert listed("report.json` per pair with fields") == list(ComparisonReport._fields)
    assert listed("rows labeled") == [label for label, _, _ in AGGREGATE_MEASURES]
    assert listed("and a `.metrics.csv`") == ["frame_index", *METRIC_NAMES]
    header = readme.split("### Manifest format", 1)[1].split("```", 2)[1].split()[0]
    assert header.split(",") == list(MANIFEST_FIELDS)


def test_config_key_set_twice_is_usage_error(corpus, tmp_path, capsys):
    """The second value of a repeated key silently won."""
    config = tmp_path / "cfg.txt"
    config.write_text("hop = 256\n# comment\nn_mels = 80\nhop = 128\n")
    with pytest.raises(UsageError, match=r"^config line 4: key 'hop' already set on line 1$"):
        load_run_config(config)
    out = tmp_path / "out"
    assert main(["features", "--manifest", str(corpus[1]), "--out", str(out), "--config", str(config)]) == 1
    assert "already set on line 1" in capsys.readouterr().err
    assert not out.exists()


def test_load_run_config_rejects_unknown_key(tmp_path):
    config = tmp_path / "cfg.txt"
    config.write_text("mystery_flag = 1\n")
    with pytest.raises(UsageError):
        load_run_config(config)


def test_read_manifest_validation(tmp_path):
    manifest = tmp_path / "m.csv"
    manifest.write_text("utterance_id,ref_wav,f0_syn\nu1,a.wav,p.csv\n")
    with pytest.raises(UsageError, match="f0_syn"):
        read_manifest(manifest)
    manifest.write_text("utterance_id,ref_wav\nu1,a.wav\nu1,b.wav\n")
    with pytest.raises(UsageError, match="duplicate"):
        read_manifest(manifest)
    manifest.write_text("utterance_id,ref_wav,token_count\nu1,a.wav,twelve\n")
    with pytest.raises(UsageError, match="token_count"):
        read_manifest(manifest)
    manifest.write_text("utterance_id,ref_wav,ref_wav\nu1,a.wav,b.wav\n")  # the last cell won
    with pytest.raises(UsageError, match=r"columns named more than once: \['ref_wav'\]"):
        read_manifest(manifest)


@pytest.mark.parametrize("command", ["features", "compare", "corpus-stats"])
def test_duplicate_id_names_the_id_and_both_lines(corpus, tmp_path, monkeypatch, capsys, command):
    _, _, rows = corpus
    loaded = []
    monkeypatch.setattr(cli, "load_wav", loaded.append)
    # Utt01 and utt01 name one output file on the case-insensitive default volumes of macOS and Windows
    for k, (uid, spelling) in enumerate([("utt01", ""), ("Utt01", " as 'utt01'")]):
        manifest = tmp_path / f"m{k}.csv"
        _write_manifest(manifest, [rows[0], rows[1], rows[2], dict(rows[2], utterance_id=uid), rows[0]])
        out = tmp_path / "out"
        assert main(_batch_argv(command, manifest, out)) == 1
        assert capsys.readouterr().err == (f"error: manifest line 5: duplicate utterance_id {uid!r}, "
                                           f"first on line 3{spelling}\n")
        assert not out.exists() and loaded == []


def _batch_argv(command, manifest, out):
    """``command`` on ``manifest`` (corpus-stats: as manifest a and b), writing under ``out``."""
    if command == "corpus-stats":
        return [command, "--manifest-a", str(manifest), "--manifest-b", str(manifest), "--out", str(out / "stats.csv")]
    return [command, "--manifest", str(manifest), "--out", str(out)]


@pytest.mark.parametrize("command", ["features", "compare", "corpus-stats"])
@pytest.mark.parametrize("uid", ["../outside", "{root}/escaped", ".", "..", "a\\b", "a\tb", "a\x1bb",
                                 "a\u2028b", "a\u2029b"],
                         ids=["dotdot-prefix", "absolute", "dot", "dotdot", "backslash", "tab", "escape",
                              "line-separator", "paragraph-separator"])
def test_utterance_id_that_is_not_a_file_name_is_usage_error(corpus, tmp_path, monkeypatch, capsys, command, uid):
    """Output files are named ``<out>/<utterance_id>.<ext>``: an id holding a
    path wrote outside ``--out``, and a tab split its errors.log line, as
    U+2028 and U+2029 split it for ``str.splitlines``."""
    uid = uid.format(root=tmp_path)
    wav = corpus[2][0]["ref_wav"]
    manifest = tmp_path / "m.csv"
    _write_manifest(manifest, [{"utterance_id": "ok", "ref_wav": wav, "syn_wav": wav},
                               {"utterance_id": uid, "ref_wav": wav, "syn_wav": wav}],
                    fields=("utterance_id", "ref_wav", "syn_wav"))
    loaded = []
    monkeypatch.setattr(cli, "load_wav", loaded.append)
    out = tmp_path / "out" / "sub"
    assert main(_batch_argv(command, manifest, out)) == 1
    assert f"error: manifest line 3: utterance_id {uid!r} must not be" in capsys.readouterr().err
    assert loaded == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.csv"]


def test_utterance_id_with_dots_inside_is_accepted(tmp_path):
    manifest = tmp_path / "m.csv"
    manifest.write_text("utterance_id,ref_wav\n..a.b..,a.wav\nspk 1 utt 2,b.wav\n")
    assert [e.utterance_id for e in read_manifest(manifest)] == ["..a.b..", "spk 1 utt 2"]


@pytest.mark.parametrize("command, out_kind", [
    ("features", "file"), ("features", "under-file"), ("compare", "file"), ("compare", "under-file"),
    ("corpus-stats", "directory"), ("corpus-stats", "under-file"), ("corpus-stats", "errors-log"), ("synthlab", "file"),
])
def test_unusable_out_is_usage_error_before_any_work(corpus, tmp_path, monkeypatch, capsys, command, out_kind):
    """An --out that cannot be made, or a corpus-stats --out that is a
    directory, raised a traceback, for corpus-stats after the whole batch.
    A corpus-stats --out named errors.log took the table in place of the
    failure lines."""
    blocker = tmp_path / "blocker"
    blocker.write_text("keep\n")
    (tmp_path / "dir").mkdir()
    out = {"file": blocker, "under-file": blocker / "sub", "directory": tmp_path / "dir",
           "errors-log": tmp_path / "dir" / "errors.log"}[out_kind]
    loaded = []
    monkeypatch.setattr(cli, "load_wav", loaded.append)
    monkeypatch.setattr(cli.synthlab, "run_monotonicity_suite", loaded.append)
    m = str(corpus[1])
    argv = {"features": ["features", "--manifest", m, "--out", str(out)],
            "compare": ["compare", "--manifest", m, "--out", str(out)],
            "corpus-stats": ["corpus-stats", "--manifest-a", m, "--manifest-b", m,
                             "--out", str(out if out_kind in ("directory", "errors-log") else out / "stats.csv")],
            "synthlab": ["synthlab", "--out", str(out)]}[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(out) in err
    assert loaded == []
    assert blocker.read_text() == "keep\n" and list((tmp_path / "dir").iterdir()) == []


def test_negative_token_count_is_usage_error(corpus, tmp_path, capsys):
    """A negative count gave a negative ``spr`` and ``delta_spr``."""
    manifest = tmp_path / "m.csv"
    manifest.write_text("utterance_id,ref_wav,token_count\nu1,a.wav,0\nu2,b.wav,-7\n")
    with pytest.raises(UsageError, match="line 3: token_count must be a non-negative integer"):
        read_manifest(manifest)
    out = tmp_path / "stats.csv"
    assert main(["corpus-stats", "--manifest-a", str(manifest), "--manifest-b", str(corpus[1]), "--out", str(out)]) == 1
    assert "token_count" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "bad_rows",
    ["0.0,100\nnan,110\n0.02322,120", "0.0,100\n0.01161,nan\n0.02322,120", "0.0,100\n,110\n0.02322,120"],
    ids=["nan-time", "nan-f0", "empty-time"],
)
def test_non_finite_pitch_cell_fails_its_entry(corpus, tmp_path, bad_rows):
    _, manifest, rows = corpus
    bad_f0 = tmp_path / "bad.f0.csv"
    bad_f0.write_text("time_s,f0_hz\n" + bad_rows + "\n")
    fields = ("utterance_id", "ref_wav", "f0_ref", "token_count")
    good = [{name: row[name] for name in fields} for row in rows]
    with_bad = tmp_path / "a.csv"
    _write_manifest(with_bad, good + [dict(good[0], utterance_id="zz_bad", f0_ref=str(bad_f0))], fields=fields)
    out = tmp_path / "stats" / "stats.csv"
    argv = ["corpus-stats", "--manifest-a", str(with_bad), "--manifest-b", str(manifest), "--out", str(out)]
    assert main(argv) == 2
    assert out.exists()
    (line,) = (out.parent / "errors.log").read_text().splitlines()
    assert line.startswith(f"a\tzz_bad\tValueError: pitch CSV {bad_f0} row 3: expected finite numbers")


def test_compare_all_unvoiced_syn_pitch_reports_null(corpus, tmp_path):
    _, _, rows = corpus
    unvoiced = tmp_path / "unvoiced.f0.csv"
    _write_pitch(unvoiced, np.zeros(len(Path(rows[0]["f0_syn"]).read_text().splitlines()) - 1))
    manifest = tmp_path / "m.csv"
    _write_manifest(manifest, [dict(rows[0], f0_syn=str(unvoiced))])
    out = tmp_path / "cmp"
    assert main(["compare", "--manifest", str(manifest), "--out", str(out)]) == 0
    report = json.loads((out / f"{rows[0]['utterance_id']}.report.json").read_text())
    assert report["f0_rmse"] is None and report["pearson_r"] is None
    assert report["vuv_error"] > 0


def test_alignment_over_the_cell_budget_fails_its_entry(corpus, tmp_path, monkeypatch):
    _, manifest, rows = corpus
    run = load_run_config()
    frames = [cli.analyze(e.ref_wav, run=run).mel.n_frames for e in read_manifest(manifest)]
    assert frames == sorted(frames) and frames[1] < frames[2]
    # each pair aligns a wav with itself, so its largest alignment is the mel one
    monkeypatch.setattr(cli.cmp, "DTW_MAX_CELLS", frames[1] ** 2)
    out = tmp_path / "cmp"
    assert main(["compare", "--manifest", str(manifest), "--out", str(out)]) == 2
    (line,) = (out / "errors.log").read_text().splitlines()
    n = frames[2]
    assert line == (f"{rows[2]['utterance_id']}\tValueError: cannot align {n} x {n} frames: the cost matrix needs "
                    f"{8 * n * n} bytes, over the budget of {frames[1] ** 2} cells ({8 * frames[1] ** 2} bytes)")
    assert sorted(p.name for p in out.glob("*.report.json")) == [f"{row['utterance_id']}.report.json" for row in rows[:2]]


def test_header_only_pitch_csv_fails_its_entry(corpus, tmp_path):
    _, _, rows = corpus
    header_only = tmp_path / "empty.f0.csv"
    header_only.write_text("time_s,f0_hz\n")
    manifest = tmp_path / "m.csv"
    _write_manifest(manifest, [dict(rows[0]), dict(rows[1], f0_ref=str(header_only))])
    out = tmp_path / "cmp"
    assert main(["compare", "--manifest", str(manifest), "--out", str(out)]) == 2
    (line,) = (out / "errors.log").read_text().splitlines()
    assert line == f"{rows[1]['utterance_id']}\tref: ValueError: pitch CSV {header_only} has no rows"


def test_wav_rate_past_the_resampler_bound_fails_its_entry(corpus, tmp_path):
    _, _, rows = corpus
    fast = tmp_path / "fast.wav"
    write_wav_bytes(fast, speechlike(np.random.default_rng(5), 0.05, rate=1_000_003), 1_000_003, "pcm16")
    manifest = tmp_path / "m.csv"
    _write_manifest(manifest, [dict(rows[0]), {"utterance_id": "zz_fast", "ref_wav": str(fast)}])
    out = tmp_path / "feat"
    assert main(["features", "--manifest", str(manifest), "--out", str(out)]) == 2
    (line,) = (out / "errors.log").read_text().splitlines()
    assert line.startswith("zz_fast\tValueError: cannot resample 1000003 Hz to 22050 Hz: the ratio 22050/1000003")
    assert (out / f"{rows[0]['utterance_id']}.lmel").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["synthlab", "--spectrograms", "0"],
        ["synthlab", "--spectrograms", "-1"],
        ["features", "--workers", "0"],
        ["features", "--workers", "-2"],
        ["corpus-stats", "--workers", "0"],
        ["compare", "--workers", "two"],
        ["synthlab", "--seed", "-1"],  # numpy's seeding raised a bare ValueError
    ],
)
def test_count_flags_below_one_are_usage_errors(corpus, tmp_path, capsys, argv):
    _, manifest, _ = corpus
    out = tmp_path / "out"
    if argv[0] == "corpus-stats":
        argv = argv + ["--manifest-a", str(manifest), "--manifest-b", str(manifest), "--out", str(out / "s.csv")]
    elif argv[0] == "synthlab":
        argv = argv + ["--out", str(out)]
    else:
        argv = argv + ["--manifest", str(manifest), "--out", str(out)]
    assert main(argv) == 1
    minimum = 0 if "--seed" in argv else 1
    assert f"error: argument {argv[1]}: expected an integer of at least {minimum}" in capsys.readouterr().err
    assert not out.exists()


def test_corpus_stats_bad_manifest_b_fails_before_any_work(corpus, tmp_path, monkeypatch, capsys):
    _, manifest, _ = corpus
    loaded = []
    monkeypatch.setattr(cli, "load_wav", loaded.append)
    argv = ["corpus-stats", "--manifest-a", str(manifest), "--manifest-b", str(tmp_path / "nope.csv"),
            "--out", str(tmp_path / "stats.csv")]
    assert main(argv) == 1
    assert "cannot read manifest" in capsys.readouterr().err
    assert loaded == []


def _serial_and_parallel(command, manifest, other, out_root, capsys):
    """Outputs ({name: bytes}) and stderr of ``command`` with ``--workers`` 1
    and 2; ``other`` is corpus-stats's manifest b.  Every run exits 2."""
    outputs, stderr = [], []
    for workers in ("1", "2"):
        out = out_root / f"w{workers}"
        if command != "corpus-stats":
            argv = [command, "--manifest", str(manifest), "--out", str(out)]
        else:
            argv = [command, "--manifest-a", str(manifest), "--manifest-b", str(other),
                    "--out", str(out / "stats.csv")]
        assert main(argv + ["--workers", workers]) == 2
        stderr.append(capsys.readouterr().err)
        outputs.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
    return outputs, stderr


def _expected_outputs(command, rows):
    if command == "features":
        return {"errors.log"} | {f"{r['utterance_id']}{suffix}" for r in rows for suffix in (".lmel", ".metrics.csv")}
    if command == "corpus-stats":
        return {"errors.log", "stats.csv"}
    return {"errors.log", "aggregate.csv"} | {f"{r['utterance_id']}.report.json" for r in rows}


@pytest.mark.parametrize("command", ["features", "compare", "corpus-stats"])
def test_batch_parallel_matches_serial(corpus, tmp_path, capsys, command):
    _, manifest, rows = corpus
    with_missing = tmp_path / "with_missing.csv"
    missing = dict(rows[0], utterance_id="utt01x", ref_wav=str(tmp_path / "nope.wav"))
    _write_manifest(with_missing, [dict(r) for r in rows] + [missing])
    outputs, stderr = _serial_and_parallel(command, with_missing, manifest, tmp_path, capsys)
    assert set(outputs[0]) == _expected_outputs(command, rows)
    assert outputs[0] == outputs[1]
    assert "utt01x" in stderr[0] and stderr[0] == stderr[1]


@pytest.mark.parametrize("command", ["compare", "corpus-stats"])
def test_batch_parallel_under_spawn_matches_serial(corpus, tmp_path, capsys, monkeypatch, command):
    """Under the spawn start method (macOS, Windows) and forkserver (Linux
    from Python 3.14) the workers import the payload and result records by
    name, so reports and stats records must pickle by reference to their
    module; they also build the run's operators themselves."""
    for method in ("spawn", "forkserver"):
        pool = functools.partial(ProcessPoolExecutor, mp_context=multiprocessing.get_context(method))
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", pool)
        (tmp_path / method).mkdir()
        test_batch_parallel_matches_serial(corpus, tmp_path / method, capsys, command)


def _many_entries(corpus, count):
    """``count`` manifest rows that reuse the corpus's three wavs and pitch CSVs."""
    _, _, rows = corpus
    return [dict(rows[k % len(rows)], utterance_id=f"many{k:02d}", token_count=20 + k) for k in range(count)]


@pytest.mark.parametrize("command", ["features", "compare", "corpus-stats"])
def test_batch_parallel_matches_serial_across_chunks(corpus, tmp_path, capsys, command):
    """With more entries than pool chunks, some chunks hold several entries,
    and one of them a failing entry; the results still come back in
    manifest order, byte-identical to the serial run."""
    rows = _many_entries(corpus, 19)
    assert len(rows) > 2 * cli.CHUNKS_PER_WORKER
    missing = dict(rows[5], utterance_id="many05x", ref_wav=str(tmp_path / "nope.wav"))
    manifest = tmp_path / "many.csv"
    _write_manifest(manifest, rows + [missing])
    outputs, stderr = _serial_and_parallel(command, manifest, corpus[1], tmp_path, capsys)
    assert set(outputs[0]) == _expected_outputs(command, rows)
    assert outputs[0] == outputs[1]
    assert stderr[0].count("error: ") == 1 and "many05x" in stderr[0] and stderr[0] == stderr[1]


def test_pool_gets_one_task_per_chunk(corpus, tmp_path, monkeypatch):
    """20 entries on 2 workers reach the pool in at most 2 * CHUNKS_PER_WORKER
    submits of contiguous chunks, which together hold the manifest in order."""
    rows = _many_entries(corpus, 20)
    manifest = tmp_path / "many.csv"
    _write_manifest(manifest, rows)
    sizes, chunks = [], []

    class Recorder(ThreadPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

        def submit(self, fn, worker, chunk):
            chunks.append([entry.utterance_id for entry, *_ in chunk])
            return super().submit(fn, worker, chunk)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", Recorder)
    out = tmp_path / "out"
    assert main(["features", "--manifest", str(manifest), "--out", str(out), "--workers", "2"]) == 0
    assert sizes == [2]
    assert 2 <= len(chunks) <= 2 * cli.CHUNKS_PER_WORKER
    assert [utt for chunk in chunks for utt in chunk] == [r["utterance_id"] for r in rows]
    assert len(list(out.glob("*.lmel"))) == 20


@pytest.mark.parametrize("workers", [2, 3])
def test_chunks_are_contiguous_and_balanced(workers):
    for n in range(1, 30):
        chunks = cli._chunks(list(range(n)), workers)
        assert len(chunks) == min(n, cli.CHUNKS_PER_WORKER * workers)
        assert [k for chunk in chunks for k in chunk] == list(range(n))
        assert max(map(len, chunks)) - min(map(len, chunks)) <= 1


def test_compare_all_entries_failing_writes_empty_aggregate(corpus, tmp_path, capsys):
    _, _, rows = corpus
    manifest = tmp_path / "m.csv"
    fields = ("utterance_id", "ref_wav", "syn_wav")
    _write_manifest(manifest, [dict(utterance_id=r["utterance_id"], ref_wav=r["ref_wav"],
                                    syn_wav=str(tmp_path / "missing.wav")) for r in rows], fields=fields)
    out = tmp_path / "out"
    assert main(["compare", "--manifest", str(manifest), "--out", str(out)]) == 2
    expected = ["measure,mean,std,count"] + [f"{label},,,0" for label, _, _ in AGGREGATE_MEASURES]
    assert (out / "aggregate.csv").read_text().splitlines() == expected
    assert (out / "aggregate.csv").read_bytes() == aggregate_csv([]).encode()
    assert len(expected) == 11
    assert len((out / "errors.log").read_text().splitlines()) == len(rows)
    assert capsys.readouterr().err.count("missing.wav") == len(rows)


def test_pool_is_capped_at_entry_count(corpus, tmp_path, monkeypatch):
    _, manifest, rows = corpus
    sizes = []

    class Recorder(ThreadPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", Recorder)
    assert main(["features", "--manifest", str(manifest), "--out", str(tmp_path / "out"), "--workers", "8"]) == 0
    assert sizes == [len(rows)] == [3]


@pytest.mark.parametrize(
    "config, flags",
    [
        ("hop = -2", []),
        ("highpass_hz = -5", []),
        ("silence_threshold_db = nan", []),
        ("eps = nan", []),
        ("hop = 0", []),
        ("highpass_hz = 0", []),
        ("silence_trim_ms = inf", []),
        ("clamp_floor = nan", []),
        ("target_level_dbfs = inf", []),
        ("f_max = 20000", []),
        ("n_fft = 1\nwin_length = 1\nhop = 1", []),
        ("soft_tau = 50", []),  # only croll95_soft reads it, and no subcommand calls that
        ("target_level_dbfs = 7000", []),  # a gain that overflows float64
        ("target_level_dbfs = 0.5", []),  # above full scale
        ("n_fft = 1023\nwin_length = 1023", []),  # n_fft - hop odd
        ("clamp_floor = 0", []),
        ("n_mels = 2\ncutoff_q = 1", []),  # a 2-point Hann window is zero: every frame degenerate
        ("n_mels = 3\ncutoff_q = 1", []),  # 2 quefrency bins, too few for CSlope's line
        ("silence_threshold_db = 5", []),  # above full scale: a full-scale signal would read silent
        ("highpass_hz = 1e-9", []),  # below 10 Hz, where the filter leaves scipy's; here it is not finite
        # like soft_tau, keys of removed parameters: CRoll95 is always the 95 % rolloff, long pauses always capped
        ("cap_long_silence = true", []),
        ("rolloff_fraction = 0.95", []),
        ("target_level_dbfs = off", []),  # none is the one spelling of no level normalization
        ("silence_trim_ms = 0.01", []),  # 0.22 samples, rounded to 0: a long pause would be deleted, not capped
        ("f_min = -20", []),  # once ran, with a filterbank that reached below 0 Hz
        # each once built a 3.64 or 7.28 TiB array of bin frequencies or band edges before any check
        ("n_fft = 1000000000000", []),
        ("n_mels = 1000000000000", []),
        ("silence_trim_ms = 1e305", []),  # infinitely many samples: once loaded, then failed every entry
    ],
)
def test_bad_config_values_exit_1_before_any_work(corpus, tmp_path, monkeypatch, config, flags):
    _, manifest, _ = corpus
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(config + "\n")
    loaded = []
    monkeypatch.setattr(cli, "load_wav", loaded.append)
    out = tmp_path / "out"
    assert main(["features", "--manifest", str(manifest), "--out", str(out), "--config", str(cfg)] + flags) == 1
    assert not out.exists()
    assert loaded == []


@pytest.mark.parametrize("config, message", [
    ("target_level_dbfs = 7000", "target_level_dbfs must be at most 0 dBFS, got 7000"),
    ("silence_threshold_db = 5", "silence_threshold_db must be at most 0 dBFS, got 5"),
    ("n_mels = 3\ncutoff_q = 1", "n_mels must be at least 4 for the 3 quefrency bins of CSlope, got 3"),
    # the error named cutoff_q without saying that its default was at fault
    *[(f"n_mels = {n}", "the default cutoff_q, floor(0.25 * 3 quefrency bins) = 0, is outside [1, 3]; set cutoff_q")
      for n in (4, 5)],
    ("highpass_hz = 1e-9", "highpass_hz must be at least 10 Hz, got 1e-09"),
    ("silence_trim_ms = 0.01", "silence_trim_ms must keep at least one sample at 22050 Hz, got 0.01"),
    ("f_min = -20", "f_min must be at least 0 Hz, got -20"),
    ("n_fft = 1000000000000", "n_fft must be at most 32768, got 1000000000000"),
    ("n_mels = 1000000000000",
     "mel filterbank has bands with empty FFT-bin support: n_mels 1000000000000 is over twice the 513 FFT bins"),
    ("silence_trim_ms = 1e305", "silence_trim_ms must be a finite number of samples at 22050 Hz, got 1e+305"),
])
def test_config_error_names_its_key(corpus, tmp_path, capsys, config, message):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(config + "\n")
    out = tmp_path / "out"
    assert main(["features", "--manifest", str(corpus[1]), "--out", str(out), "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: invalid configuration: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
@pytest.mark.parametrize("cls, name", [(cls, f.name) for cls in (PreprocessConfig, MelConfig, MetricConfig)
                                       for f in dataclasses.fields(cls)], ids=lambda v: getattr(v, "__name__", v))
def test_config_classes_reject_non_finite_values(cls, name, value):
    """Library callers reach the classes without the config file's parser,
    which once held the only NaN and inf check: MetricConfig(eps=nan) made
    every CSlope nan."""
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
        cls(**{name: value})


def test_fewest_mel_bands_and_loudest_silence_threshold_load(corpus, tmp_path):
    """n_mels 4 gives CSlope its 3 quefrency bins, and a 0 dBFS gate, full
    scale, is the loudest accepted."""
    config = tmp_path / "cfg.txt"
    config.write_text("n_mels = 4\ncutoff_q = 1\nsilence_threshold_db = 0\n")
    run = load_run_config(config)
    assert (run.mel.n_mels, run.metric.cutoff_q, run.preprocess.silence_threshold_db) == (4, 1, 0.0)
    config.write_text("n_mels = 4\ncutoff_q = 1\n")
    out = tmp_path / "out"
    assert main(["features", "--manifest", str(corpus[1]), "--out", str(out), "--config", str(config)]) == 0


@pytest.mark.parametrize(
    "parse, data",
    [
        (read_manifest, b"utterance_id,ref_wav\nu\xff,a.wav\n"),
        (read_manifest, b"utterance_id,ref_wav\nu," + b"a" * 131073 + b"\n"),
        (load_run_config, b"n_mels = 80\xff\n"),
    ],
)
def test_undecodable_or_oversized_input_is_usage_error(tmp_path, parse, data):
    path = tmp_path / "input"
    path.write_bytes(data)
    with pytest.raises(UsageError):
        parse(path)


# Excel's "CSV UTF-8" and Notepad start a file with a byte-order mark, which
# utf-8 decoding kept as part of the first column name or key.
def test_read_manifest_accepts_utf8_bom(tmp_path):
    manifest = tmp_path / "m.csv"
    manifest.write_bytes(b"\xef\xbb\xbfutterance_id,ref_wav\nu1,a.wav\n")
    assert [(e.utterance_id, e.ref_wav) for e in read_manifest(manifest)] == [("u1", "a.wav")]


def test_load_run_config_accepts_utf8_bom(tmp_path):
    config = tmp_path / "cfg.txt"
    config.write_bytes(b"\xef\xbb\xbftarget_rate = 16000\n")
    assert load_run_config(config).preprocess.target_rate == 16000


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


# No digits in free text: a many-digit n_fft would build a filterbank of gigabytes.
_TEXT = st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=8)
_NUMBER = st.integers(-9999, 9999).flatmap(
    lambda n: st.sampled_from([str(n), f"{n / 10:g}", f"{n / 1000:g}", f"{n % 100}e{n // 1000}"])
)
_CONFIG_VALUE = _NUMBER | st.sampled_from(["nan", "inf", "-inf", "none", "off", "yes", "ture"]) | _TEXT
_CONFIG_LINE = st.builds(
    lambda key, value: f"{key} = {value}", st.sampled_from(sorted(cli._CONFIG_KEYS)) | _TEXT, _CONFIG_VALUE
) | _TEXT
_MANIFEST = st.builds(
    lambda header, rows: "\n".join([",".join(header)] + [",".join(row) for row in rows]),
    st.lists(st.sampled_from(MANIFEST_FIELDS + ("x",)), max_size=8)
    | st.lists(st.sampled_from(MANIFEST_FIELDS[2:]), unique=True).map(lambda extra: ["utterance_id", "ref_wav"] + extra),
    st.lists(st.lists(_NUMBER | _TEXT, max_size=8), max_size=5),
)


@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=300) | _MANIFEST.map(str.encode))
def test_read_manifest_parses_or_raises_usage_error(fuzz_dir, data):
    path = fuzz_dir / "manifest.csv"
    path.write_bytes(data)
    try:
        read_manifest(path)
    except UsageError:
        pass


@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=300) | st.lists(_CONFIG_LINE, max_size=8).map(lambda lines: "\n".join(lines).encode()))
def test_load_run_config_parses_or_raises_usage_error(fuzz_dir, data):
    path = fuzz_dir / "config.txt"
    path.write_bytes(data)
    try:
        load_run_config(path)
    except UsageError:
        pass


def test_subcommands_agree_on_shared_measures(tmp_path):
    rng = np.random.default_rng(11)
    rows = {}
    for side, seconds, base_hz in (("ref", 0.7, 118.0), ("syn", 0.9, 131.0)):
        wav = tmp_path / f"{side}.wav"
        samples = speechlike(rng, seconds)
        write_wav_bytes(wav, samples, SR, "float32")
        f0 = tmp_path / f"{side}.f0.csv"
        contour = base_hz + 9.0 * np.sin(np.arange(samples.size // 256) / (5.0 if side == "ref" else 3.0))
        contour[20:26] = 0.0
        _write_pitch(f0, contour)
        rows[side] = {"wav": str(wav), "f0": str(f0)}
    pair = tmp_path / "pair.csv"
    _write_manifest(pair, [{
        "utterance_id": "u", "ref_wav": rows["ref"]["wav"], "syn_wav": rows["syn"]["wav"],
        "f0_ref": rows["ref"]["f0"], "f0_syn": rows["syn"]["f0"], "token_count": 24,
    }])
    fields = ("utterance_id", "ref_wav", "f0_ref", "token_count")
    for side in ("ref", "syn"):
        _write_manifest(tmp_path / f"{side}.csv", [{
            "utterance_id": "u", "ref_wav": rows[side]["wav"], "f0_ref": rows[side]["f0"], "token_count": 24,
        }], fields=fields)
    assert main(["compare", "--manifest", str(pair), "--out", str(tmp_path / "cmp")]) == 0
    assert main(["corpus-stats", "--manifest-a", str(tmp_path / "ref.csv"), "--manifest-b", str(tmp_path / "syn.csv"),
                 "--out", str(tmp_path / "stats.csv")]) == 0
    report = json.loads((tmp_path / "cmp" / "u.report.json").read_text())
    table = {line.split(",")[0]: line.split(",") for line in (tmp_path / "stats.csv").read_text().splitlines()[1:]}
    for name in ("mu_f0", "sigma_f0", "spr", "hqer"):
        delta = report[f"delta_{name}"]
        mean_a, mean_b = float(table[name][1]), float(table[name][5])
        assert delta != 0.0
        # each printed value carries at most half a unit in its 6th significant digit
        assert abs(delta - (mean_b - mean_a)) <= 5e-6 * (abs(delta) + abs(mean_a) + abs(mean_b))


def test_metric_added_to_series_reaches_every_output(corpus, tmp_path):
    """One entry in ``SERIES`` and one in ``METRIC_LABELS`` add a metric to
    every output; ``UtteranceMetrics`` once typed the four metric fields by
    hand, so an added metric failed every entry with a TypeError."""
    src = tmp_path / "src"
    shutil.copytree(Path(cli.__file__).parent, src / "melcep", ignore=shutil.ignore_patterns("__pycache__"))
    osmetrics = src / "melcep" / "osmetrics.py"
    text = osmetrics.read_text(encoding="utf-8")
    for anchor, entry in (('    "croll95": croll95_series,\n', '    "extra": ccentroid_series,\n'),
                          ('    "croll95": ("CRoll95", "bin", 1.0),\n', '    "extra": ("Extra", "bin", 1.0),\n')):
        assert text.count(anchor) == 1
        text = text.replace(anchor, anchor + entry)
    osmetrics.write_text(text, encoding="utf-8")
    _, _, rows = corpus
    manifest = tmp_path / "two.csv"
    _write_manifest(manifest, rows[:2])
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(src))
    for argv in (["features", "--manifest", str(manifest), "--out", str(out / "feat")],
                 ["compare", "--manifest", str(manifest), "--out", str(out / "cmp")],
                 ["corpus-stats", "--manifest-a", str(manifest), "--manifest-b", str(manifest),
                  "--out", str(out / "stats.csv")]):
        proc = subprocess.run([sys.executable, "-m", "melcep.cli", *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
    uid = rows[0]["utterance_id"]
    header = (out / "feat" / f"{uid}.metrics.csv").read_text().splitlines()[0]
    assert header == "frame_index,hqer,cslope,ccentroid,croll95,extra"
    report = json.loads((out / "cmp" / f"{uid}.report.json").read_text())
    assert report["mae_extra"] == 0.0 and report["delta_extra"] == 0.0
    aggregate = [line.split(",")[0] for line in (out / "cmp" / "aggregate.csv").read_text().splitlines()]
    assert aggregate[-1] == "MAE(Extra)/bin"
    assert [line.split(",")[0] for line in (out / "stats.csv").read_text().splitlines()][-1] == "extra"


def test_runtime_imports_no_scipy():
    """Importing melcep loads no scipy and needs no ctypes: the allocator
    policy imports it when ``main`` runs.  numpy imports ctypes when it can,
    so ctypes is blocked rather than looked for in ``sys.modules``."""
    code = ("import sys; sys.modules['ctypes'] = None; import melcep, melcep.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=PACKAGE_PARENT)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("argv, code, files, stderr", [
    (["synthlab", "--spectrograms", "2", "--out", "out"], 0, ["monotonicity.csv", "properties.txt"], ""),
    (["synthlab", "--spectrograms", "0", "--out", "out"], 1, [],
     "error: argument --spectrograms: expected an integer of at least 1, got '0'\n"),
    (["features", "--manifest", "m.csv", "--out", "out"], 2, ["errors.log", "utt00.lmel", "utt00.metrics.csv"],
     "error: gone: .+\n"),
    (["synthlab", "--spectrograms", "2", "--inject-fault", "--out", "out"], 3,
     ["monotonicity.csv", "properties.txt"], ""),
], ids=["pass", "usage-error", "missing-wav", "injected-fault"])
def test_console_script_exit_code_crosses_the_process_boundary(corpus, tmp_path, argv, code, files, stderr):
    """The ``melcep`` command runs what pip's wrapper runs for the target in
    pyproject.toml, ``sys.exit(<function>())`` in a fresh interpreter, and
    exits with ``main``'s code.  pyproject.toml is read as text: Python 3.10
    has no tomllib."""
    _, _, rows = corpus
    _write_manifest(tmp_path / "m.csv", [rows[0], dict(rows[0], utterance_id="gone", ref_wav=str(tmp_path / "gone.wav"))])
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    target = re.search(r'^\[project\.scripts\]\nmelcep = "([\w.]+):(\w+)"$', pyproject, re.MULTILINE)
    assert target, "pyproject.toml maps no melcep command in [project.scripts]"
    module, function = target.groups()
    script = f"import sys; from {module} import {function}; sys.exit({function}())"
    env = dict(os.environ, PYTHONPATH=PACKAGE_PARENT)
    proc = subprocess.run([sys.executable, "-c", script, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    assert re.fullmatch(stderr, proc.stderr), proc.stderr
    out = tmp_path / "out"
    assert (sorted(p.name for p in out.iterdir()) if out.exists() else []) == files
    if code == 2:
        assert (out / "errors.log").read_text().startswith("gone\t")
    if "properties.txt" in files:
        assert ("FAIL" in (out / "properties.txt").read_text()) == (code == 3)


def _raise(exc):
    def confstr(name):
        raise exc(name)
    return confstr


@pytest.mark.parametrize(
    "confstr",
    [_raise(ValueError), _raise(OSError), _raise(AttributeError), lambda name: None],
    ids=["ValueError", "OSError", "AttributeError", "None"],
)
def test_keep_freed_heap_is_a_no_op_off_glibc(monkeypatch, confstr):
    import ctypes

    def no_cdll(*args, **kwargs):
        raise AssertionError("mallopt looked up without glibc")

    monkeypatch.setattr(os, "confstr", confstr)
    monkeypatch.setattr(ctypes, "CDLL", no_cdll)
    assert cli._keep_freed_heap() is None


def test_second_batch_reuses_freed_heap(tmp_path):
    """Under the allocator policy a second serial corpus-stats run over short
    utterances reuses the heap the first one freed.  With glibc's adaptive
    thresholds it faulted in about 400-600 pages per utterance again."""
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, OSError, ValueError):
        glibc = None
    if not glibc:
        pytest.skip("the policy is set through glibc's mallopt")
    rng = np.random.default_rng(23)
    fields = ("utterance_id", "ref_wav", "f0_ref", "token_count")
    manifests = []
    for side in ("a", "b"):
        rows = []
        for k in range(12):
            utt, seconds = f"{side}{k:02d}", 0.8 + 0.2 * k
            wav, f0 = tmp_path / f"{utt}.wav", tmp_path / f"{utt}.f0.csv"
            write_wav_bytes(wav, speechlike(rng, seconds), SR, "pcm16")
            _write_pitch(f0, 120.0 + 10.0 * np.sin(np.arange(int(seconds / HOP_S)) / 7.0))
            rows.append({"utterance_id": utt, "ref_wav": str(wav), "f0_ref": str(f0), "token_count": 20 + k})
        manifests.append(tmp_path / f"{side}.csv")
        _write_manifest(manifests[-1], rows, fields=fields)
    argv = ["corpus-stats", "--manifest-a", str(manifests[0]), "--manifest-b", str(manifests[1]),
            "--out", str(tmp_path / "stats.csv")]
    code = (f"import resource; from melcep.cli import main; argv = {argv!r}\n"
            "first = main(argv); before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "second = main(argv); print(first, second, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)")
    env = dict(os.environ, PYTHONPATH=PACKAGE_PARENT)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    first, second, faults = map(int, proc.stdout.split())
    assert first == second == 0
    assert faults < 50 * 24


def _mmaps_8_mib(_):
    """Whether an 8 MiB array in this process grows glibc's mmapped bytes,
    as it does when no allocator policy is set."""
    import ctypes

    class Mallinfo2(ctypes.Structure):
        _fields_ = [(name, ctypes.c_size_t) for name in ("arena", "ordblks", "smblks", "hblks", "hblkhd",
                                                         "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")]

    mallinfo2 = ctypes.CDLL(None).mallinfo2
    mallinfo2.restype = Mallinfo2
    before = mallinfo2().hblkhd
    block = np.ones(1 << 20)
    grew = mallinfo2().hblkhd > before
    del block
    return grew


def test_spawned_pool_workers_keep_freed_heap(monkeypatch):
    """A worker started by spawn or forkserver does not inherit the parent's
    allocator policy, so the pool sets it in each worker; without it an
    8 MiB array was mmapped in the worker."""
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, OSError, ValueError):
        glibc = None
    if not glibc or tuple(map(int, glibc.split()[1].split(".")[:2])) < (2, 33):
        pytest.skip("mallinfo2 needs glibc 2.33")
    spawn_pool = functools.partial(ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn"))
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", spawn_pool)
    assert cli._run_pool(_mmaps_8_mib, [0, 1], 2) == [(None, False), (None, False)]


_RUN_OPERATOR_CACHES = (spectral._cached_filterbank, spectral._stft_window, audio._highpass_design)


def _operator_cache_sizes(_):
    return tuple(cache.cache_info().currsize for cache in _RUN_OPERATOR_CACHES)


def test_forked_pool_workers_inherit_the_run_operators():
    """Loading the run's config builds its mel filterbank, STFT window and
    high-pass design into the caches the analysis reads, so each worker
    forked after it finds them built; each once built its own three."""
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("only a forked worker inherits the parent's caches")
    for cache in _RUN_OPERATOR_CACHES:
        cache.cache_clear()
    load_run_config(None)
    assert cli._run_pool(_operator_cache_sizes, [0, 1], 2) == [(None, (1, 1, 1))] * 2


def test_dying_worker_fails_unfinished_entries(tmp_path, monkeypatch, capsys):
    """A worker killed mid-batch (here ``os._exit``) must not abort the batch:
    finished entries keep their outputs, every entry without a result is in
    errors.log and has no outputs, the run exits 2, and nothing runs in more
    than the 2 worker processes (no retry in the parent)."""
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the dying entry reaches the workers through a forked copy of the module")
    rng = np.random.default_rng(7)
    rows = []
    for k in range(5):
        wav = tmp_path / f"utt{k}.wav"
        write_wav_bytes(wav, speechlike(rng, 0.4), SR, "float32")
        rows.append({"utterance_id": f"utt{k}", "ref_wav": str(wav)})
    manifest = tmp_path / "m.csv"
    _write_manifest(manifest, rows, fields=("utterance_id", "ref_wav"))
    pids = tmp_path / "pids.txt"
    real_load_wav = cli.load_wav

    def load_or_die(path):
        with open(pids, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        if Path(path).stem == "utt2":
            os._exit(7)
        return real_load_wav(path)

    monkeypatch.setattr(cli, "load_wav", load_or_die)
    out = tmp_path / "out"
    assert main(["features", "--manifest", str(manifest), "--out", str(out), "--workers", "2"]) == 2
    failed = dict(line.split("\t") for line in (out / "errors.log").read_text().splitlines())
    assert failed["utt2"].startswith("BrokenProcessPool: ")
    err = capsys.readouterr().err
    for k in range(5):
        utt = f"utt{k}"
        if utt in failed:
            assert f"error: {utt}: BrokenProcessPool: " in err
            assert not list(out.glob(f"{utt}.*"))
        else:
            assert read_blob(out / f"{utt}.lmel").n_frames > 0
            assert (out / f"{utt}.metrics.csv").read_text().startswith("frame_index,")
    workers = set(pids.read_text().split())
    assert 1 <= len(workers) <= 2 and str(os.getpid()) not in workers


def test_dying_worker_fails_its_whole_chunk(tmp_path, monkeypatch, capsys):
    """When a worker dies inside a chunk of several entries, every entry of
    that chunk fails and loses its outputs, also the one that ran before the
    crash; chunks that returned keep their outputs, the run exits 2, and no
    entry runs in the parent."""
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the dying entry reaches the workers through a forked copy of the module")
    rng = np.random.default_rng(8)
    rows = []
    for k in range(12):
        wav = tmp_path / f"utt{k:02d}.wav"
        write_wav_bytes(wav, speechlike(rng, 0.3), SR, "float32")
        rows.append({"utterance_id": f"utt{k:02d}", "ref_wav": str(wav)})
    manifest = tmp_path / "m.csv"
    _write_manifest(manifest, rows, fields=("utterance_id", "ref_wav"))
    chunks = cli._chunks([r["utterance_id"] for r in rows], 2)
    dying_chunk = next(chunk for chunk in chunks[2:] if len(chunk) > 1)
    pids = tmp_path / "pids.txt"
    real_load_wav = cli.load_wav

    def load_or_die(path):
        with open(pids, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        if Path(path).stem == dying_chunk[-1]:
            os._exit(7)
        return real_load_wav(path)

    monkeypatch.setattr(cli, "load_wav", load_or_die)
    out = tmp_path / "out"
    assert main(["features", "--manifest", str(manifest), "--out", str(out), "--workers", "2"]) == 2
    failed = dict(line.split("\t") for line in (out / "errors.log").read_text().splitlines())
    assert set(dying_chunk) <= set(failed)
    assert all(message.startswith("BrokenProcessPool: ") for message in failed.values())
    err = capsys.readouterr().err
    for chunk in chunks:
        assert set(chunk) <= set(failed) or not set(chunk) & set(failed)
    for row in rows:
        utt = row["utterance_id"]
        if utt in failed:
            assert f"error: {utt}: BrokenProcessPool: " in err
            assert not list(out.glob(f"{utt}.*"))
        else:
            assert read_blob(out / f"{utt}.lmel").n_frames > 0
            assert (out / f"{utt}.metrics.csv").read_text().startswith("frame_index,")
    workers = set(pids.read_text().split())
    assert 1 <= len(workers) <= 2 and str(os.getpid()) not in workers


@pytest.mark.parametrize("command", ["compare", "corpus-stats"])
def test_batch_run_leaves_numpy_ma_unimported(corpus, tmp_path, command):
    """``np.median`` imports numpy.ma on first use; the summaries do without it."""
    m = str(corpus[1])
    argv = (["compare", "--manifest", m, "--out", str(tmp_path / "cmp")] if command == "compare"
            else ["corpus-stats", "--manifest-a", m, "--manifest-b", m, "--out", str(tmp_path / "stats.csv")])
    code = f"import sys; from melcep.cli import main; rc = main({argv!r}); print(rc, 'numpy.ma' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=PACKAGE_PARENT)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]


@pytest.mark.parametrize("command", ["features", "compare", "corpus-stats"])
def test_serial_run_leaves_the_pool_unimported(corpus, tmp_path, command):
    """A serial batch run imports neither concurrent.futures.process nor
    multiprocessing; only a run that starts a pool pays for them."""
    m = str(corpus[1])
    argv = ([command, "--manifest", m, "--out", str(tmp_path / "out")] if command != "corpus-stats"
            else [command, "--manifest-a", m, "--manifest-b", m, "--out", str(tmp_path / "stats.csv")])
    code = (f"import sys; from melcep.cli import main; rc = main({argv!r}); "
            "print(rc, sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=PACKAGE_PARENT)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "[]"]


# ------------------------------------------- one alignment per compare pair


def _harmonic(f0_hz: np.ndarray) -> np.ndarray:
    """24 harmonics with 1/k amplitudes over a per-sample f0, peak 0.3."""
    phase = 2.0 * np.pi * np.cumsum(f0_hz) / SR
    x = sum(np.sin(k * phase) / k for k in range(1, 25))
    return 0.3 * x / np.abs(x).max()


def _rows(f0_per_sample: np.ndarray) -> np.ndarray:
    """The per-sample f0 at the start of each 256-sample frame: one pitch-CSV row per frame."""
    return f0_per_sample[np.arange(f0_per_sample.size // 256) * 256]


def _voiced_and_noise(stretch: float) -> tuple[np.ndarray, np.ndarray]:
    """Voiced stretches over a gliding f0 between noise stretches, each
    ``stretch`` times as long; the samples and the per-sample f0 (0 where unvoiced)."""
    rng = np.random.default_rng(3)
    xs, f0s = [], []
    for seconds, start_hz, end_hz in ((0.35, 120, 150), (0.12, 0, 0), (0.4, 170, 135), (0.1, 0, 0), (0.3, 140, 160)):
        n = int(round(seconds * stretch * SR))
        f0 = np.linspace(start_hz, end_hz, n)
        xs.append(_harmonic(f0) if start_hz else 0.05 * np.diff(rng.normal(size=n + 1)))
        f0s.append(f0)
    return np.concatenate(xs), np.concatenate(f0s)


def _tones_around_pause(pause_s: float) -> tuple[np.ndarray, np.ndarray]:
    """0.4 s at 150 Hz, ``pause_s`` of digital silence, 0.4 s at 220 Hz; the samples and the per-sample f0."""
    n = int(0.4 * SR)
    f0 = np.concatenate([np.full(n, 150.0), np.zeros(int(pause_s * SR)), np.full(n, 220.0)])
    return np.where(f0 > 0, _harmonic(np.maximum(f0, 150.0)), 0.0), f0


def _pair_manifest(tmp_path: Path, pairs: dict) -> Path:
    """Write each pair's ref and syn wavs and pitch CSVs, and a compare manifest of them."""
    rows = []
    for uid, sides in pairs.items():
        row = {"utterance_id": uid}
        for side, (x, f0_rows) in zip(("ref", "syn"), sides):
            wav, f0 = tmp_path / f"{uid}.{side}.wav", tmp_path / f"{uid}.{side}.f0.csv"
            write_wav_bytes(wav, x, SR, "float32")
            _write_pitch(f0, f0_rows)
            row |= {f"{side}_wav": str(wav), f"f0_{side}": str(f0)}
        rows.append(row)
    manifest = tmp_path / "pairs.csv"
    _write_manifest(manifest, rows, fields=("utterance_id", "ref_wav", "syn_wav", "f0_ref", "f0_syn"))
    return manifest


def test_compare_aligns_each_pair_once(corpus, tmp_path, monkeypatch):
    _, manifest, rows = corpus
    calls = []
    align = cli.cmp.dtw_align

    def counting(a, b, distance="cosine"):
        calls.append(distance)
        return align(a, b, distance)

    monkeypatch.setattr(cli.cmp, "dtw_align", counting)
    assert main(["compare", "--manifest", str(manifest), "--out", str(tmp_path / "cmp")]) == 0
    assert calls == ["cosine"] * len(rows)


def test_time_stretched_voiced_tone_keeps_its_voicing_along_the_mel_path(tmp_path):
    """Pitch is scored along the mel path, not along one fitted to the pitch.

    Measured: E_V/UV 0.009 and 0.016 at 0.85x and 1.15x (0 to 0.016 over
    0.85-1.2x), about one mismatched frame at a voicing boundary, f0 RMSE
    0.30-0.38 Hz and r >= 0.9994.
    """
    ref, ref_f0 = _voiced_and_noise(1.0)
    pairs = {}
    for stretch in (0.85, 1.15):
        syn, syn_f0 = _voiced_and_noise(stretch)
        pairs[f"x{stretch}"] = ((ref, _rows(ref_f0)), (syn, _rows(syn_f0)))
    out = tmp_path / "cmp"
    assert main(["compare", "--manifest", str(_pair_manifest(tmp_path, pairs)), "--out", str(out)]) == 0
    for uid in pairs:
        report = json.loads((out / f"{uid}.report.json").read_text())
        assert report["vuv_error"] <= 0.03
        assert report["f0_rmse"] < 0.6 and report["pearson_r"] > 0.999


def test_pitch_rows_follow_the_samples_the_silence_cap_kept(tmp_path):
    x, f0 = _tones_around_pause(0.8)
    wav, f0_csv = tmp_path / "p.wav", tmp_path / "p.f0.csv"
    write_wav_bytes(wav, x, SR, "float32")
    _write_pitch(f0_csv, _rows(f0))
    bundle = cli.analyze(wav, f0_csv)
    mel, grid, tone_frames = bundle.mel, bundle.frame_pitch, int(0.4 * SR) // 256
    assert grid.f0.size == mel.n_frames
    first, last = slice(0, tone_frames - 1), slice(mel.n_frames - tone_frames + 1, mel.n_frames)
    assert (grid.f0[first] == 150.0).all() and (grid.f0[last] == 220.0).all()
    # frame k with row k would put rows of the removed pause on the second tone
    assert not bundle.pitch.voiced[last].all()

    # the same tones around a pause the cap leaves alone line up with these rows
    short, short_f0 = _tones_around_pause(0.2)
    manifest = _pair_manifest(tmp_path, {"pause": ((x, _rows(f0)), (short, _rows(short_f0)))})
    assert main(["compare", "--manifest", str(manifest), "--out", str(tmp_path / "cmp")]) == 0
    report = json.loads((tmp_path / "cmp" / "pause.report.json").read_text())
    assert report["vuv_error"] <= 0.03 and report["f0_rmse"] == 0.0


def test_pitch_deltas_use_the_csv_as_read(tmp_path):
    """mu_f0 and sigma_f0 come from every CSV row, also the rows of a pause the cap removed."""
    x, f0 = _tones_around_pause(0.8)
    claimed = np.where(f0 > 0, f0, 300.0)  # a tracker that calls the pause voiced
    short, short_f0 = _tones_around_pause(0.2)
    manifest = _pair_manifest(tmp_path, {"pause": ((x, _rows(claimed)), (short, _rows(short_f0)))})
    assert main(["compare", "--manifest", str(manifest), "--out", str(tmp_path / "cmp")]) == 0
    report = json.loads((tmp_path / "cmp" / "pause.report.json").read_text())
    ref, syn = _rows(claimed), _rows(short_f0)[_rows(short_f0) > 0]
    assert report["delta_mu_f0"] == pytest.approx(syn.mean() - ref.mean(), rel=1e-5)
    assert report["delta_sigma_f0"] == pytest.approx(syn.std() - ref.std(), rel=1e-5)
    # the frame grid keeps only the rows of the 200 ms the cap left, so its statistics differ
    bundle = cli.analyze(tmp_path / "pause.ref.wav", tmp_path / "pause.ref.f0.csv")
    assert abs(bundle.frame_pitch.voiced_f0().mean() - ref.mean()) > 10.0


def test_analyze_mel_rebuilds_the_bundles_that_compare_scores(tmp_path):
    """analyze ends in analyze_mel: each bundle of a pair, rebuilt through
    analyze_mel from analyze's mel, duration and contours, has the same
    metric series, and the pair scores as compare's report.json, byte for
    byte.  The reference's pause is one the silence cap shortens."""
    x, f0 = _tones_around_pause(0.5)
    short, short_f0 = _tones_around_pause(0.2)
    manifest = _pair_manifest(tmp_path, {"pause": ((x, _rows(f0)), (short, _rows(short_f0)))})
    assert main(["compare", "--manifest", str(manifest), "--out", str(tmp_path / "cmp")]) == 0
    rebuilt = []
    for side in ("ref", "syn"):
        bundle = cli.analyze(tmp_path / f"pause.{side}.wav", tmp_path / f"pause.{side}.f0.csv")
        again = cli.analyze_mel(bundle.mel, bundle.duration_s, bundle.pitch, frame_pitch=bundle.frame_pitch)
        for name in ("frame_indices", *METRIC_NAMES):
            assert np.array_equal(getattr(again.metrics, name), getattr(bundle.metrics, name))
        assert again.metrics.grid_frames == bundle.metrics.grid_frames
        rebuilt.append(again)
    assert rebuilt[0].pitch.f0.size > rebuilt[0].mel.n_frames  # the cap removed frames
    report = build_report(*rebuilt)
    assert (tmp_path / "cmp" / "pause.report.json").read_text() == report.to_json() + "\n"


def test_analyze_mel_takes_a_frame_grid_contour_once(rng):
    """A contour with one value per mel frame, passed as pitch, is also the
    frame_pitch the aligned scores use; the bundle keeps the mel it scored."""
    mel = LogMelSpectrogram(rng.normal(-6.0, 1.2, (80, 12)))
    f0 = np.where(np.arange(12) % 3, 140.0, 0.0)
    bundle = cli.analyze_mel(mel, 0.14, PitchContour(f0, f0 > 0), token_count=7)
    assert bundle.frame_pitch is bundle.pitch and bundle.mel is mel
    assert bundle.measures()["spr"] == 7 / 0.14
    assert build_report(bundle, bundle).f0_rmse == 0.0


def test_readme_quick_start_runs_and_reports_what_compare_writes(tmp_path, monkeypatch):
    """The README's python block, run on a reference whose 0.5 s pause the
    silence cap shortens: the contour as read has more rows than the mel has
    frames, and the recipe still scores pitch, as compare does.  The blob
    that features writes scores through analyze_mel as its wav does, up to
    float32 storage."""
    for side, pause_s in (("ref", 0.5), ("syn", 0.2)):
        x, f0 = _tones_around_pause(pause_s)
        write_wav_bytes(tmp_path / f"{side}.wav", x, SR, "float32")
        _write_pitch(tmp_path / f"{side}.f0.csv", _rows(f0))
    shutil.copy(tmp_path / "ref.wav", tmp_path / "utterance.wav")
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = [part.split("```", 1)[0] for part in readme.split("```python\n")[1:]]
    monkeypatch.chdir(tmp_path)
    _write_manifest(tmp_path / "utt.csv", [{"utterance_id": "utterance", "ref_wav": "utterance.wav"}],
                    fields=("utterance_id", "ref_wav"))
    assert main(["features", "--manifest", "utt.csv", "--out", "feat"]) == 0
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    ref = namespace["ref"]
    assert ref.pitch.f0.size > ref.mel.n_frames == ref.frame_pitch.f0.size
    utt, pred = namespace["utt"], namespace["pred"]
    assert np.array_equal(pred.metrics.frame_indices, utt.metrics.frame_indices)
    assert np.array_equal(pred.metrics.croll95, utt.metrics.croll95)
    for name, rel in (("hqer", 1e-6), ("ccentroid", 1e-6)):
        assert pred.metrics.means[name] == pytest.approx(utt.metrics.means[name], rel=rel)
    assert pred.metrics.means["cslope"] == pytest.approx(utt.metrics.means["cslope"], rel=0, abs=1e-5)
    report = namespace["report"]
    assert report.f0_rmse is not None and report.vuv_error is not None
    pair = {"utterance_id": "pair", "ref_wav": "ref.wav", "syn_wav": "syn.wav", "f0_ref": "ref.f0.csv",
            "f0_syn": "syn.f0.csv"}
    _write_manifest(tmp_path / "pair.csv", [pair], fields=tuple(pair))
    assert main(["compare", "--manifest", "pair.csv", "--out", "cmp"]) == 0
    assert (tmp_path / "cmp" / "pair.report.json").read_text() == report.to_json() + "\n"


@pytest.mark.parametrize("command", ["compare", "corpus-stats"])
def test_pitch_csv_of_another_utterance_fails_its_entry(corpus, tmp_path, command):
    _, manifest, rows = corpus
    swapped = [dict(rows[0]), dict(rows[1], f0_ref=rows[2]["f0_ref"]), dict(rows[2])]  # 0.75 s wav, 0.9 s CSV
    bad = tmp_path / "bad.csv"
    _write_manifest(bad, swapped)
    if command == "compare":
        out = tmp_path / "cmp"
        argv, log, key = ["compare", "--manifest", str(bad), "--out", str(out)], out / "errors.log", "utt01\tref: "
    else:
        out = tmp_path / "stats" / "stats.csv"
        argv = ["corpus-stats", "--manifest-a", str(bad), "--manifest-b", str(manifest), "--out", str(out)]
        log, key = out.parent / "errors.log", "a\tutt01\t"
    assert main(argv) == 2
    assert log.read_text() == (f"{key}ValueError: pitch CSV {rows[2]['f0_ref']} has 77 rows, "
                               "but its wav has 64 frames of 256 samples at 22050 Hz\n")
    if command == "compare":
        assert sorted(p.name for p in out.iterdir()) == ["aggregate.csv", "errors.log", "utt00.report.json",
                                                         "utt02.report.json"]
    else:
        assert out.exists()


def test_pitch_csv_that_starts_late_fails_its_entry(corpus, tmp_path):
    """Row k is taken as frame k, so a CSV whose rows start at 5 s would be
    scored as if it started at 0; it fails its own entry instead."""
    _, _, rows = corpus
    late = tmp_path / "late.f0.csv"
    header, *lines = Path(rows[0]["f0_syn"]).read_text().splitlines()
    late.write_text("\n".join([header] + [f"{5.0 + k * HOP_S:.8f},{line.split(',')[1]}"
                                            for k, line in enumerate(lines)]) + "\n")
    manifest = tmp_path / "late.csv"
    _write_manifest(manifest, rows + [dict(rows[0], utterance_id="zz_late", f0_syn=str(late))])
    out = tmp_path / "cmp"
    assert main(["compare", "--manifest", str(manifest), "--out", str(out)]) == 2
    assert (out / "errors.log").read_text() == f"zz_late\tsyn: ValueError: pitch CSV {late} starts at 5 s, not at 0\n"
    assert sorted(p.name for p in out.glob("*.report.json")) == [f"utt0{k}.report.json" for k in range(3)]


def test_pitch_csv_may_miss_or_add_one_row(corpus, tmp_path):
    _, manifest, _ = corpus
    entry, run = read_manifest(manifest)[0], load_run_config()
    n = len(Path(entry.f0_ref).read_text().splitlines()) - 1
    for count in (n - 2, n - 1, n + 1, n + 2):
        f0_csv = tmp_path / f"{count}.csv"
        _write_pitch(f0_csv, np.full(count, 120.0))
        if abs(count - n) == 1:
            assert cli.analyze(entry.ref_wav, f0_csv, run=run).frame_pitch.f0.size == n
        else:
            with pytest.raises(ValueError, match=f"has {count} rows, but its wav has {n} frames"):
                cli.analyze(entry.ref_wav, f0_csv, run=run)


@pytest.mark.parametrize("command", ["features", "compare", "corpus-stats"])
def test_clean_run_removes_an_earlier_errors_log(corpus, tmp_path, command):
    _, manifest, rows = corpus
    broken = tmp_path / "broken.csv"
    _write_manifest(broken, rows + [dict(rows[0], utterance_id="zz_missing", ref_wav=str(tmp_path / "missing.wav"))])
    out = tmp_path / ("stats/stats.csv" if command == "corpus-stats" else "out")
    log = (out.parent if command == "corpus-stats" else out) / "errors.log"

    def run(m):
        if command == "corpus-stats":
            return main([command, "--manifest-a", str(m), "--manifest-b", str(manifest), "--out", str(out)])
        return main([command, "--manifest", str(m), "--out", str(out)])

    assert run(broken) == 2 and "zz_missing" in log.read_text()
    assert run(manifest) == 0
    assert not log.exists()


@pytest.mark.parametrize("command, suffixes", [("features", (".lmel", ".metrics.csv")), ("compare", (".report.json",))])
def test_failed_entry_leaves_no_outputs(corpus, tmp_path, command, suffixes):
    """A failed entry's output files are removed, also those of an earlier
    run, which would pass for this run's; a directory in their way stays."""
    wav = tmp_path / "u1.wav"
    shutil.copy(corpus[2][0]["ref_wav"], wav)
    manifest = tmp_path / "m.csv"
    _write_manifest(manifest, [{"utterance_id": "u1", "ref_wav": str(wav), "syn_wav": str(wav)}],
                    fields=("utterance_id", "ref_wav", "syn_wav"))
    out = tmp_path / "out"
    argv = [command, "--manifest", str(manifest), "--out", str(out)]
    assert main(argv) == 0
    assert all((out / f"u1{suffix}").stat().st_size > 0 for suffix in suffixes)
    wav.rename(tmp_path / "gone.wav")
    assert main(argv) == 2
    assert (out / "errors.log").read_text().startswith("u1\t" + "ref: " * (command == "compare") + "FileNotFoundError: ")
    assert not list(out.glob("u1.*"))
    (tmp_path / "gone.wav").rename(wav)
    (out / f"u1{suffixes[0]}").mkdir()
    assert main(argv) == 2
    assert (out / "errors.log").read_text().startswith("u1\tIsADirectoryError: ")
    assert [path.name for path in out.glob("u1.*")] == [f"u1{suffixes[0]}"]


def test_rerun_leaves_the_files_of_entries_outside_its_manifest(corpus, tmp_path):
    """A run owns errors.log, its table and its own entries' files: a second
    compare on one of the two pairs keeps the other pair's report, which its
    aggregate.csv does not count."""
    _, _, rows = corpus
    both, one = tmp_path / "both.csv", tmp_path / "one.csv"
    _write_manifest(both, rows[:2])
    _write_manifest(one, rows[:1])
    out = tmp_path / "out"
    assert main(["compare", "--manifest", str(both), "--out", str(out)]) == 0
    other = out / "utt01.report.json"
    before = other.read_bytes(), other.stat().st_mtime_ns
    assert main(["compare", "--manifest", str(one), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["aggregate.csv", "utt00.report.json", "utt01.report.json"]
    assert (other.read_bytes(), other.stat().st_mtime_ns) == before
    counts = {line.split(",")[0]: line.split(",")[-1] for line in (out / "aggregate.csv").read_text().splitlines()[1:]}
    assert counts["L1"] == counts["MAE(CRoll95)/bin"] == "1"
