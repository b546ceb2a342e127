"""Golden end-to-end outputs of ``features``, ``compare`` and ``corpus-stats``.

A small corpus of closed-form signals (harmonic tones, a glide, a pause, a
silent file; no random numbers, each under a second, 16-44.1 kHz, PCM16 and
float32) runs through the three batch subcommands: serially, with two
workers, and serially in a process where scipy cannot be imported.  The
outputs must match the files under ``expected/``:

* exactly: the set of files, the exit codes, CSV headers, integer columns,
  JSON keys, missing values, text cells and ``errors.log``;
* printed floats to one unit in their 6th significant digit;
* ``.lmel`` values to float32 resolution: one float32 epsilon times the
  larger of the value's magnitude and 1.

``regenerate.py`` in this directory rewrites ``expected/``.  Manifests name
their files relative to the corpus directory, which is the working directory
of the runs, so ``errors.log`` holds no machine-specific path.
"""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import melcep
from melcep.cli import main

from conftest import write_wav_bytes

EXPECTED = Path(__file__).resolve().parent / "expected"
HOP_S = 256 / 22050
# Columns that hold counts or bins; every other numeric cell is a printed float.
INT_COLUMNS = {"frame_index", "croll95", "count", "count_a", "count_b"}


def _harmonics(f0_hz: np.ndarray, rate: int, n_harmonics: int, tilt: float) -> np.ndarray:
    """Sum of harmonics of a per-sample f0, amplitude k**-tilt, below 5 kHz."""
    phase = 2.0 * np.pi * np.cumsum(f0_hz) / rate
    x = np.zeros(f0_hz.size)
    for k in range(1, n_harmonics + 1):
        x += np.where(k * f0_hz < 5000.0, k ** -tilt * np.sin(k * phase), 0.0)
    return x


def _signals() -> dict[str, tuple[np.ndarray, int, str, np.ndarray]]:
    """Each utterance's samples, rate, WAV encoding and per-sample f0 (0 where unvoiced)."""
    out = {}
    for name, rate, encoding, seconds in (("chord", 22050, "pcm16", 0.9), ("glide", 16000, "float32", 0.8),
                                          ("pause", 44100, "pcm16", 0.95), ("vowel", 24000, "float32", 0.6)):
        t = np.arange(int(seconds * rate)) / rate
        if name == "chord":
            f0 = np.full(t.size, 140.0)
        elif name == "glide":
            f0 = 110.0 + 70.0 * t / seconds
        elif name == "pause":
            f0 = np.where(np.abs(t - 0.45) < 0.175, 0.0, 200.0)  # a 0.35 s pause, capped to 0.2 s
        else:
            f0 = 160.0 + 6.0 * np.sin(2.0 * np.pi * 5.0 * t)
        x = _harmonics(f0, rate, 30, {"chord": 1.0, "glide": 1.5, "pause": 0.8, "vowel": 1.2}[name])
        x *= (0.6 + 0.4 * np.cos(2.0 * np.pi * 3.0 * t)) * np.minimum(1.0, np.minimum(t, t[-1] - t) / 0.02)
        out[name] = (0.25 * x / np.abs(x).max(), rate, encoding, f0)
    out["silent"] = (np.zeros(11025), 22050, "pcm16", np.zeros(11025))
    return out


def _write_pitch(path: Path, f0: np.ndarray, rate: int) -> None:
    frames = int(f0.size / rate / HOP_S) + 1
    values = f0[np.minimum((np.arange(frames) * HOP_S * rate).astype(int), f0.size - 1)]
    lines = ["time_s,f0_hz"] + [f"{i * HOP_S:.8f}," + (f"{v:.3f}" if v > 0 else "") for i, v in enumerate(values)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_manifest(path: Path, header: str, rows: list[str]) -> None:
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")


def build_corpus(root: Path) -> None:
    """Write the wavs, pitch CSVs and the four manifests under ``root``."""
    (root / "wav").mkdir(parents=True)
    (root / "f0").mkdir()
    for name, (samples, rate, encoding, f0) in _signals().items():
        write_wav_bytes(root / "wav" / f"{name}.wav", samples, rate, encoding)
        _write_pitch(root / "f0" / f"{name}.csv", f0, rate)
    _write_manifest(root / "features.csv", "utterance_id,ref_wav",
                    [f"{n},wav/{n}.wav" for n in ("chord", "glide", "pause", "vowel", "silent")])
    pairs = (("chord", "glide", 11), ("glide", "vowel", 9), ("pause", "pause", 14), ("vowel", "chord", 8),
             ("silent", "chord", 5))
    _write_manifest(root / "compare.csv", "utterance_id,ref_wav,syn_wav,f0_ref,f0_syn,token_count",
                    [f"{r}-{s},wav/{r}.wav,wav/{s}.wav,f0/{r}.csv,f0/{s}.csv,{k}" for r, s, k in pairs])
    for tag, names in (("a", ("chord", "glide", "silent")), ("b", ("pause", "vowel"))):
        _write_manifest(root / f"stats_{tag}.csv", "utterance_id,ref_wav,f0_ref,token_count",
                        [f"{n},wav/{n}.wav,f0/{n}.csv,{len(n) + 6}" for n in names])


@contextmanager
def _cwd(path: Path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def run_subcommands(root: Path, workers: int = 1) -> dict[str, int]:
    """Run the three subcommands in ``root``, writing under ``root/out``; return their exit codes."""
    flags = ["--workers", str(workers)]
    with _cwd(root):
        return {
            "features": main(["features", "--manifest", "features.csv", "--out", "out/features", *flags]),
            "compare": main(["compare", "--manifest", "compare.csv", "--out", "out/compare", *flags]),
            "corpus-stats": main(["corpus-stats", "--manifest-a", "stats_a.csv", "--manifest-b", "stats_b.csv",
                                  "--out", "out/stats/stats.csv", *flags]),
        }


def _files(root: Path) -> list[str]:
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())


def _assert_float_close(got: str | float, want: str | float, where: str) -> None:
    g, w = float(got), float(want)
    # one unit, plus the rounding error of the subtraction of two printed values
    tol = 0.0 if w == 0.0 else 10.0 ** (math.floor(math.log10(abs(w))) - 5) * (1 + 1e-9)
    assert abs(g - w) <= tol, f"{where}: {got} != {want} (tolerance {tol:g})"


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _check_csv(got: Path, want: Path, name: str) -> None:
    got_rows = list(csv.reader(got.read_text(encoding="utf-8").splitlines()))
    want_rows = list(csv.reader(want.read_text(encoding="utf-8").splitlines()))
    assert got_rows[0] == want_rows[0], f"{name}: header"
    assert len(got_rows) == len(want_rows), f"{name}: row count"
    for lineno, (g_row, w_row) in enumerate(zip(got_rows[1:], want_rows[1:]), 2):
        assert len(g_row) == len(w_row), f"{name} line {lineno}: cell count"
        for column, g, w in zip(want_rows[0], g_row, w_row):
            if column in INT_COLUMNS or not _is_number(w):
                assert g == w, f"{name} line {lineno} {column}: {g!r} != {w!r}"
            else:
                _assert_float_close(g, w, f"{name} line {lineno} {column}")


def _check_json(got: Path, want: Path, name: str) -> None:
    g, w = json.loads(got.read_text(encoding="utf-8")), json.loads(want.read_text(encoding="utf-8"))
    assert list(g) == list(w), f"{name}: keys"
    for key, value in w.items():
        if value is None:
            assert g[key] is None, f"{name} {key}: {g[key]!r} != null"
        else:
            _assert_float_close(g[key], value, f"{name} {key}")


def _check_blob(got: Path, want: Path, name: str) -> None:
    g, w = got.read_bytes(), want.read_bytes()
    assert g[:16] == w[:16] and len(g) == len(w), f"{name}: header or size"
    gv, wv = (np.frombuffer(b[16:], dtype="<f4").astype(np.float64) for b in (g, w))
    tol = np.finfo(np.float32).eps * np.maximum(np.abs(wv), 1.0)
    assert (np.abs(gv - wv) <= tol).all(), f"{name}: largest difference {np.abs(gv - wv).max():g}"


def _check_outputs(out: Path, codes: dict[str, int]) -> None:
    assert codes == json.loads((EXPECTED / "exit_codes.json").read_text(encoding="utf-8"))
    names = _files(out)
    assert names == [n for n in _files(EXPECTED) if n != "exit_codes.json"]
    for name in names:
        got, want = out / name, EXPECTED / name
        if name.endswith(".csv"):
            _check_csv(got, want, name)
        elif name.endswith(".json"):
            _check_json(got, want, name)
        elif name.endswith(".lmel"):
            _check_blob(got, want, name)
        else:
            assert got.read_text(encoding="utf-8") == want.read_text(encoding="utf-8"), name


def test_golden_outputs(tmp_path):
    build_corpus(tmp_path)
    _check_outputs(tmp_path / "out", run_subcommands(tmp_path))


def test_golden_outputs_with_two_workers(tmp_path):
    build_corpus(tmp_path)
    _check_outputs(tmp_path / "out", run_subcommands(tmp_path, workers=2))


def test_golden_outputs_without_scipy(tmp_path):
    """The batch subcommands run, not only import, with scipy unimportable."""
    build_corpus(tmp_path)
    here = Path(__file__).resolve().parent
    path = [str(Path(melcep.__file__).resolve().parents[1]), str(here.parent), str(here)]
    code = ("import json, sys; from pathlib import Path; sys.modules['scipy'] = None; "
            "from test_golden import run_subcommands; print(json.dumps(run_subcommands(Path(sys.argv[1]))))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    _check_outputs(tmp_path / "out", json.loads(proc.stdout.splitlines()[-1]))
