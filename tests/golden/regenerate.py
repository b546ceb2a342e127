"""Rewrite the golden outputs in ``expected/`` with the melcep on the path.

    PYTHONPATH=src python tests/golden/regenerate.py

Regenerate only for an intended output change, and review the diff of
``expected/``: the golden test exists to catch changes nobody meant.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))  # tests/, for conftest's WAV writer

from test_golden import EXPECTED, build_corpus, run_subcommands  # noqa: E402


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        build_corpus(root)
        codes = run_subcommands(root)
        shutil.rmtree(EXPECTED, ignore_errors=True)
        shutil.copytree(root / "out", EXPECTED)
    (EXPECTED / "exit_codes.json").write_text(json.dumps(codes, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {EXPECTED}: exit codes {codes}")


if __name__ == "__main__":
    main()
