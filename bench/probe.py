"""Set-up probe: a fresh interpreter imports the CLI and runs it once.

Usage: ``python3 bench/probe.py SRC_DIR OUT_DIR CLI_ARG...`` with the probe
corpus as working directory.  Prints one JSON line with the import time and
the time of the first CLI call (filterbank cache, filter design, BLAS
initialisation), both in ms; ``run.py`` times the whole process from outside.
"""

import json
import sys
import time
from pathlib import Path

start = time.perf_counter()
import melcep.cli  # noqa: E402

imported = time.perf_counter()
src, out = Path(sys.argv[1]).resolve(), Path(sys.argv[2])
if src not in Path(melcep.cli.__file__).resolve().parents:
    sys.exit(f"melcep imported from {melcep.cli.__file__}, not from {src}")
out.mkdir(parents=True, exist_ok=True)
rc = melcep.cli.main(sys.argv[3:])
done = time.perf_counter()
if rc != 0:
    sys.exit(f"probe call exited {rc}")
print(json.dumps({"import_ms": 1e3 * (imported - start), "warmup_ms": 1e3 * (done - imported)}))
