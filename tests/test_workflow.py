"""The CI workflow, which runs only on a hosted runner, checked against the
repository it tests.  It is read as text, so no YAML parser is needed."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def test_every_path_the_workflow_passes_to_pytest_exists():
    commands = re.findall(r"-m pytest (.*)", WORKFLOW.read_text(encoding="utf-8"))
    paths = [arg for command in commands for arg in command.split() if not arg.startswith("-")]
    assert sorted(paths) == ["bench/test_bench.py", "tests/golden", "tests/test_cli.py"]
    assert [path for path in paths if not (ROOT / path).exists()] == []


def test_numpy_floor_entry_is_the_pyproject_floor():
    floor = re.search(r'"numpy>=([\d.]+)"', (ROOT / "pyproject.toml").read_text(encoding="utf-8")).group(1)
    assert re.findall(r'numpy: "([\d.]+)\.\*"', WORKFLOW.read_text(encoding="utf-8")) == [floor]
