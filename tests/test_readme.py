"""The README checked against the repository it documents."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_test_the_readme_names_is_defined():
    """Each design note names the test that pins it, so a test renamed or
    deleted would leave its note pointing at nothing."""
    cited = set(re.findall(r"`(test_\w+)`", (ROOT / "README.md").read_text(encoding="utf-8")))
    defined = {name for folder in ("tests", "bench") for path in (ROOT / folder).rglob("*.py")
               for name in re.findall(r"^\s*def (test_\w+)\(", path.read_text(encoding="utf-8"), re.MULTILINE)}
    assert cited, "the README names no test"
    assert sorted(cited - defined) == []
