import re
from pathlib import Path

import chronus


def test_version_matches_pyproject():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    match = re.search(r'^version\s*=\s*"([^"]+)"',
                      pyproject.read_text(encoding="utf-8"), re.MULTILINE)
    assert match is not None
    assert chronus.__version__ == match.group(1)
