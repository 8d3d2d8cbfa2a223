"""The maintenance scripts under tools/ still run against the package."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_build_corpora_regenerates_the_bundled_corpora(tmp_path):
    # run on a copy, so the bundled files are never rewritten
    ignore = shutil.ignore_patterns("__pycache__")
    for name in ("src", "tools"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=ignore)
    proc = subprocess.run([sys.executable,
                           str(tmp_path / "tools" / "build_corpora.py")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    data = Path("src") / "chronus" / "data"
    for name in ("demo_corpus.txt", "seed_corpus.txt", "semi_corpus.txt"):
        assert (tmp_path / data / name).read_bytes() == \
            (ROOT / data / name).read_bytes(), name
