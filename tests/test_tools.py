"""The maintenance scripts under tools/ still run against the package."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = Path("src") / "chronus" / "data"
CORPORA = ("demo_corpus.txt", "seed_corpus.txt", "semi_corpus.txt")


def _copy(tmp_path):
    """A copy of the package and tools, so the bundled files are never
    rewritten; returns the copy's data directory."""
    ignore = shutil.ignore_patterns("__pycache__")
    for name in ("src", "tools"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=ignore)
    return tmp_path / DATA


def _build_corpora(tmp_path):
    return subprocess.run([sys.executable,
                           str(tmp_path / "tools" / "build_corpora.py")],
                          capture_output=True, text=True, timeout=120)


def _edit(path, old, new):
    text = path.read_text(encoding="utf-8")
    assert old in text
    path.write_text(text.replace(old, new, 1), encoding="utf-8")


def test_build_corpora_regenerates_the_bundled_corpora(tmp_path):
    _copy(tmp_path)
    proc = _build_corpora(tmp_path)
    assert proc.returncode == 0, proc.stderr
    for name in CORPORA:
        assert (tmp_path / DATA / name).read_bytes() == \
            (ROOT / DATA / name).read_bytes(), name


def test_build_corpora_recomputes_references_from_the_database(tmp_path):
    data = _copy(tmp_path)
    # stale rows: d01's in the demo corpus, and m10's, a feedback entry
    # whose gold only the tool holds
    _edit(data / "demo_corpus.txt", "refmin\tAA\t101\tBBOS",
          "refmin\tAA\t999\tBBOS")
    _edit(data / "semi_corpus.txt", "refmax\tCO\t401\tWWAS",
          "refmax\tCO\t999\tWWAS")
    # and a new fare for the first-class seat on AA 101
    _edit(data / "db.txt", "g02\tf01\t500\tFIRST", "g02\tf01\t555\tFIRST")
    proc = _build_corpora(tmp_path)
    assert proc.returncode == 0, proc.stderr
    demo = (ROOT / DATA / "demo_corpus.txt").read_text(encoding="utf-8")
    assert demo.count("AA\t101\tFIRST\t500") == 4   # d23 and d25
    assert (data / "demo_corpus.txt").read_text(encoding="utf-8") == \
        demo.replace("AA\t101\tFIRST\t500", "AA\t101\tFIRST\t555")
    for name in ("seed_corpus.txt", "semi_corpus.txt"):
        assert (data / name).read_bytes() == (ROOT / DATA / name).read_bytes()


def test_build_corpora_refuses_references_without_a_gold(tmp_path):
    data = _copy(tmp_path)
    before = (data / "demo_corpus.txt").read_text(encoding="utf-8") + (
        "[sentence z01]\ntext\tSHOW ME THE FLIGHTS\nrefs\trows\n")
    (data / "demo_corpus.txt").write_text(before, encoding="utf-8")
    proc = _build_corpora(tmp_path)
    assert proc.returncode == 1
    assert proc.stderr == ("sentence z01: references but no gold, "
                           "in the corpus or in FEEDBACK_GOLDS\n")
    assert (data / "demo_corpus.txt").read_text(encoding="utf-8") == before
