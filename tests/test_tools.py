"""The maintenance scripts under tools/ still run against the package."""

import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_check_demo_reports_every_demo_sentence_correct():
    proc = subprocess.run([sys.executable, str(TOOLS / "check_demo.py")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "50/50 fully correct"
