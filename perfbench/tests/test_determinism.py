"""Determinism self-check: one seed, two runs, identical counters.

    python3 -m pytest perfbench/tests

Each workload runs traced twice with the same seed (one round per phase);
every counter ``suite.COUNTERS`` lists must come out identical, and no op
may fail.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

from suite import COUNTERS  # noqa: E402


def traced_run(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", "1"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", ["dialog", "long-utterances",
                                      "train-cycle"])
def test_same_seed_gives_identical_counters(workload):
    first, second = traced_run(workload, 7), traced_run(workload, 7)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
    for name in COUNTERS:
        assert (first["metrics"][name]["value"]
                == second["metrics"][name]["value"]), name
