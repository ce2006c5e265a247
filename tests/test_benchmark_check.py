"""The benchmark's reference checks, run on the working tree.

`perfbench/run.py --seconds 0` times one round of a workload's inputs and
checks every output against `perfbench/reference.py`, which holds formulas
and tables of its own. A change that alters a number those workloads
compute fails here, in tier-1, instead of only in a benchmark run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["link-sweep", "beam-design", "documents"])
def test_one_round_passes_the_reference_checks(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] > 0
