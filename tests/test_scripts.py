"""The walkthrough script runs end to end on the kernels it imports."""

import os
import subprocess
import sys
from pathlib import Path

from cobfilt.degrees import stages_up_to_degree

ROOT = Path(__file__).resolve().parent.parent


def run_script(*argv):
    pythonpath = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in pythonpath if p))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_stage_walkthrough_confirms_every_quotient():
    proc = run_script("stage_walkthrough.py", "--bound", "24")
    assert proc.returncode == 0, proc.stderr
    assert "MISMATCH" not in proc.stdout
    assert proc.stdout.count("[ok]") == len(stages_up_to_degree(24))


def test_stage_walkthrough_rejects_a_negative_bound():
    proc = run_script("stage_walkthrough.py", "--bound", "-1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.endswith("error: --bound must be >= 0, got -1\n")
    assert "Traceback" not in proc.stderr
