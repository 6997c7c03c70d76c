"""The walkthrough script runs end to end on the kernels it imports, and the
kill table of scripts/mutants.py still anchors in the code."""

import json
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import cobfilt.checks as checks
import cobfilt.spaces as spaces
from cobfilt.degrees import decompose, stages_up_to_degree
from cobfilt.series import TruncatedSeries

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


def run_walkthrough_16(monkeypatch, capsys):
    # In-process, so a patch made by the test reaches the walk the script reads.
    monkeypatch.setattr(sys, "argv", ["stage_walkthrough.py", "--bound", "16"])
    with pytest.raises(SystemExit) as exited:
        runpy.run_path(str(ROOT / "scripts" / "stage_walkthrough.py"), run_name="__main__")
    return exited.value.code, capsys.readouterr().out


def assert_first_mismatch_is_the_check_witness(out):
    # The script has no quotient step of its own: its first MISMATCH is the
    # witness verify_quotient_steps reports under the same defect.
    first = re.search(r"gives (\d+) in degree (\d+), the previous stage (\d+)", out)
    back, k, previous = map(int, first.groups())
    assert checks.verify_quotient_steps(16).first_discrepancy == (k, previous, back)


def test_stage_walkthrough_confirms_every_quotient():
    proc = run_script("stage_walkthrough.py", "--bound", "24")
    assert proc.returncode == 0, proc.stderr
    assert "MISMATCH" not in proc.stdout
    assert proc.stdout.count("[ok]") == len(stages_up_to_degree(24)[0])


def test_stage_walkthrough_rejects_a_negative_bound():
    proc = run_script("stage_walkthrough.py", "--bound", "-1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.endswith("error: --bound must be >= 0, got -1\n")
    assert "Traceback" not in proc.stderr


def test_stage_walkthrough_refuses_a_bound_above_the_quotient_check_limit():
    # The last stage's series first exceeds 64 bits in degree 540: that is no MISMATCH.
    proc = run_script("stage_walkthrough.py", "--bound", "540")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.endswith("error: --bound must be <= 539, got 540\n")
    assert "Traceback" not in proc.stderr
    # At the top of the range every stage still checks out, one [ok] line each.
    proc = run_script("stage_walkthrough.py", "--bound", "539")
    assert proc.returncode == 0, proc.stderr
    assert "MISMATCH" not in proc.stdout
    assert proc.stdout.count("[ok]") == len(stages_up_to_degree(539)[0]) == 530


def test_stage_walkthrough_exits_one_on_a_mismatch(monkeypatch, capsys):
    # the stage of degree 6 loses its generator, so its quotient is 1, not 1/(1 - t^6):
    # times 1 - t^6 it loses the previous stage's t^6
    original = spaces.stage_generator_degrees
    monkeypatch.setattr(
        spaces, "stage_generator_degrees", lambda t, bound: [d for d in original(t, bound) if d != 6]
    )
    code, out = run_walkthrough_16(monkeypatch, capsys)
    assert code == 1
    assert "  quotient  1/(1 - t^6)  [MISMATCH: times 1 - t^6 gives 0 in degree 6, the previous stage 1]\n" in out
    assert out.count("[MISMATCH") == 1
    assert out.count("[ok]") == len(stages_up_to_degree(16)[0]) - 1
    assert_first_mismatch_is_the_check_witness(out)


def test_stage_walkthrough_goes_on_past_a_stage_the_one_before_does_not_divide(monkeypatch, capsys):
    # The stage of degree 5 reports the unit series.  Times 1 - t^5 it is not
    # the stage before, 1/(1 - t^2); and the next stage, of degree 11, times
    # 1 - t^11 is not the unit series either.  The patch goes where the quotient
    # check's walk reads the stage series.
    original, five = checks.adams_homotopy_series, decompose(5)
    monkeypatch.setattr(
        checks,
        "adams_homotopy_series",
        lambda t, cap: TruncatedSeries((1,) + (0,) * cap) if t == five else original(t, cap),
    )
    code, out = run_walkthrough_16(monkeypatch, capsys)
    assert code == 1
    stages = [line for line in out.splitlines() if line.startswith("stage (")]
    assert stages == [f"stage ({n},{j},{i}): new generator x_{d}" for d, (n, j, i) in zip(*stages_up_to_degree(16))]
    assert "  quotient  1/(1 - t^5)  [MISMATCH: times 1 - t^5 gives 0 in degree 2, the previous stage 1]\n" in out
    assert "  quotient  1/(1 - t^11)  [MISMATCH: times 1 - t^11 gives 1 in degree 2, the previous stage 0]\n" in out
    assert out.count("[MISMATCH") == 2
    assert out.count("[ok]") == len(stages) - 2
    assert_first_mismatch_is_the_check_witness(out)


def test_every_mutant_row_anchors_once_in_its_file():
    # scripts/mutants.py applies a row by replacing its old text, so a row whose
    # text moved or repeats would mutate nothing, or the wrong place.
    rows = json.loads((ROOT / "tests" / "golden" / "mutants.json").read_text())
    assert rows
    for row in rows:
        assert (ROOT / row["file"]).read_text().count(row["old"]) == 1, row
        assert row["new"] != row["old"] and row["tests"], row
        for test in row["tests"]:
            assert (ROOT / test.split("::")[0]).is_file(), test
