"""The byte-identity sweep: every family of CLI argv in scripts/sweep.py
gives the bytes its digest in tests/golden/sweep.json pins, in order and
shuffled, and a wrong coefficient fails the family that prints it."""

import importlib.util
import json
import random
from pathlib import Path

import pytest

from cobfilt import cli
from cobfilt.series import TruncatedSeries

_SPEC = importlib.util.spec_from_file_location(
    "sweep", Path(__file__).resolve().parent.parent / "scripts" / "sweep.py"
)
sweep = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(sweep)
GOLDEN = json.loads(sweep.GOLDEN.read_text())


def failing_families(found):
    """The families whose digest is not the golden one, sorted."""
    return sorted(name for name, sha in found.items() if sha != GOLDEN[name]["sha256"])


def test_golden_holds_every_family_and_its_argv_count():
    assert {name: entry["argv"] for name, entry in GOLDEN.items()} == {
        name: len(argvs) for name, argvs in sweep.FAMILIES.items()
    }


@pytest.mark.parametrize("name", sweep.FAMILIES)
def test_family_gives_its_golden_bytes(name):
    assert failing_families(sweep.digests([name])) == []


def test_verify_and_series_give_their_golden_bytes_in_a_shuffled_order():
    # Interleaved kinds, stages and caps: series_of's resume from its last
    # build must give the bytes a run in family order gives.
    names = [name for name in sweep.FAMILIES if name.startswith(("verify", "series"))]
    order = [(name, argv) for name in names for argv in sweep.FAMILIES[name]]
    random.Random(1).shuffle(order)
    assert failing_families(sweep.digests(names, order)) == []


def test_a_wrong_coefficient_in_one_stage_fails_its_family(monkeypatch):
    # The homotopy series of stage (2,0,1), degree 9, gains 1 in its top degree.
    original = cli.adams_homotopy_series

    def wrong(t, cap):
        series = original(t, cap)
        if t != (2, 0, 1):
            return series
        return TruncatedSeries((*series.coeffs[:-1], series.coeffs[-1] + 1))

    monkeypatch.setattr(cli, "adams_homotopy_series", wrong)
    names = [name for name in sweep.FAMILIES if name.startswith("series")]
    assert failing_families(sweep.digests(names)) == ["series homotopy", "series homotopy --json"]
