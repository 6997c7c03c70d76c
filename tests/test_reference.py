"""Every command's output, checked in-process against perfbench/reference.py.

The reference shares no code with cobfilt: degrees come from the degree
formula, series from restricted-partition counting, and terms are read
back by its own term walker.  Each sweep runs cli.main on a fixed list of
argv and hands the exit code and stdout to reference.check.

table is swept in text only: the reference reads text rows, not the
--json rows.
"""

import contextlib
import importlib.util
import io
import math
import random
from pathlib import Path

import pytest

from cobfilt import cli
from cobfilt.degrees import StageTriple
from cobfilt.series import TruncatedSeries


def _load_reference():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("cobfilt_test_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reference = _load_reference()


def _stages(cap):
    # the base and every generator-bearing stage with degree <= cap, from the reference
    return [(1, 0, 0)] + [stage for stage, _ in reference.stages(cap)]


def _log_uniform_degrees(count, low, high, seed):
    rng = random.Random(seed)
    return [int(10 ** rng.uniform(math.log10(low), math.log10(high))) for _ in range(count)]


# every degree up to 2,048, then a fixed log-uniform draw above it up to 10^7
DEGREES = [*range(2049), *_log_uniform_degrees(500, 2049, 10**7, seed=21)]

SWEEPS = {
    "series steenrod": [
        ["series", "steenrod", "--cap", str(cap), "--json"] for cap in range(131)
    ],
    "series homotopy|homology": [
        ["series", what, "--stage", ",".join(map(str, stage)), "--cap", str(cap), "--json"]
        for what in ("homotopy", "homology")
        for cap in range(33)
        for stage in _stages(cap)
    ],
    "verify": [
        ["verify", "--check", check, "--cap", str(cap), "--json"]
        for check in ("all", *reference.VERIFY_CHECKS)
        for cap in range(2, 49)
    ],
    "decompose": [["decompose", str(d), "--json"] for d in DEGREES],
    "recipe": [["recipe", str(d), "--expand", "--json"] for d in DEGREES],
    "table": [["table", str(bound)] for bound in range(301)],
}


def disagreements(argvs):
    """Each argv whose exit code and stdout the reference rejects, with its reason."""
    found = []
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
        reason = reference.check(argv, code, out.getvalue())
        if reason is not None:
            found.append((" ".join(argv), reason))
    return found


def test_the_sweeps_cover_every_command():
    assert {argvs[0][0] for argvs in SWEEPS.values()} == set(cli._COMMANDS)
    assert sum(map(len, SWEEPS.values())) == 6671


@pytest.mark.parametrize("sweep", SWEEPS)
def test_the_cli_agrees_with_the_reference(sweep):
    assert disagreements(SWEEPS[sweep]) == []


# ---------------------------------------------------------------------------
# the sweeps can fail: one wrong number each, named by its argv


def test_a_wrong_homotopy_coefficient_is_named(monkeypatch):
    original = cli.adams_homotopy_series

    def wrong(t, cap):
        series = original(t, cap)
        if (t, cap) != (StageTriple(2, 0, 0), 16):
            return series
        coeffs = list(series.coeffs)
        coeffs[5] += 1
        return TruncatedSeries(tuple(coeffs))

    monkeypatch.setattr(cli, "adams_homotopy_series", wrong)
    assert disagreements(SWEEPS["series homotopy|homology"]) == [
        (
            "series homotopy --stage 2,0,0 --cap 16 --json",
            "series homotopy cap 16: coefficient 5 differs from the reference",
        )
    ]


def test_a_wrong_decompose_triple_is_named(monkeypatch):
    original = cli.decompose
    monkeypatch.setattr(cli, "decompose", lambda d: StageTriple(2, 0, 0) if d == 11 else original(d))
    assert disagreements(SWEEPS["decompose"]) == [
        ("decompose 11 --json", "stage (2,0,0) does not recompose to 11")
    ]


def test_a_wrong_table_base_is_named(monkeypatch):
    # the table renders the first term of each n from its base dimension alone
    original = cli._base_dim
    monkeypatch.setattr(cli, "_base_dim", lambda n: 4 * n if n >= 2 else original(n))
    assert disagreements([["table", "16"]]) == [
        ("table 16", "row '4       (2,0,0)     RP^8': term does not reach the degree")
    ]
    # every table from the first with an n = 2 row on
    assert [argv for argv, _ in disagreements(SWEEPS["table"])] == [f"table {b}" for b in range(4, 301)]
