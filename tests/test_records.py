"""The record types: tuples with named fields, checked where they are built,
and a package import that pulls in no heavy standard-library module."""

import subprocess
import sys

import pytest

from cobfilt.checks import CheckReport, Discrepancy
from cobfilt.manifolds import CupRecipe, Justification
from cobfilt.series import U64_MAX, AlgebraSpec, TruncatedSeries

# Each invalid construction, and the error and message it raises.
NO_DEGREE_0 = "a series needs its degree-0 coefficient, got none"
INVALID = {
    "spec 0": (lambda: AlgebraSpec((2, 0)), ValueError, "generator degree must be >= 1, got 0"),
    "spec -1": (lambda: AlgebraSpec((-1,)), ValueError, "generator degree must be >= 1, got -1"),
    "empty series": (lambda: TruncatedSeries(()), ValueError, NO_DEGREE_0),
    "float": (lambda: TruncatedSeries([1, 1.0]), ValueError, "coefficient in degree 1 is not an integer: 1.0"),
    "negative": (lambda: TruncatedSeries([1, 0, -2]), ValueError, "negative coefficient -2 in degree 2"),
    "too large": (
        lambda: TruncatedSeries((1, U64_MAX + 1)),
        OverflowError,
        "coefficient in degree 1 exceeds the 64-bit bound",
    ),
    "odd base": (lambda: CupRecipe(3), ValueError, "base must be a positive even dimension, got 3"),
    "base 0": (lambda: CupRecipe(0, (1,)), ValueError, "base must be a positive even dimension, got 0"),
    # the steps are stored as a tuple before they are checked, so the message shows a tuple
    "cup-3": (lambda: CupRecipe(2, [2, 3]), ValueError, "steps must be cup-1 or cup-2, got (2, 3)"),
    # NamedTuple's _make, and _replace through it, check as the constructor does
    "spec _replace": (
        lambda: AlgebraSpec((2,))._replace(degrees=(5, 0)),
        ValueError,
        "generator degree must be >= 1, got 0",
    ),
    "series _replace": (
        lambda: TruncatedSeries((1,))._replace(coeffs=(1, -1)),
        ValueError,
        "negative coefficient -1 in degree 1",
    ),
    "series _make": (lambda: TruncatedSeries._make([[]]), ValueError, NO_DEGREE_0),
    "recipe _replace": (
        lambda: CupRecipe(2)._replace(base_dim=6, steps=(2, 4)),
        ValueError,
        "steps must be cup-1 or cup-2, got (2, 4)",
    ),
}


@pytest.mark.parametrize("build, error, message", INVALID.values(), ids=INVALID)
def test_validating_constructors_keep_their_errors(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == message


def test_replace_and_make_store_tuples():
    assert CupRecipe(2)._replace(steps=[2, 1]).steps == (2, 1)
    assert TruncatedSeries._make([[1, 0]]) == TruncatedSeries((1, 0))
    assert AlgebraSpec._make([[3]]) == AlgebraSpec((3,))


# One record of each type, and an equal one built another way.
EQUAL = {
    "AlgebraSpec": (AlgebraSpec([2, 5]), AlgebraSpec((2, 5))),
    "TruncatedSeries": (TruncatedSeries([1, 0, 1]), TruncatedSeries((1, 0, 1))),
    "CupRecipe": (CupRecipe(4, [1, 1]), CupRecipe(base_dim=4, steps=(1, 1))),
    "Justification": (Justification("cup-1", 5), Justification(rule="cup-1", dim=5)),
    "Discrepancy": (Discrepancy(5, 1, 0), Discrepancy(degree=5, expected=1, actual=0)),
    "CheckReport": (CheckReport(series=(1, 0, 1)), CheckReport(None, (1, 0, 1))),
}


@pytest.mark.parametrize("record, twin", EQUAL.values(), ids=EQUAL)
def test_equal_records_hash_equal(record, twin):
    assert record == twin
    assert hash(record) == hash(twin)
    assert len({record, twin}) == 1


@pytest.mark.parametrize("record", [r for r, _ in EQUAL.values()], ids=EQUAL)
def test_records_are_frozen(record):
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_a_record_compares_as_the_tuple_of_its_fields():
    assert CupRecipe(2, (2, 1)) == (2, (2, 1))
    assert TruncatedSeries((1, 1)).coeffs == TruncatedSeries((1, 1))[0] == (1, 1)
    # a tuple underneath, so two record types with equal fields compare equal
    assert AlgebraSpec((2,)) == TruncatedSeries((2,))


def test_record_defaults():
    assert AlgebraSpec() == AlgebraSpec(()) == ((),)
    assert CupRecipe(2).steps == ()
    report = CheckReport()
    assert (report.first_discrepancy, report.series, report.passed) == (None, None, True)


@pytest.mark.parametrize("statement", ["import cobfilt", "import cobfilt.cli"])
def test_import_pulls_in_no_heavy_stdlib_module(statement):
    # Each costs milliseconds per process: dataclasses with inspect, and traceback,
    # which cli imports only on the INTERNAL path.
    code = (
        "import sys; before = set(sys.modules); "
        f"{statement}; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "cobfilt.series" in added
    assert not added & {"dataclasses", "inspect", "traceback"}
