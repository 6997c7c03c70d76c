"""Every example in the package docstrings and in the README runs as written."""

import doctest
import importlib
import pkgutil
from pathlib import Path

import pytest

import cobfilt
from cobfilt import cli

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = ["cobfilt", *sorted(m.name for m in pkgutil.iter_modules(cobfilt.__path__, "cobfilt."))]


@pytest.mark.parametrize("name", MODULES)
def test_module_docstring_examples(name):
    results = doctest.testmod(importlib.import_module(name))
    assert results.failed == 0


def test_readme_examples():
    results = doctest.testfile(str(README), module_relative=False)
    assert results.failed == 0
    assert results.attempted > 0


def test_readme_cap_limits_table_has_one_row_per_cap_limit():
    section = README.read_text().split("### Cap limits", 1)[1].split("\n#", 1)[0]
    rows = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("| `")]
    expected = {
        f"{command} --check {kind}" if command == "verify" else f"{command} {kind}": f"{limit:,}"
        for (command, kind), (limit, _) in cli._CAP_LIMITS.items()
    }
    assert {command.strip().strip("`"): cap.strip() for command, cap in rows} == expected
