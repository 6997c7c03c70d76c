"""Every example in the package docstrings and in the README runs as written."""

import doctest
import importlib
import pkgutil
from pathlib import Path

import pytest

import cobfilt

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
