#!/usr/bin/env python3
"""The kill table: each mutant of tests/golden/mutants.json must fail the
tests its row names.

A row is a file under the repository root, an old text that occurs in it
exactly once, the new text that replaces it, and the ids of the tests
that the mutant must fail.  For each row the script copies the checkout
into a temporary directory, applies the row there, and runs pytest on
that row's ids alone against the copy's src.  The checkout itself is
never edited.

    python scripts/mutants.py
        run every row; exit 1 if any row's old text does not occur
        exactly once, or any mutant survives (one of its ids passes,
        or is not collected)
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLE = ROOT / "tests" / "golden" / "mutants.json"
# What the copy leaves out: history, caches and what a test run leaves behind.
_SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info")


def anchor_count(row: dict) -> int:
    """How often the row's old text occurs in its file."""
    return (ROOT / row["file"]).read_text().count(row["old"])


def _failed(copy: Path, ids: list[str]) -> set[str]:
    # The ids that failed or errored, read from pytest's -rfE summary lines.
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "--tb=no", "-p", "no:cacheprovider", *ids],
        cwd=copy,
        env=env,
        capture_output=True,
        text=True,
    )
    lines = (line.partition(" ") for line in proc.stdout.splitlines())
    return {rest.split(" - ")[0] for word, _, rest in lines if word in ("FAILED", "ERROR")}


def survivors(row: dict) -> list[str]:
    """The row's ids that the mutant does not fail: each one passed, or was
    not collected at all."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=_SKIP)
        path = copy / row["file"]
        path.write_text(path.read_text().replace(row["old"], row["new"]))
        failed = _failed(copy, row["tests"])
    return [test for test in row["tests"] if test not in failed]


def main() -> int:
    rows = json.loads(TABLE.read_text())
    faults = 0
    for row in rows:
        label = f"{row['file']}: {row['old'].strip()!r} -> {row['new'].strip()!r}"
        count = anchor_count(row)
        if count != 1:
            print(f"ANCHOR {label}: the old text occurs {count} times, not once")
            faults += 1
            continue
        alive = survivors(row)
        if alive:
            print(f"SURVIVED {label}: not failed by {', '.join(alive)}")
            faults += 1
        else:
            print(f"killed {label}: {len(row['tests'])} test(s) failed")
    print(f"{len(rows)} mutant(s), {faults} fault(s)")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
