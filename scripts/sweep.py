#!/usr/bin/env python3
"""The byte-identity sweep: fixed families of CLI argv, each digested into
one sha256 over every argv's exit code, stdout and stderr.

A family is a command, its check or kind, text or --json, and a range of
its argument: every verify --check at caps 0..130, 539 and 540; every
stage of series homotopy|homology, the base stage too, at caps 0..69;
series steenrod at caps 0..200; decompose d, and recipe d with and
without --expand, for d = 0..2999; and table N for N = 0..2000.  Each
argv runs in-process through cobfilt.cli.main.  A family's digest hashes
the sorted digests of its argv, so it does not depend on the order they
ran in, and a run in any order must give it: a call whose bytes depend
on the calls before it changes the digest.  tests/golden/sweep.json
holds every family's digest; tests/test_sweep.py compares them.

    python scripts/sweep.py
        rewrite tests/golden/sweep.json from the package on the path
    python scripts/sweep.py --family "recipe --expand --json" --against OTHER
        run the family against this checkout's src and OTHER's src, and
        print the first argv whose bytes differ (exit 1), if any
"""

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "sweep.json"

VERIFY_CAPS = [*range(131), 539, 540]
SERIES_CAPS = range(70)
STEENROD_CAPS = range(201)
DEGREES = range(3000)
TABLE_BOUNDS = range(2001)


def stages(cap):
    """Every stage (n, j, i) whose generator degree is <= cap, and the base
    stage, as --stage values.  Read off the degree formula here, not from
    the package: (n, j, 0) has degree (4n - 2) 2^j - 2, for j >= 1 when
    n = 1, and each step in i takes d to 2d + 1."""
    found = ["1,0,0"]
    n = 1
    while 4 * n - 4 <= cap:
        j = 1 if n == 1 else 0
        while (head := ((4 * n - 2) << j) - 2) <= cap:
            i, degree = 0, head
            while degree <= cap:
                found.append(f"{n},{j},{i}")
                i, degree = i + 1, 2 * degree + 1
            j += 1
        n += 1
    return found


def _families():
    families = {}
    for check in ("bijection", "product", "quotients", "simple-system", "all"):
        argvs = [["verify", "--check", check, "--cap", str(c)] for c in VERIFY_CAPS]
        families[f"verify {check}"] = argvs
        families[f"verify {check} --json"] = [[*a, "--json"] for a in argvs]
    for what in ("homotopy", "homology"):
        argvs = [["series", what, "--stage", s, "--cap", str(c)] for c in SERIES_CAPS for s in stages(c)]
        families[f"series {what}"] = argvs
        families[f"series {what} --json"] = [[*a, "--json"] for a in argvs]
    argvs = [["series", "steenrod", "--cap", str(c)] for c in STEENROD_CAPS]
    families["series steenrod"] = argvs
    families["series steenrod --json"] = [[*a, "--json"] for a in argvs]
    for flags in ([], ["--json"]):
        families[" ".join(["decompose", *flags])] = [["decompose", str(d), *flags] for d in DEGREES]
    for flags in ([], ["--expand"], ["--json"], ["--expand", "--json"]):
        families[" ".join(["recipe", *flags])] = [["recipe", str(d), *flags] for d in DEGREES]
    argvs = [["table", str(n)] for n in TABLE_BOUNDS]
    families["table"] = argvs
    families["table --json"] = [[*a, "--json"] for a in argvs]
    return families


FAMILIES = _families()


def run(argv):
    """Exit code, stdout and stderr of one in-process call."""
    # Imported here: comparing two checkouts needs neither package in this process.
    from cobfilt.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def record(argv):
    """The exit code of one call, and the sha256 of its argv, exit code and
    the bytes of its stdout and stderr."""
    code, out, err = run(argv)
    out, err = out.encode(), err.encode()
    head = json.dumps([argv, code, len(out), len(err)]).encode()
    return code, hashlib.sha256(head + b"\n" + out + err).hexdigest()


def digests(names, order=None):
    """{family: digest} for the named families.  order, if given, is a list
    of (family, argv) pairs that names every argv of those families once:
    the calls then run in that order instead of family by family."""
    if order is None:
        order = [(name, argv) for name in names for argv in FAMILIES[name]]
    records = {name: [] for name in names}
    for name, argv in order:
        records[name].append(record(argv)[1])
    # Sorted, so a family's digest does not depend on the order its argv ran in.
    return {
        name: hashlib.sha256("\n".join(sorted(found)).encode()).hexdigest()
        for name, found in records.items()
    }


def write_golden():
    entries = digests(FAMILIES)
    golden = {name: {"argv": len(FAMILIES[name]), "sha256": entries[name]} for name in FAMILIES}
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")


def _records_in(checkout, family):
    # Each checkout's records come from a fresh interpreter that imports its src.
    env = dict(os.environ, PYTHONPATH=str(Path(checkout).resolve() / "src"))
    proc = subprocess.run(
        [sys.executable, __file__, "--records", family],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return [json.loads(line) for line in proc.stdout.splitlines()]


def first_difference(family, other):
    """The first argv of family whose exit code or bytes differ between this
    checkout and other, with both sides' exit codes, or None."""
    here, there = _records_in(ROOT, family), _records_in(other, family)
    for (argv, code, sha), (_, other_code, other_sha) in zip(here, there):
        if sha != other_sha:
            return argv, code, other_code
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--family", choices=FAMILIES, help="the family to compare")
    parser.add_argument("--against", metavar="CHECKOUT", help="a second checkout to compare with")
    parser.add_argument("--records", choices=FAMILIES, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.records is not None:
        for argv in FAMILIES[args.records]:
            print(json.dumps([argv, *record(argv)]))
        return 0
    if (args.family is None) != (args.against is None):
        parser.error("--family and --against go together")
    if args.family is None:
        write_golden()
        print(f"wrote {len(FAMILIES)} families to {GOLDEN}")
        return 0
    found = first_difference(args.family, args.against)
    if found is None:
        print(f"{args.family}: every argv gives the same bytes")
        return 0
    argv, code, other_code = found
    print(f"first difference: cobfilt {' '.join(argv)} (exit {code} here, {other_code} in {args.against})")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
