"""Seeded operation generators for the three benchmark workloads.

A workload is an endless sequence of rounds.  Every round of a workload
carries the same mix of operation kinds and size strata, so the cost of a
run barely depends on the seed; the seed draws the sizes inside each
stratum and the order of each round.  Stratified draws keep each size
distribution as specified: a degree drawn in stratum k of K is log-uniform
over the k-th K-quantile slice of the range.  Two series operations of one
stratum take mirrored positions in it (u and 1 - u, antithetic draws),
which keeps the cost of a round steady.

    verify  verify --check C --cap N --json on a fixed cap grid in [32, 128]
    lookup  decompose d --json, recipe d --expand --json, table N
    series  series {homotopy,homology,steenrod} [--stage s] --cap N --json

The verify caps and the table sizes form fixed grids, not draws: verify
cost grows as cap^4 and table cost with N, so any random size moves the
run time, and which operation sits at the median and tail latency ranks,
by more than the benchmark's bounds.  The seed sets only the order of the
verify rounds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator

import reference


CALLS = 10  # calls of an operation in a timed pass, unless it says otherwise


@dataclass(frozen=True)
class Op:
    """One CLI call: argv for cobfilt.cli.main, its kind, a size bucket for the
    run record, and how many times a timed pass calls it."""

    argv: tuple[str, ...]
    kind: str
    bucket: str
    calls: int = CALLS


def _log_uniform(lo: int, hi: int, x: float) -> int:
    return round(lo * (hi / lo) ** x)


# Caps stop at 128: the quotient check at cap 256 runs for about a minute.
VERIFY_CAPS = tuple(range(32, 129, 8))
VERIFY_CHECKS = ("bijection", "product", "quotients", "simple-system", "all")

LOOKUP_DEGREES = (2, 10**6)
LOOKUP_TABLES = (16, 10**4)
# table N is the costliest lookup call and sets its tail, so its sizes are a
# fixed log-uniform grid, the midpoints of 16 equal slices, like the verify caps.
LOOKUP_TABLE_SIZES = tuple(_log_uniform(*LOOKUP_TABLES, (k + 0.5) / 16) for k in range(16))
LOOKUP_PER_COMMAND = 72  # decompose and recipe each

SERIES_CAPS = (16, 24, 32, 48, 64, 96)


def _mirrored(rng: random.Random) -> tuple[float, float]:
    """Two positions in [0, 1], u and 1 - u."""
    u = rng.random()
    return u, 1.0 - u


def _verify_calls(check: str, cap: int) -> int:
    """Calls in a timed pass.  The quotient and full checks above cap 48 take
    0.1 s to 3.5 s a call, and a long call already averages the host's speed
    over its own run; calling them less keeps a timed pass near 70 s.  Those
    up to cap 96 hold the tail rank and get a third call."""
    if check not in ("quotients", "all") or cap <= 48:
        return CALLS
    return 3 if cap <= 96 else 2


def _verify_round(rng: random.Random) -> list[Op]:
    return [
        Op(("verify", "--check", check, "--cap", str(cap), "--json"), f"verify {check}", f"cap{cap}",
           _verify_calls(check, cap))
        for check in VERIFY_CHECKS
        for cap in VERIFY_CAPS
    ]


def _degree_op(command: str, d: int) -> Op:
    argv = ("decompose", str(d), "--json") if command == "decompose" else ("recipe", str(d), "--expand", "--json")
    kind = f"{command} excluded" if reference.is_excluded(d) else command
    return Op(argv, kind, f"1e{len(str(d)) - 1}")


def _lookup_round(rng: random.Random) -> list[Op]:
    # One log-uniform degree per stratum; excluded degrees stay in as drawn (about 5%).
    ops = [
        _degree_op(command, _log_uniform(*LOOKUP_DEGREES, (k + rng.random()) / LOOKUP_PER_COMMAND))
        for command in ("decompose", "recipe")
        for k in range(LOOKUP_PER_COMMAND)
    ]
    ops += [Op(("table", str(n)), "table", f"1e{len(str(n)) - 1}") for n in LOOKUP_TABLE_SIZES]
    return ops


def _series_round(rng: random.Random) -> list[Op]:
    ops = []
    for cap in SERIES_CAPS:
        present = [s for s, _ in reference.stages(cap)]
        for what, x in zip(("homotopy", "homology"), _mirrored(rng)):
            stage = present[min(int(x * len(present)), len(present) - 1)]
            argv = ("series", what, "--stage", ",".join(map(str, stage)), "--cap", str(cap), "--json")
            ops.append(Op(argv, f"series {what}", f"cap{cap}"))
        ops.append(Op(("series", "steenrod", "--cap", str(cap), "--json"), "series steenrod", f"cap{cap}"))
    return ops


_ROUNDS: dict[str, Callable[[random.Random], list[Op]]] = {
    "verify": _verify_round,
    "lookup": _lookup_round,
    "series": _series_round,
}
WORKLOADS = tuple(_ROUNDS)

# Rounds of a traced pass: fixed, so its counts repeat exactly for a seed.
TRACE_ROUNDS = {"verify": 1, "lookup": 8, "series": 60}
# Rounds in each sweep of a 10 s timed pass: a fixed count, not a time, so
# the list of operations, and which one lands on each latency rank, never
# depends on the host's speed.  A verify round alone runs for about 23 s.
SWEEP_ROUNDS = {"verify": 1, "lookup": 2, "series": 25}


def sweep_rounds(workload: str, seconds: float) -> int:
    """Rounds in each sweep of a timed pass of about `seconds` of operation time."""
    return max(1, round(SWEEP_ROUNDS[workload] * seconds / 10))


def rounds(workload: str, seed: int) -> Iterator[list[Op]]:
    """The workload's rounds for this seed, each shuffled; the same seed gives the same rounds."""
    rng = random.Random(f"{workload}:{seed}")
    make = _ROUNDS[workload]
    while True:
        ops = make(rng)
        rng.shuffle(ops)
        yield ops
