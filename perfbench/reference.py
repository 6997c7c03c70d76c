"""Independent reference that validates the output of each benchmark operation.

Nothing here imports cobfilt.  Degrees and stages come straight from the
degree formula d = ((4n - 2) 2^j - 1) 2^i - 1, and series come from
restricted-partition counting, so a defect in the program cannot hide in
code the validator shares with it.

check(op, code, stdout) returns None when the output is right and a short
reason otherwise.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache

EXIT_OK = 0
EXIT_DOMAIN_ERROR = 2
VERIFY_CHECKS = ("bijection", "product", "quotients", "simple-system")

_TERM = re.compile(r"((?:P\([12],)*)RP\^(\d+)(\)*)")


def is_excluded(d: int) -> bool:
    """True when d + 1 is a power of two: no generator lives in degree d."""
    return (d + 1) & d == 0


def degree_of(n: int, j: int, i: int) -> int:
    return ((4 * n - 2) * 2**j - 1) * 2**i - 1


def is_stage(n: int, j: int, i: int) -> bool:
    """A generator-bearing stage: n >= 1, j, i >= 0, and j >= 1 when n = 1."""
    return n >= 1 and j >= 0 and i >= 0 and (n > 1 or j >= 1)


@lru_cache(maxsize=None)
def stages(cap: int) -> tuple[tuple[tuple[int, int, int], int], ...]:
    """Every (stage, degree) with 2 <= degree <= cap, in lexicographic stage order.

    A brute-force search over a box of triples large enough to hold every
    stage below the cap, filtered by the formula.
    """
    top = cap.bit_length() + 1
    found = [
        ((n, j, i), degree_of(n, j, i))
        for n in range(1, cap // 4 + 2)
        for j in range(top)
        for i in range(top)
        if is_stage(n, j, i) and degree_of(n, j, i) <= cap
    ]
    return tuple(sorted(found))


def partitions(parts: list[int], cap: int) -> list[int]:
    """Number of multisets of the given parts summing to each total <= cap."""
    ways = [1] + [0] * cap
    for p in parts:
        for total in range(p, cap + 1):
            ways[total] += ways[total - p]
    return ways


def convolve(a: list[int], b: list[int]) -> list[int]:
    cap = len(a) - 1
    return [sum(a[u] * b[t - u] for u in range(t + 1)) for t in range(cap + 1)]


@lru_cache(maxsize=None)
def steenrod(cap: int) -> tuple[int, ...]:
    """Dimensions of the dual Steenrod algebra: parts 2^k - 1."""
    return tuple(partitions([2**k - 1 for k in range(1, cap.bit_length() + 1) if 2**k - 1 <= cap], cap))


@lru_cache(maxsize=None)
def homotopy(stage: tuple[int, int, int], cap: int) -> tuple[int, ...]:
    """Partitions into the degrees of every stage up to and including this one."""
    return tuple(partitions([d for s, d in stages(cap) if s <= stage], cap))


@lru_cache(maxsize=None)
def homology(stage: tuple[int, int, int], cap: int) -> tuple[int, ...]:
    return tuple(convolve(list(homotopy(stage, cap)), list(steenrod(cap))))


@lru_cache(maxsize=None)
def ring(cap: int) -> tuple[int, ...]:
    """Partitions into every non-excluded degree in [2, cap]."""
    return tuple(partitions([d for d in range(2, cap + 1) if not is_excluded(d)], cap))


def walk_term(term: str) -> int | None:
    """Dimension reached by a cup term, or None when the term is malformed.

    The base RP^b must be even; steps apply innermost first, cup-2 taking
    d to 2d + 2 and cup-1 taking d to 2d + 1.
    """
    m = _TERM.fullmatch(term)
    if m is None:
        return None
    steps = [int(s) for s in re.findall(r"P\(([12]),", m.group(1))]
    base = int(m.group(2))
    if len(m.group(3)) != len(steps) or base < 2 or base % 2:
        return None
    d = base
    for s in reversed(steps):
        d = 2 * d + s
    return d


def _envelope(stdout: str, command: str) -> dict:
    env = json.loads(stdout)
    if env.get("command") != command:
        raise ValueError(f"envelope names command {env.get('command')!r}")
    return env


def _excluded(code: int, env: dict) -> str | None:
    if code != EXIT_DOMAIN_ERROR:
        return f"excluded degree exited {code}, expected {EXIT_DOMAIN_ERROR}"
    if env.get("status") != "error" or env.get("error", {}).get("code") != "EXCLUDED_DEGREE":
        return "excluded degree without an EXCLUDED_DEGREE error envelope"
    return None


def _ok(code: int, env: dict) -> str | None:
    if code != EXIT_OK or env.get("status") != "ok":
        return f"exit {code}, status {env.get('status')!r}, expected 0 and 'ok'"
    return None


def _decompose(argv: list[str], code: int, stdout: str) -> str | None:
    d = int(argv[1])
    env = _envelope(stdout, "decompose")
    if is_excluded(d):
        return _excluded(code, env)
    problem = _ok(code, env)
    if problem:
        return problem
    r = env["result"]
    if not is_stage(r["n"], r["j"], r["i"]):
        return f"({r['n']},{r['j']},{r['i']}) is not a stage"
    if degree_of(r["n"], r["j"], r["i"]) != d or r["recomposed"] != d:
        return f"stage ({r['n']},{r['j']},{r['i']}) does not recompose to {d}"
    return None


def _recipe(argv: list[str], code: int, stdout: str) -> str | None:
    d = int(argv[1])
    env = _envelope(stdout, "recipe")
    if is_excluded(d):
        return _excluded(code, env)
    problem = _ok(code, env)
    if problem:
        return problem
    r = env["result"]
    if r["degree"] != d:
        return f"recipe for {r['degree']}, asked for {d}"
    if walk_term(r["term"]) != d:
        return f"term {r['term']!r} does not reach {d}"
    return None


def _table(argv: list[str], code: int, stdout: str) -> str | None:
    bound = int(argv[1])
    if code != EXIT_OK:
        return f"table exited {code}"
    lines = stdout.splitlines()
    rows = lines[1:-1]
    seen: list[int] = []
    previous = None
    for row in rows:
        degree, stage, term = row.split()
        n, j, i = (int(x) for x in stage.strip("()").split(","))
        d = int(degree)
        if not is_stage(n, j, i) or degree_of(n, j, i) != d:
            return f"row {row!r}: stage does not give the degree"
        if previous is not None and (n, j, i) <= previous:
            return f"row {row!r}: not in stage order"
        if walk_term(term) != d:
            return f"row {row!r}: term does not reach the degree"
        previous = (n, j, i)
        seen.append(d)
    expected = [d for d in range(2, bound + 1) if not is_excluded(d)]
    if sorted(seen) != expected:
        return f"table {bound} does not list each non-excluded degree exactly once"
    if lines[-1] != f"{len(expected)} generator(s) up to degree {bound}":
        return f"bad summary line {lines[-1]!r}"
    return None


def _series(argv: list[str], code: int, stdout: str) -> str | None:
    what = argv[1]
    cap = int(argv[argv.index("--cap") + 1])
    env = _envelope(stdout, "series")
    problem = _ok(code, env)
    if problem:
        return problem
    if what == "steenrod":
        expected = steenrod(cap)
    else:
        stage = tuple(int(x) for x in argv[argv.index("--stage") + 1].split(","))
        expected = (homotopy if what == "homotopy" else homology)(stage, cap)
    got = env["result"]["coefficients"]
    if tuple(got) != expected:
        t = next((t for t, (a, b) in enumerate(zip(got, expected)) if a != b), len(got))
        return f"series {what} cap {cap}: coefficient {t} differs from the reference"
    return None


def _verify(argv: list[str], code: int, stdout: str) -> str | None:
    check = argv[argv.index("--check") + 1]
    cap = int(argv[argv.index("--cap") + 1])
    env = _envelope(stdout, "verify")
    problem = _ok(code, env)
    if problem:
        return problem
    r = env["result"]
    names = list(VERIFY_CHECKS) if check == "all" else [check]
    if not r["all_passed"] or r["cap"] != cap:
        return f"verify {check} cap {cap}: all_passed={r['all_passed']}"
    if [c["check"] for c in r["checks"]] != names or any(c["status"] != "pass" for c in r["checks"]):
        return f"verify {check} cap {cap}: unexpected check list"
    for c in r["checks"]:
        if c["check"] == "product" and tuple(c["series"]) != ring(cap):
            return f"verify product cap {cap}: ring series differs from the reference"
    return None


_CHECKERS = {
    "decompose": _decompose,
    "recipe": _recipe,
    "table": _table,
    "series": _series,
    "verify": _verify,
}


def check(argv: list[str], code: object, stdout: str) -> str | None:
    """None when stdout and the exit code are what argv must produce."""
    if not isinstance(code, int):
        return f"raised {code!r}"
    try:
        return _CHECKERS[argv[0]](argv, code, stdout)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"
