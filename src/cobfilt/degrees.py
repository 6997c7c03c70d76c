"""The bijection between generator degrees and filtration stage triples.

Polynomial generators of the unoriented cobordism ring occupy exactly
the degrees d >= 2 with d + 1 not a power of two.  Every such degree is
hit by one and only one triple (n, j, i):

    d = ((4n - 2) 2^j - 1) 2^i - 1,    n >= 1,  j >= 0,  i >= 0,

where j >= 1 is forced when n = 1.  The leftover triple (1, 0, 0) is
kept as the BASE stage: it indexes the bottom of the filtration and
carries no generator.  Decomposition reads the triple straight off two
2-adic valuations of d + 1.

Triples are ordered lexicographically, n first, then j, then i.  Note
that this is not the degree order: the stage of degree 11 precedes the
stage of degree 6.  The stages come in runs: the stages (n, j, 0),
(n, j, 1), ... share n and j, and degree d then 2d + 1; iter_runs yields
each run's n, j and first degree in that order.  The stage table up to a
degree bound is two aligned tuples in that order, its degrees and its
triples, read off the runs and cached once per bound: the checks and the
stage series read it at every stage, each the column it needs.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, NamedTuple

# Entries each cache keeps, here and in spaces, for the most recent caps: more than
# the few caps a pass cycles through, and few enough that a loop over many caps
# keeps memory bounded.
_CACHE_SIZE = 16


class ExcludedDegreeError(ValueError):
    """Degree of the form 2^k - 1: carries no polynomial generator."""


class _Triple(NamedTuple):
    n: int
    j: int
    i: int


class StageTriple(_Triple):
    """Filtration index (n, j, i); comparison is lexicographic.

    A plain tuple underneath, so it compares, hashes and unpacks as
    (n, j, i) does.  The constructor checks the indices.
    """

    __slots__ = ()

    def __new__(cls, n: int, j: int, i: int) -> StageTriple:
        if n < 1 or j < 0 or i < 0:
            raise ValueError(f"invalid stage triple ({n}, {j}, {i})")
        if n == 1 and j == 0 and i != 0:
            raise ValueError(f"(1, 0, {i}) is not a stage: with n = 1 only the base has j = 0")
        return tuple.__new__(cls, (n, j, i))

    @classmethod
    def _make(cls, iterable) -> StageTriple:
        # NamedTuple's _make, and _replace through it, would skip the check.
        return cls(*iterable)


BASE = StageTriple(1, 0, 0)


def _v2(x: int) -> int:
    # 2-adic valuation of x > 0
    return (x & -x).bit_length() - 1


def is_excluded(d: int) -> bool:
    """True when d + 1 is a power of two, i.e. d is 0, 1, 3, 7, 15, ..."""
    if d < 0:
        raise ValueError(f"degree must be >= 0, got {d}")
    return (d + 1) & d == 0


def compose(t: StageTriple) -> int:
    """The generator degree ((4n - 2) 2^j - 1) 2^i - 1 of a stage."""
    if t == BASE:
        raise ValueError("the base stage (1, 0, 0) carries no generator")
    return ((4 * t.n - 2) * (1 << t.j) - 1) * (1 << t.i) - 1


def decompose(d: int) -> StageTriple:
    """The unique stage triple whose generator degree is d.

    i is the 2-adic valuation of d + 1; stripping it leaves an odd m,
    and the valuation and odd part of m + 1 determine j and n.
    """
    if is_excluded(d):  # raises ValueError for d < 0
        raise ExcludedDegreeError(
            f"no generator in degree {d}: {d + 1} is a power of two"
        )
    i = _v2(d + 1)
    m = (d + 1) >> i
    j = _v2(m + 1) - 1
    q = (m + 1) >> (j + 1)
    n = (q + 1) // 2
    return StageTriple(n, j, i)


def iter_runs(bound: int) -> Iterator[tuple[int, int, int]]:
    """Every run of generator-bearing stages with degree <= bound, as
    (n, j, head) in stage order, where head is the degree of (n, j, 0).
    Stage (n, j, i + 1) has degree 2d + 1 when (n, j, i) has degree d,
    and the run holds every such degree up to the bound.

    The loop bounds follow the degree formula: stage n starts at degree
    4n - 4, each step in j takes the degree d of (n, j, 0) to 2d + 2,
    and each loop stops when the degree leaves the window, so no run is
    empty.  A bound below 2 gives nothing.  The runs' degrees are exactly
    the non-excluded integers in [2, bound], each once; that equality is
    a theorem and is checked by the verification suite, not here.
    """
    n = 1
    while 4 * n - 4 <= bound:
        j = 1 if n == 1 else 0
        head = ((4 * n - 2) << j) - 2  # the degree of (n, j, 0)
        while head <= bound:
            yield n, j, head
            head, j = 2 * head + 2, j + 1
        n += 1


@lru_cache(maxsize=_CACHE_SIZE)
def stages_up_to_degree(bound: int) -> tuple[tuple[int, ...], tuple[StageTriple, ...]]:
    """The generator-bearing stages with degree <= bound in stage order, as aligned columns
    (degrees, triples), each run of iter_runs from its head by d -> 2d + 1; cached per bound."""
    degrees: list[int] = []
    triples: list[StageTriple] = []
    for n, j, degree in iter_runs(bound):
        i = 0
        while degree <= bound:
            degrees.append(degree)
            triples.append(StageTriple(n, j, i))
            degree, i = 2 * degree + 1, i + 1
    return tuple(degrees), tuple(triples)
