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
(n, j, 1), ... share n and j, and iter_runs yields each run's n, j and
degrees in that order.  The stage table up to a degree bound is a plain
tuple of (degree, triple) entries in that order, read off the runs, and
cached per bound: the checks and the stage series read it at every stage.
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


class DegreeTooSmallError(ValueError):
    """A negative degree.  Degrees start at 0; 0 and 1 are excluded, not too small."""


class BaseStageError(ValueError):
    """The base stage (1, 0, 0) has no generator degree."""


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

    @property
    def is_base(self) -> bool:
        return self.n == 1 and self.j == 0


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
    if t.is_base:
        raise BaseStageError("the base stage (1, 0, 0) carries no generator")
    return ((4 * t.n - 2) * (1 << t.j) - 1) * (1 << t.i) - 1


def decompose(d: int) -> StageTriple:
    """The unique stage triple whose generator degree is d.

    i is the 2-adic valuation of d + 1; stripping it leaves an odd m,
    and the valuation and odd part of m + 1 determine j and n.
    """
    if d < 0:
        raise DegreeTooSmallError(f"degree must be >= 0, got {d}")
    if is_excluded(d):
        raise ExcludedDegreeError(
            f"no generator in degree {d}: {d + 1} is a power of two"
        )
    i = _v2(d + 1)
    m = (d + 1) >> i
    j = _v2(m + 1) - 1
    q = (m + 1) >> (j + 1)
    n = (q + 1) // 2
    return StageTriple(n, j, i)


class TableEntry(NamedTuple):
    degree: int
    triple: StageTriple


def iter_runs(bound: int) -> Iterator[tuple[int, int, list[int]]]:
    """Every run of generator-bearing stages with degree <= bound, as
    (n, j, degrees) in stage order, where degrees[i] is the degree of
    stage (n, j, i).

    The loop bounds follow the degree formula: stage n starts at degree
    4n - 4, each step in j takes the degree d of (n, j, 0) to 2d + 2,
    each step in i takes d to 2d + 1, and each loop stops when the degree
    leaves the window, so no run is empty.  A bound below 2 gives
    nothing.  The degrees are exactly the non-excluded integers in
    [2, bound], each once; that equality is a theorem and is checked by
    the verification suite, not here.
    """
    n = 1
    while 4 * n - 4 <= bound:
        j = 1 if n == 1 else 0
        head = ((4 * n - 2) << j) - 2  # the degree of (n, j, 0)
        while head <= bound:
            degrees, degree = [], head
            while degree <= bound:
                degrees.append(degree)
                degree = 2 * degree + 1
            yield n, j, degrees
            head, j = 2 * head + 2, j + 1
        n += 1


@lru_cache(maxsize=_CACHE_SIZE)
def stages_up_to_degree(bound: int) -> tuple[TableEntry, ...]:
    """All generator-bearing stages with degree <= bound, as (degree,
    triple) entries in stage order: the runs of iter_runs(bound), entry
    by entry.  Cached for the last 16 bounds."""
    return tuple(
        TableEntry(degree, StageTriple(n, j, i))
        for n, j, degrees in iter_runs(bound)
        for i, degree in enumerate(degrees)
    )
