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
stage of degree 6.  The stage table up to a degree bound is a plain
tuple of (degree, triple) entries in that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple


class ExcludedDegreeError(ValueError):
    """Degree of the form 2^k - 1: carries no polynomial generator."""


class DegreeTooSmallError(ValueError):
    """A negative degree.  Degrees start at 0; 0 and 1 are excluded, not too small."""


class BaseStageError(ValueError):
    """The base stage (1, 0, 0) has no generator degree."""


@dataclass(frozen=True, order=True, slots=True)
class StageTriple:
    """Filtration index (n, j, i); comparison is lexicographic."""

    n: int
    j: int
    i: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.j < 0 or self.i < 0:
            raise ValueError(f"invalid stage triple ({self.n}, {self.j}, {self.i})")
        if self.n == 1 and self.j == 0 and self.i != 0:
            raise ValueError(
                f"(1, 0, {self.i}) is not a stage: with n = 1 only the base has j = 0"
            )

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


def stages_up_to_degree(bound: int) -> tuple[TableEntry, ...]:
    """All generator-bearing stages with degree <= bound, as (degree,
    triple) entries in stage order.

    The loop bounds follow the degree formula: stage n starts at degree
    4n - 4, the (n, j) family starts at (4n - 2) 2^j - 2, and i grows
    until the degree leaves the window.  A bound below 2 gives an empty
    table.  The degrees are exactly the non-excluded integers in
    [2, bound], each once; that equality is a theorem and is checked by
    the verification suite, not here.
    """
    entries: list[TableEntry] = []
    n = 1
    while 4 * n - 4 <= bound:
        j = 1 if n == 1 else 0
        while (4 * n - 2) * (1 << j) - 2 <= bound:
            odd = (4 * n - 2) * (1 << j) - 1
            i = 0
            while odd * (1 << i) - 1 <= bound:
                entries.append(TableEntry(odd * (1 << i) - 1, StageTriple(n, j, i)))
                i += 1
            j += 1
        n += 1
    return tuple(entries)
