"""Graded homology models for the dual Steenrod algebra and the Thom
complexes of the filtration stages, at the level of exact dimension
counts.

The dual Steenrod algebra A_* is polynomial on classes xi_k in degrees
2^k - 1, so its degree-t dimension counts the partitions of t into
parts 2^k - 1.

A filtration stage (n, j, i) contributes the Thom-complex homology
A_* (x) Z/2[one generator per stage up to this one], and since the
Adams spectral sequence of such a complex collapses onto its s = 0
line, the homotopy dimension count is exactly the quotient by the A_*
factor.

Both series are one call of the stride kernel ratio_polynomial, O(cap)
per generator, on the cached A_* series: the Thom homology multiplies it
by one running sum per stage generator, and the homotopy series runs the
same running sums and then divides A_* back out by one backward
difference per xi_k degree 2^k - 1, on one list.  That division is a
real one: a homology series that A_* does not divide raises
NotDivisibleError.  A_* is validated, and it first overflows in degree
29,781.  Of the homotopy route only the quotient is validated, not the
product A_* times the stage algebra, so it overflows only where the
homotopy series itself exceeds 64 bits, while the Thom series of a
stage may overflow at a lower cap.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from operator import attrgetter

from .degrees import StageTriple, TableEntry, stages_up_to_degree
from .series import AlgebraSpec, TruncatedSeries, ratio_polynomial, series_of


def _steenrod_spec(cap: int) -> AlgebraSpec:
    # xi_k in degree 2^k - 1 for every k with 2^k - 1 <= cap
    return AlgebraSpec.polynomial(*((1 << k) - 1 for k in range(1, (cap + 1).bit_length())))


@lru_cache(maxsize=None)
def steenrod_series(cap: int) -> TruncatedSeries:
    """Dimension series of the dual Steenrod algebra up to cap: polynomial
    on xi_k in degree 2^k - 1 for every k with 2^k - 1 <= cap.  Its
    coefficients first exceed 64 bits in degree 29,781."""
    return series_of(_steenrod_spec(cap), cap)


@lru_cache(maxsize=None)
def _stage_table(bound: int) -> tuple[TableEntry, ...]:
    # One build per bound: a verify pass asks for the same table at every stage.
    return stages_up_to_degree(bound)


def stage_generator_degrees(t: StageTriple, bound: int) -> list[int]:
    """Degrees of all generators present at stage t, capped at bound.

    Listed in stage order, so the list for a later stage extends the
    list for an earlier one.  The base stage contributes nothing.
    """
    table = _stage_table(bound)
    # The table is in stage order, so the stages up to t are a prefix of it.
    present = bisect_right(table, t, key=attrgetter("triple"))
    return [entry.degree for entry in table[:present]]


def thom_homology_series(t: StageTriple, cap: int) -> TruncatedSeries:
    """Homology dimensions of the stage-t Thom complex.

    The dual Steenrod algebra splits off as a tensor factor, leaving
    the polynomial algebra on the generators present at the stage.
    """
    loop_factor = AlgebraSpec.polynomial(*stage_generator_degrees(t, cap))
    return ratio_polynomial(steenrod_series(cap), loop_factor, AlgebraSpec())


def adams_homotopy_series(t: StageTriple, cap: int) -> TruncatedSeries:
    """Homotopy dimensions of the stage-t Thom complex.

    The Adams spectral sequence for a complex whose homology is
    A_* (x) V collapses onto s = 0, so the homotopy count is the exact
    quotient of the homology series by the A_* series.  The homology is
    built and divided on one list.  A_* is validated, so the cap must stay
    at most 29,780; the homology is not, so of the rest only the quotient
    must fit in 64 bits.  The division failing would falsify the model,
    hence the propagated NotDivisibleError instead of a fallback.
    """
    loop_factor = AlgebraSpec.polynomial(*stage_generator_degrees(t, cap))
    return ratio_polynomial(steenrod_series(cap), loop_factor, _steenrod_spec(cap))
