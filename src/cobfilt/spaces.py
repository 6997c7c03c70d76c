"""Graded homology models for the dual Steenrod algebra and the Thom
complexes of the filtration stages, at the level of exact dimension
counts.

The dual Steenrod algebra A_* is polynomial on classes xi_k in degrees
2^k - 1, so its degree-t dimension counts the partitions of t into
parts 2^k - 1.  Its series is cached for the last 16 caps, and its
coefficients first exceed 64 bits in degree 29,781.  A stage's generators
are a prefix of the stage table, which degrees caches per bound, and their
degrees a slice of that table's degrees, cached here per bound too.

A filtration stage (n, j, i) contributes the Thom-complex homology
A_* (x) Z/2[one generator per stage up to this one] (Thom 1954).  The
Adams spectral sequence of such a complex collapses onto its s = 0
line, so its homotopy is the polynomial algebra on the stage's
generators alone.

Both stage series are one series_of call, O(cap) per generator, checked
once, at the end.  The Thom homology is series_of on the xi_k degrees
followed by the stage's generators; the homotopy is series_of on the
stage's generators alone, so it reads nothing of A_* and overflows only
where it exceeds 64 bits itself, never at a lower cap than the Thom
series of the same stage.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from operator import attrgetter

from .degrees import _CACHE_SIZE, StageTriple, stages_up_to_degree
from .series import AlgebraSpec, TruncatedSeries, series_of


def _xi_degrees(cap: int) -> tuple[int, ...]:
    # The degrees 2^k - 1 <= cap of the generators xi_k of A_*.
    return tuple((1 << k) - 1 for k in range(1, (cap + 1).bit_length()))


@lru_cache(maxsize=_CACHE_SIZE)
def steenrod_series(cap: int) -> TruncatedSeries:
    """Dimension series of the dual Steenrod algebra up to cap: polynomial
    on xi_k in degree 2^k - 1 for every k with 2^k - 1 <= cap.  Its
    coefficients first exceed 64 bits in degree 29,781."""
    return series_of(AlgebraSpec(_xi_degrees(cap)), cap)


@lru_cache(maxsize=_CACHE_SIZE)
def _stage_degrees(bound: int) -> tuple[int, ...]:
    # The degrees of stages_up_to_degree(bound), in its order, cached per bound as it is.
    return tuple(entry.degree for entry in stages_up_to_degree(bound))


def stage_generator_degrees(t: StageTriple, bound: int) -> list[int]:
    """Degrees of all generators present at stage t, capped at bound.

    Listed in stage order, so the list for a later stage extends the
    list for an earlier one.  The base stage contributes nothing.
    """
    table = stages_up_to_degree(bound)  # cached per bound
    # The table is in stage order, so the stages up to t are a prefix of it.
    present = bisect_right(table, t, key=attrgetter("triple"))
    return list(_stage_degrees(bound)[:present])


def thom_homology_series(t: StageTriple, cap: int) -> TruncatedSeries:
    """Homology dimensions of the stage-t Thom complex.

    The dual Steenrod algebra splits off as a tensor factor, leaving
    the polynomial algebra on the generators present at the stage, so
    the whole is polynomial on the xi_k and those generators.
    """
    return series_of(AlgebraSpec((*_xi_degrees(cap), *stage_generator_degrees(t, cap))), cap)


def adams_homotopy_series(t: StageTriple, cap: int) -> TruncatedSeries:
    """Homotopy dimensions of the stage-t Thom complex.

    The Adams spectral sequence for a complex whose homology is
    A_* (x) V collapses onto s = 0, so the homotopy is V: the polynomial
    algebra on the generators present at the stage.  Its series reads
    nothing of A_*, so it overflows only where it exceeds 64 bits itself.
    """
    return series_of(AlgebraSpec(stage_generator_degrees(t, cap)), cap)
