"""Exact truncated power series and symbolic graded-algebra descriptions.

Dimension counts of graded vector spaces over the field with two
elements are tracked as exact integer sequences up to a degree cap.
Every algebra the filtration needs is polynomial, so an algebra is
described by its generator degrees alone and converted to its Poincare
series by multiplying one factor 1 / (1 - t^d) per generator of degree d.

Each such factor is a stride kernel on one list of coefficients, O(cap)
per generator: multiplying by 1 / (1 - t^d) is a forward running sum
with stride d.  series_of runs one per generator and checks the result
once, at the end.  It starts from its last build when the generators
extend that build's at the same cap, else from the unit series, so a
walk over the stages in order runs one pass per stage, past the first
stage that overflows too.  Every stage series is one series_of call: no
stride kernel divides, because the Adams spectral sequence of a stage
collapses, so its homotopy is the series of its own polynomial algebra,
with no A_* factor to divide out.
A height-1 factor 1 + t^e is one slice pass (simple_system_series).
The general kernels mul and exact_div are no check's route (see checks):
they are plain references for the tests.  Both take arbitrary operands
and share no code with the stride kernels; each makes one slice pass
per nonzero coefficient (of the sparser operand for mul, of the
quotient for exact_div), so their cost follows the nonzero terms, at
most O(cap^2).

Coefficients are plain Python integers validated against the unsigned
64-bit bound at construction, in two C-level passes: their types, then
their range, by packing them as array("Q").  So a count that outgrows
the fixed-width contract raises OverflowError instead of silently
corrupting a table.  A series is its coefficient tuple, and its cap is
the top degree len(coeffs) - 1.  Every function that builds a series
from nothing takes the cap as an explicit argument; there is no global
precision.

>>> series_of(AlgebraSpec((2, 5)), cap=7).coeffs
(1, 0, 1, 0, 1, 1, 1, 1)
"""

from __future__ import annotations

import operator
from array import array
from itertools import repeat
from typing import Iterable, NamedTuple

U64_MAX = 2**64 - 1
# TruncatedSeries checks the bound by packing its coefficients as "Q".
if array("Q").itemsize != 8:
    raise ImportError("array('Q') must hold exactly 64 bits to check the bound")


class NotDivisibleError(ArithmeticError):
    """A series quotient would need a negative coefficient."""


class _Spec(NamedTuple):
    degrees: tuple[int, ...] = ()


class AlgebraSpec(_Spec):
    """Polynomial algebra over Z/2 on one generator in each listed degree.

    A plain tuple underneath, as StageTriple is: the constructor stores
    the degrees as a tuple and checks them.
    """

    __slots__ = ()

    def __new__(cls, degrees: Iterable[int] = ()) -> AlgebraSpec:
        degrees = tuple(degrees)
        # One C-level pass; the loop runs only to name the fault.
        if min(degrees, default=1) < 1:
            for d in degrees:
                if d < 1:
                    raise ValueError(f"generator degree must be >= 1, got {d}")
        return tuple.__new__(cls, (degrees,))

    @classmethod
    def _make(cls, iterable) -> AlgebraSpec:
        # NamedTuple's _make, and _replace through it, would skip the check.
        return cls(*iterable)

    def generators_below(self, bound: int) -> tuple[int, ...]:
        """The degrees of all generators of degree <= bound."""
        return tuple(d for d in self.degrees if d <= bound)


class _Coeffs(NamedTuple):
    coeffs: tuple[int, ...]


class TruncatedSeries(_Coeffs):
    """Dimension counts up to and including degree cap; coeffs[t] is degree t.

    A plain tuple underneath; the constructor stores the coefficients as
    a tuple and checks them against the unsigned 64-bit bound.
    """

    __slots__ = ()

    def __new__(cls, coeffs: Iterable[int]) -> TruncatedSeries:
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a series needs its degree-0 coefficient, got none")
        # One C-level pass each: the types first, so array("Q") sees plain
        # ints alone and calls no __index__, then the range.  The per-degree
        # loop runs only to name the lowest fault.
        if not (set(map(type, coeffs)) <= {int} and _fits_u64(coeffs)):
            for t, c in enumerate(coeffs):
                if type(c) is not int:
                    raise ValueError(f"coefficient in degree {t} is not an integer: {c!r}")
                if c < 0:
                    raise ValueError(f"negative coefficient {c} in degree {t}")
                if c > U64_MAX:
                    raise OverflowError(f"coefficient in degree {t} exceeds the 64-bit bound")
        return tuple.__new__(cls, (coeffs,))

    @classmethod
    def _make(cls, iterable) -> TruncatedSeries:
        # NamedTuple's _make, and _replace through it, would skip the check.
        return cls(*iterable)

    @property
    def cap(self) -> int:
        """The top degree counted."""
        return len(self.coeffs) - 1


def _fits_u64(coeffs: tuple[int, ...]) -> bool:
    # Packing as unsigned 64-bit raises OverflowError for a negative
    # coefficient and for one above U64_MAX.
    try:
        array("Q", coeffs)
    except OverflowError:
        return False
    return True


def _unit_list(cap: int) -> list[int]:
    # The unit series' coefficients, and the cap guard of every builder here.
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    return [1] + [0] * cap


def mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Truncated convolution: the series of a tensor product of graded spaces.

    The operand with more zero coefficients is the outer one, and each of
    its nonzero coefficients adds that multiple of the other operand in
    one slice pass, so the work follows the nonzero terms, not cap^2.
    """
    if a.cap != b.cap:
        raise ValueError(f"cap mismatch: {a.cap} != {b.cap}")
    cap = a.cap
    outer, inner = (b, a) if a.coeffs.count(0) < b.coeffs.count(0) else (a, b)
    out = [0] * (cap + 1)
    for u, c in enumerate(outer.coeffs):
        # map stops at out[u:], the shorter input: the product truncates there.
        if c:
            out[u:] = map(operator.add, out[u:], map(operator.mul, repeat(c), inner.coeffs))
    return TruncatedSeries(tuple(out))


def exact_div(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """The unique q with mul(q, b) = a, by synthetic division.

    Requires b[0] = 1.  The working list starts as a; once the degrees
    below t are settled, its degree-t entry is the quotient coefficient,
    and a nonzero one subtracts its multiple of b from the degrees above
    in one slice pass.  Raises NotDivisibleError at the lowest quotient
    coefficient that would have to be negative, which is how a failed
    tensor decomposition announces itself.
    """
    if a.cap != b.cap:
        raise ValueError(f"cap mismatch: {a.cap} != {b.cap}")
    if b.coeffs[0] != 1:
        raise ValueError("divisor must have constant coefficient 1")
    q = list(a.coeffs)
    tail = b.coeffs[1:]
    for t in range(len(q)):
        c = q[t]
        if c < 0:
            raise NotDivisibleError(f"quotient coefficient in degree {t} would be {c}")
        # map stops at q[t + 1:], the shorter input: the degrees above t.
        if c:
            q[t + 1 :] = map(operator.sub, q[t + 1 :], map(operator.mul, repeat(c), tail))
    return TruncatedSeries(tuple(q))


# The degrees and coefficients of series_of's last build, recorded before
# the 64-bit check, so a build that overflows is resumed from too; replaced
# whole and never mutated: a call reads one whole record, however calls
# interleave.
_last: tuple[tuple[int, ...], tuple[int, ...]] | None = None


def series_of(spec: AlgebraSpec, cap: int) -> TruncatedSeries:
    """Poincare series of a polynomial algebra, truncated at cap.

    A generator above the cap contributes the factor 1: its pass is empty.
    A call at the cap of the last build, whose degrees begin with that
    build's, starts from it and runs the remaining factors only.  The
    last build counts even if it overflowed: its coefficients are exact,
    so the result equals a cold build's and names the same overflow.
    """
    global _last
    degrees = spec.degrees
    last = _last
    if last is not None and len(last[1]) == cap + 1 and degrees[: len(last[0])] == last[0]:
        done, coeffs = len(last[0]), list(last[1])
    else:
        done, coeffs = 0, _unit_list(cap)
    _times_geometric(coeffs, degrees[done:])
    built = tuple(coeffs)
    _last = (degrees, built)
    return TruncatedSeries(built)


def simple_system_series(d: int, cap: int) -> TruncatedSeries:
    """Series of the height-1 system on degrees d, 2d, 4d, 8d, ...

    Binary expansion makes this equal to the polynomial series on one
    degree-d generator, but it is computed here as a genuine product of
    (1 + t^(d 2^a)) factors so the identity stays an honest cross-check.
    Each factor 1 + t^e is one slice pass, coeffs[e:] plus coeffs[:-e],
    whose right-hand side is copied before the assignment, so every sum
    reads coefficients the factor has not touched yet.
    """
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    coeffs = _unit_list(cap)
    e = d
    while e <= cap:
        coeffs[e:] = map(operator.add, coeffs[e:], coeffs[:-e])
        e *= 2
    return TruncatedSeries(tuple(coeffs))


def _times_geometric(coeffs: list[int], degrees: tuple[int, ...]) -> None:
    # Multiply in place by 1 / (1 - t^d) for each d: a forward running sum
    # with stride d, ascending, so coeffs[t - d] already includes the factor.
    for d in degrees:
        for t in range(d, len(coeffs)):
            coeffs[t] += coeffs[t - d]
