"""Exact truncated power series and symbolic graded-algebra descriptions.

Dimension counts of graded vector spaces over the field with two
elements are tracked as exact integer sequences up to a degree cap.
Every algebra the filtration needs is polynomial, so an algebra is
described by its generator degrees alone and converted to its Poincare
series by multiplying one factor 1 / (1 - t^d) per generator of degree d.

Each such factor is a stride kernel on one list of coefficients, O(cap)
per generator: multiplying by 1 / (1 - t^d) is a forward running sum
with stride d.  series_of runs one per generator on the unit series,
and mul_polynomial on a given series, checking each degree as soon as
no later sum can change it.  No stride kernel divides: the Adams
spectral sequence of a stage collapses, so its homotopy is the series
of its own polynomial algebra, with no A_* factor to divide out.  A
height-1 factor 1 + t^e is one descending pass (simple_system_series).
The general kernels mul and exact_div stay as the independent routes of
the checks: the product check multiplies its stagewise route with mul,
and the quotient check divides each stage by the previous one with
exact_div.  They take arbitrary operands and share no code with the
stride kernels; each makes one slice pass per nonzero coefficient (of
the sparser operand for mul, of the quotient for exact_div), so their
cost follows the nonzero terms, at most O(cap^2).

Coefficients are plain Python integers validated against the unsigned
64-bit bound at construction, so a count that outgrows the fixed-width
contract raises OverflowError instead of silently corrupting a table.
A series is its coefficient tuple, and its cap is the top degree
len(coeffs) - 1.  Every function that builds a series from nothing takes
the cap as an explicit argument; there is no global precision.

>>> series_of(AlgebraSpec((2, 5)), cap=7).coeffs
(1, 0, 1, 0, 1, 1, 1, 1)
"""

from __future__ import annotations

import operator
from itertools import repeat
from typing import Iterable, NamedTuple

U64_MAX = 2**64 - 1


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
        # One C-level pass each; the per-degree loop runs only to name a fault.
        if not (set(map(type, coeffs)) <= {int} and min(coeffs) >= 0 and max(coeffs) <= U64_MAX):
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

    @classmethod
    def unit(cls, cap: int) -> TruncatedSeries:
        """The series of the unit algebra: 1 in degree 0, nothing above."""
        return cls(_unit_list(cap))


def _unit_list(cap: int) -> list[int]:
    # The unit series' coefficients, and the cap guard of every builder here.
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    return [1] + [0] * cap


def mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Truncated convolution: the series of a tensor product of graded spaces.

    The operand with more zero coefficients is the outer one, and each of
    its nonzero coefficients adds a multiple of the other operand in one
    slice pass, so the work follows the nonzero terms, not cap^2.
    """
    if a.cap != b.cap:
        raise ValueError(f"cap mismatch: {a.cap} != {b.cap}")
    cap = a.cap
    outer, inner = (b, a) if a.coeffs.count(0) < b.coeffs.count(0) else (a, b)
    out = [0] * (cap + 1)
    for u, c in enumerate(outer.coeffs):
        if c:
            terms = map(operator.mul, repeat(c), inner.coeffs[: cap + 1 - u])
            out[u:] = map(operator.add, out[u:], terms)
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
    cap = a.cap
    q = list(a.coeffs)
    tail = b.coeffs[1:]
    for t in range(cap + 1):
        c = q[t]
        if c < 0:
            raise NotDivisibleError(f"quotient coefficient in degree {t} would be {c}")
        if c:
            terms = map(operator.mul, repeat(c), tail[: cap - t])
            q[t + 1 :] = map(operator.sub, q[t + 1 :], terms)
    return TruncatedSeries(tuple(q))


def series_of(spec: AlgebraSpec, cap: int) -> TruncatedSeries:
    """Poincare series of a polynomial algebra, truncated at cap.

    Generators above the cap contribute the factor 1 and are skipped.
    """
    coeffs = _unit_list(cap)
    _times_geometric(coeffs, spec.generators_below(cap))
    return TruncatedSeries(tuple(coeffs))


def mul_polynomial(a: TruncatedSeries, times: AlgebraSpec) -> TruncatedSeries:
    """a times the Poincare series of times, on one list: the same series
    as mul(a, series_of(times, cap)).

    The product is checked as it grows: the running sums go in ascending
    degree, and after the pass for d every degree below the next generator
    is final, so that segment is checked at once.  An overflow then stops
    the work at its lowest degree, with the message the result's own check
    would give.
    """
    coeffs = list(a.coeffs)
    cap = len(coeffs) - 1
    degrees = sorted(times.generators_below(cap))
    for d, end in zip(degrees, [*degrees[1:], cap + 1]):
        _times_geometric(coeffs, (d,))
        # The degrees below end are final.  One C-level pass; on a fault the
        # check of the series up to end names its lowest degree and raises.
        if d < end and max(coeffs[d:end]) > U64_MAX:
            TruncatedSeries(coeffs[:end])
    return TruncatedSeries(tuple(coeffs))


def simple_system_series(d: int, cap: int) -> TruncatedSeries:
    """Series of the height-1 system on degrees d, 2d, 4d, 8d, ...

    Binary expansion makes this equal to the polynomial series on one
    degree-d generator, but it is computed here as a genuine product of
    (1 + t^(d 2^a)) factors so the identity stays an honest cross-check.
    Each factor is one pass from the top degree down, so every step reads
    a coefficient the factor has not touched yet.
    """
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    coeffs = _unit_list(cap)
    e = d
    while e <= cap:
        for t in range(cap, e - 1, -1):
            coeffs[t] += coeffs[t - e]
        e *= 2
    return TruncatedSeries(tuple(coeffs))


def _times_geometric(coeffs: list[int], degrees: tuple[int, ...]) -> None:
    # Multiply in place by 1 / (1 - t^d) for each d: a forward running sum
    # with stride d, ascending, so coeffs[t - d] already includes the factor.
    for d in degrees:
        for t in range(d, len(coeffs)):
            coeffs[t] += coeffs[t - d]
