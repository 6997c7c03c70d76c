"""Exact truncated power series and symbolic graded-algebra descriptions.

Dimension counts of graded vector spaces over the field with two
elements are tracked as exact integer sequences up to a degree cap.
Every algebra the filtration needs is polynomial, so an algebra is
described by its generator degrees alone and converted to its Poincare
series by multiplying one factor 1 / (1 - t^d) per generator of degree d.

Coefficients are plain Python integers validated against the unsigned
64-bit bound at construction, so a count that outgrows the fixed-width
contract raises OverflowError instead of silently corrupting a table.
The cap is an explicit argument everywhere; there is no global
precision.

>>> series_of(AlgebraSpec.polynomial(2), cap=6).coeffs
(1, 0, 1, 0, 1, 0, 1)
"""

from __future__ import annotations

from dataclasses import dataclass

U64_MAX = 2**64 - 1


class NotDivisibleError(ArithmeticError):
    """A series quotient would need a negative coefficient."""


@dataclass(frozen=True)
class AlgebraSpec:
    """Polynomial algebra over Z/2 on one generator in each listed degree."""

    degrees: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "degrees", tuple(self.degrees))
        for d in self.degrees:
            if d < 1:
                raise ValueError(f"generator degree must be >= 1, got {d}")

    @classmethod
    def polynomial(cls, *degrees: int) -> AlgebraSpec:
        return cls(degrees)

    def generators_below(self, bound: int) -> tuple[int, ...]:
        """The degrees of all generators of degree <= bound."""
        return tuple(d for d in self.degrees if d <= bound)


@dataclass(frozen=True)
class TruncatedSeries:
    """Dimension counts up to and including degree cap; coeffs[t] is degree t."""

    cap: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.cap < 0:
            raise ValueError(f"cap must be >= 0, got {self.cap}")
        coeffs = tuple(self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if len(coeffs) != self.cap + 1:
            raise ValueError(
                f"cap {self.cap} needs {self.cap + 1} coefficients, got {len(coeffs)}"
            )
        for t, c in enumerate(coeffs):
            if type(c) is not int:
                raise ValueError(f"coefficient in degree {t} is not an integer: {c!r}")
            if c < 0:
                raise ValueError(f"negative coefficient {c} in degree {t}")
            if c > U64_MAX:
                raise OverflowError(f"coefficient in degree {t} exceeds the 64-bit bound")

    @classmethod
    def unit(cls, cap: int) -> TruncatedSeries:
        """The series of the unit algebra: 1 in degree 0, nothing above."""
        return cls(cap, (1,) + (0,) * cap)

    def __getitem__(self, t: int) -> int:
        return self.coeffs[t]


def mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Truncated convolution: the series of a tensor product of graded spaces."""
    if a.cap != b.cap:
        raise ValueError(f"cap mismatch: {a.cap} != {b.cap}")
    cap = a.cap
    out = [0] * (cap + 1)
    for u, au in enumerate(a.coeffs):
        if au == 0:
            continue
        bcoeffs = b.coeffs
        for v in range(cap + 1 - u):
            bv = bcoeffs[v]
            if bv:
                out[u + v] += au * bv
    return TruncatedSeries(cap, tuple(out))


def exact_div(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """The unique q with mul(q, b) = a, computed degree by degree.

    Requires b[0] = 1.  Raises NotDivisibleError as soon as a quotient
    coefficient would have to be negative, which is how a failed tensor
    decomposition announces itself.
    """
    if a.cap != b.cap:
        raise ValueError(f"cap mismatch: {a.cap} != {b.cap}")
    if b.coeffs[0] != 1:
        raise ValueError("divisor must have constant coefficient 1")
    cap = a.cap
    q = [0] * (cap + 1)
    for t in range(cap + 1):
        acc = a.coeffs[t]
        for u in range(1, t + 1):
            bu = b.coeffs[u]
            if bu:
                acc -= bu * q[t - u]
        if acc < 0:
            raise NotDivisibleError(
                f"quotient coefficient in degree {t} would be {acc}"
            )
        q[t] = acc
    return TruncatedSeries(cap, tuple(q))


def series_of(spec: AlgebraSpec, cap: int) -> TruncatedSeries:
    """Poincare series of a polynomial algebra, truncated at cap.

    Generators above the cap contribute the factor 1 and are skipped.
    """
    out = TruncatedSeries.unit(cap)
    for d in spec.generators_below(cap):
        out = mul(out, _stride_series(d, cap, cap))
    return out


def simple_system_series(d: int, cap: int) -> TruncatedSeries:
    """Series of the height-1 system on degrees d, 2d, 4d, 8d, ...

    Binary expansion makes this equal to the polynomial series on one
    degree-d generator, but it is computed here as a genuine product of
    (1 + t^(d 2^a)) factors so the identity stays an honest cross-check.
    """
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    out = TruncatedSeries.unit(cap)
    e = d
    while e <= cap:
        out = mul(out, _stride_series(e, e, cap))
        e *= 2
    return out


def _stride_series(d: int, top: int, cap: int) -> TruncatedSeries:
    # 1 + t^d + t^2d + ... through degree min(top, cap)
    coeffs = [0] * (cap + 1)
    for t in range(0, min(top, cap) + 1, d):
        coeffs[t] = 1
    return TruncatedSeries(cap, tuple(coeffs))
