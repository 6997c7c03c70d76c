"""Brute-force oracles and the cross-checks tying the modules together.

Every oracle here recomputes its target by a route the checked code
never takes: exhaustive nested-loop enumeration of stage triples
instead of valuation arithmetic, the Euler transform of the partition
recurrence (partition_dp) and a stage-by-stage product of closed forms
on one packed integer (_times_closed_form) against the stride kernel
of series_of, and a backward difference that multiplies each stage by
1 - t^d back to the stage before it, which series_of extends by one
forward running sum to build the stage.  Every single factor
1/(1 - t^d) is a closed form, 1 in each degree divisible by d: the
stagewise route adds the previous product once per multiple of d, and
the simple-system check compares the degrees divisible by d with ones
and counts the zeros, building the closed form (_geometric) only for a
witness, so series_of serves the product route alone.  The stagewise
product packs a 128-bit slot per degree into one int (Kronecker
substitution), so each shifted copy is one C-level shift and add, and
unpacks it with series._words; simple_system_series unpacks its own
product with it too, but the two are never compared with each other.
No check calls the general kernels: mul and exact_div stay in the
series module as references for the tests.  A pass means independent
computations agree coefficient by coefficient.  A report carries only
its finding; the CLI names it.
"""

from __future__ import annotations

import operator
from itertools import compress, count
from typing import Any, Iterable, Iterator, NamedTuple

from .degrees import BASE, TableEntry, decompose, is_excluded, stages_up_to_degree
from .series import (
    AlgebraSpec,
    TruncatedSeries,
    _check_cap,
    _words,
    series_of,
    simple_system_series,
)
from .spaces import adams_homotopy_series


class Discrepancy(NamedTuple):
    degree: int
    expected: Any
    actual: Any


class CheckReport(NamedTuple):
    # The witness of a failure; a report without one passed.
    first_discrepancy: Discrepancy | None = None
    # The product check's generator-algebra series, reported by the CLI.
    series: tuple[int, ...] | None = None

    @property
    def passed(self) -> bool:
        return self.first_discrepancy is None


def partition_dp(allowed: Iterable[int], cap: int) -> TruncatedSeries:
    """Count multisets of allowed parts by total, with the Euler transform.

    a_0 = 1 and n a_n = sum over k = 1..n of s(k) a_(n-k), where s(k) is
    the sum of the allowed parts that divide k (Bernstein and Sloane,
    "Some canonical sequences of integers", 1995).  No running sum per
    part, so it shares no kernel with series_of; each division is exact,
    and a remainder raises ArithmeticError.
    """
    parts = sorted(allowed)
    if any(p < 1 for p in parts):
        raise ValueError("parts must be >= 1")
    if len(set(parts)) != len(parts):
        raise ValueError("parts must be distinct")
    _check_cap(cap)
    divisor_sums = [0] * (cap + 1)
    for p in parts:
        for k in range(p, cap + 1, p):
            divisor_sums[k] += p
    ways = [1]
    for n in range(1, cap + 1):
        total = sum(map(operator.mul, divisor_sums[1 : n + 1], reversed(ways)))
        a_n, remainder = divmod(total, n)
        if remainder:
            raise ArithmeticError(f"Euler transform leaves remainder {remainder} in degree {n}")
        ways.append(a_n)
    return TruncatedSeries(tuple(ways))


def _enumerate_triples(bound: int) -> list[tuple[int, tuple[int, int, int]]]:
    # Plain nested loops over the degree formula, deliberately not shared
    # with stages_up_to_degree: this is the oracle side.
    found = []
    n = 1
    while 4 * n - 4 <= bound:
        j = 1 if n == 1 else 0
        while (4 * n - 2) * 2**j - 2 <= bound:
            odd = (4 * n - 2) * 2**j - 1
            i = 0
            while odd * 2**i - 1 <= bound:
                found.append((odd * 2**i - 1, (n, j, i)))
                i += 1
            j += 1
        n += 1
    return found


def verify_bijection(bound: int) -> CheckReport:
    """Exhaustively enumerate all stages with degree <= bound and check
    they hit each non-excluded degree in [2, bound] exactly once, with
    decompose reproducing the enumerated triple."""
    _check_cap(bound)
    by_degree: dict[int, list[tuple[int, int, int]]] = {}
    for degree, triple in _enumerate_triples(bound):
        by_degree.setdefault(degree, []).append(triple)
    for d in range(bound + 1):
        hits = by_degree.get(d, [])
        if is_excluded(d):
            if hits:
                return CheckReport(
                    Discrepancy(d, "no stage for an excluded degree", [list(t) for t in hits])
                )
            continue
        if len(hits) != 1:
            return CheckReport(Discrepancy(d, "exactly one stage", [list(t) for t in hits]))
        t = decompose(d)
        if (t.n, t.j, t.i) != hits[0]:
            return CheckReport(Discrepancy(d, list(hits[0]), [t.n, t.j, t.i]))
    stray = [d for d in by_degree if d > bound or d < 2]
    if stray:
        d = min(stray)
        return CheckReport(
            Discrepancy(d, "degree within [2, bound]", [list(t) for t in by_degree[d]])
        )
    return CheckReport()


def _geometric(d: int, cap: int) -> tuple[int, ...]:
    # 1/(1 - t^d) in closed form: 1 in every degree divisible by d, built by
    # list repetition, for the witness of a failed simple-system check alone.
    return (((1,) + (0,) * (d - 1)) * (cap // d + 1))[: cap + 1]


def _times_closed_form(product: int, d: int, cap: int) -> int:
    # The product, 128 bits per degree, times 1/(1 - t^d): itself plus itself
    # shifted by each multiple of d up to the cap, then cut at the cap.
    out = product
    for u in range(d, cap + 1, d):
        out += product << 128 * u
    return out & ((1 << 128 * (cap + 1)) - 1)


def _first_mismatch(expected: tuple[int, ...], actual: tuple[int, ...]) -> int | None:
    # The lowest degree whose coefficients differ, in one C-level pass; map
    # stops at the shorter tuple, and every caller passes two of cap + 1.
    # Equal tuples, the passing case, skip it for one C-level compare.
    if expected == actual:
        return None
    return next(compress(count(), map(operator.ne, expected, actual)), None)


def verify_main_theorem(cap: int) -> CheckReport:
    """Three routes to the cobordism-ring dimension count must agree.

    The series of the polynomial algebra on all generator degrees, the
    partition-counting oracle on the same degree set, and the stage-by-
    stage cumulative product in stage order.  Each runs its own kernel:
    running sums in series_of, the Euler transform in partition_dp, and
    for the stagewise route, on one int with a 128-bit slot per degree,
    the product of the stages before times each closed-form factor
    1/(1 - t^d), checked as one series at the end.  Each factor is 1
    plus nonnegative terms, so no slot decreases: those below the lowest
    count over 2^64 stay under it and carry nothing up, and that count
    gains under cap 2^64 per stage, so it stays exact below 2^128 for
    any cap under 2^32.  A 64-bit slot could carry into the next unseen.
    """
    _check_cap(cap)
    gens = [d for d in range(2, cap + 1) if not is_excluded(d)]
    via_product = series_of(AlgebraSpec(gens), cap)
    via_dp = partition_dp(gens, cap)
    product = 1
    for entry in stages_up_to_degree(cap):
        product = _times_closed_form(product, entry.degree, cap)
    words = _words(product, 2 * (cap + 1))
    low, high = words[::2], words[1::2]
    if any(high):  # the full counts, so the series names the lowest degree past 2^64
        low = map(operator.or_, low, [h << 64 for h in high])
    stagewise = TruncatedSeries(low)
    for name, candidate in (("product", via_product), ("stagewise", stagewise)):
        t = _first_mismatch(via_dp.coeffs, candidate.coeffs)
        if t is not None:
            witness = Discrepancy(t, via_dp.coeffs[t], {name: candidate.coeffs[t]})
            return CheckReport(witness, via_product.coeffs)
    return CheckReport(series=via_product.coeffs)


def verify_quotient_steps(cap: int) -> CheckReport:
    """Each stage's homotopy series must be the previous stage's times
    exactly 1/(1 - t^d) for the incoming generator degree d.

    1 - t^d is a unit of the truncated ring, so that holds exactly when
    the stage's series times 1 - t^d is the previous stage's: one
    C-level backward difference with stride d, which shares nothing with
    the forward running sum of the stride kernel.  Walked in stage order,
    series_of builds stage k by extending stage k - 1 with one stride
    pass, and if every stage passes, each equals the true product by
    induction from the base stage's unit series.  The witness is the
    first differing degree, the previous stage's coefficient and the
    product's.
    """
    _check_cap(cap)
    return CheckReport(next((w for _, _, w in _quotient_walk(cap) if w is not None), None))


def _quotient_walk(cap: int) -> Iterator[tuple[TableEntry, tuple[int, ...], Discrepancy | None]]:
    # Each stage in stage order: its entry, its homotopy series and the witness of
    # its quotient step, None when the stage times 1 - t^d is the stage before.
    # The walk goes on past a failing stage, from that stage's own series.
    previous = adams_homotopy_series(BASE, cap).coeffs
    for entry in stages_up_to_degree(cap):
        d, c = entry.degree, adams_homotopy_series(entry.triple, cap).coeffs
        back = c[:d] + tuple(map(operator.sub, c[d:], c))
        t = _first_mismatch(previous, back)
        yield entry, c, None if t is None else Discrepancy(t, previous[t], back[t])
        previous = c


def verify_simple_systems(cap: int) -> CheckReport:
    """The height-1 system product on d, 2d, 4d, ... must reproduce the
    polynomial series on d, 1/(1 - t^d) in closed form, for every d up
    to the cap.

    A product matches without the closed form being built: it has cap + 1
    coefficients, a 1 in each of the cap // d + 1 degrees divisible by d,
    and a 0 in each of the other cap - cap // d.
    """
    _check_cap(cap)
    ones = (1,) * (cap + 1)
    for d in range(1, cap + 1):
        actual = simple_system_series(d, cap).coeffs
        if not (
            len(actual) == cap + 1
            and actual[::d] == ones[: cap // d + 1]
            and actual.count(0) == cap - cap // d
        ):
            return CheckReport(Discrepancy(d, list(_geometric(d, cap)), list(actual)))
    return CheckReport()
