#!/usr/bin/env python3
"""Tabulate dual Steenrod algebra dimensions two ways: the series of the
polynomial algebra on degrees 2^k - 1, and a direct enumeration of
Milnor basis monomials.  Lists the monomials themselves below a cutoff.
"""

import argparse

from cobfilt.spaces import milnor_monomials, steenrod_series


def monomial_label(exponents):
    if not exponents:
        return "1"
    return " ".join(
        f"xi{k}^{e}" if e > 1 else f"xi{k}"
        for k, e in enumerate(exponents, start=1)
        if e
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-degree", type=int, default=12)
    parser.add_argument("--list-below", type=int, default=8,
                        help="print monomial bases below this degree")
    args = parser.parse_args()

    series = steenrod_series(args.max_degree)
    print(f"{'degree':<8}{'series':<8}enumerated")
    for t in range(args.max_degree + 1):
        monomials = milnor_monomials(t)
        flag = "" if len(monomials) == series[t] else "  <-- MISMATCH"
        print(f"{t:<8}{series[t]:<8}{len(monomials)}{flag}")
    print()
    for t in range(min(args.list_below, args.max_degree) + 1):
        labels = ", ".join(monomial_label(m) for m in milnor_monomials(t))
        print(f"degree {t}: {labels}")


if __name__ == "__main__":
    main()
