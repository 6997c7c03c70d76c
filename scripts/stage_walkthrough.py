#!/usr/bin/env python3
"""Walk the filtration stage by stage and watch one polynomial generator
arrive at a time.

For each stage (n, j, i) with generator degree <= BOUND, prints the new
degree, the cup-construction recipe, and the quotient of consecutive
homotopy series, which should always be the series of Z/2[x_d] for the
incoming degree d.
"""

import argparse

from cobfilt.degrees import BASE, stages_up_to_degree
from cobfilt.manifolds import expand, plan
from cobfilt.series import exact_div
from cobfilt.spaces import adams_homotopy_series


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bound", type=int, default=16, help="largest generator degree")
    args = parser.parse_args()
    if args.bound < 0:
        parser.error(f"--bound must be >= 0, got {args.bound}")

    # the series cap must equal the stage bound: stages whose degree falls
    # between the two would contribute generators between consecutive rows
    cap = args.bound
    previous = adams_homotopy_series(BASE, cap)
    print(f"base stage (1,0,0): homotopy series {list(previous.coeffs)}")
    print()
    for entry in stages_up_to_degree(args.bound):
        t = entry.triple
        current = adams_homotopy_series(t, cap)
        quotient = exact_div(current, previous)
        # 1/(1 - t^d) in closed form, not by the stride kernel that built the stages
        predicted = tuple(int(k % entry.degree == 0) for k in range(cap + 1))
        marker = "ok" if quotient.coeffs == predicted else "MISMATCH"
        print(f"stage ({t.n},{t.j},{t.i}): new generator x_{entry.degree}")
        print(f"  manifold  {expand(plan(entry.degree))}")
        print(f"  series    {list(current.coeffs)}")
        print(f"  quotient  1/(1 - t^{entry.degree})  [{marker}]")
        previous = current


if __name__ == "__main__":
    main()
