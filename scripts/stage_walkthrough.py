#!/usr/bin/env python3
"""Walk the filtration stage by stage and watch one polynomial generator
arrive at a time.

For each stage (n, j, i) with generator degree <= BOUND, prints the new
degree, the cup-construction recipe, and the quotient of consecutive
homotopy series, which should always be the series of Z/2[x_d] for the
incoming degree d.  1 - t^d is a unit of the truncated ring, so the
quotient is 1/(1 - t^d) exactly when the stage's series times 1 - t^d
is the previous stage's.  A stage where the two differ gets a MISMATCH
line naming the first differing degree and both coefficients, and the
walk goes on.  Exits 1 on any mismatch.
"""

import argparse
import operator

from cobfilt.degrees import BASE, stages_up_to_degree
from cobfilt.manifolds import expand, stage_recipe
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
    mismatches = 0
    for entry in stages_up_to_degree(args.bound):
        t, d = entry.triple, entry.degree
        current = adams_homotopy_series(t, cap)
        # times 1 - t^d: a backward difference, not the stride kernel's running sum
        c, p = current.coeffs, previous.coeffs
        back = c[:d] + tuple(map(operator.sub, c[d:], c))
        k = next((k for k in range(cap + 1) if back[k] != p[k]), None)
        marker = "ok"
        if k is not None:
            mismatches += 1
            marker = f"MISMATCH: times 1 - t^{d} gives {back[k]} in degree {k}, the previous stage {p[k]}"
        print(f"stage ({t.n},{t.j},{t.i}): new generator x_{d}")
        print(f"  manifold  {expand(stage_recipe(t))}")
        print(f"  series    {list(c)}")
        print(f"  quotient  1/(1 - t^{d})  [{marker}]")
        previous = current
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
