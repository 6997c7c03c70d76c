#!/usr/bin/env python3
"""Walk the filtration stage by stage and watch one polynomial generator
arrive at a time.

For each stage (n, j, i) with generator degree <= BOUND, prints the new
degree, the cup-construction recipe, and the quotient of consecutive
homotopy series, which should always be the series of Z/2[x_d] for the
incoming degree d.  1 - t^d is a unit of the truncated ring, so the
quotient is 1/(1 - t^d) exactly when the stage's series times 1 - t^d
is the previous stage's.  The stages, their series and that check come
from the quotient check's own walk (verify --check quotients).  A stage
where the two differ gets a MISMATCH line with the check's witness, the
first differing degree and both coefficients, and the walk goes on.
Exits 1 on any mismatch.  A bound above the quotient check's own limit,
where the last stage's series would exceed 64 bits, is refused before
any work, with exit 2.
"""

import argparse

from cobfilt.checks import _quotient_walk
from cobfilt.cli import _CAP_LIMITS
from cobfilt.degrees import BASE
from cobfilt.manifolds import expand, stage_recipe
from cobfilt.spaces import adams_homotopy_series


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bound", type=int, default=16, help="largest generator degree")
    args = parser.parse_args()
    if args.bound < 0:
        parser.error(f"--bound must be >= 0, got {args.bound}")
    limit, _ = _CAP_LIMITS[("verify", "quotients")]
    if args.bound > limit:
        parser.error(f"--bound must be <= {limit}, got {args.bound}")

    cap = args.bound  # the walk's stage bound and series cap, one number
    print(f"base stage (1,0,0): homotopy series {list(adams_homotopy_series(BASE, cap).coeffs)}")
    print()
    mismatches = 0
    for (d, t), c, witness in _quotient_walk(cap):
        marker = "ok"
        if witness is not None:
            mismatches += 1
            k, previous, back = witness
            marker = f"MISMATCH: times 1 - t^{d} gives {back} in degree {k}, the previous stage {previous}"
        print(f"stage ({t.n},{t.j},{t.i}): new generator x_{d}")
        print(f"  manifold  {expand(stage_recipe(t))}")
        print(f"  series    {list(c)}")
        print(f"  quotient  1/(1 - t^{d})  [{marker}]")
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
