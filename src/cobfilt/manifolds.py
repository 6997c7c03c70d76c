"""Constructive cup-construction recipes for the generator manifolds.

The cup-m construction on a manifold X is the quotient of
S^m x X x X by (u, x, y) ~ (-u, y, x); on a d-manifold it produces a
(m + 2d)-manifold, so the two steps used here act on dimensions as

    cup-2:  d  ->  2d + 2        cup-1:  d  ->  2d + 1.

Every generator degree is reached from a real projective space by some
cup-2 steps followed by some cup-1 steps: degree d with stage (n, j, i)
uses base RP^2 with j - 1 cup-2 steps when n = 1, and base RP^(4(n-1))
with j cup-2 steps when n >= 2, then i cup-1 steps either way.

Indecomposability travels along the recipe: even projective spaces
represent indecomposable classes, cup-1 preserves indecomposability
unconditionally, and cup-2 preserves it on even-dimensional inputs.
A recipe applies every cup-2 step before any cup-1 step, so each cup-2
meets the even base or the even output 2d + 2 of a cup-2, and every
recipe admits a full justification chain.

A recipe stores its base dimension and its two step counts, cup-2 steps
first; the intermediate dimensions are read off them.  Recipes are
symbolic terms only; nothing here builds an actual cell or simplicial
model.

Cup-1 takes stage (n, j, i) to (n, j, i + 1) and cup-2 takes (n, j, 0)
to (n, j + 1, 0), so each term of a run of stages (n, j, 0), (n, j, 1),
... is the cup-1 of the term before it, and the first term of each run
is the cup-2 of the first term of the run before it, except for the
first run of each n, which has no cup step: its first term is the bare
base RP^b of that n.  So a caller that walks the runs, as the table
command does, renders each first run's first term from its base
dimension and each other term from the one before it, with the text one
cup step puts around a term.
"""

from __future__ import annotations

from itertools import accumulate, chain, repeat
from typing import NamedTuple

from .degrees import BASE, StageTriple, decompose


class _Recipe(NamedTuple):
    base_dim: int
    cup2_count: int
    cup1_count: int


class CupRecipe(_Recipe):
    """A base projective-space dimension, then cup2_count cup-2 steps,
    then cup1_count cup-1 steps.

    The cup-2 steps come first, so the type holds only recipes whose
    cup-2 steps meet even dimensions.  A plain tuple underneath, as
    StageTriple is: the constructor checks the base and the counts.
    """

    __slots__ = ()

    def __new__(cls, base_dim: int, cup2_count: int = 0, cup1_count: int = 0) -> CupRecipe:
        if base_dim < 2 or base_dim % 2:
            raise ValueError(f"base must be a positive even dimension, got {base_dim}")
        for name, count in (("cup2_count", cup2_count), ("cup1_count", cup1_count)):
            if type(count) is not int or count < 0:
                raise ValueError(f"{name} must be a non-negative int, got {count!r}")
        return tuple.__new__(cls, (base_dim, cup2_count, cup1_count))

    @classmethod
    def _make(cls, iterable) -> CupRecipe:
        # NamedTuple's _make, and _replace through it, would skip the check.
        return cls(*iterable)

    @property
    def intermediate_dims(self) -> tuple[int, ...]:
        """The dimension after each step, cup-2 steps first: cup-m takes d to 2d + m."""
        steps = chain(repeat(2, self.cup2_count), repeat(1, self.cup1_count))
        return tuple(accumulate(steps, lambda d, m: 2 * d + m, initial=self.base_dim))[1:]


class Justification(NamedTuple):
    """One link in an indecomposability argument.

    rule is "base-axiom", "cup-1", or "cup-2-even"; dim is the dimension
    of the manifold the rule is applied to.
    """

    rule: str
    dim: int


# perfbench/spans.py traces it by name; ROADMAP item 14 deletes it.
def plan(d: int) -> CupRecipe:
    """The recipe reaching generator degree d from its projective base.

    Excluded degrees have no recipe.
    """
    return stage_recipe(decompose(d))


def stage_recipe(t: StageTriple) -> CupRecipe:
    """The recipe of a generator-bearing stage (n, j, i).

    Base RP^2 with j - 1 cup-2 steps for n = 1, base RP^(4(n-1)) with
    j cup-2 steps for n >= 2, then i cup-1 steps.  The base stage has no
    recipe.
    """
    if t == BASE:
        raise ValueError("the base stage (1, 0, 0) carries no generator")
    # The first run of n is j = 1 for n = 1 and j = 0 otherwise, and has no cup-2 step.
    cup2 = t.j - 1 if t.n == 1 else t.j
    return CupRecipe(_base_dim(t.n), cup2, t.i)


def _base_dim(n: int) -> int:
    # The base of every stage with this n: RP^2 for n = 1, RP^(4(n-1)) for n >= 2.
    return 2 if n == 1 else 4 * (n - 1)


# A base RP^b renders as _PROJECTIVE followed by b, and cup-m of a term T as
# P(m,T): the text before T for each m, and after it.
_PROJECTIVE = "RP^"
_CUP_OPEN = {1: "P(1,", 2: "P(2,"}
_CUP_CLOSE = ")"


def expand(r: CupRecipe) -> str:
    """Render a recipe as its symbolic term, e.g. "P(1,P(2,RP^2))".

    Steps apply innermost first, so the base sits at the centre inside
    its cup-2 wrappers, and the last cup-1 step is the outermost.
    """
    opens = _CUP_OPEN[1] * r.cup1_count + _CUP_OPEN[2] * r.cup2_count
    return f"{opens}{_PROJECTIVE}{r.base_dim}{_CUP_CLOSE * (r.cup1_count + r.cup2_count)}"


def indecomposable(r: CupRecipe) -> tuple[Justification, ...]:
    """The rule chain showing the recipe's output is indecomposable.

    Starts from the even-projective-space axiom, available for every
    recipe since bases are even by construction, and applies one rule
    per step to the dimension before it.  Each cup-2 step meets the base
    or a cup-2 output, both even, so the cup-2 rule always applies.
    """
    rules = ("cup-2-even",) * r.cup2_count + ("cup-1",) * r.cup1_count
    dims = (r.base_dim, *r.intermediate_dims)
    return (Justification("base-axiom", r.base_dim), *map(Justification, rules, dims))
