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
The cup-2-then-cup-1 order keeps every cup-2 input even, which is why
plan output always admits a full justification chain.

A recipe stores its base dimension and its step values, 1 or 2, in the
order they apply; the step counts and intermediate dimensions are read
off the steps.  Recipes are symbolic terms only; nothing here builds an
actual cell or simplicial model.

Cup-1 takes stage (n, j, i) to (n, j, i + 1) and cup-2 takes (n, j, 0)
to (n, j + 1, 0), so each term of a run of stages (n, j, 0), (n, j, 1),
... is the cup-1 of the term before it, and the first term of each run
is the cup-2 of the first term of the run before it, except for the
first run of each n, which has no cup step: its first term is the bare
base RP^b of that n.  cup_wrapping gives the text one step puts around
a term, so a caller that walks the runs, as the table command does,
renders each first run's first term from its base dimension and each
other term from the one before it.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .degrees import StageTriple, decompose


class RuleNotApplicableError(ValueError):
    """A step in a justification chain does not meet its rule's hypothesis."""


class _Recipe(NamedTuple):
    base_dim: int
    steps: tuple[int, ...] = ()


class CupRecipe(_Recipe):
    """A base projective-space dimension and the cup steps applied to it.

    steps holds the cup value of each step, 1 or 2, in the order the
    steps are applied.  plan puts every cup-2 step first; other orders
    are allowed for hand-built recipes, which the indecomposability
    checker then vets.  A plain tuple underneath, as StageTriple is: the
    constructor stores the steps as a tuple and checks the base and steps.
    """

    __slots__ = ()

    def __new__(cls, base_dim: int, steps: Iterable[int] = ()) -> CupRecipe:
        if base_dim < 2 or base_dim % 2:
            raise ValueError(f"base must be a positive even dimension, got {base_dim}")
        steps = tuple(steps)
        if not set(steps) <= {1, 2}:
            raise ValueError(f"steps must be cup-1 or cup-2, got {steps}")
        return tuple.__new__(cls, (base_dim, steps))

    @classmethod
    def _make(cls, iterable) -> CupRecipe:
        # NamedTuple's _make, and _replace through it, would skip the check.
        return cls(*iterable)

    @property
    def cup2_count(self) -> int:
        return self.steps.count(2)

    @property
    def cup1_count(self) -> int:
        return self.steps.count(1)

    @property
    def intermediate_dims(self) -> tuple[int, ...]:
        """The dimension after each step: cup-m takes d to 2d + m."""
        dims = []
        d = self.base_dim
        for m in self.steps:
            d = 2 * d + m
            dims.append(d)
        return tuple(dims)


class Justification(NamedTuple):
    """One link in an indecomposability argument.

    rule is "base-axiom", "cup-1", or "cup-2-even"; dim is the dimension
    of the manifold the rule is applied to.
    """

    rule: str
    dim: int


def plan(d: int) -> CupRecipe:
    """The recipe reaching generator degree d from its projective base.

    Excluded degrees have no recipe.
    """
    return stage_recipe(decompose(d))


def stage_recipe(t: StageTriple) -> CupRecipe:
    """The recipe of a generator-bearing stage (n, j, i).

    Base RP^2 with j - 1 cup-2 steps for n = 1, base RP^(4(n-1)) with
    j cup-2 steps for n >= 2, then i cup-1 steps.
    """
    # The first run of n is j = 1 for n = 1 and j = 0 otherwise, and has no cup-2 step.
    cup2 = t.j - 1 if t.n == 1 else t.j
    return CupRecipe(_base_dim(t.n), (2,) * cup2 + (1,) * t.i)


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

    Steps apply innermost first, so the base sits at the centre and the
    last step is the outermost wrapper.
    """
    opens = [_CUP_OPEN[m] for m in reversed(r.steps)]
    return "".join([*opens, f"{_PROJECTIVE}{r.base_dim}", _CUP_CLOSE * len(opens)])


def cup_wrapping(m: int) -> tuple[str, str]:
    """The text one cup-m step puts before and after a term: the term T
    of a manifold renders its cup-m as before + T + after, one more step
    on the outside of expand's rendering."""
    return _CUP_OPEN[m], _CUP_CLOSE


def indecomposable(r: CupRecipe) -> tuple[Justification, ...]:
    """The rule chain showing the recipe's output is indecomposable.

    Starts from the even-projective-space axiom, available for every
    recipe since bases are even by construction, and applies one rule
    per step.  Raises RuleNotApplicableError when a cup-2 step meets an
    odd dimension, which cannot happen for plan output but can for
    hand-built recipes.
    """
    chain = [Justification("base-axiom", r.base_dim)]
    # each step applies to the dimension before it
    for m, d in zip(r.steps, (r.base_dim, *r.intermediate_dims)):
        if m == 2 and d % 2:
            raise RuleNotApplicableError(
                f"cup-2 preserves indecomposability only in even dimension, got {d}"
            )
        chain.append(Justification("cup-2-even" if m == 2 else "cup-1", d))
    return tuple(chain)
