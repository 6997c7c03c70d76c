import re

import pytest
from hypothesis import assume, given, strategies as st

from cobfilt.degrees import BASE, ExcludedDegreeError, decompose, is_excluded
from cobfilt.manifolds import (
    _CUP_CLOSE,
    _CUP_OPEN,
    CupRecipe,
    Justification,
    expand,
    indecomposable,
    plan,
    stage_recipe,
)


def dimension(r):
    """The dimension a recipe reaches: the last of its base and intermediate dims."""
    return (r.base_dim, *r.intermediate_dims)[-1]


# ---------------------------------------------------------------------------
# planning


@pytest.mark.parametrize(
    "degree, base, cup2, cup1",
    [
        (2, 2, 0, 0),
        (5, 2, 0, 1),
        (6, 2, 1, 0),
        (10, 4, 1, 0),
        (13, 2, 1, 1),
        (4, 4, 0, 0),
        (19, 4, 0, 2),
    ],
)
def test_plan_known_degrees(degree, base, cup2, cup1):
    r = plan(degree)
    assert (r.base_dim, r.cup2_count, r.cup1_count) == (base, cup2, cup1)
    assert dimension(r) == degree


def test_plan_rejects_excluded_degrees():
    with pytest.raises(ExcludedDegreeError):
        plan(7)


def test_stage_recipe_rejects_the_base_stage_as_compose_does():
    # The base stage has no generator, so no degree for a recipe to reach.
    with pytest.raises(ValueError, match=r"^the base stage \(1, 0, 0\) carries no generator$"):
        stage_recipe(BASE)


@given(st.integers(2, 10**5))
def test_plan_reaches_its_degree(d):
    assume(not is_excluded(d))
    r = plan(d)
    assert dimension(r) == d
    t = decompose(d)
    if t.n == 1:
        assert r.base_dim == 2
    else:
        assert r.base_dim == 4 * (t.n - 1)


@given(st.integers(2, 10**5))
def test_plan_applies_cup2_only_to_even_dimensions(d):
    assume(not is_excluded(d))
    r = plan(d)
    # cup-2 steps come first: they meet the base and the outputs of cup-2 steps
    assert all(dim % 2 == 0 for dim in (r.base_dim, *r.intermediate_dims)[: r.cup2_count + 1])


# ---------------------------------------------------------------------------
# dimensions


def test_recipe_dimension_base_only():
    assert CupRecipe(2).intermediate_dims == ()
    assert dimension(CupRecipe(2)) == 2


def test_recipe_dimension_folds_both_steps():
    assert dimension(CupRecipe(2, 1, 1)) == 13
    assert dimension(CupRecipe(4, 0, 2)) == 19


def test_intermediate_dims_track_each_step():
    r = CupRecipe(2, 2, 1)
    assert r.intermediate_dims == (6, 14, 29)
    assert (r.cup2_count, r.cup1_count) == (2, 1)


# ---------------------------------------------------------------------------
# symbolic terms


def test_expand_known_recipes():
    assert expand(plan(2)) == "RP^2"
    assert expand(plan(5)) == "P(1,RP^2)"
    assert expand(plan(13)) == "P(1,P(2,RP^2))"


# The term grammar RP^k | P(1,term) | P(2,term), read here without the
# package: the wrappers outermost first, the base, one ")" per wrapper.
TERM = re.compile(r"((?:P\([12],)*)RP\^([1-9][0-9]*)(\)*)")


def read_term(text):
    """(base, wrapper cup values outermost first) of a term; ValueError if malformed."""
    match = TERM.fullmatch(text)
    if match is None or len(match[3]) != match[1].count("P"):
        raise ValueError(f"malformed term: {text!r}")
    return int(match[2]), tuple(int(m) for m in re.findall(r"P\(([12]),", match[1]))


def test_parse_inverts_expand_on_examples():
    assert read_term(expand(plan(13))) == (2, (1, 2))
    assert read_term(expand(plan(2))) == (2, ())
    assert read_term(expand(plan(10))) == (4, (2,))


@given(st.integers(2, 10**4))
def test_expand_parse_round_trip(d):
    assume(not is_excluded(d))
    r = plan(d)
    base, wrappers = read_term(expand(r))
    assert (base, wrappers) == (r.base_dim, (1,) * r.cup1_count + (2,) * r.cup2_count)
    dim = base
    for m in reversed(wrappers):
        dim = 2 * dim + m
    assert dim == d


@given(st.integers(2, 10**4))
def test_one_more_cup_step_puts_its_text_around_the_term(d):
    assume(not is_excluded(d))
    r = plan(d)
    # The text around a term that the table walk puts on for one more cup step:
    # cup-1 on every term, cup-2 only on a run's first term, which has no cup-1 step.
    assert _CUP_OPEN[1] + expand(r) + _CUP_CLOSE == expand(r._replace(cup1_count=r.cup1_count + 1))
    if r.cup1_count == 0:
        assert _CUP_OPEN[2] + expand(r) + _CUP_CLOSE == expand(r._replace(cup2_count=r.cup2_count + 1))


@given(st.integers(1, 8), st.integers(0, 6), st.integers(0, 6))
def test_recipe_dimension_closed_form(half_base, cup2, cup1):
    # Every recipe, not only plan output: its chain, its term and its dimension.
    base = 2 * half_base
    r = CupRecipe(base, cup2, cup1)
    assert all(link.dim % 2 == 0 for link in indecomposable(r) if link.rule == "cup-2-even")
    assert read_term(expand(r)) == (base, (1,) * cup1 + (2,) * cup2)
    after_cup2 = (base + 2) * 2**cup2 - 2
    assert dimension(r) == (after_cup2 + 1) * 2**cup1 - 1


@pytest.mark.parametrize(
    "text",
    ["", "RP2", "RP^", "RP^02", "P(3,RP^2)", "P(1 RP^2)", "P(1,RP^2", "P(1,RP^2))", "P(1,RP^2)x"],
)
def test_parse_rejects_malformed_terms(text):
    # the reader the round trip above relies on must not accept a malformed term
    with pytest.raises(ValueError):
        read_term(text)


# ---------------------------------------------------------------------------
# indecomposability chains


def test_chain_for_base_only_recipe():
    assert indecomposable(plan(2)) == (Justification("base-axiom", 2),)


def test_chain_cites_the_even_dimension_cup2_uses():
    assert indecomposable(plan(6)) == (
        Justification("base-axiom", 2),
        Justification("cup-2-even", 2),
    )


def test_chain_for_mixed_recipe():
    assert indecomposable(plan(13)) == (
        Justification("base-axiom", 2),
        Justification("cup-2-even", 2),
        Justification("cup-1", 6),
    )


@given(st.integers(2, 2000))
def test_every_planned_recipe_has_a_full_chain(d):
    assume(not is_excluded(d))
    r = plan(d)
    chain = indecomposable(r)
    assert len(chain) == 1 + r.cup2_count + r.cup1_count
    assert chain[0] == Justification("base-axiom", r.base_dim)


# ---------------------------------------------------------------------------
# recipe validity


def test_odd_base_rejected():
    with pytest.raises(ValueError, match="even"):
        CupRecipe(3)


def test_recipe_stores_only_its_base_and_steps():
    # its steps as two counts, cup-2 steps first
    assert CupRecipe._fields == ("base_dim", "cup2_count", "cup1_count")
    assert CupRecipe(4, 0, 2) == plan(19)
    assert hash(CupRecipe(4, 0, 2)) == hash(plan(19))
