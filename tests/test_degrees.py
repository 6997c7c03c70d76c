import random

import pytest
from hypothesis import assume, given, strategies as st

from cobfilt.degrees import (
    BASE,
    ExcludedDegreeError,
    StageTriple,
    compose,
    decompose,
    is_excluded,
    iter_runs,
    stages_up_to_degree,
)


@st.composite
def stage_triples(draw, max_part=6):
    n = draw(st.integers(1, max_part))
    j = draw(st.integers(1 if n == 1 else 0, max_part))
    i = draw(st.integers(0, max_part))
    return StageTriple(n, j, i)


# ---------------------------------------------------------------------------
# exclusion


def test_excluded_degrees_are_predecessors_of_powers_of_two():
    assert is_excluded(7)
    assert is_excluded(0)
    assert is_excluded(1)
    assert not is_excluded(6)
    assert [d for d in range(20) if is_excluded(d)] == [0, 1, 3, 7, 15]


def test_is_excluded_rejects_negatives():
    with pytest.raises(ValueError):
        is_excluded(-1)


# ---------------------------------------------------------------------------
# decompose / compose


@pytest.mark.parametrize(
    "degree, triple",
    [
        (2, (1, 1, 0)),
        (5, (1, 1, 1)),
        (4, (2, 0, 0)),
        (10, (2, 1, 0)),
        (46, (2, 3, 0)),
    ],
)
def test_decompose_known_degrees(degree, triple):
    assert decompose(degree) == StageTriple(*triple)


def test_decompose_rejects_excluded():
    with pytest.raises(ExcludedDegreeError):
        decompose(7)
    with pytest.raises(ExcludedDegreeError):
        decompose(0)


def test_decompose_rejects_negative():
    with pytest.raises(ValueError, match=r"^degree must be >= 0, got -3$"):
        decompose(-3)


@pytest.mark.parametrize(
    "triple, degree",
    [((1, 2, 0), 6), ((1, 1, 2), 11), ((1, 2, 1), 13)],
)
def test_compose_known_triples(triple, degree):
    assert compose(StageTriple(*triple)) == degree


def test_compose_rejects_base():
    with pytest.raises(ValueError, match=r"^the base stage \(1, 0, 0\) carries no generator$"):
        compose(BASE)


@given(st.integers(2, 10**6))
def test_round_trip(d):
    assume(not is_excluded(d))
    assert compose(decompose(d)) == d


@given(stage_triples())
def test_compose_then_decompose(t):
    assert decompose(compose(t)) == t


def test_every_small_degree_excluded_or_decomposable_never_both():
    for d in range(0, 5000):
        if is_excluded(d):
            with pytest.raises(ExcludedDegreeError):
                decompose(d)
        else:
            assert compose(decompose(d)) == d


def test_decompose_never_yields_the_base_family():
    # degrees 2^i - 1 are exactly the would-be n=1, j=0 images
    for d in range(2, 4096):
        if not is_excluded(d):
            t = decompose(d)
            assert not (t.n == 1 and t.j == 0)


def test_compose_injective_up_to_ten_thousand():
    seen = {}
    for degree, triple in zip(*stages_up_to_degree(10**4)):
        assert degree not in seen
        seen[degree] = triple


# ---------------------------------------------------------------------------
# triple order


def test_order_compares_j_before_i():
    # degree order would say the opposite: compose((1,1,2)) = 11 > 6
    assert StageTriple(1, 1, 2) < StageTriple(1, 2, 0)


def test_order_compares_n_first():
    assert StageTriple(2, 0, 0) > StageTriple(1, 9, 9)


def test_order_equal():
    assert StageTriple(1, 1, 1) == StageTriple(1, 1, 1)
    assert not StageTriple(1, 1, 1) < StageTriple(1, 1, 1)


def test_base_precedes_everything():
    for triple in stages_up_to_degree(64)[1]:
        assert BASE < triple


@given(stage_triples(), stage_triples())
def test_order_is_total_and_consistent(a, b):
    assert (a < b) + (a == b) + (a > b) == 1
    assert (a < b) == ((a.n, a.j, a.i) < (b.n, b.j, b.i))


@given(stage_triples(), stage_triples(), stage_triples())
def test_order_transitive(a, b, c):
    if a <= b <= c:
        assert a <= c


# ---------------------------------------------------------------------------
# triple validity


def test_n_one_j_zero_exists_only_as_base():
    with pytest.raises(ValueError):
        StageTriple(1, 0, 2)
    assert BASE == (1, 0, 0)


def test_negative_parts_rejected():
    with pytest.raises(ValueError):
        StageTriple(0, 1, 1)
    with pytest.raises(ValueError):
        StageTriple(1, -1, 0)
    with pytest.raises(ValueError):
        StageTriple(1, 1, -1)


# ---------------------------------------------------------------------------
# stage enumeration


def test_stage_table_bound_six():
    assert stages_up_to_degree(6) == (
        (2, 5, 6, 4),
        (StageTriple(1, 1, 0), StageTriple(1, 1, 1), StageTriple(1, 2, 0), StageTriple(2, 0, 0)),
    )


def test_stage_table_bound_two():
    assert stages_up_to_degree(2) == ((2,), (StageTriple(1, 1, 0),))


def test_stage_table_bound_one_is_empty():
    assert stages_up_to_degree(1) == ((), ())


@given(st.integers(0, 300))
def test_stage_table_degrees_are_exactly_the_non_excluded_window(bound):
    degrees, triples = stages_up_to_degree(bound)
    assert sorted(degrees) == [d for d in range(2, bound + 1) if not is_excluded(d)]
    assert len(triples) == len(degrees)
    for degree, triple in zip(degrees, triples):
        assert compose(triple) == degree


def test_stage_table_is_sorted_by_triple():
    triples = list(stages_up_to_degree(200)[1])
    assert triples == sorted(triples)
    assert len(set(triples)) == len(triples)


@pytest.mark.parametrize("bound", [0, 1, 2, 6, 100, 4095, 4096, 10**4])
def test_each_later_stage_of_a_run_follows_the_one_it_is_the_cup1_of(bound):
    # the table renders a stage with i >= 1 as the cup-1 of the stage before it
    degrees, triples = stages_up_to_degree(bound)
    for k, (n, j, i) in enumerate(triples):
        if i:
            assert k > 0
            assert triples[k - 1] == StageTriple(n, j, i - 1)
            assert degrees[k] == 2 * degrees[k - 1] + 1


# the bounds 0..300 and 10^4
RUN_BOUNDS = [*range(301), 10**4]


def _run_degrees(head, bound):
    # a run's degrees from its head: d -> 2d + 1 while the degree is within the bound
    degrees = []
    while head <= bound:
        degrees.append(head)
        head = 2 * head + 1
    return degrees


def test_flattened_runs_are_the_stage_table():
    for bound in RUN_BOUNDS:
        runs = [(n, j, _run_degrees(head, bound)) for n, j, head in iter_runs(bound)]
        flat_degrees = tuple(degree for _, _, degrees in runs for degree in degrees)
        flat_triples = tuple((n, j, i) for n, j, degrees in runs for i in range(len(degrees)))
        assert (flat_degrees, flat_triples) == stages_up_to_degree(bound)


def test_a_run_takes_cup1_steps_until_the_bound():
    for bound in RUN_BOUNDS:
        for n, j, head in iter_runs(bound):
            degrees = _run_degrees(head, bound)
            assert degrees and degrees[-1] <= bound
            for before, degree in zip(degrees, degrees[1:]):
                assert degree == 2 * before + 1
            assert 2 * degrees[-1] + 1 > bound
            # ... and each degree is its stage's own: the run starts at (n, j, 0)
            assert degrees == [compose(StageTriple(n, j, i)) for i in range(len(degrees))]


def test_the_runs_of_one_n_take_cup2_steps_from_its_first_head():
    for bound in RUN_BOUNDS:
        previous = None  # (n, j, head) of the run before
        for n, j, head in iter_runs(bound):
            if previous is not None and previous[0] == n:
                assert (j, head) == (previous[1] + 1, 2 * previous[2] + 2)
            else:
                # A new n starts where the degree formula puts (n, j, 0): j = 1 for n = 1.
                assert n == (1 if previous is None else previous[0] + 1)
                assert j == (1 if n == 1 else 0)
                assert head == compose(StageTriple(n, j, 0))
            previous = n, j, head


def test_the_first_run_is_n_one_from_j_one():
    assert list(iter_runs(1)) == []
    assert list(iter_runs(6)) == [(1, 1, 2), (1, 2, 6), (2, 0, 4)]
    assert [(n, j, _run_degrees(head, 6)) for n, j, head in iter_runs(6)] == [
        (1, 1, [2, 5]),
        (1, 2, [6]),
        (2, 0, [4]),
    ]
    assert next(iter_runs(10**4))[:2] == (1, 1)


# ---------------------------------------------------------------------------
# the StageTriple contract: a checked constructor over a plain tuple


@pytest.mark.parametrize(
    "triple, message",
    [
        ((0, 1, 1), "invalid stage triple (0, 1, 1)"),
        ((1, -1, 0), "invalid stage triple (1, -1, 0)"),
        ((1, 1, -1), "invalid stage triple (1, 1, -1)"),
        ((1, 0, 2), "(1, 0, 2) is not a stage: with n = 1 only the base has j = 0"),
    ],
)
def test_invalid_triples_raise_their_messages(triple, message):
    for build in (lambda: StageTriple(*triple), lambda: StageTriple._make(triple)):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message


def test_replace_checks_the_new_triple():
    assert StageTriple(1, 1, 0)._replace(j=0) == BASE
    with pytest.raises(ValueError, match="not a stage"):
        BASE._replace(i=2)


def test_triple_repr_names_its_fields():
    assert repr(StageTriple(2, 3, 0)) == "StageTriple(n=2, j=3, i=0)"
    assert repr(BASE) == "StageTriple(n=1, j=0, i=0)"


def test_triple_is_a_tuple_in_order_eq_and_hash():
    t = StageTriple(2, 3, 1)
    assert t == (2, 3, 1) and hash(t) == hash((2, 3, 1))
    assert tuple(t) == (t.n, t.j, t.i) == (2, 3, 1)
    assert BASE == (1, 0, 0) and t != BASE
    with pytest.raises(AttributeError):
        t.n = 5


def test_sorting_shuffled_triples_restores_the_table_order():
    triples = list(stages_up_to_degree(2000)[1])
    shuffled = triples[:]
    random.Random(0).shuffle(shuffled)
    assert shuffled != triples
    assert sorted(shuffled) == triples


def test_unchecked_stages_are_the_checked_triples_of_their_degrees():
    # stages_up_to_degree builds each triple from the runs' indices, so compare
    # each stage with the triple decompose builds, and rebuild it through the check.
    degrees, triples = stages_up_to_degree(10**4)
    assert type(degrees) is tuple and type(triples) is tuple
    for degree, triple in zip(degrees, triples):
        assert type(degree) is int and type(triple) is StageTriple
        assert triple == decompose(degree) == StageTriple(*triple)
    assert len(degrees) == len(triples) == 10**4 - 13
