import random

import pytest
from hypothesis import given, strategies as st

import cobfilt.series
import cobfilt.spaces as spaces
from cobfilt.checks import partition_dp, verify_main_theorem, verify_quotient_steps
from cobfilt.degrees import BASE, StageTriple, stages_up_to_degree
from cobfilt.series import U64_MAX, AlgebraSpec, exact_div, mul, series_of
from cobfilt.spaces import (
    adams_homotopy_series,
    stage_generator_degrees,
    steenrod_series,
    thom_homology_series,
)


# ---------------------------------------------------------------------------
# dual Steenrod algebra


def test_dual_steenrod_generator_degrees():
    # xi_k lies in degree 2^k - 1 and enters exactly when the cap reaches it
    assert steenrod_series(2).coeffs == partition_dp([1], 2).coeffs
    assert steenrod_series(7).coeffs == partition_dp([1, 3, 7], 7).coeffs
    assert steenrod_series(14).coeffs == partition_dp([1, 3, 7], 14).coeffs
    assert steenrod_series(15).coeffs == partition_dp([1, 3, 7, 15], 15).coeffs


def test_dual_steenrod_series_low_degrees():
    assert steenrod_series(6).coeffs == (1, 1, 1, 2, 2, 2, 3)


def test_negative_steenrod_cap_rejected():
    with pytest.raises(ValueError) as raised:
        steenrod_series(-1)
    assert str(raised.value) == "cap must be >= 0, got -1"


@pytest.mark.parametrize("cap", [0, 1, 2, 40, 539, 1000])
def test_steenrod_series_counts_partitions_into_xi_degrees(cap):
    # the Euler transform of partition_dp shares no kernel with series_of's running sums
    parts = [2**k - 1 for k in range(1, 11) if 2**k - 1 <= cap]
    assert steenrod_series(cap).coeffs == partition_dp(parts, cap).coeffs


# ---------------------------------------------------------------------------
# stages, Thom complexes, Adams collapse


def test_base_stage_has_no_generators():
    assert stage_generator_degrees(BASE, 10) == []


def test_stage_degrees_listed_in_stage_order():
    assert stage_generator_degrees(StageTriple(1, 1, 1), 16) == [2, 5]
    assert stage_generator_degrees(StageTriple(1, 2, 0), 16) == [2, 5, 11, 6]


def test_stage_degrees_monotone_under_stage_order():
    table = stages_up_to_degree(40)
    lists = [stage_generator_degrees(t, 40) for t in [BASE] + [e.triple for e in table]]
    for earlier, later in zip(lists, lists[1:]):
        assert later[: len(earlier)] == earlier


@st.composite
def stage_triples(draw):
    # most have a degree above the drawn bound, so they are not in its table
    n = draw(st.integers(1, 40))
    j = draw(st.integers(1 if n == 1 else 0, 8))
    return StageTriple(n, j, draw(st.integers(0, 8)))


@given(stage_triples(), st.integers(0, 200))
def test_stage_degrees_equal_the_plain_filter(t, bound):
    expected = [entry.degree for entry in stages_up_to_degree(bound) if entry.triple <= t]
    assert stage_generator_degrees(t, bound) == expected


def test_stage_table_is_built_once_per_bound():
    # the quotient check and every stage series it builds read the same table
    stages_up_to_degree.cache_clear()
    assert verify_quotient_steps(32).passed
    stages_up_to_degree(32)  # a hit, so the one build was of bound 32
    assert stages_up_to_degree.cache_info().misses == 1
    stages_up_to_degree.cache_clear()


def test_the_caches_stay_bounded_over_many_caps():
    caches = (spaces.steenrod_series, stages_up_to_degree, spaces._stage_degrees)
    for cache in caches:
        cache.cache_clear()
    for cap in range(4 * spaces._CACHE_SIZE):
        steenrod_series(cap)
        thom_homology_series(StageTriple(1, 1, 0), cap)
        assert all(cache.cache_info().currsize <= spaces._CACHE_SIZE for cache in caches)
    # a pass cycling through a few caps still finds every one cached
    few = range(6)
    for cap in few:
        steenrod_series(cap)
        thom_homology_series(StageTriple(1, 1, 0), cap)
    before = [cache.cache_info().misses for cache in caches]
    for cap in few:
        steenrod_series(cap)
        thom_homology_series(StageTriple(1, 1, 0), cap)
    assert [cache.cache_info().misses for cache in caches] == before
    for cache in caches:
        cache.cache_clear()


def test_thom_series_of_base_is_dual_steenrod():
    assert thom_homology_series(BASE, 6).coeffs == (1, 1, 1, 2, 2, 2, 3)


def test_thom_series_first_stage():
    assert thom_homology_series(StageTriple(1, 1, 0), 4).coeffs == (1, 1, 2, 3, 4)
    assert thom_homology_series(StageTriple(1, 1, 0), 0).coeffs == (1,)


def test_thom_series_dominates_steenrod():
    cap = 24
    A = steenrod_series(cap)
    for entry in stages_up_to_degree(cap):
        th = thom_homology_series(entry.triple, cap)
        assert all(th.coeffs[t] >= A.coeffs[t] for t in range(cap + 1))


def test_homotopy_series_first_stages():
    assert adams_homotopy_series(StageTriple(1, 1, 0), 6).coeffs == (1, 0, 1, 0, 1, 0, 1)
    assert adams_homotopy_series(StageTriple(1, 1, 1), 7).coeffs == (1, 0, 1, 0, 1, 1, 1, 1)


def test_homotopy_series_of_base_is_unit():
    assert adams_homotopy_series(BASE, 6).coeffs == (1, 0, 0, 0, 0, 0, 0)


def test_homotopy_times_steenrod_recovers_thom_homology():
    # H_* = A_* (x) pi_*, by mul, a kernel neither series route uses
    cap = 24
    A = steenrod_series(cap)
    for entry in stages_up_to_degree(cap):
        q = adams_homotopy_series(entry.triple, cap)
        assert mul(q, A).coeffs == thom_homology_series(entry.triple, cap).coeffs


def test_consecutive_stage_quotients_add_one_polynomial_generator():
    # each quotient is 1/(1 - t^d) in closed form, 1 in each degree divisible
    # by d, not by the stride kernel that built the stages
    cap = 24
    previous = adams_homotopy_series(BASE, cap)
    for entry in stages_up_to_degree(cap):
        current = adams_homotopy_series(entry.triple, cap)
        quotient = exact_div(current, previous)
        assert quotient.coeffs == tuple(int(k % entry.degree == 0) for k in range(cap + 1))
        previous = current


def test_homotopy_series_equals_general_division_at_every_stage():
    # H_* = A_* (x) pi_*, by exact_div, a kernel neither series route uses
    cap = 48
    A = steenrod_series(cap)
    for t in [BASE] + [e.triple for e in stages_up_to_degree(cap)]:
        expected = exact_div(thom_homology_series(t, cap), A)
        assert adams_homotopy_series(t, cap).coeffs == expected.coeffs, t


def test_homotopy_series_reads_nothing_of_steenrod(monkeypatch):
    # One running sum per stage generator and none for A_*: the homotopy
    # series is the stage algebra's, counted here as partitions into its degrees.
    cap = 48

    def no_steenrod(cap):
        raise AssertionError("the homotopy route read A_*")

    def recording(coeffs, degrees):
        passes.extend(degrees)
        original(coeffs, degrees)

    original = cobfilt.series._times_geometric
    monkeypatch.setattr(spaces, "steenrod_series", no_steenrod)
    monkeypatch.setattr(cobfilt.series, "_times_geometric", recording)
    for t in [BASE] + [e.triple for e in stages_up_to_degree(cap)]:
        passes = []
        cobfilt.series._last = None  # a cold build
        degrees = stage_generator_degrees(t, cap)
        assert adams_homotopy_series(t, cap).coeffs == partition_dp(degrees, cap).coeffs, t
        assert passes == degrees, t
    # Walked in stage order, each stage starts from the one before it and
    # runs its own generator's pass alone.
    adams_homotopy_series(BASE, cap)
    for entry in stages_up_to_degree(cap):
        passes = []
        degrees = stage_generator_degrees(entry.triple, cap)
        assert adams_homotopy_series(entry.triple, cap).coeffs == partition_dp(degrees, cap).coeffs
        assert passes == [entry.degree], entry


def test_thom_series_fits_u64_through_cap_416():
    # (105,0,0) is the last stage at cap 416, so its Thom complex carries every generator
    last = StageTriple(105, 0, 0)
    assert stages_up_to_degree(416)[-1].triple == last
    thom_homology_series(last, 416)
    with pytest.raises(OverflowError, match="degree 417 "):
        thom_homology_series(last, 417)


def test_thom_series_first_overflows_in_degree_417_at_cap_600():
    last = StageTriple(151, 0, 0)  # the last stage at cap 600, so it carries every generator
    assert stages_up_to_degree(600)[-1].triple == last
    with pytest.raises(OverflowError, match="^coefficient in degree 417 exceeds the 64-bit bound$"):
        thom_homology_series(last, 600)


def test_thom_series_counts_partitions_at_every_stage(monkeypatch):
    # One running sum per xi_k, then one per stage generator: the Thom series
    # is the polynomial algebra's on both, counted here as partitions into the
    # two disjoint sets of degrees, by an Euler transform that shares no kernel
    # with series_of.
    def recording(coeffs, degrees):
        passes.extend(degrees)
        original(coeffs, degrees)

    original = cobfilt.series._times_geometric
    monkeypatch.setattr(cobfilt.series, "_times_geometric", recording)
    for cap in range(65):
        xi = [2**k - 1 for k in range(1, 7) if 2**k - 1 <= cap]
        for t in [BASE] + [e.triple for e in stages_up_to_degree(cap)]:
            passes = []
            cobfilt.series._last = None  # a cold build
            degrees = xi + stage_generator_degrees(t, cap)
            assert thom_homology_series(t, cap).coeffs == partition_dp(degrees, cap).coeffs, (t, cap)
            assert passes == degrees, (t, cap)
        # In stage order, one pass per stage generator on top of the stage before.
        thom_homology_series(BASE, cap)
        for entry in stages_up_to_degree(cap):
            passes = []
            degrees = xi + stage_generator_degrees(entry.triple, cap)
            assert thom_homology_series(entry.triple, cap).coeffs == partition_dp(degrees, cap).coeffs
            assert passes == [entry.degree], (entry, cap)


def outcome(build, *args):
    # the result, or the message naming the lowest degree that overflows
    try:
        return build(*args)
    except OverflowError as exc:
        return str(exc)


def in_runs(walks, rng):
    # Runs of 1 to 30 calls from the walks, in turn at random: each walk keeps
    # its order, and a run after another walk's starts cold.
    walks = [list(walk) for walk in walks]
    while walks:
        walk = rng.choice(walks)
        run = rng.randint(1, 30)
        yield from walk[:run]
        del walk[:run]
        if not walk:
            walks.remove(walk)


@pytest.mark.parametrize(
    "caps, step",
    [(range(65), 1), ((416, 417, 418, 419, 420, 539, 540), 16)],
    ids=["every stage at 0..64", "every 16th stage at 416..420,539,540"],
)
def test_a_resumed_build_equals_a_cold_one(caps, step):
    # series_of starts from its last result when the new degrees extend it.
    # Each stage series, walked forward, backward and shuffled, with other
    # caps, steenrod_series and verify_main_theorem in between, must equal the
    # cold build that starts from no last result, or name the same overflow.
    # Every stage at the high caps would take minutes of cold builds; every
    # 16th, and the last, still crosses each overflow boundary there.  The
    # last stage comes twice, so a call also repeats the last result's degrees.
    rng = random.Random(24)
    walks = []
    for cap in caps:
        stages = [BASE] + [e.triple for e in stages_up_to_degree(cap)]
        stages = stages[::step] + stages[-1:]
        walks += [[(build, t, cap) for t in stages] for build in (adams_homotopy_series, thom_homology_series)]
    others = [(build, cap) for cap in caps for build in (steenrod_series, verify_main_theorem)]
    cold = {}
    for call in [call for walk in walks for call in walk] + others:
        cobfilt.series._last = None
        steenrod_series.cache_clear()
        cold[call] = outcome(*call)
    forward = list(in_runs(walks, rng))
    backward = list(in_runs([walk[::-1] for walk in walks], rng))
    shuffled = forward + others
    rng.shuffle(shuffled)
    for order in (forward, backward):
        for call in others:
            order.insert(rng.randrange(len(order) + 1), call)
    for order in (forward, backward, shuffled):
        for call in order:
            assert outcome(*call) == cold[call], call


def unbounded_product(coeffs, degrees):
    # a times 1 / (1 - t^d) for each d, as a direct convolution with the
    # written-out geometric series, on plain integers no container bounds
    cap = len(coeffs) - 1
    out = list(coeffs)
    for d in degrees:
        out = [sum(out[t - u] for u in range(0, t + 1, d)) for t in range(cap + 1)]
    return out


def test_thom_series_names_the_lowest_overflow_at_every_stage():
    # The unbounded counts at cap 420, one factor per stage on top of the
    # previous stage's: a stage's generators are a prefix of the table, and
    # truncating at a lower cap drops only the generators above it.
    top = 420
    count = unbounded_product([1] + [0] * top, [2**k - 1 for k in range(1, 9)])
    counts = {BASE: count}
    for entry in stages_up_to_degree(top):
        count = counts[entry.triple] = unbounded_product(count, [entry.degree])
    for cap in range(416, top + 1):
        for t in [BASE] + [e.triple for e in stages_up_to_degree(cap)]:
            expected = counts[t][: cap + 1]
            over = [d for d, c in enumerate(expected) if c > U64_MAX]
            if over:
                with pytest.raises(OverflowError) as raised:
                    thom_homology_series(t, cap)
                assert str(raised.value) == f"coefficient in degree {over[0]} exceeds the 64-bit bound"
            else:
                assert list(thom_homology_series(t, cap).coeffs) == expected, (t, cap)


def test_adams_route_fits_u64_through_cap_539():
    # the route reads neither A_* nor the Thom series: at cap 417 the Thom series
    # overflows, the homotopy series does not; the homotopy series itself first does at 540
    assert adams_homotopy_series(StageTriple(105, 0, 0), 417).coeffs == partition_dp(
        stage_generator_degrees(StageTriple(105, 0, 0), 417), 417
    ).coeffs
    # (136,0,0) is the last stage at cap 540, so it carries every generator
    last = StageTriple(136, 0, 0)
    assert stages_up_to_degree(540)[-1].triple == last
    adams_homotopy_series(last, 539)
    with pytest.raises(OverflowError, match="degree 540 "):
        adams_homotopy_series(last, 540)
