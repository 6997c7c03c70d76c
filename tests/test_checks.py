import pytest
from hypothesis import given, strategies as st

import cobfilt.checks as checks
import cobfilt.series
import cobfilt.spaces as spaces
from cobfilt.checks import (
    CheckReport,
    Discrepancy,
    partition_dp,
    verify_bijection,
    verify_main_theorem,
    verify_quotient_steps,
    verify_simple_systems,
)
from cobfilt.degrees import StageTriple, stages_up_to_degree
from cobfilt.series import AlgebraSpec, TruncatedSeries, mul, series_of


def count_multisets(parts, total):
    # explicit enumeration oracle, smallest-part-first recursion
    def rec(remaining, allowed):
        if remaining == 0:
            return 1
        return sum(
            rec(remaining - p, [q for q in allowed if q >= p])
            for p in allowed
            if p <= remaining
        )

    return rec(total, sorted(parts))


# ---------------------------------------------------------------------------
# partition oracle


def test_partition_dp_generator_degrees_to_eight():
    # degree 8 multisets: {8}, {6,2}, {4,4}, {4,2,2}, {2,2,2,2}
    assert partition_dp([2, 4, 5, 6, 8], 8).coeffs == (1, 0, 1, 0, 2, 1, 3, 1, 5)


def test_partition_dp_no_parts():
    assert partition_dp([], 4).coeffs == (1, 0, 0, 0, 0)


def test_partition_dp_single_part():
    assert partition_dp([2], 6).coeffs == (1, 0, 1, 0, 1, 0, 1)


def test_partition_dp_rejects_bad_parts():
    with pytest.raises(ValueError):
        partition_dp([0, 2], 4)
    with pytest.raises(ValueError):
        partition_dp([2, 2], 4)


def test_partition_dp_counts_partitions():
    # every part allowed: the partition numbers p(n), OEIS A000041
    assert partition_dp(range(1, 11), 10).coeffs == (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42)
    assert partition_dp(range(1, 101), 100).coeffs[100] == 190_569_292
    # p(417) is the first partition number beyond 64 bits
    partition_dp(range(1, 417), 416)
    with pytest.raises(OverflowError, match="degree 417 "):
        partition_dp(range(1, 418), 417)


@given(st.sets(st.integers(1, 9), max_size=4), st.integers(0, 14))
def test_partition_dp_matches_explicit_enumeration(parts, cap):
    series = partition_dp(parts, cap)
    for t in range(cap + 1):
        assert series.coeffs[t] == count_multisets(parts, t)


@given(st.integers(1, 64))
def test_partition_dp_single_part_matches_polynomial_series(d):
    assert partition_dp([d], 64).coeffs == series_of(AlgebraSpec((d,)), 64).coeffs


# ---------------------------------------------------------------------------
# bijection check


def test_bijection_passes_at_sixty_four():
    report = verify_bijection(64)
    assert report.passed
    assert report.first_discrepancy is None


def test_bijection_passes_at_two():
    assert verify_bijection(2).passed


def _enumerate_with(monkeypatch, edit):
    # The check's own enumeration, passed through edit: the oracle side made wrong.
    original = checks._enumerate_triples
    monkeypatch.setattr(checks, "_enumerate_triples", lambda bound: edit(original(bound)))


def test_bijection_fails_on_injected_duplicate(monkeypatch):
    _enumerate_with(monkeypatch, lambda entries: entries + [(6, (9, 9, 9))])
    report = verify_bijection(16)
    assert not report.passed
    assert report.first_discrepancy.degree == 6


def test_bijection_fails_on_missing_degree(monkeypatch):
    _enumerate_with(monkeypatch, lambda entries: [e for e in entries if e[0] != 10])
    report = verify_bijection(16)
    assert not report.passed
    assert report.first_discrepancy.degree == 10


def test_bijection_fails_on_stage_for_excluded_degree(monkeypatch):
    _enumerate_with(monkeypatch, lambda entries: entries + [(7, (1, 2, 0))])
    report = verify_bijection(16)
    assert not report.passed
    assert report.first_discrepancy.degree == 7


def test_bijection_fails_when_decompose_disagrees_with_the_enumeration(monkeypatch):
    original = checks.decompose
    monkeypatch.setattr(checks, "decompose", lambda d: StageTriple(2, 0, 0) if d == 5 else original(d))
    report = verify_bijection(16)
    assert report.first_discrepancy == Discrepancy(5, [1, 1, 1], [2, 0, 0])


def test_bijection_fails_on_a_stage_above_the_bound(monkeypatch):
    _enumerate_with(monkeypatch, lambda entries: entries + [(17, (9, 9, 9))])
    report = verify_bijection(16)
    assert report.first_discrepancy == Discrepancy(17, "degree within [2, bound]", [[9, 9, 9]])


# ---------------------------------------------------------------------------
# main theorem and quotient checks


@pytest.mark.parametrize("cap", [0, 2, 8, 16, 32, 64, 128])
def test_main_theorem_series_identity(cap):
    assert verify_main_theorem(cap).passed


def test_main_theorem_reports_the_oracle_series():
    # spot values pinned by the explicit enumeration oracle
    gens = [2, 4, 5, 6, 8]
    assert [count_multisets(gens, t) for t in range(9)] == [1, 0, 1, 0, 2, 1, 3, 1, 5]


@pytest.mark.parametrize("cap", [2, 5, 16, 64])
def test_quotient_steps(cap):
    assert verify_quotient_steps(cap).passed


@pytest.mark.parametrize("cap", [1, 64, 128])
def test_simple_systems(cap):
    assert verify_simple_systems(cap).passed


def test_simple_systems_detects_a_mutated_factor(monkeypatch):
    def mutated(d, cap):
        series = series_of(AlgebraSpec((d,)), cap)
        coeffs = list(series.coeffs)
        if len(coeffs) > 5:
            coeffs[5] += 1
        return TruncatedSeries(tuple(coeffs))

    monkeypatch.setattr(checks, "simple_system_series", mutated)
    report = verify_simple_systems(8)
    assert not report.passed
    assert report.first_discrepancy is not None


@pytest.mark.parametrize(
    "actual",
    [
        (1, 0, 0, 1, 1, 0, 1, 0, 0, 1, 0, 0, 1),
        (1, 0, 0, 1, 0, 0, 2, 0, 0, 1, 0, 0, 1),
        (1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0),
    ],
    ids=["stray-off-the-multiples", "two-on-a-multiple", "one-short"],
)
def test_simple_systems_names_each_injected_fault(monkeypatch, actual):
    # each part of the comparison fails alone: the zeros off the multiples of
    # d, the ones on them, and the length; the witness is the whole closed form
    def injected(d, cap):
        return TruncatedSeries(actual) if d == 3 else closed_form(d, cap)

    monkeypatch.setattr(checks, "simple_system_series", injected)
    expected = [1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1]
    assert verify_simple_systems(12).first_discrepancy == Discrepancy(3, expected, list(actual))


def test_main_theorem_detects_a_wrong_product_coefficient(monkeypatch):
    # series_of serves the product route alone: the stagewise factors are closed forms
    def mutated(spec, cap):
        coeffs = list(series_of(spec, cap).coeffs)
        coeffs[5] += 1
        return TruncatedSeries(tuple(coeffs))

    monkeypatch.setattr(checks, "series_of", mutated)
    report = verify_main_theorem(8)
    assert not report.passed
    assert report.first_discrepancy == Discrepancy(5, 1, {"product": 2})


def test_main_theorem_detects_a_wrong_stagewise_convolution(monkeypatch):
    # the stagewise route must be able to fail on its own, with the other two agreeing
    original = checks._times_closed_form

    def corrupted(product, d, cap):
        # one more in degree 5, the product's 128-bit slot 5
        return original(product, d, cap) + (1 << 128 * 5)

    monkeypatch.setattr(checks, "_times_closed_form", corrupted)
    report = verify_main_theorem(8)
    assert not report.passed
    # the true count 1, plus one extra from each of the five stage products up to degree 8
    assert report.first_discrepancy == Discrepancy(5, 1, {"stagewise": 6})


@pytest.fixture
def extra_stage(monkeypatch):
    # One more stage in the table the stagewise route walks, of the given degree:
    # its product then counts more than the other two routes in that degree and up.
    original = checks.stages_up_to_degree

    def install(degree):
        extra = ((degree,), (StageTriple(1, 0, 0),))
        monkeypatch.setattr(
            checks,
            "stages_up_to_degree",
            lambda bound: tuple(column + more for column, more in zip(original(bound), extra)),
        )

    return install


@pytest.mark.parametrize("degree, cap, overflow", [(2, 539, 495), (2, 495, 495), (5, 539, 511)])
def test_main_theorem_names_the_lowest_stagewise_overflow(extra_stage, degree, cap, overflow):
    # the degree a coefficient list names: a carry out of a too-narrow slot would
    # hide the overflow, or move it to another degree
    extra_stage(degree)
    message = f"coefficient in degree {overflow} exceeds the 64-bit bound"
    with pytest.raises(OverflowError, match=f"^{message}$"):
        verify_main_theorem(cap)


@pytest.mark.parametrize("cap", [300, 480, 494])
def test_main_theorem_reports_an_extra_stage_below_the_overflow(extra_stage, cap):
    extra_stage(2)
    assert verify_main_theorem(cap).first_discrepancy == Discrepancy(2, 1, {"stagewise": 2})


def closed_form(d, cap):
    # 1/(1 - t^d) as a series, for the general kernel mul
    return TruncatedSeries(1 if t % d == 0 else 0 for t in range(cap + 1))


@pytest.mark.parametrize("cap", [*range(65), 539])
def test_main_theorem_stagewise_route_matches_a_chain_of_mul(monkeypatch, cap):
    # the stagewise series is the last series the check builds; mul, which no
    # check calls, multiplies the same closed forms in the same stage order
    built, walked = [], []

    class Recorded(TruncatedSeries):
        __slots__ = ()

        def __new__(cls, coeffs):
            built.append(super().__new__(cls, coeffs))
            return built[-1]

    def recording(product, d, cap):
        walked.append(d)
        return original(product, d, cap)

    original = checks._times_closed_form
    monkeypatch.setattr(checks, "TruncatedSeries", Recorded)
    monkeypatch.setattr(checks, "_times_closed_form", recording)
    assert verify_main_theorem(cap).passed
    expected = TruncatedSeries((1,) + (0,) * cap)
    for degree in stages_up_to_degree(cap)[0]:
        expected = mul(expected, closed_form(degree, cap))
    assert built[-1] == expected
    # The product is the same in any order, so its value cannot show the walk:
    # each partial product is a stage's series only when the factors come in
    # stage order, the table's degrees column.
    assert tuple(walked) == stages_up_to_degree(cap)[0]


def count_series_built(monkeypatch):
    # every series built: by the public constructor, and by the series
    # module's own sums, which build theirs without it
    built = []
    original, summed = TruncatedSeries.__new__, cobfilt.series._summed

    def counted(cls, coeffs):
        built.append(coeffs)
        return original(cls, coeffs)

    def counted_sum(coeffs):
        built.append(coeffs)
        return summed(coeffs)

    monkeypatch.setattr(TruncatedSeries, "__new__", counted)
    monkeypatch.setattr(cobfilt.series, "_summed", counted_sum)
    return built


@pytest.mark.parametrize("cap", [16, 128])
def test_main_theorem_builds_one_series_per_route(monkeypatch, cap):
    # the stagewise route multiplies its closed forms on one integer, checked once at the end
    built = count_series_built(monkeypatch)
    assert verify_main_theorem(cap).passed
    assert len(built) == 3


@pytest.mark.parametrize("cap", [1, 16, 64])
def test_simple_systems_build_one_series_per_degree(monkeypatch, cap):
    # a passing check builds no closed form; only the height-1 product is a series
    built = count_series_built(monkeypatch)
    assert verify_simple_systems(cap).passed
    assert len(built) == cap


@pytest.mark.parametrize(
    "run",
    [
        verify_bijection,
        verify_main_theorem,
        verify_quotient_steps,
        verify_simple_systems,
        lambda cap: partition_dp((), cap),
    ],
    ids=[
        "verify_bijection",
        "verify_main_theorem",
        "verify_quotient_steps",
        "verify_simple_systems",
        "partition_dp",
    ],
)
def test_every_check_rejects_a_negative_cap(run):
    with pytest.raises(ValueError) as raised:
        run(-1)
    assert str(raised.value) == "cap must be >= 0, got -1"


def test_quotient_steps_detect_a_dropped_stage_generator(monkeypatch):
    original = spaces.stage_generator_degrees

    def dropped(t, bound):
        return [d for d in original(t, bound) if d != 6]

    monkeypatch.setattr(spaces, "stage_generator_degrees", dropped)
    report = verify_quotient_steps(16)
    assert not report.passed
    # the stage of degree 6 adds nothing, so its quotient is 1, not 1/(1 - t^6)
    assert report.first_discrepancy == Discrepancy(6, 1, 0)


def test_quotient_steps_report_a_stage_the_previous_one_does_not_divide(monkeypatch):
    # the second stage, of degree 5, comes back as the unit series: times
    # 1 - t^5 it is 1 - t^5, not the first stage's 1/(1 - t^2)
    second = stages_up_to_degree(16)[1][1]
    original = checks.adams_homotopy_series

    def unit_at_second(t, cap):
        return TruncatedSeries((1,) + (0,) * cap) if t == second else original(t, cap)

    monkeypatch.setattr(checks, "adams_homotopy_series", unit_at_second)
    report = verify_quotient_steps(16)
    assert not report.passed
    assert report.first_discrepancy == Discrepancy(2, 1, 0)


def doubled(coeffs, degrees):
    # 1/(1 - 2t^d) for 1/(1 - t^d)
    for d in degrees:
        for t in range(d, len(coeffs)):
            coeffs[t] += 2 * coeffs[t - d]


@pytest.fixture
def stride_kernel(monkeypatch):
    # Installs a stride kernel.  series_of resumes from its last result and
    # steenrod_series caches, so both start and end empty: no series the
    # kernel built reaches another test.
    def install(kernel):
        monkeypatch.setattr(cobfilt.series, "_times_geometric", kernel)
        cobfilt.series._last = None
        spaces.steenrod_series.cache_clear()

    yield install
    cobfilt.series._last = None
    spaces.steenrod_series.cache_clear()


@pytest.fixture
def wrong_stride_kernel(stride_kernel):
    # wrong, but the same wrong factor everywhere, A_* included, so the stages
    # still divide one another
    stride_kernel(doubled)


@pytest.mark.parametrize("cap", [16, 32])
def test_quotient_steps_detect_a_consistently_wrong_stride_kernel(wrong_stride_kernel, cap):
    # the stage of degree 2 now reads 1, 0, 2, 0, 4, ...; times 1 - t^2 it is
    # 1, 0, 1, 0, 2, ..., not the unit; an oracle built by the same kernel
    # would predict the same wrong quotients
    report = verify_quotient_steps(cap)
    assert report.first_discrepancy == Discrepancy(2, 0, 1)


def short_of_the_top(coeffs, degrees):
    # 1/(1 - t^d) in every degree but the top one, which the sum never reaches
    for d in degrees:
        for t in range(d, len(coeffs) - 1):
            coeffs[t] += coeffs[t - d]


@pytest.mark.parametrize("cap, witness", [(16, Discrepancy(16, 0, -1)), (2, Discrepancy(2, 0, -1))])
def test_quotient_steps_detect_a_kernel_wrong_in_the_top_degree_alone(stride_kernel, cap, witness):
    # the stage of degree 2 misses t^cap, so times 1 - t^2 its top coefficient
    # is -1 where the unit has 0; the backward difference must reach the top
    stride_kernel(short_of_the_top)
    assert verify_quotient_steps(cap).first_discrepancy == witness


@pytest.mark.parametrize("cap", [16, 64])
def test_quotient_steps_build_one_series_per_stage(monkeypatch, cap):
    # the stage series are the only series the check builds: it compares
    # coefficient tuples and builds no quotient or prediction of its own
    built = count_series_built(monkeypatch)
    assert verify_quotient_steps(cap).passed
    assert len(built) == len(stages_up_to_degree(cap)[0]) + 1


def by_start(from_the_unit, resumed):
    # A stride kernel that runs from_the_unit on a build that starts from the
    # unit series, as a cold series_of call does, and resumed on a build that
    # starts from an earlier result.
    def kernel(coeffs, degrees):
        (resumed if any(coeffs[1:]) else from_the_unit)(coeffs, degrees)

    return kernel


def test_main_theorem_detects_a_kernel_wrong_on_a_cold_build(stride_kernel):
    # with no earlier result recorded, the product route's one series_of call is a cold build
    stride_kernel(by_start(doubled, cobfilt.series._times_geometric))
    report = verify_main_theorem(8)
    assert report.first_discrepancy == Discrepancy(2, 1, {"product": 2})


def test_quotient_steps_detect_a_kernel_wrong_on_a_resumed_build(stride_kernel):
    # each stage after the first starts from the stage before, so its one
    # pass is the wrong one; a cold build still comes out right
    stride_kernel(by_start(cobfilt.series._times_geometric, doubled))
    assert verify_main_theorem(16).passed
    report = verify_quotient_steps(16)
    # the stage of degree 5 starts from 1/(1 - t^2) and gains 1/(1 - 2t^5):
    # times 1 - t^5 it keeps 1 + t^5 + ..., where 1/(1 - t^2) has nothing in degree 5
    assert report.first_discrepancy == Discrepancy(5, 0, 1)


# The stage table up to 16 runs 2, 5, 11, 6, ... in stage order.  The table
# checks neither its order nor its distinct degrees when built; a table that
# broke either would make the quotient check walk the stages wrongly.  Each
# defect edits the degrees and the triples alike, so the columns stay aligned.
def each_column(edit):
    return lambda table: tuple(map(edit, table))


TABLE_DEFECTS = {
    # 6 then arrives together with 13, so the stage times 1 - t^13 keeps 1/(1 - t^6)
    "dropped": (each_column(lambda c: c[:3] + c[4:]), Discrepancy(6, 1, 2)),
    # the second copy of stage 5 adds nothing, so its quotient is 1
    "repeated": (each_column(lambda c: c[:2] + c[1:]), Discrepancy(5, 1, 0)),
    # stage 11 arrives before 5, bringing 5 with it
    "swapped": (each_column(lambda c: c[:1] + (c[2], c[1]) + c[3:]), Discrepancy(5, 0, 1)),
}


@pytest.mark.parametrize("defect", TABLE_DEFECTS)
def test_quotient_steps_detect_a_broken_stage_table(monkeypatch, defect):
    mutate, witness = TABLE_DEFECTS[defect]
    original = checks.stages_up_to_degree
    monkeypatch.setattr(checks, "stages_up_to_degree", lambda bound: mutate(original(bound)))
    report = verify_quotient_steps(16)
    assert not report.passed
    assert report.first_discrepancy == witness


# ---------------------------------------------------------------------------
# reports


def test_report_serialization():
    # a report carries only its finding, and passed exactly when it has no witness;
    # the CLI renders the witness as its dict in field order
    report = CheckReport(Discrepancy(4, 1, 2))
    assert CheckReport._fields == ("first_discrepancy", "series")
    assert not report.passed
    assert report.first_discrepancy._asdict() == {"degree": 4, "expected": 1, "actual": 2}
    assert list(report.first_discrepancy._asdict()) == ["degree", "expected", "actual"]
    passing = CheckReport(series=(1, 0, 1))
    assert passing.passed
    assert passing.first_discrepancy is None


def test_checks_are_deterministic():
    assert verify_bijection(64) == verify_bijection(64)
    assert verify_main_theorem(32) == verify_main_theorem(32)
    assert verify_quotient_steps(16) == verify_quotient_steps(16)
    assert verify_simple_systems(32) == verify_simple_systems(32)
