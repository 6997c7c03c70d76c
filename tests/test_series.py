import pytest
from hypothesis import given, strategies as st

import cobfilt.series
from cobfilt.degrees import is_excluded
from cobfilt.series import (
    U64_MAX,
    AlgebraSpec,
    NotDivisibleError,
    TruncatedSeries,
    exact_div,
    mul,
    series_of,
    simple_system_series,
)


def brute_convolution(a, b):
    # independent oracle: direct double loop, no reuse of mul
    cap = a.cap
    out = [0] * (cap + 1)
    for t in range(cap + 1):
        out[t] = sum(a.coeffs[u] * b.coeffs[t - u] for u in range(t + 1))
    return tuple(out)


def geometric(d, cap):
    # 1 + t^d + t^2d + ... written out by hand, never through series_of
    return TruncatedSeries(tuple(int(t % d == 0) for t in range(cap + 1)))


def convolution_product(degrees, cap):
    # the series of Z/2[x_d for d in degrees] as a chain of general convolutions
    out = TruncatedSeries((1,) + (0,) * cap)
    for d in degrees:
        out = mul(out, geometric(d, cap))
    return out


@st.composite
def series_pairs(draw, max_cap=16, max_coeff=30):
    cap = draw(st.integers(0, max_cap))
    mk = lambda: TruncatedSeries(draw(coefficient_lists(cap, max_coeff)))
    return mk(), mk()


@st.composite
def series_triples(draw, max_cap=12, max_coeff=12):
    cap = draw(st.integers(0, max_cap))
    mk = lambda: TruncatedSeries(draw(coefficient_lists(cap, max_coeff)))
    return mk(), mk(), mk()


@st.composite
def algebra_specs(draw, max_gens=6, max_degree=10):
    return AlgebraSpec(tuple(draw(st.lists(st.integers(1, max_degree), max_size=max_gens))))


@st.composite
def capped_specs(draw, max_cap=20):
    # repeated degrees and degrees above the cap both occur
    cap = draw(st.integers(0, max_cap))
    degrees = draw(st.lists(st.integers(1, cap + 6), max_size=8))
    return AlgebraSpec(tuple(degrees)), cap


def coefficient_lists(cap, max_coeff=30):
    return st.lists(st.integers(0, max_coeff), min_size=cap + 1, max_size=cap + 1)


def record_passes(monkeypatch):
    # the degrees of every stride pass series_of runs from here on, in order
    passes = []
    original = cobfilt.series._times_geometric

    def recording(coeffs, degrees):
        passes.extend(degrees)
        original(coeffs, degrees)

    monkeypatch.setattr(cobfilt.series, "_times_geometric", recording)
    return passes


# ---------------------------------------------------------------------------
# series_of


def test_polynomial_on_one_even_generator():
    assert series_of(AlgebraSpec((2,)), 6).coeffs == (1, 0, 1, 0, 1, 0, 1)


def test_unit_algebra():
    assert series_of(AlgebraSpec(), 3).coeffs == (1, 0, 0, 0)


def test_polynomial_two_generators():
    # basis through degree 7: 1; x2; x2^2; x5; x2^3; x2 x5
    assert series_of(AlgebraSpec((2, 5)), 7).coeffs == (1, 0, 1, 0, 1, 1, 1, 1)


def test_generator_above_cap_contributes_nothing(monkeypatch):
    assert series_of(AlgebraSpec((9,)), 5).coeffs == (1, 0, 0, 0, 0, 0)
    assert AlgebraSpec((2, 9, 5)).generators_below(5) == (2, 5)
    # The last build's degrees keep the one above the cap, so a build that
    # extends them resumes from it and runs the new degree's pass alone.
    cobfilt.series._last = None
    cold = series_of(AlgebraSpec((2, 3)), 5)
    series_of(AlgebraSpec((2, 9)), 5)
    passes = record_passes(monkeypatch)
    assert series_of(AlgebraSpec((2, 9, 3)), 5) == cold
    assert passes == [3]


@given(algebra_specs(), st.integers(0, 24))
def test_series_of_starts_at_one(spec, cap):
    assert series_of(spec, cap).coeffs[0] == 1


@given(algebra_specs(), st.integers(0, 20), st.data())
def test_tensor_factorization_over_generator_split(spec, cap, data):
    k = data.draw(st.integers(0, len(spec.degrees)))
    left = AlgebraSpec(spec.degrees[:k])
    right = AlgebraSpec(spec.degrees[k:])
    combined = series_of(spec, cap)
    split = mul(series_of(left, cap), series_of(right, cap))
    assert combined.coeffs == split.coeffs


def test_repeated_generator_degree_counts_twice():
    # Z/2[x2, x2']: degree 2k has the k + 1 monomials x2^a x2'^(k - a)
    assert series_of(AlgebraSpec((2, 2, 9)), 6).coeffs == (1, 0, 2, 0, 3, 0, 4)


@given(capped_specs())
def test_series_of_equals_chain_of_convolutions(spec_cap):
    spec, cap = spec_cap
    assert series_of(spec, cap).coeffs == convolution_product(spec.degrees, cap).coeffs


def test_ring_series_fits_u64_through_cap_539():
    gens = [d for d in range(2, 541) if not is_excluded(d)]
    assert series_of(AlgebraSpec(gens), 539).coeffs[539] <= U64_MAX
    with pytest.raises(OverflowError, match="degree 540 "):
        series_of(AlgebraSpec(gens), 540)


def test_a_build_after_an_overflowing_one_resumes_from_it(monkeypatch):
    # series_of records its build before the 64-bit check, so the call after
    # one that overflowed runs only its own new degrees, and names the same
    # lowest overflow as a cold call.
    gens = [d for d in range(2, 601) if not is_excluded(d)]
    done = len([d for d in gens if d <= 100])
    cobfilt.series._last = None
    with pytest.raises(OverflowError) as cold:
        series_of(AlgebraSpec(gens), 600)
    passes = record_passes(monkeypatch)
    with pytest.raises(OverflowError, match="^coefficient in degree 542 exceeds the 64-bit bound$"):
        series_of(AlgebraSpec(gens[:done]), 600)
    passes.clear()
    with pytest.raises(OverflowError) as resumed:
        series_of(AlgebraSpec(gens), 600)
    assert str(resumed.value) == str(cold.value) == "coefficient in degree 540 exceeds the 64-bit bound"
    assert passes == gens[done:]


# ---------------------------------------------------------------------------
# mul


def test_mul_matches_hand_convolution():
    a = TruncatedSeries((1, 0, 1, 0, 1))
    b = TruncatedSeries((1, 1, 1, 2, 2))
    assert mul(a, b).coeffs == (1, 1, 2, 3, 4)


def test_mul_unit_is_identity():
    a = TruncatedSeries((3, 1, 4, 1, 5))
    assert mul(a, TruncatedSeries((1,) + (0,) * 4)).coeffs == a.coeffs


def test_mul_truncates():
    a = TruncatedSeries((1, 1))
    assert mul(a, a).coeffs == (1, 2)


def test_mul_cap_mismatch():
    with pytest.raises(ValueError) as raised:
        mul(TruncatedSeries((1,) + (0,) * 3), TruncatedSeries((1,) + (0,) * 4))
    assert str(raised.value) == "cap mismatch: 3 != 4"


@given(series_pairs())
def test_mul_commutative(pair):
    a, b = pair
    assert mul(a, b).coeffs == mul(b, a).coeffs


@given(series_triples())
def test_mul_associative(triple):
    a, b, c = triple
    assert mul(mul(a, b), c).coeffs == mul(a, mul(b, c)).coeffs


@given(series_pairs(max_cap=10, max_coeff=8))
def test_mul_agrees_with_brute_convolution(pair):
    a, b = pair
    assert mul(a, b).coeffs == brute_convolution(a, b)


@st.composite
def sparse_series(draw, cap, max_terms=3, max_coeff=1000):
    # a few nonzero terms in random degrees, the rest zero
    coeffs = [0] * (cap + 1)
    for t in draw(st.sets(st.integers(0, cap), max_size=max_terms)):
        coeffs[t] = draw(st.integers(1, max_coeff))
    return TruncatedSeries(tuple(coeffs))


def dense_series(cap, max_coeff=1000):
    return st.lists(st.integers(1, max_coeff), min_size=cap + 1, max_size=cap + 1).map(
        lambda coeffs: TruncatedSeries(tuple(coeffs))
    )


def mixed_series(cap, max_coeff=1000):
    # zero or not at random in every degree
    coefficient = st.one_of(st.just(0), st.integers(1, max_coeff))
    return st.lists(coefficient, min_size=cap + 1, max_size=cap + 1).map(
        lambda coeffs: TruncatedSeries(tuple(coeffs))
    )


SPARSITIES = {"sparse": sparse_series, "dense": dense_series, "mixed": mixed_series}


@pytest.mark.parametrize("left,right", [("sparse", "dense"), ("dense", "sparse"), ("mixed", "mixed")])
@given(cap=st.integers(0, 24), data=st.data())
def test_mul_agrees_with_brute_convolution_at_every_sparsity(left, right, cap, data):
    a = data.draw(SPARSITIES[left](cap))
    b = data.draw(SPARSITIES[right](cap))
    assert mul(a, b).coeffs == brute_convolution(a, b)


# A sparse operand whose nonzero coefficients are 1 in some degrees and
# above 1 in others, one of them in the top degree, and a dense one.
SPARSE_MIXED = TruncatedSeries((1, 0, 3, 0, 1, 0, 0, 2))
DENSE = TruncatedSeries((1, 2, 1, 1, 3, 1, 2, 1))
# degree 6: 1*2 + 3*3 + 1*1; degree 7: 1*1 + 3*1 + 1*1 + 2*1
PRODUCT = (1, 2, 4, 7, 7, 6, 12, 7)


def test_mul_with_unit_and_larger_coefficients_up_to_the_top_degree():
    assert mul(SPARSE_MIXED, DENSE).coeffs == mul(DENSE, SPARSE_MIXED).coeffs == PRODUCT
    assert brute_convolution(SPARSE_MIXED, DENSE) == PRODUCT


# ---------------------------------------------------------------------------
# exact_div


def test_exact_div_inverts_the_mul_example():
    a = TruncatedSeries((1, 1, 2, 3, 4))
    b = TruncatedSeries((1, 1, 1, 2, 2))
    assert exact_div(a, b).coeffs == (1, 0, 1, 0, 1)


def test_exact_div_with_unit_and_larger_quotient_coefficients_up_to_the_top_degree():
    assert exact_div(TruncatedSeries(PRODUCT), DENSE) == SPARSE_MIXED
    assert long_division(TruncatedSeries(PRODUCT), DENSE) == SPARSE_MIXED.coeffs


def test_exact_div_by_self_is_unit():
    b = TruncatedSeries((1, 2, 0, 3, 1, 1))
    assert exact_div(b, b).coeffs == (1, 0, 0, 0, 0, 0)


def test_exact_div_detects_negative_coefficient():
    a = TruncatedSeries((1, 0, 1))
    b = TruncatedSeries((1, 1, 0))
    with pytest.raises(NotDivisibleError, match="degree 1"):
        exact_div(a, b)


def test_exact_div_requires_unit_constant_term():
    a = TruncatedSeries((1, 0, 1))
    with pytest.raises(ValueError, match="constant coefficient"):
        exact_div(a, TruncatedSeries((0, 1, 0)))


@given(series_pairs())
def test_exact_div_round_trip(pair):
    a, b = pair
    b = TruncatedSeries((1,) + b.coeffs[1:])
    assert exact_div(mul(a, b), b).coeffs == a.coeffs


def long_division(a, b):
    # the degree-by-degree formula: a[t] minus b[u] q[t - u] for u = 1..t
    q = []
    for t in range(a.cap + 1):
        acc = a.coeffs[t] - sum(b.coeffs[u] * q[t - u] for u in range(1, t + 1))
        if acc < 0:
            raise NotDivisibleError(f"quotient coefficient in degree {t} would be {acc}")
        q.append(acc)
    return tuple(q)


def unit_constant(series):
    return TruncatedSeries((1,) + series.coeffs[1:])


@pytest.mark.parametrize("quotient,divisor", [("sparse", "dense"), ("dense", "sparse"), ("mixed", "mixed")])
@given(cap=st.integers(0, 20), data=st.data())
def test_exact_div_agrees_with_long_division_on_divisible_pairs(quotient, divisor, cap, data):
    q = data.draw(SPARSITIES[quotient](cap, max_coeff=50))
    b = unit_constant(data.draw(SPARSITIES[divisor](cap, max_coeff=50)))
    a = mul(q, b)
    assert exact_div(a, b).coeffs == long_division(a, b) == q.coeffs


@pytest.mark.parametrize("dividend,divisor", [("sparse", "dense"), ("dense", "sparse"), ("mixed", "mixed")])
@given(cap=st.integers(0, 20), data=st.data())
def test_exact_div_agrees_with_long_division_on_any_pair(dividend, divisor, cap, data):
    # mostly not divisible: both must refuse in the same degree with the same message
    a = data.draw(SPARSITIES[dividend](cap, max_coeff=50))
    b = unit_constant(data.draw(SPARSITIES[divisor](cap, max_coeff=50)))
    try:
        expected = long_division(a, b)
    except NotDivisibleError as exc:
        with pytest.raises(NotDivisibleError) as raised:
            exact_div(a, b)
        assert str(raised.value) == str(exc)
    else:
        assert exact_div(a, b).coeffs == expected


# ---------------------------------------------------------------------------
# simple_system_series


def test_simple_system_even_base():
    assert simple_system_series(2, 8).coeffs == (1, 0, 1, 0, 1, 0, 1, 0, 1)


def test_simple_system_degree_one():
    assert simple_system_series(1, 4).coeffs == (1, 1, 1, 1, 1)


def test_simple_system_base_five():
    assert simple_system_series(5, 9).coeffs == (1, 0, 0, 0, 0, 1, 0, 0, 0, 0)


@given(st.integers(1, 20), st.integers(0, 40))
def test_simple_system_equals_brute_force_product(d, cap):
    product = TruncatedSeries((1,) + (0,) * cap)
    e = d
    while e <= cap:
        factor = TruncatedSeries(tuple(int(t in (0, e)) for t in range(cap + 1)))
        product = TruncatedSeries(brute_convolution(product, factor))
        e *= 2
    assert simple_system_series(d, cap).coeffs == product.coeffs


@given(st.integers(1, 32), st.integers(0, 64))
def test_simple_system_equals_polynomial_series(d, cap):
    assert simple_system_series(d, cap).coeffs == series_of(AlgebraSpec((d,)), cap).coeffs


# ---------------------------------------------------------------------------
# containers and bounds


def test_coeff_length_must_match_cap():
    # the cap is len(coeffs) - 1, so the only length without a cap is zero
    with pytest.raises(ValueError, match="degree-0 coefficient"):
        TruncatedSeries(())
    assert TruncatedSeries((1, 0, 2)).cap == 2


@pytest.mark.parametrize(
    "build",
    [lambda cap: series_of(AlgebraSpec(()), cap), lambda cap: series_of(AlgebraSpec((1,)), cap),
     lambda cap: simple_system_series(1, cap)],
    ids=["unit", "series_of", "simple_system_series"],
)
@pytest.mark.parametrize("cap", [-1, -5])
def test_negative_cap_rejected(build, cap):
    # without a guard, [1] + [0] * cap would quietly build a cap-0 series
    with pytest.raises(ValueError) as raised:
        build(cap)
    assert str(raised.value) == f"cap must be >= 0, got {cap}"


def test_exact_div_cap_mismatch():
    with pytest.raises(ValueError) as raised:
        exact_div(TruncatedSeries((1,) + (0,) * 3), TruncatedSeries((1,) + (0,) * 4))
    assert str(raised.value) == "cap mismatch: 3 != 4"


def test_negative_coefficient_rejected():
    with pytest.raises(ValueError, match="negative"):
        TruncatedSeries((1, -2))


def test_overflowing_coefficient_rejected():
    with pytest.raises(OverflowError):
        TruncatedSeries((1, U64_MAX + 1))


def test_mul_overflow_is_detected_not_wrapped():
    a = TruncatedSeries((1, U64_MAX))
    b = TruncatedSeries((1, 1))
    with pytest.raises(OverflowError):
        mul(a, b)


@pytest.mark.parametrize("cap", [0, 1, 7, 64])
def test_u64_max_is_accepted_in_every_degree(cap):
    for t in range(cap + 1):
        coeffs = [0] * (cap + 1)
        coeffs[t] = U64_MAX
        assert TruncatedSeries(coeffs).coeffs == tuple(coeffs)
    assert TruncatedSeries([U64_MAX] * (cap + 1)).coeffs == (U64_MAX,) * (cap + 1)


def test_non_integer_coefficient_rejected():
    with pytest.raises(ValueError, match="not an integer"):
        TruncatedSeries((True, False))
    with pytest.raises(ValueError, match="not an integer"):
        TruncatedSeries((1, 1.0))


class Count(int):
    # an int subclass: array("Q") packs it, the container must refuse it
    def __repr__(self):
        return f"Count({int(self)})"


class Index:
    # not an int, but array("Q") packs it through __index__
    def __index__(self):
        return 3

    def __repr__(self):
        return "Index()"


def test_the_range_check_calls_no_index():
    # the type check comes first, so no coefficient's __index__ runs
    class Loud(Index):
        def __index__(self):
            raise AssertionError("__index__ was called")

    with pytest.raises(ValueError) as raised:
        TruncatedSeries((1, Loud()))
    assert str(raised.value) == "coefficient in degree 1 is not an integer: Index()"


# Each fault, and the error the container must raise for it in degree t.
FAULTS = {
    "bool": (True, ValueError, "coefficient in degree {t} is not an integer: True"),
    "float": (2.0, ValueError, "coefficient in degree {t} is not an integer: 2.0"),
    "int subclass": (Count(4), ValueError, "coefficient in degree {t} is not an integer: Count(4)"),
    "__index__": (Index(), ValueError, "coefficient in degree {t} is not an integer: Index()"),
    "negative": (-3, ValueError, "negative coefficient -3 in degree {t}"),
    "too large": (U64_MAX + 1, OverflowError, "coefficient in degree {t} exceeds the 64-bit bound"),
}


@given(cap=st.integers(0, 30), data=st.data())
def test_series_with_several_faults_names_the_lowest(cap, data):
    coeffs = data.draw(coefficient_lists(cap, max_coeff=U64_MAX))
    faults = data.draw(
        st.dictionaries(st.integers(0, cap), st.sampled_from(sorted(FAULTS)), min_size=1, max_size=4)
    )
    for t, kind in faults.items():
        coeffs[t] = FAULTS[kind][0]
    lowest = min(faults)
    _, error, message = FAULTS[faults[lowest]]
    with pytest.raises(error) as raised:
        TruncatedSeries(tuple(coeffs))
    assert type(raised.value) is error
    assert str(raised.value) == message.format(t=lowest)


def test_generator_degree_must_be_positive():
    with pytest.raises(ValueError, match="degree"):
        AlgebraSpec((2, 0))
