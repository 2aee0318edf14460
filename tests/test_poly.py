"""Exact polynomial and rational-function arithmetic."""

import gc
import math
import re
import weakref

import pytest
from hypothesis import assume, given, settings, strategies as st

from kahan_aromas.linalg import P
from kahan_aromas.poly import (
    PointEvaluator,
    Polynomial,
    PolynomialBatch,
    RationalFunction,
    divexact,
    pack_exponents,
    rf_substitute,
    unpack_exponents,
)
from kahan_aromas.rationals import Rat, format_rat, parse_rat, safe_repr
from oracles import evaluate_term_by_term, h_series, rf_substitute_term_by_term

NV = 4  # two x-variables plus h, u


def x(i, nv=NV):
    return Polynomial.variable(nv, i)


def const(v, nv=NV):
    return Polynomial.const(nv, v)


def rationals():
    return st.builds(Rat, st.integers(-6, 6), st.integers(1, 5))


@st.composite
def polys(draw, nv=NV, max_terms=5, max_exp=3):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = tuple(draw(st.integers(0, max_exp)) for _ in range(nv))
        terms[exps] = draw(rationals())
    p = Polynomial.zero(nv)
    for e, c in terms.items():
        p = p + Polynomial.monomial(nv, e, c)
    return p


def test_difference_of_squares():
    assert (x(0) + x(1)) * (x(0) - x(1)) == x(0) ** 2 - x(1) ** 2


def test_partial_derivative():
    assert (x(0) ** 2 * x(1)).partial_derivative(0) == x(0) * x(1) * 2


def test_substitute_polynomials_simultaneous():
    # x <-> y swap must be simultaneous, not sequential
    p = x(0) + x(1) * 2
    q = rf_substitute(p, [x(1), x(0)], const(1), 1)
    assert q == x(1) + x(0) * 2


def test_substitution_via_rf_path():
    # x <- x/(1-hx) applied to x^2 gives x^2/(1-hx)^2
    h = x(2)
    den = const(1) - h * x(0)
    num = rf_substitute(x(0) ** 2, [x(0), x(1)], den, 2)
    assert num == x(0) ** 2


@pytest.mark.parametrize(
    "p,clear,expected",
    [
        ("x", 1, "x"),
        ("x2", 2, "x2"),
        ("x+1", 1, "1+x-hx"),
    ],
)
def test_rf_substitute_spec_examples(p, clear, expected):
    nv = 3  # one x plus h, u
    xx = Polynomial.variable(nv, 0)
    h = Polynomial.variable(nv, 1)
    one = Polynomial.const(nv, 1)
    den = one - h * xx
    inputs = {"x": xx, "x2": xx**2, "x+1": xx + one}
    want = {"x": xx, "x2": xx**2, "1+x-hx": one + xx - h * xx}
    assert rf_substitute(inputs[p], [xx], den, clear) == want[expected]


def test_rf_substitute_requires_enough_clearing():
    nv = 3
    xx = Polynomial.variable(nv, 0)
    den = Polynomial.const(nv, 1) - Polynomial.variable(nv, 1) * xx
    with pytest.raises(ValueError):
        rf_substitute(xx**2, [xx], den, 1)


def test_rf_substitute_frees_its_cache_without_the_cycle_collector():
    class Cache(dict):  # a dict subclass, so it can be weakly referenced
        pass

    h = x(2)
    den = const(1) - h * x(0)
    cache = Cache()
    alive = weakref.ref(cache)
    collecting = gc.isenabled()
    gc.disable()
    try:
        got = rf_substitute(x(0) ** 2 * x(1), [x(0) + h, x(1) * den], den, 3, cache)
        assert len(cache) > 1
        del cache
        assert alive() is None
    finally:
        if collecting:
            gc.enable()
    assert got == (x(0) + h) ** 2 * x(1) * den


@given(polys(), st.integers(0, 2))
def test_rf_substitute_clearing_degree_shift(p, extra):
    h = x(2)
    den = const(1) - h * x(0) + x(1) * Rat(1, 2)
    nums = [x(0) + x(1), x(0) * x(1) + const(1)]
    k = p.x_degree() + extra
    assert rf_substitute(p, nums, den, k + 1) == den * rf_substitute(p, nums, den, k)


def kernel_coefficients():
    """Small rationals, and large ones with large denominators."""
    big = st.builds(Rat, st.integers(-(10**30), 10**30), st.integers(1, 10**9))
    return st.one_of(rationals(), big)


@st.composite
def kernel_polys(draw, max_terms=4, max_exp=2):
    """A polynomial with x, h and u terms and a rational content."""
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = tuple(draw(st.integers(0, max_exp)) for _ in range(NV))
        terms[pack_exponents(exps)] = draw(kernel_coefficients())
    return Polynomial(NV, terms)


@given(
    kernel_polys(),
    st.lists(kernel_polys(max_terms=3), min_size=2, max_size=2),
    kernel_polys(max_terms=3),
    st.integers(0, 2),
    kernel_polys(max_terms=2),
    kernel_polys(max_terms=3),
)
@settings(max_examples=200)
def test_packed_kernel_matches_term_by_term_oracle(p, nums, den, extra, m, q):
    c = max(p.x_degree(), q.x_degree()) + extra
    assert rf_substitute(p, nums, den, c) == rf_substitute_term_by_term(p, nums, den, c)
    # a sum of multiplied substitutions, on a cache that the call before filled
    cache = {}
    rf_substitute(q, nums, den, c, cache)
    want = m * rf_substitute_term_by_term(p, nums, den, c) - rf_substitute_term_by_term(q, nums, den, c)
    assert rf_substitute([(m, p, c), (Polynomial.const(NV, -1), q, c)], nums, den, cache=cache) == want


@st.composite
def weighted_polys(draw, nv, weight, max_terms=3, max_exp=2):
    """A nonzero polynomial whose every term has h-degree = x-degree + weight."""
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        xs = [draw(st.integers(0, max_exp)) for _ in range(nv - 2)]
        xs[-1] += max(0, -weight - sum(xs))  # an h-degree below 0 needs more x_n
        exps = xs + [sum(xs) + weight, draw(st.integers(0, 1))]
        terms[pack_exponents(exps)] = draw(kernel_coefficients().filter(bool))
    return Polynomial(nv, terms)


@given(
    st.data(),
    st.integers(1, 3),
    st.integers(-1, 1),
    st.integers(-2, 1),
    st.integers(-1, 1),
    st.integers(0, 2),
)
@settings(max_examples=60, deadline=None)
def test_x_n_layout_matches_term_by_term_oracle(data, nx, wd, wp, wm, extra):
    # numerators one weight below the denominator, as in a Kahan map of a
    # homogeneous field, so S(q) has one weight whatever the x-degrees of q
    nv = nx + 2
    den = data.draw(weighted_polys(nv, wd))
    nums = [data.draw(weighted_polys(nv, wd - 1)) for _ in range(nx)]
    p = data.draw(weighted_polys(nv, wp))
    m = data.draw(weighted_polys(nv, wm, max_terms=2))
    q = data.draw(weighted_polys(nv, wp + wm))
    mixed = q * (Polynomial.const(nv, 1) + Polynomial.variable(nv, nx))  # two weights
    c = max(p.x_degree(), q.x_degree()) + extra
    cache = {}
    # the x_n and h layouts alternate, each call refilling the one cache
    for poly, xn in ((p, True), (mixed, False), (q, True), (mixed, False)):
        assert rf_substitute(poly, nums, den, c, cache) == rf_substitute_term_by_term(poly, nums, den, c)
        assert cache[0].xn is xn
    want = m * rf_substitute_term_by_term(p, nums, den, c) - rf_substitute_term_by_term(q, nums, den, c)
    assert rf_substitute([(m, p, c), (Polynomial.const(nv, -1), q, c)], nums, den, cache=cache) == want
    assert cache[0].xn


@st.composite
def top_degree_polys(draw, top, weight=None, max_terms=3):
    """A polynomial of x-degree exactly `top` (one term is drawn at it) with
    u terms; with a weight, every term has h-degree = x-degree + weight."""
    nx = NV - 2
    terms = {}
    for d in [top] + draw(st.lists(st.integers(0, top), max_size=max_terms - 1)):
        xs = [0] * nx
        for i in draw(st.lists(st.integers(0, nx - 1), min_size=d, max_size=d)):
            xs[i] += 1
        hdeg = draw(st.integers(0, 2)) if weight is None else d + weight
        exps = xs + [hdeg, draw(st.integers(0, 1))]
        terms[pack_exponents(exps)] = draw(kernel_coefficients().filter(bool))
    return Polynomial(NV, terms)


def _cache_x_degrees(cache) -> set[int]:
    return {sum(unpack_exponents(k, NV)[: NV - 2]) for k in cache}


@given(st.data(), st.booleans(), st.lists(st.integers(0, 4), min_size=2, max_size=2), st.integers(0, 1))
@settings(max_examples=40, deadline=None)
def test_top_degree_split_matches_term_by_term_oracle(data, xn, tops, extra):
    # the top x-degree of each pair goes through the last Horner step; the
    # x_n layout needs one weight per factor, the h layout gets two on den
    u, one = x(3), const(1)
    if xn:
        wd = data.draw(st.integers(0, 1))
        den = data.draw(weighted_polys(NV, wd))
        nums = [data.draw(weighted_polys(NV, wd - 1)) for _ in range(2)]
        weight = lambda: data.draw(st.integers(0, 1))
    else:
        # 1 and h give den two weights
        den = one + x(2) + data.draw(kernel_polys(max_terms=3)) * x(0)
        nums = [data.draw(kernel_polys(max_terms=3)) for _ in range(2)]
        weight = lambda: None
    cache = {}
    # calls of rising, then falling top degree, 0 and 1 included, each
    # refilling the one cache
    for top in (0, 1, 2, 4, 3, 1, 0):
        q = data.draw(top_degree_polys(top, weight()))
        c = top + extra
        assert rf_substitute(q, nums, den, c, cache) == rf_substitute_term_by_term(q, nums, den, c)
        assert cache[0].xn is xn or c == 0
        assert max(_cache_x_degrees(cache)) < 4  # no product of the top degree 4
    # two pairs of different top degrees, multipliers with u terms
    wp, wm = weight(), weight()
    p1 = data.draw(top_degree_polys(tops[0], wp))
    p2 = data.draw(top_degree_polys(tops[1], wp))
    m1 = data.draw(top_degree_polys(1, wm, max_terms=2)) * (one + u)
    m2 = data.draw(top_degree_polys(0, wm, max_terms=2)) * u
    c = max(tops) + extra
    want = m1 * rf_substitute_term_by_term(p1, nums, den, c) + m2 * rf_substitute_term_by_term(p2, nums, den, c)
    assert rf_substitute([(m1, p1, c), (m2, p2, c)], nums, den, cache=cache) == want
    assert cache[0].xn is xn or c == 0


@given(
    st.data(),
    st.booleans(),
    st.lists(st.integers(0, 3), min_size=2, max_size=2),
    st.lists(st.integers(0, 2), min_size=2, max_size=2),
)
@settings(max_examples=40, deadline=None)
def test_pairs_of_different_clear_powers_match_term_by_term_oracle(data, xn, tops, extras):
    # each pair clears at its own power c_j, the result over the largest; in
    # the x_n layout the second multiplier's weight makes up for c_1 - c_2
    c1, c2 = (top + extra for top, extra in zip(tops, extras))
    one = const(1)
    if xn:
        wd, wp, wm = (data.draw(st.integers(0, 1)) for _ in range(3))
        den = data.draw(weighted_polys(NV, wd))
        nums = [data.draw(weighted_polys(NV, wd - 1)) for _ in range(2)]
        p1, p2 = (data.draw(top_degree_polys(top, wp)) for top in tops)
        m1 = data.draw(weighted_polys(NV, wm, max_terms=2))
        m2 = data.draw(weighted_polys(NV, wm + (c1 - c2) * wd, max_terms=2))
    else:
        den = one + x(2) + data.draw(kernel_polys(max_terms=3)) * x(0)
        nums = [data.draw(kernel_polys(max_terms=3)) for _ in range(2)]
        p1, p2 = (data.draw(top_degree_polys(top)) for top in tops)
        m1, m2 = (data.draw(kernel_polys(max_terms=2).filter(lambda m: not m.is_zero())) for _ in range(2))
    want = m1 * rf_substitute_term_by_term(p1, nums, den, c1) + m2 * rf_substitute_term_by_term(p2, nums, den, c2)
    cache = {}
    # the second call replaces the power products that the first one cached
    for pairs in ([(m1, p1, c1), (m2, p2, c2)], [(m2, p2, c2), (m1, p1, c1)]):
        assert rf_substitute(pairs, nums, den, cache=cache) == want
        assert cache[0].xn is xn or max(c1, c2) == 0


def test_one_cache_passed_to_two_maps_in_turn_holds_each_calls_own_products():
    # power products of x2 under the first map are no power products under
    # the second, whose numerators share that x-key and layout
    x1, x2, one = x(0), x(1), const(1)
    cache = {}
    assert rf_substitute(x2**5, [x1, x2], one, 5, cache) == x2**5
    assert rf_substitute(x2**3, [x1 * x2, x2**2], one, 3, cache) == x2**6
    assert rf_substitute(x2**3, [x1 * x2, x2**2], one, 3, cache) == x2**6  # the same call again
    assert rf_substitute(x2**5, [x1, x2], one, 5, cache) == x2**5


def test_a_substitution_leaves_only_its_own_power_products_in_the_cache():
    # x2^5 builds x2^1..x2^4 (its top degree is peeled); x2^2 under the
    # same map then needs x2^1 only, and none of the first call's products
    x1, x2, one = x(0), x(1), const(1)
    cache = {}
    assert rf_substitute(x2**5, [x1, x2], one, 5, cache) == x2**5
    assert max(_cache_x_degrees(cache)) == 4
    assert rf_substitute(x2**2, [x1, x2], one, 2, cache) == x2**2
    assert _cache_x_degrees(cache) == {0, 1}
    assert rf_substitute(x2 - x2, [x1, x2], one, 2, cache).is_zero() and not cache  # no work, no products


@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@given(polys())
def test_degree_and_zero_invariants(p):
    assert (p - p).is_zero()
    for key, coeff in p.terms.items():
        assert coeff != 0


def test_series_in_h_geometric():
    nv = 3
    xx, h = Polynomial.variable(nv, 0), Polynomial.variable(nv, 1)
    one = Polynomial.const(nv, 1)
    assert h_series(one, one - h * xx, 2) == [one, xx, xx**2]
    assert h_series(xx, one - h * xx, 1) == [xx, xx**2]


def test_series_in_h_rejects_vanishing_denominator():
    nv = 3
    h = Polynomial.variable(nv, 1)
    with pytest.raises(ZeroDivisionError):
        h_series(Polynomial.const(nv, 1), h, 2)


@given(polys(max_terms=4, max_exp=2), st.integers(1, 4))
def test_series_in_h_defining_property(num, order):
    h = x(2)
    den = const(1) + h * x(0) - h**2 * x(1)
    coeffs = h_series(num, den, order)
    acc = Polynomial.zero(NV)
    for k, c in enumerate(coeffs):
        acc = acc + c * h**k
    difference = acc * den - num
    for k in range(order + 1):
        assert difference.coefficient_of_h(k).is_zero()


def test_divexact():
    a = (x(0) + x(1)) * (x(0) - x(1) * 2 + const(3))
    assert divexact(a, x(0) + x(1)) == x(0) - x(1) * 2 + const(3)
    with pytest.raises(ValueError):
        divexact(x(0) ** 2 + const(1), x(0) + x(1))


def test_rational_function_cross_equality():
    one = const(1)
    a = RationalFunction(x(0) * x(1), x(0))
    b = RationalFunction(x(1) * x(0) ** 2, x(0) ** 2)
    assert a == b
    assert a != RationalFunction(x(1) + one, one)


def test_polynomial_json_roundtrip():
    p = x(0) ** 2 * Rat(3, 4) - x(1) * Rat(1, 2) + const(5)
    data = p.to_json()
    assert all(isinstance(c, str) for _, c in data)
    assert Polynomial.from_json(data, NV) == p
    assert Polynomial.from_json([], nvars=NV).is_zero()
    # ints keep their meaning; a JSON float or bool has no exact rational one
    assert Polynomial.from_json([[[1, 0, 0, 0], 3], [[0, 0, 0, 0], "-1/2"]], NV) == (
        x(0) * Rat(3) - const(1) * Rat(1, 2)
    )
    for bad in (0.1, 2.0, True, False, None):
        with pytest.raises(ValueError, match="expected an integer or a rational string 'p/q', got "):
            Polynomial.from_json([[[1, 0, 0, 0], bad]], NV)


def test_mixed_variable_universes_rejected():
    with pytest.raises(ValueError):
        x(0) + Polynomial.variable(5, 0)
    with pytest.raises(ValueError):
        Polynomial.monomial(3, (1, 0, 0, 0))
    with pytest.raises(ValueError):
        Polynomial.from_json([[[1, 0], "1"]], nvars=3)
    # a substitution refuses a polynomial, numerator or multiplier of
    # another universe, even one whose x-degrees would fit
    foreign, one = Polynomial.variable(5, 0), const(1)
    for p, nums in ((foreign, [x(0), x(1)]), (x(0), [x(0), foreign])):
        with pytest.raises(ValueError, match="different variable universes"):
            rf_substitute(p, nums, one, 1)
    with pytest.raises(ValueError, match="different variable universes"):
        rf_substitute([(foreign, x(0), 1)], [x(0), x(1)], one)


def test_exponent_overflow_raises():
    # packed exponents must not carry into the next variable (x1^1200 is
    # not x1^176*x2)
    p = x(0) ** 600
    with pytest.raises(ValueError):
        p * p
    with pytest.raises(ValueError):
        x(0) ** 1100
    with pytest.raises(ValueError):
        (x(0) ** 500 + x(1)) ** 3
    assert (x(0) ** 600 + x(1) ** 700) * x(0) ** 423 == x(0) ** 1023 + x(0) ** 423 * x(1) ** 700
    # the bitwise OR of the exponents, 600 | 424 = 1016, overestimates the degree
    assert (x(0) ** 600 + x(0) ** 424) * x(0) ** 300 == x(0) ** 900 + x(0) ** 724
    nv = 3
    xx, h = Polynomial.variable(nv, 0), Polynomial.variable(nv, 1)
    with pytest.raises(ValueError):
        rf_substitute(xx**600, [xx**2], Polynomial.const(nv, 1) - h * xx, 600)


def test_substitution_h_degree_overflow_raises():
    # every factor fits, but h^300 to the fourth passes 1023 only in the result
    nv = 3
    xx, h = Polynomial.variable(nv, 0), Polynomial.variable(nv, 1)
    one = Polynomial.const(nv, 1)
    with pytest.raises(ValueError, match="degree 1200 in h"):
        rf_substitute(xx**4, [h**300 * xx], one, 4)
    with pytest.raises(ValueError, match="in h"):
        rf_substitute([(h**24, xx**4, 4)], [h**250 * xx], one - h * xx)
    assert rf_substitute(xx**3, [h**341 * xx], one, 3) == h**1023 * xx**3


@pytest.mark.parametrize("nx", [1, 2])
def test_substitution_x_n_degree_overflow_raises(nx):
    # homogeneous inputs take the x_n layout, where x_n lives in the ints
    nv = nx + 2
    xs = [Polynomial.variable(nv, i) for i in range(nx)]
    one = Polynomial.const(nv, 1)
    cache = {}
    assert rf_substitute(xs[-1] ** 1023, xs, one, 1023, cache) == xs[-1] ** 1023
    assert cache[0].xn
    # x_n^512 under x_i -> x_i x_n, one weight for every numerator again
    times_x_n = [xi * xs[-1] for xi in xs]
    assert rf_substitute(xs[-1] ** 511, times_x_n, one, 511) == xs[-1] ** 1022
    with pytest.raises(ValueError, match=f"degree 1024 in x{nx} exceeds the packable 1023"):
        rf_substitute(xs[-1] ** 512, times_x_n, one, 512)


# -- the content x primitive-integer representation --------------------------


@st.composite
def rational_dicts(draw, nv=NV, max_terms=5, max_exp=3):
    """A packed key -> rational dict, zero coefficients included."""
    out = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = [draw(st.integers(0, max_exp)) for _ in range(nv)]
        out[pack_exponents(exps)] = draw(rationals())
    return out


def assert_canonical(p):
    assert all(isinstance(v, int) and v for v in p.terms.values())
    if p.terms:
        assert math.gcd(*p.terms.values()) == 1
        assert p.terms[max(p.terms)] > 0
        assert p.content != 0
    else:
        assert p.content == 0


def rational_value(p):
    return {k: p.coefficient(k) for k in p.terms}


@given(polys(), polys(), rationals())
def test_every_result_is_canonical(a, b, c):
    results = [a + b, a - b, a * b, a * c, -a, a**2, a.subs_h_negated()]
    results += [a.partial_derivative(i) for i in range(NV)]
    results += list(a.h_coefficients().values())
    if not b.is_zero():
        results.append(divexact(a * b, b))
    for r in results:
        assert_canonical(r)


@given(rational_dicts())
def test_rational_dict_round_trips_through_json(coeffs):
    p = Polynomial(NV, coeffs)
    expected = [
        [list(unpack_exponents(k, NV)), format_rat(c)] for k, c in sorted(coeffs.items()) if c != 0
    ]
    assert p.to_json() == expected
    assert Polynomial.from_json(p.to_json(), NV).to_json() == expected
    assert rational_value(p) == {k: c for k, c in coeffs.items() if c != 0}


@given(polys(), polys(), rationals())
def test_equality_and_hash_follow_the_rational_value(a, b, c):
    assert (a == b) == (rational_value(a) == rational_value(b))
    same = Polynomial(NV, rational_value(a))
    assert same == a and hash(same) == hash(a)
    assume(c != 0)
    scaled = (a * c) * (1 / c)
    assert scaled == a and hash(scaled) == hash(a)


@given(polys(), polys())
def test_divexact_inverts_multiplication(a, b):
    assume(not b.is_zero())
    assert divexact(a * b, b) == a


@given(polys(), st.lists(rationals(), min_size=NV, max_size=NV))
def test_point_evaluator_matches_termwise_evaluation(p, point):
    expected = Rat(0)
    for exps, c in p.sorted_terms():
        term = c
        for v, e in zip(point, exps):
            term *= v**e
        expected += term
    ev = PointEvaluator(NV, point)
    batch = PolynomialBatch([p])
    assert batch.evaluate(ev) == [expected]
    assert batch.evaluate(ev) == [expected]  # again: a point holds no state of its evaluation


@given(st.lists(polys(), max_size=4), st.lists(rationals(), min_size=NV, max_size=NV))
def test_polynomial_batch_matches_point_evaluator(ps, point):
    # zero and constant polynomials included; u may be nonzero at the point
    ps = ps + [const(0), const(Rat(-3, 2))]
    batch = PolynomialBatch(ps)
    ev = PointEvaluator(NV, point)
    values, scale = batch.monomial_values(ev)
    got = [c * s / scale for c, s in zip(batch.contents, batch.dot(values))]
    expected = [evaluate_term_by_term(p, point) for p in ps]
    assert got == batch.evaluate(ev) == expected
    # the values of two points combine linearly before the dot products
    other = PointEvaluator(NV, point[::-1])
    more, more_scale = batch.monomial_values(other)
    combined = batch.dot([2 * v * more_scale - w * scale for v, w in zip(values, more)])
    assert [c * s / (scale * more_scale) for c, s in zip(batch.contents, combined)] == [
        2 * e - evaluate_term_by_term(p, point[::-1]) for p, e in zip(ps, expected)
    ]


@given(st.lists(polys(max_exp=6), max_size=4), st.lists(rationals(), min_size=NV, max_size=NV))
def test_plan_of_both_rings_matches_termwise_evaluation(ps, point):
    # one compiled plan: at a rational point and at its residues mod P each
    # value is the term-by-term one, exactly and reduced mod P
    ps = ps + [const(0), const(Rat(-3, 2))]
    batch = PolynomialBatch(ps)
    expected = [evaluate_term_by_term(p, point) for p in ps]
    assert batch.evaluate(PointEvaluator(NV, point)) == expected
    residues = [residue(v) for v in point]
    values, scale = batch.monomial_values(residues)
    assert scale == 1 and all(0 <= v < P for v in values)
    assert batch.evaluate(residues) == [residue(e) for e in expected]


def residue(v: Rat) -> int:
    return v.numerator * pow(v.denominator, -1, P) % P


@pytest.mark.parametrize(
    "value",
    [Rat(-(7**9000), 11**5000), Rat(7**9000, 11**5000), Rat(10**5000), Rat(-(10**5000) + 1, 3)],
    ids=["negative", "positive", "power-of-ten", "negative-integer"],
)
def test_parse_rat_reads_back_what_format_rat_writes(value):
    # 5,000 digits or more: int() and Fraction refuse a string this long
    text = format_rat(value)
    assert min(len(part.lstrip("-")) for part in text.split("/")) >= 5000
    assert parse_rat(text) == value and parse_rat(f" {text} ") == value


def test_parse_rat_reads_only_integers_and_p_over_q():
    # Fraction's own syntax once read "1e1000000" as an int of a million digits
    assert parse_rat("+6/4") == Rat(3, 2) and parse_rat(" 3/4 ") == Rat(3, 4)
    assert parse_rat(7) == 7 and parse_rat(Rat(1, 2)) == Rat(1, 2)
    assert format_rat(-(7**1000)) == "-" + str(7**1000)  # 2,808 bits, written in parts
    with pytest.raises(ValueError, match="zero denominator"):
        parse_rat("5/0")
    for bad in ["1e1000000", "1.5", "1_000", "0x10", "inf", "", "+-1", "abc", "1 /2", True, 0.5, None]:
        with pytest.raises(ValueError, match=f"^expected an integer or a rational string 'p/q', got {re.escape(repr(bad))}$"):
            parse_rat(bad)


def test_safe_repr_cuts_a_long_repr_to_its_first_80_characters():
    assert safe_repr("x" * 78) == repr("x" * 78)  # 80 characters with its quotes
    assert safe_repr("x" * 79) == repr("x" * 79)[:80] + "... (81 characters)"
    assert safe_repr(7**10_000) == f"an integer of {len(format_rat(7**10_000))} digits"
    with pytest.raises(ValueError, match=r"^zero denominator in '1/0{77}\.\.\. \(10003 characters\)$"):
        parse_rat("1/" + "0" * 9999)


def test_rational_function_equality_when_neither_denominator_divides():
    x1, x2, x3, h = (Polynomial.variable(5, i) for i in range(4))
    r = RationalFunction(x1 * x3, x2 * x3)
    assert r == RationalFunction(x1 * h, x2 * h)
    assert not r == RationalFunction(x1 * x1, x2 * h)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: pack_exponents([-1]), ValueError, "exponent -1 out of packable range"),
        (lambda: Polynomial.variable(3, 3), ValueError, "variable index 3 out of range for nvars=3"),
        (lambda: x(0) ** -1, ValueError, "negative powers are not polynomials"),
        (lambda: divexact(x(0), Polynomial.zero(NV)), ZeroDivisionError, "division by the zero polynomial"),
        (lambda: RationalFunction(x(0), Polynomial.zero(NV)), ZeroDivisionError, "rational function with zero denominator"),
        (
            lambda: rf_substitute(x(0), [x(0)], const(1), 1),
            ValueError,
            "substitution map arity does not match the x-variable count",
        ),
        (lambda: PointEvaluator(NV, [1, 2]), ValueError, "point arity does not match variable count"),
    ],
    ids=["exponent-range", "variable-index", "negative-power", "divide-by-zero", "zero-denominator", "substitution-arity", "point-arity"],
)
def test_poly_input_errors(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value) == message
