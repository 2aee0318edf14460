"""Coproducts, the determinant functional, and the Q operator.

The multiplication and composition lemmas are tested as exact series
identities against straight polynomial evaluation (the independent oracle
for the coalgebraic route), and the Q machinery against hand-derived small
rows and the defect identity it must satisfy.
"""

import random
from collections import Counter

import pytest

from kahan_aromas.coalgebra import (
    _aroma_cuts,
    CoefficientFunctional,
    TruncationError,
    compose_with_bseries,
    coproduct_comodule,
    coproduct_disjoint,
    counit,
    eta,
    eta_functional,
    kahan_coeff,
    multiply_functionals,
    q_apply,
    q_functional,
    q_row,
    series_evaluate,
)
from kahan_aromas.corpus import random_quadratic_field
from kahan_aromas.fields import KahanMap
from kahan_aromas.graphs import (
    AromaMultiset,
    EMPTY_FOREST,
    Forest,
    LEAF,
    LOOP,
    LOOP_WITH_TAIL,
    TAILED_TWO_CYCLE,
    THREE_CYCLE,
    TWO_CYCLE,
    UNIT,
    enumerate_aromas,
    enumerate_multisets,
    parse_any,
    parse_forest,
    parse_multiset,
    tall_tree,
)
from kahan_aromas.poly import PointEvaluator, Polynomial, PolynomialBatch
from kahan_aromas.rationals import Rat
from oracles import aroma_cuts_by_vertex_subsets


def _ms(*aromas):
    return AromaMultiset(tuple(aromas))


def test_coproduct_disjoint_unit_and_single():
    assert coproduct_disjoint(UNIT) == {(UNIT, UNIT): Rat(1)}
    t = _ms(TAILED_TWO_CYCLE)
    cop = coproduct_disjoint(t)
    assert cop == {(UNIT, t): Rat(1), (t, UNIT): Rat(1)}


def test_coproduct_disjoint_worked_example():
    # Delta(L L LT) has six terms with multiplicities 1,2,1,1,2,1
    m = _ms(LOOP, LOOP, LOOP_WITH_TAIL)
    cop = coproduct_disjoint(m)
    L, LT = _ms(LOOP), _ms(LOOP_WITH_TAIL)
    LL = _ms(LOOP, LOOP)
    LLT = _ms(LOOP, LOOP_WITH_TAIL)
    expected = {
        (UNIT, m): Rat(1),
        (L, LLT): Rat(2),
        (LT, LL): Rat(1),
        (LL, LT): Rat(1),
        (LLT, L): Rat(2),
        (m, UNIT): Rat(1),
    }
    assert cop == expected


def test_coproduct_counit_laws():
    for mset in enumerate_multisets(5):
        cop = coproduct_disjoint(mset)
        left = [c for (b, d), c in cop.items() if b == UNIT and d == mset]
        right = [c for (b, d), c in cop.items() if d == UNIT and b == mset]
        assert left == [Rat(1)] and right == [Rat(1)]
        # pairing all-ones (x) all-ones counts submultisets with multiplicity
        total = sum(cop.values())
        expect = 1
        for _, mult in mset.classes():
            expect *= 2**mult
        assert total == expect


def test_coproduct_comodule_worked_examples():
    assert coproduct_comodule(UNIT) == {(EMPTY_FOREST, UNIT): Rat(1)}
    cop = coproduct_comodule(_ms(TAILED_TWO_CYCLE))
    dot = Forest((LEAF,))
    assert cop == {
        (EMPTY_FOREST, _ms(TAILED_TWO_CYCLE)): Rat(1),
        (dot, _ms(TWO_CYCLE)): Rat(1),
    }
    # bare cycles have no cuttable edges
    assert coproduct_comodule(_ms(THREE_CYCLE)) == {
        (EMPTY_FOREST, _ms(THREE_CYCLE)): Rat(1)
    }


def test_coproduct_comodule_admissible_cuts_only():
    # loop with a 2-chain: cutting both chain edges is a nested (inadmissible) cut
    lc2 = parse_any("C1([[]])")
    cop = coproduct_comodule(lc2)
    keys = {(f.encoding, m.encoding) for (f, m) in cop}
    assert keys == {
        ("", "C1([[]])"),
        ("[[]]", "C1()"),
        ("[]", "C1([])"),
    }
    # loop with two direct tails: the double cut is admissible (not nested)
    ltt = parse_any("C1([][])")
    cop2 = coproduct_comodule(ltt)
    assert cop2[(Forest((LEAF,)), _ms(LOOP_WITH_TAIL))] == Rat(2)
    assert cop2[(Forest((LEAF, LEAF)), _ms(LOOP))] == Rat(1)


def test_recursive_cuts_match_vertex_subsets():
    # every aroma up to order 7, each cut counted with its multiplicity
    for order in range(1, 8):
        for aroma in enumerate_aromas(order):
            got = Counter((f.encoding, a.encoding) for f, a in _aroma_cuts(aroma))
            want = Counter(
                (f.encoding, a.encoding) for f, a in aroma_cuts_by_vertex_subsets(aroma)
            )
            assert got == want, aroma.encoding


def test_kahan_coefficients():
    assert kahan_coeff(Forest((LEAF,))) == 1
    assert kahan_coeff(Forest((tall_tree(3),))) == Rat(1, 4)
    assert kahan_coeff(Forest((parse_any("[[][]]"),))) == 0
    assert kahan_coeff(EMPTY_FOREST) == 1
    assert kahan_coeff(parse_forest("[][[]]")) == Rat(1, 2)


def test_eta_values():
    u = Rat(1, 2)
    assert eta(u, UNIT) == 1
    assert eta(u, _ms(LOOP)) == u
    assert eta(u, _ms(TWO_CYCLE)) == -(u**2)
    assert eta(u, _ms(LOOP, LOOP)) == u**2
    assert eta(u, _ms(TAILED_TWO_CYCLE)) == 0
    assert eta(Rat(-1, 2), _ms(THREE_CYCLE)) == Rat(-1, 8)


def test_multiply_functionals_counit_and_loop():
    eps = counit(3)
    gamma = CoefficientFunctional({_ms(LOOP): Rat(2), _ms(TWO_CYCLE): Rat(5)}, 3)
    assert multiply_functionals(eps, gamma).support == gamma.support
    g0 = CoefficientFunctional({UNIT: Rat(3), _ms(LOOP): Rat(1)}, 2)
    g1 = CoefficientFunctional({UNIT: Rat(1), _ms(LOOP): Rat(4)}, 2)
    prod = multiply_functionals(g0, g1)
    # (g0 g1)(loop) = g0(1) g1(loop) + g0(loop) g1(1)
    assert prod.value(_ms(LOOP)) == Rat(3) * Rat(4) + Rat(1) * Rat(1)


def test_multiplication_lemma_series_oracle():
    rng = random.Random(101)
    f = random_quadratic_field(rng, 2)
    sup0 = {m: Rat(rng.randint(-3, 3)) for m in enumerate_multisets(2)}
    sup1 = {m: Rat(rng.randint(-3, 3)) for m in enumerate_multisets(2)}
    g0 = CoefficientFunctional(sup0, 4)
    g1 = CoefficientFunctional(sup1, 4)
    lhs = series_evaluate(g0, f, 2) * series_evaluate(g1, f, 2)
    rhs = series_evaluate(multiply_functionals(g0, g1), f, 4)
    for k in range(5):
        assert lhs.coefficient_of_h(k) == rhs.coefficient_of_h(k)


def test_composition_lemma_series_oracle():
    rng = random.Random(103)
    f = random_quadratic_field(rng, 2)
    support = {m: Rat(rng.randint(-3, 3)) for m in enumerate_multisets(2)}
    gamma = CoefficientFunctional(support, 4)
    composed = compose_with_bseries(kahan_coeff, gamma)
    P = series_evaluate(gamma, f, 2)
    kmap = KahanMap(f)
    D = max(P.x_degree(), f.dim)
    from kahan_aromas.poly import RationalFunction, series_in_h

    lhs = series_in_h(RationalFunction(kmap.substitute(P, D), kmap.den**D), 4)
    rhs = series_evaluate(composed, f, 4)
    for k in range(5):
        assert lhs[k] == rhs.coefficient_of_h(k)


def test_compose_requires_unital_b():
    with pytest.raises(ValueError):
        compose_with_bseries(lambda forest: Rat(0), counit(2))


def test_truncation_is_loud():
    gamma = CoefficientFunctional({_ms(LOOP): Rat(1)}, 1)
    with pytest.raises(TruncationError):
        gamma.value(_ms(TWO_CYCLE))
    with pytest.raises(TruncationError):
        q_apply(gamma, _ms(TWO_CYCLE))
    with pytest.raises(TruncationError):
        series_evaluate(gamma, random_quadratic_field(random.Random(0), 2), 2)


Q_TABLE_SMALL = {
    # alpha encoding -> {beta encoding: coefficient of gamma(beta)}; every row
    # re-derived by hand from the triple-pairing definition
    "1": {},
    "C1()": {"1": Rat(-1)},
    "C1([])": {"C1()": Rat(1), "1": Rat(-1, 2)},
    "C2(;)": {},
    "C1()*C1()": {"C1()": Rat(-2)},
    "C2(;[])": {"C2(;)": Rat(1), "1": Rat(1, 4)},
    "C1([[]])": {"C1([])": Rat(1), "C1()": Rat(1, 2), "1": Rat(-1, 4)},
    "C3(;;)": {"1": Rat(-1, 4)},
    "C1()*C1([])": {
        "C1()*C1()": Rat(1),
        "C1([])": Rat(-1),
        "C1()": Rat(-1),
        "1": Rat(-1, 4),
    },
    "C1()*C2(;)": {"C2(;)": Rat(-1), "1": Rat(1, 4)},
    "C1()*C1()*C1()": {"C1()*C1()": Rat(-3), "1": Rat(-1, 4)},
}

# the row for the two-tailed loop, whose F vanishes on every quadratic field
TWO_TAIL_ROW = ("C1([][])", {"C1([])": Rat(2), "C1()": Rat(1), "1": Rat(-1, 2)})


def test_q_rows_match_hand_derived_table():
    for enc, expected in Q_TABLE_SMALL.items():
        row = q_row(parse_multiset(enc))
        assert {m.encoding: v for m, v in row.items()} == expected, enc


def test_q_row_for_the_two_tailed_loop_is_pinned():
    enc, expected = TWO_TAIL_ROW
    row = q_row(parse_multiset(enc))
    assert {m.encoding: v for m, v in row.items()} == expected


def test_central_identity_exact_series():
    # N_{-h/2} P(Phi) - P N_{h/2}(Phi) == B(Q(gamma)) through h^5
    rng = random.Random(107)
    for trial in range(4):
        n = 2 + trial % 2
        f = random_quadratic_field(rng, n)
        support = {
            m: Rat(rng.randint(-4, 4)) for m in enumerate_multisets(3)
        }
        gamma5 = CoefficientFunctional(support, 5)
        P = series_evaluate(CoefficientFunctional(support, 3), f, 3)
        lhs = KahanMap(f).darboux_defect_series(P, 5)
        rhs = series_evaluate(q_functional(gamma5), f, 5)
        for k in range(6):
            assert lhs[k] == rhs.coefficient_of_h(k), (trial, k)


def test_eta_functional_expands_determinant():
    rng = random.Random(109)
    n = 3
    f = random_quadratic_field(rng, n)
    u = Rat(-1, 2)
    gamma = eta_functional(u, n)
    B = series_evaluate(gamma, f, n)
    assert B == KahanMap(f).den  # det(I - (h/2) f'(x))
    eps = counit(0)
    assert series_evaluate(eps, f, 0) == Polynomial.const(f.nvars, 1)


def test_newton_u_minus_one_first_order():
    rng = random.Random(113)
    f = random_quadratic_field(rng, 2)
    gamma = eta_functional(Rat(-1), 1)
    B = series_evaluate(gamma, f, 1)
    assert B.coefficient_of_h(1) == -f.divergence()


def test_series_evaluate_at_point():
    rng = random.Random(211)
    f = random_quadratic_field(rng, 2)
    gamma = CoefficientFunctional({_ms(LOOP): Rat(2), UNIT: Rat(1)}, 1)
    full = series_evaluate(gamma, f, 1)
    hval = Rat(1, 3)
    ev = PointEvaluator(f.nvars, [Rat(1, 2), Rat(-2), hval, Rat(0)])
    at_point, divergence = PolynomialBatch([full, f.divergence()]).evaluate(ev)
    # B = 1 + 2 h F(C1()) / sigma(C1()), and F(C1()) is the divergence
    assert at_point == 1 + 2 * hval * divergence


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: CoefficientFunctional({_ms(THREE_CYCLE): 1}, 2),
            "truncation_order below the maximal supported order",
        ),
    ],
    ids=["truncation-below-support"],
)
def test_coalgebra_input_errors(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message
