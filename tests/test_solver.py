"""Basis selection, kernel relations, and the Darboux solve/verify cycle."""

import functools
import hashlib
import itertools
import json
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kahan_aromas.corpus import (
    SYSTEMS,
    dressing_chain,
    get_system,
    ishii,
    lv,
    lv_divfree,
    lv_special,
    nambu_homogeneous,
    random_cubic_polynomial,
    random_ishii_params,
    random_quadratic_field,
    random_symmetric,
    random_vector,
)
from kahan_aromas.fields import (
    KahanMap,
    QuadraticVectorField,
    _combination,
    _weighted_polys,
    affine_pullback,
    hamiltonian_field,
)
from kahan_aromas.graphs import (
    AromaMultiset,
    LOOP,
    TAILED_TWO_CYCLE,
    THREE_CYCLE,
    TWO_CYCLE,
    enumerate_multisets,
    parse_multiset,
)
from kahan_aromas.linalg import P, in_span, intersect_rowspaces, nullspace, pivot_columns, rank, rref
from kahan_aromas.poly import PointEvaluator, Polynomial, PolynomialBatch
from kahan_aromas.rationals import ONE, Rat, ZERO, format_rat
from kahan_aromas.solver import (
    SolverError,
    _coefficient_rows,
    _find_constrained_density,
    _order4_proportional_pairs,
    _refute_or_confirm,
    _solve_sector,
    build_basis,
    conjecture_check,
    density_span_solve,
    first_integrals,
    gamma_space,
    kernel_relations,
    necessary_conditions,
    parameter_independent_solve,
    sector_multisets,
    solve_darboux,
    verify_density,
)
from oracles import (
    contains_self_loop,
    h_support,
    monomial_basis,
    parameter_independent_over_every_coordinate,
    proportionality,
    random_invertible,
    random_skew,
    residual_row_by_polynomials,
    rref_by_fractions,
    solve_by_symbolic_assembly,
    verify_density_by_expansion,
)


def X(i, nv=5):
    return Polynomial.variable(nv, i)


def test_build_basis_zero_field():
    f = QuadraticVectorField([Polynomial.zero(4)] * 2)
    basis = build_basis(f, 3)
    assert [e.key for e in basis.elements] == ["1"]
    assert "C1()" in basis.dropped


def test_build_basis_one_dimensional_degeneracy():
    f = QuadraticVectorField([X(0, 3) ** 2])
    basis = build_basis(f, 2)
    keys = [e.key for e in basis.elements]
    # F(loop loop) = F(2-cycle) = (f')^2: exactly one of the two survives,
    # the earlier one in (order, encoding) order
    assert "C1()*C1()" in keys
    assert "C2(;)" in basis.dropped


def test_build_basis_divfree_drops_self_loops():
    basis = build_basis(lv_divfree(), 4)
    for el in basis.elements:
        assert not contains_self_loop(el.multiset)


def test_build_basis_rejects_h_in_augmenter():
    f = lv_divfree()
    h = Polynomial.variable(5, 3)
    with pytest.raises(ValueError):
        build_basis(f, 2, augmenters=[("bad", h)])


def test_build_basis_rejects_labels_that_break_the_keys():
    # "C2(;)*C2(;)" would name both a plain multiset and an augmented element
    # and a label given twice would key two elements alike
    f = lv_divfree()
    x1, x2 = Polynomial.variable(5, 0), Polynomial.variable(5, 1)
    for augmenters, message in (
        ([("C2(;)", x1)], "label 'C2(;)' must not start with 'C' or contain '*'"),
        ([("Cx", x1)], "label 'Cx' must not start with 'C' or contain '*'"),
        ([("I*0", x1)], "label 'I*0' must not start with 'C' or contain '*'"),
        ([("a", x1), ("a", x2)], "label 'a' is used twice"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            build_basis(f, 4, augmenters=augmenters, parity="even")
    keys = [el.key for el in build_basis(f, 4, [("I0", x1)], "even").elements]
    assert len(keys) == len(set(keys))


def test_kernel_relations_generic_counts():
    rng = random.Random(7)
    f = random_quadratic_field(rng, 3)
    rel2 = kernel_relations(f, 2)
    assert rel2.relations == []  # no accidental relations for a generic draw
    rel3 = kernel_relations(f, 3)
    # exactly the quadratic indegree kernel: the two-tailed loop
    assert len(rel3.relations) == 1
    encs = [m.encoding for m in rel3.multisets]
    vec = [ZERO] * len(encs)
    vec[encs.index("C1([][])")] = Rat(1)
    assert rel3.contains(vec)


def test_kernel_relations_divfree_four_cycle():
    rng = random.Random(11)
    from kahan_aromas.corpus import (
        divfree_homogeneous_r3,
        random_divfree_homogeneous_r3_params,
    )

    f = divfree_homogeneous_r3(**random_divfree_homogeneous_r3_params(rng))
    rel = kernel_relations(f, 4)
    encs = [m.encoding for m in rel.multisets]
    vec = [ZERO] * len(encs)
    vec[encs.index("C4(;;;)")] = Rat(1)
    vec[encs.index("C2(;)*C2(;)")] = Rat(-1, 2)
    assert rel.contains(vec)


def test_kernel_relations_hamiltonian_three_cycle():
    from kahan_aromas.corpus import random_cubic_polynomial
    from kahan_aromas.fields import hamiltonian_field

    rng = random.Random(13)
    f = hamiltonian_field(random_skew(rng, 2), random_cubic_polynomial(rng, 2))
    rel = kernel_relations(f, 3)
    encs = [m.encoding for m in rel.multisets]
    vec = [ZERO] * len(encs)
    vec[encs.index("C3(;;)")] = Rat(1)
    assert rel.contains(vec)


def test_contains_refuses_a_vector_of_the_wrong_length():
    # an extra nonzero entry used to be ignored, so a vector outside the
    # space was reported inside it; one entry short raised IndexError
    rel = kernel_relations(lv_divfree(), 3)
    pis = parameter_independent_solve([lv_divfree() for _ in range(3)], 3, 2)
    for owner, vec in ((rel, rel.relations[0]), (pis, pis.space[0])):
        assert owner.contains(vec)
        for wrong in (vec + [Rat(5)], vec[:-1]):
            with pytest.raises(ValueError, match="entries"):
                owner.contains(wrong)


def test_solve_zero_field_everything_solves():
    f = QuadraticVectorField([Polynomial.zero(4)] * 2)
    sol = solve_darboux(f, 2, parity="both")
    # Phi = id and det DPhi = 1: the whole (one-element) basis solves
    assert len(sol.densities) == 1
    assert sol.densities[0] == Polynomial.const(4, 1)


def test_an_empty_sector_has_no_density():
    # order 0 has no odd multiset: the first draw leaves a full echelon of rank 0
    sol = solve_darboux(lv_divfree(), 0, parity="odd")
    assert sol.bases["odd"].elements == [] and sol.bases["odd"].dropped == []
    assert sol.densities == [] and sol.gammas == []
    assert sol.method == "sampled"


def test_solve_lv_divfree_golden():
    sol = solve_darboux(lv_divfree(), 4, parity="even", seed=0)
    target = Polynomial.const(5, 1) - lv_divfree().aroma_function(TWO_CYCLE) * (
        X(3) ** 2
    ) * Rat(1, 8)
    assert density_span_solve(sol.densities, target) is not None
    assert any(
        g.get("1") == 1 and g.get("C2(;)") == Rat(-1, 4) for g in sol.gammas
    )


def test_solve_lv_special_h_independent_sector():
    sol = solve_darboux(lv_special(), 4, parity="both", seed=1)
    target = X(2) ** 2 * X(3) ** 2 * Rat(-4)
    assert density_span_solve(sol.densities, target) is not None
    assert sol.parities
    for density, parity in zip(sol.densities, sol.parities):
        # a sector's weighted basis holds only even or only odd powers of h
        assert {s % 2 for s in h_support(density)} == {1 if parity == "odd" else 0}


def _span_coordinates_by_transposes(densities, target):
    """Coordinates of target over the densities by transposing the columns of
    their coefficient rows into `linalg.in_span`, which transposes them back."""
    rows = _coefficient_rows(densities + [target])
    columns = [[row[j] for row in rows] for j in range(len(densities) + 1)]
    return in_span(columns[:-1], columns[-1], len(rows))


def test_density_span_solve_matches_the_transposed_in_span_route():
    f = lv_special()
    densities = solve_darboux(f, 4, parity="even", seed=0).densities
    h2 = X(3) ** 2
    # the h^0 + h^2 layers that `_find_constrained_density` solves over
    layers = [d.coefficient_of_h(0) + d.coefficient_of_h(2) * h2 for d in densities]
    assert rank(_coefficient_rows(densities), 3) == 3
    assert rank(_coefficient_rows(layers), 3) == 1
    cases = [
        (densities, densities[0] * 2 + densities[1] - densities[2] * Rat(1, 3)),
        (layers, layers[1] * Rat(5, 2)),
        (densities, Polynomial.zero(f.nvars)),
        (densities, X(0) * h2),
        ([], Polynomial.zero(f.nvars)),  # the empty combination
        ([densities[0], densities[1], densities[0]], densities[0] * 3 - densities[1]),  # a repeat
    ]
    got = [density_span_solve(polys, target) for polys, target in cases]
    assert got == [_span_coordinates_by_transposes(polys, target) for polys, target in cases]
    assert got[0] == [2, 1, Rat(-1, 3)] and got[2] == [0, 0, 0] and got[3] is None and got[4] == []
    assert got[5] == [3, -1, 0]  # the repeated density is a free column
    assert _combination(f.nvars, layers, got[1]) == layers[1] * Rat(5, 2)


# order 4, even, seed 0: the monomial density count, then for each aroma
# density its gamma support and its number of monomial terms
MONOMIAL_ANSATZ = {
    "canonical_hamiltonian": (3, [(2, 4)]),
    "divfree_homogeneous_r3": (0, []),
    "dressing_chain": (4, [(2, 4)]),
    "ishii": (4, [(1, 1)]),
    "lv": (6, [(2, 7)]),
    "lv_divfree": (6, [(2, 7)]),
    "lv_special": (7, [(2, 1), (3, 4), (5, 6)]),
    "nambu_homogeneous": (6, [(3, 22), (3, 19)]),
    "nambu_inhomogeneous": (0, []),
}


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_aroma_densities_lie_in_the_monomial_density_space(name):
    # the paper's comparison: a monomial ansatz finds at least the aroma
    # densities, which take fewer terms in gamma than in monomials
    f = get_system(name, None, seed=0)
    _, monomial, _ = _solve_sector(f, monomial_basis(f.dim), 0)
    sol = solve_darboux(f, 4, "even", seed=0)
    assert all(density_span_solve(monomial, d) is not None for d in sol.densities)
    shape = [(len(gamma), len(d.terms)) for gamma, d in zip(sol.gammas, sol.densities)]
    assert (len(monomial), shape) == MONOMIAL_ANSATZ[name]


def test_solve_nambu_dimension_two():
    rng = random.Random(3)
    f = nambu_homogeneous(random_symmetric(rng), random_symmetric(rng))
    sol = solve_darboux(f, 4, parity="even", seed=3)
    assert len(sol.densities) == 2
    fc2 = f.aroma_function(TWO_CYCLE)
    gt = Polynomial.const(5, 1) - fc2 * X(3) ** 2 * Rat(1, 24)
    assert density_span_solve(sol.densities, gt * gt) is not None


def test_sampled_discovery_agrees_with_symbolic_assembly():
    rng = random.Random(17)
    for trial in range(2):
        f = random_quadratic_field(rng, 2)
        kmap = KahanMap(f)
        sol = solve_darboux(f, 3, parity="both", seed=trial)
        for sector, basis in sol.bases.items():
            sym_vectors = solve_by_symbolic_assembly(kmap, basis)
            sampled = [
                [g.get(el.key, ZERO) for el in basis.elements]
                for g, d in zip(sol.gammas, sol.densities)
                if h_support(d)
                and all(
                    (s % 2 == 0) == (sector == "even") for s in h_support(d)
                )
            ]
            ncols = len(basis.elements)
            assert rref(sym_vectors, ncols) == rref(sampled, ncols)


def test_verify_density_examples():
    params, _ = random_ishii_params(random.Random(5))
    f = ishii(**params)
    assert verify_density(f, Polynomial.const(5, 1)).verified
    from kahan_aromas.corpus import random_cubic_polynomial

    rng = random.Random(19)
    J = [[0, 1], [-1, 0]]
    from kahan_aromas.fields import hamiltonian_field

    H = random_cubic_polynomial(rng, 2)
    g = hamiltonian_field(J, H)
    assert verify_density(g, KahanMap(g).den).verified
    # P = x is generically not a density: expect a witness point
    bad = verify_density(lv_special(), X(0))
    assert not bad.verified
    assert bad.witness is not None
    xs, h, residual = bad.witness
    assert residual != 0


def _verification_cases():
    """True corpus densities, each of them plus h^2 x1^2, and x1*u, whose
    nonzero defect vanishes at every sample point (u = 0 there), so that
    `verify_density` refuses it."""
    f_div = lv_divfree()
    f_spec = lv_special()
    f_ishii = ishii(**random_ishii_params(random.Random(5))[0])
    f_ham = hamiltonian_field(
        [[0, 1], [-1, 0]], random_cubic_polynomial(random.Random(19), 2)
    )
    h = X(3)
    true = [
        (f_div, Polynomial.const(5, 1) - f_div.aroma_function(TWO_CYCLE) * h**2 * Rat(1, 8)),
        (f_spec, X(2) ** 2 * h**2 * Rat(-4)),
        (f_ishii, Polynomial.const(5, 1)),
        (f_ham, KahanMap(f_ham).den),
    ]
    perturbed = [
        (f, P + X(f.dim, f.nvars) ** 2 * X(0, f.nvars) ** 2) for f, P in true
    ]
    return true, perturbed, (f_div, X(0) * X(4))


def _verify_or_error(verify, field, P, seed):
    try:
        return verify(field, P, seed=seed)
    except SolverError as exc:
        return str(exc)


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_verify_density_matches_expansion_oracle(seed):
    true, perturbed, (f_u, p_u) = _verification_cases()
    for f, P in true + perturbed:
        got = _verify_or_error(verify_density, f, P, seed)
        assert got == _verify_or_error(verify_density_by_expansion, f, P, seed)
    # the oracle draws u = 0 only and finds no witness; the check refuses u
    assert "witness" in _verify_or_error(verify_density_by_expansion, f_u, p_u, seed)
    with pytest.raises(ValueError, match="must not involve u"):
        verify_density(f_u, p_u, seed=seed)
    for f, P in true:
        assert verify_density(f, P, seed=seed).verified
    witnesses = []
    for f, P in perturbed:
        result = verify_density(f, P, seed=seed)
        assert not result.verified and result.witness[2] != 0
        assert all(type(v) is Fraction for v in result.witness[0] + [result.witness[1]])
        witnesses.append(result.witness)
    # a density that vanishes at the first usable point and at its Kahan
    # image has a zero residual there: the witness is a later point
    f, P = perturbed[0]
    xs, h, _ = witnesses[0]
    ev = PointEvaluator(f.nvars, xs + [h, ZERO])
    _, image = KahanMap(f).apply_point(ev)
    shifted = P * (X(0) - Polynomial.const(5, xs[0])) * (X(0) - Polynomial.const(5, image[0]))
    got = verify_density(f, shifted, seed=seed)
    assert got == verify_density_by_expansion(f, shifted, seed=seed)
    assert not got.verified and got.witness[:2] != (xs, h)


def test_verify_density_expands_only_to_confirm(monkeypatch):
    calls = []
    expand = KahanMap.darboux_defect_cleared

    def counting(self, P):
        calls.append(P)
        return expand(self, P)

    monkeypatch.setattr(KahanMap, "darboux_defect_cleared", counting)
    true, perturbed, (f_u, p_u) = _verification_cases()
    f, P = perturbed[0]
    assert not verify_density(f, P).verified
    assert calls == []  # refuted at its first usable point, never expanded
    f, P = true[0]
    assert verify_density(f, P).verified
    assert len(calls) == 1
    with pytest.raises(ValueError, match="must not involve u"):
        verify_density(f_u, p_u)
    assert len(calls) == 1  # refused before any step or expansion
    with pytest.raises(ValueError, match="a density must be a nonzero polynomial"):
        verify_density(f, Polynomial.zero(f.nvars))
    assert len(calls) == 1  # the zero P, too
    with pytest.raises(SolverError, match="witness"):
        _refute_or_confirm(f_u.kahan_map(), p_u, random.Random(0))
    assert len(calls) == 2  # zero residual at every point, expanded once


def test_a_draw_with_h_zero_is_never_a_witness(monkeypatch):
    # at seeds 20 and 61 the first draw has h = 0, where Phi_0 is the identity
    # and every residual is zero: it is skipped, so the non-density 1 +
    # h^2 x1^2 is refuted at the next draw without an expansion, at the
    # witness that expanding first and then drawing again found
    from kahan_aromas.rationals import _random_pair

    f = lv_divfree()
    P = Polynomial.const(f.nvars, 1) + X(3) ** 2 * X(0) ** 2
    expanded = _counting(monkeypatch, KahanMap, "darboux_defect_cleared")
    witnesses = {
        20: (["-10", "3/2", "-16"], "-4", "3951927496/841"),
        61: (["-19/4", "2/3", "-4"], "3", "-86419804275/11026208"),
    }
    for seed, witness in witnesses.items():
        rng = random.Random(seed)
        assert [_random_pair(rng) for _ in range(f.dim + 1)][-1][0] == 0
        result = verify_density(f, P, seed=seed)
        xs, h, residual = result.witness
        assert not result.verified
        assert ([format_rat(x) for x in xs], format_rat(h), format_rat(residual)) == witness
    assert expanded == []


def test_verify_density_rejects_a_density_in_u():
    # x1^0 u: every drawn point has u = 0, so no step could refute it
    f = lv_divfree()
    for P in (X(4), X(4) * X(3) + 1, Polynomial.monomial(5, (0, 0, 0, 0, 3), 2)):
        with pytest.raises(ValueError, match="a density must not involve u"):
            verify_density(f, P)
    assert verify_density(f, Polynomial.const(5, 1) - f.aroma_function(TWO_CYCLE) * X(3) ** 2 * Rat(1, 8)).verified


def test_solve_and_verify_share_one_kahan_map(monkeypatch):
    built = []
    init = KahanMap.__init__

    def counting(self, field):
        built.append(field)
        init(self, field)

    monkeypatch.setattr(KahanMap, "__init__", counting)
    f = lv_divfree()
    sol = solve_darboux(f, 4, parity="even", seed=0)
    assert verify_density(f, sol.densities[0]).verified
    assert built == [f]


def test_each_kahan_step_evaluates_det_m_once(monkeypatch):
    # det(M) at x is both N_{-h/2}(x) and the denominator of the step; it is
    # evaluated only in a batch that compiled it, matched to the map's den
    # after the solve because the map compiles its batches while it is built
    kmaps, steps, compiled, evaluations = [], [], [], []
    init, apply_point = KahanMap.__init__, KahanMap.apply_point
    batch_init, batch_dot = PolynomialBatch.__init__, PolynomialBatch.dot

    def recording_init(self, field):
        init(self, field)
        kmaps.append(self)

    def counting_apply_point(self, ev):
        steps.append(ev)
        return apply_point(self, ev)

    def recording_batch_init(self, polys):
        batch_init(self, polys)
        compiled.append((self, list(polys)))

    def counting_dot(self, values):
        evaluations.append(self)
        return batch_dot(self, values)

    monkeypatch.setattr(KahanMap, "__init__", recording_init)
    monkeypatch.setattr(KahanMap, "apply_point", counting_apply_point)
    monkeypatch.setattr(PolynomialBatch, "__init__", recording_batch_init)
    monkeypatch.setattr(PolynomialBatch, "dot", counting_dot)
    solve_darboux(lv_divfree(), 4, parity="even")
    (kmap,) = kmaps
    den_batches = [b for b, polys in compiled if any(p is kmap.den for p in polys)]
    assert len(den_batches) == 1
    assert len(steps) == sum(b is den_batches[0] for b in evaluations) == 9


def test_building_a_kahan_map_compiles_its_two_batches(monkeypatch):
    # den with the numerators, and N_{h/2}; a step compiles none
    import kahan_aromas.solver as solver_mod

    compiled = []
    batch_init = PolynomialBatch.__init__

    def recording_batch_init(self, polys):
        batch_init(self, polys)
        compiled.append(list(polys))

    monkeypatch.setattr(PolynomialBatch, "__init__", recording_batch_init)
    kmap = KahanMap(lv_divfree())
    assert compiled == [[kmap.den] + kmap.numerators, [kmap.n_plus]]
    rng = random.Random(0)
    for _ in range(3):
        solver_mod._sample_point(rng, kmap, True)
    assert len(compiled) == 2


def test_a_polynomial_from_another_universe_is_refused():
    # the h of a 2-dim universe is not x3, and x3 of a 4-dim one is not u
    f = lv_divfree()
    with pytest.raises(ValueError, match="polynomials live in different variable universes"):
        verify_density(f, Polynomial.variable(4, 2))
    with pytest.raises(ValueError, match="polynomials live in different variable universes"):
        f.kahan_map().darboux_defect_cleared(Polynomial.variable(6, 4))


def test_first_integrals_errors():
    one = Polynomial.const(5, 1)
    with pytest.raises(ValueError):
        first_integrals([one])
    with pytest.raises(ValueError):
        first_integrals([one, one * 2])
    with pytest.raises(ValueError, match="first density is zero"):
        first_integrals([Polynomial.zero(5), X(0)])


def test_first_integrals_lv_special():
    z2 = X(2) ** 2 * X(3) ** 2 * Rat(-4)
    i1 = (X(0) + X(1) + X(2)) ** 2
    g3 = X(0) * X(1) * (X(0) + X(2)) * (X(1) + X(2)) * Rat(16) * X(3) ** 4
    ratios, count = first_integrals([z2, z2 * i1 * X(3) ** 2, g3])
    assert ratios[0] == i1 * X(3) ** 2
    assert count == 2


def test_necessary_conditions_reports():
    rep = necessary_conditions(lv_divfree())
    assert rep.div_free and rep.cond1.holds and rep.cond1.alpha == 0
    f = QuadraticVectorField([X(0, 3) ** 2 * Rat(1, 2)])  # div f = x
    rep2 = necessary_conditions(f)
    assert not rep2.div_free
    # 1-D x^2: F(loop-with-tail) = 2x^2 != 4x^2 = F(loop^2)
    g = QuadraticVectorField([X(0, 3) ** 2])
    assert not necessary_conditions(g).fcond2


# every corpus system at seeds 0-2 (the pins cover seed 0) and dense n = 3 fields
RATIO_FIELDS = {
    **{
        f"{name}-{seed}": lambda name=name, seed=seed: get_system(name, seed=seed)
        for name in sorted(SYSTEMS)
        for seed in (range(3) if SYSTEMS[name].random_params else (0,))
    },
    **{f"dense-{seed}": lambda seed=seed: random_quadratic_field(random.Random(seed), 3) for seed in range(3)},
}


@pytest.mark.parametrize("make", RATIO_FIELDS.values(), ids=RATIO_FIELDS.keys())
def test_cond1_alpha_and_order4_pairs_are_the_canonical_ratios(make):
    # both come from the span solve; the oracle reads each ratio off the
    # canonical forms
    f = make()
    c3, t2c = f.aroma_function(THREE_CYCLE), f.aroma_function(TAILED_TWO_CYCLE)
    assert necessary_conditions(f).cond1.alpha == proportionality(c3, t2c)
    order4 = [(m.encoding, f.aroma_function(m)) for m in sector_multisets(4, "even") if m.order == 4]
    assert _order4_proportional_pairs(f) == [
        (a, b, c)
        for (a, pa), (b, pb) in itertools.combinations(order4, 2)
        if not pa.is_zero() and (c := proportionality(pa, pb)) is not None
    ]


def test_even_density_with_unit_gamma_requires_divfree():
    # lv_special has div f != 0: no verified even density may carry gamma(1) != 0
    sol = solve_darboux(lv_special(), 4, parity="even", seed=2)
    for g in sol.gammas:
        assert g.get("1", ZERO) == 0


def test_gamma_space_equivariance_under_affine_maps():
    f = lv_divfree()
    coords = [m.encoding for m in enumerate_multisets(4, 2) if m.order % 2 == 0]
    base = gamma_space(solve_darboux(f, 4, parity="even", seed=4), coords)
    rng = random.Random(23)
    A = random_invertible(rng, 3)
    v = random_vector(rng, 3)
    g = affine_pullback(f, A, v)
    pulled = gamma_space(solve_darboux(g, 4, parity="even", seed=5), coords)
    assert base == pulled


def test_parameter_independent_single_field_matches_plain_solve():
    f = lv_divfree()
    pis = parameter_independent_solve([f, f], 2, 4, parity="even", seed=7)
    sol = solve_darboux(f, 4, parity="even", seed=7)
    reps = [row[0] for row in pis.densities if not row[0].is_zero()]
    for d in sol.densities:
        assert density_span_solve(reps, d) is not None
    for d in reps:
        assert density_span_solve(sol.densities, d) is not None


def test_family_solves_each_instance_through_solve_darboux(monkeypatch):
    # the family solve reaches every sector through the module globals that
    # a caller (or a tracer) can wrap: one solve per instance, one basis per
    # sector
    import kahan_aromas.solver as solver_mod

    calls = []

    def counting(name):
        real = getattr(solver_mod, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(solver_mod, name, wrapper)

    counting("solve_darboux")
    counting("build_basis")
    for parity, bases in (("even", 3), ("both", 6)):
        calls.clear()
        parameter_independent_solve([lv_divfree() for _ in range(3)], 3, 2, parity=parity)
        assert calls.count("solve_darboux") == 3
        assert calls.count("build_basis") == bases


def assert_matches_pairwise_intersection(fields, order, seed):
    """The family solve against the instances' whole solution spaces, each
    its gamma-space plus its kernel of F over every coordinate, intersected
    one pair at a time; the representatives are the space vectors outside
    the span of the common kernel and of the vectors before them.  Returns
    the solve and each instance's kernel size."""
    pis = parameter_independent_solve(fields, len(fields), order, parity="even", seed=seed)
    ncols = len(pis.coords)
    space = kernel = None
    kernel_sizes = []
    for idx, f in enumerate(fields):
        lifted = gamma_space(solve_darboux(f, order, parity="even", seed=seed + idx), pis.coords)
        h = Polynomial.variable(f.nvars, f.dim)
        polys = []
        for enc in pis.coords:
            m = parse_multiset(enc)
            polys.append(f.aroma_function(m) * h**m.order * Rat(1, m.sigma()))
        monomials = sorted({k for p in polys for k in p.terms})
        kern = nullspace([[p.coefficient(mk) for p in polys] for mk in monomials], ncols)
        s_i = rref(lifted + kern, ncols)
        kernel_sizes.append(len(kern))
        space = s_i if space is None else intersect_rowspaces([space, s_i], ncols)
        kernel = rref(kern, ncols) if kernel is None else intersect_rowspaces([kernel, kern], ncols)
    assert pis.space == space
    assert pis.common_kernel == kernel
    columns = kernel + space
    kept = pivot_columns([[v[j] for v in columns] for j in range(ncols)], len(columns))
    assert pis.representatives == [space[i - len(kernel)] for i in kept if i >= len(kernel)]
    return pis, kernel_sizes


def ishii_mix():
    """Ishii instances with k = 0 and with c = 0, whose kernels of F are
    larger than a generic one's, on either side of a generic instance."""
    generic = ishii(**random_ishii_params(random.Random(3))[0])
    return [ishii(1, 2, -1, 1, 3, 0), generic, ishii(1, 1, 0, 0, 0, 1)]


def ishii_draws():
    """The three Ishii draws of `scripts/bench_scale.py`'s family."""
    return [ishii(**random_ishii_params(random.Random(s))[0]) for s in range(3)]


def test_parameter_independent_matches_pairwise_intersection():
    # generic instances share one space at order 4
    pis, kernel_sizes = assert_matches_pairwise_intersection(ishii_mix(), 4, 11)
    assert kernel_sizes[0] > len(pis.common_kernel) < kernel_sizes[-1]


def test_parameter_independent_matches_pairwise_intersection_at_order_6():
    pis, kernel_sizes = assert_matches_pairwise_intersection(ishii_mix(), 6, 11)
    assert kernel_sizes[0] > len(pis.common_kernel) < kernel_sizes[-1]
    assert pis.dimension >= 1
    # the benchmark's family shape: 19 of the 94 coordinates seen
    assert assert_matches_pairwise_intersection(ishii_draws(), 6, 0)[0].dimension >= 1


@pytest.mark.parametrize(
    "fields, order, seed",
    [
        (ishii_mix(), 4, 11),
        (ishii_mix(), 6, 11),
        (ishii_draws(), 6, 0),
    ],
    ids=["ishii_mix_order4", "ishii_mix_order6", "ishii_draws_order6"],
)
def test_seen_coordinate_intersection_equals_the_full_one(fields, order, seed):
    # F = 0 on every Ishii instance at 13 of the 19 even coordinates of
    # order 4 and at 75 of the 94 of order 6; the solve intersects over the
    # others and lifts back what the intersection over every coordinate gives
    pis = parameter_independent_solve(fields, len(fields), order, parity="even", seed=seed)
    full = parameter_independent_over_every_coordinate(fields, len(fields), order, "even", seed)
    unseen = [enc for enc in pis.coords if all(f.aroma_function(parse_multiset(enc)).is_zero() for f in fields)]
    assert (len(unseen), len(pis.coords)) == {4: (13, 19), 6: (75, 94)}[order]
    for name in ("coords", "space", "common_kernel", "representatives", "densities", "dimension"):
        assert getattr(pis, name) == getattr(full, name), name


def test_an_intersection_outside_an_instance_span_is_refused(monkeypatch):
    # a space intersection that keeps every vector puts single weighted
    # aromatic functions among the representatives, which are densities of
    # no instance: the span of the instance's densities refuses them
    import kahan_aromas.solver as solver_mod

    calls = []

    def identity_space(spaces, ncols):
        # the one intersection is the space's
        calls.append(ncols)
        return [[ONE if i == j else ZERO for j in range(ncols)] for i in range(ncols)]

    monkeypatch.setattr(solver_mod, "intersect_rowspaces", identity_space)
    spans = _counting(monkeypatch, solver_mod, "density_span_solve")
    with pytest.raises(SolverError, match="no density of every instance"):
        parameter_independent_solve(ishii_mix(), 3, 4, parity="even", seed=11)
    assert len(calls) == 1
    assert spans[-1] and solver_mod.density_span_solve(*spans[-1]) is None


def test_parameter_independent_with_no_common_kernel():
    # lv_special and an affine pullback of it share no relation among the
    # weighted aromatic functions up to order 2: every column is free
    rng = random.Random(23)
    g = affine_pullback(lv_special(), random_invertible(rng, 3), random_vector(rng, 3))
    pis, kernel_sizes = assert_matches_pairwise_intersection([lv_special(), g], 2, 0)
    assert kernel_sizes == [0, 0] and pis.common_kernel == []
    assert pis.dimension == 1


def test_parameter_independent_with_an_instance_without_density():
    # a linear field with trace 2 has det DPhi != 1 and no density at all, but
    # a kernel of F large enough to hold the Nambu instances' density
    linear = QuadraticVectorField([X(0) + X(1), X(1) * 2, -X(2)])
    assert solve_darboux(linear, 4, parity="even", seed=2).gammas == []
    fields = [get_system("nambu_homogeneous", seed=s) for s in range(2)] + [linear]
    pis, _ = assert_matches_pairwise_intersection(fields, 4, 0)
    assert pis.dimension == 1
    assert all(per_instance[-1].is_zero() for per_instance in pis.densities)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_coefficient_rows_are_the_coefficient_matrix_times_its_lcm(name):
    import kahan_aromas.solver as solver_mod

    f = get_system(name, seed=0)
    polys = _weighted_polys(
        f, [(f.aroma_function(m), m.order, m.sigma()) for m in sector_multisets(4, "both")]
    )
    monomials = sorted({k for p in polys for k in p.terms})
    matrix = [[p.coefficient(mk) for p in polys] for mk in monomials]
    lcm = math.lcm(*(v.denominator for row in matrix for v in row))
    rows = solver_mod._coefficient_rows(polys)
    assert all(type(v) is int for row in rows for v in row)
    assert rows == [[lcm * v for v in row] for row in matrix]


def test_parameter_independent_output_is_pinned():
    # SHA-256 of the space, common kernel, representatives and densities on
    # three Ishii draws, taken before the family solve moved onto `linalg`
    fields = [ishii(**random_ishii_params(random.Random(s))[0]) for s in range(3)]
    pis = parameter_independent_solve(fields, 3, 6, parity="even", seed=0)
    rows = lambda vectors: [[format_rat(v) for v in vec] for vec in vectors]
    text = json.dumps(
        {
            "space": rows(pis.space),
            "common_kernel": rows(pis.common_kernel),
            "representatives": rows(pis.representatives),
            "densities": [[p.to_json() for p in per] for per in pis.densities],
        },
        sort_keys=True,
    )
    digest = "f1577e9e2b6be04547fe6d42e05d7854ec59dfcf1bd014483d5afa9b1b3d5e45"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_parameter_independent_requires_two_instances():
    with pytest.raises(ValueError):
        parameter_independent_solve([lv_divfree()], 1, 2)


def test_conjecture_requires_applicable_field():
    with pytest.raises(ValueError):
        conjecture_check(lv_special())  # not divergence-free
    with pytest.raises(ValueError):
        conjecture_check(QuadraticVectorField([Polynomial.zero(4)] * 2))  # wrong dimension


def test_conjecture_lv_divfree():
    rep = conjecture_check(lv_divfree())
    assert rep.hypothesis_holds and rep.alpha == 0
    assert rep.density_found
    assert rep.gamma_two_cycle == Rat(-1, 4)


def test_conjecture_degenerate_both_zero():
    # f = (y^2, 0, 0): homogeneous, divergence-free, F(tailed-2-cycle) = 0
    f = QuadraticVectorField([X(1) ** 2, Polynomial.zero(5), Polynomial.zero(5)])
    rep = conjecture_check(f)
    assert rep.tailed_two_cycle_zero
    assert rep.hypothesis_holds  # both sides vanish


def test_conjecture_hypothesis_fails_for_generic_draw():
    from kahan_aromas.corpus import (
        divfree_homogeneous_r3,
        random_divfree_homogeneous_r3_params,
    )

    rng = random.Random(29)
    hits = 0
    for _ in range(3):
        f = divfree_homogeneous_r3(**random_divfree_homogeneous_r3_params(rng))
        rep = conjecture_check(f)
        if not rep.hypothesis_holds:
            hits += 1
            assert rep.density_found is None
    assert hits >= 1  # generic draws violate the proportionality


def test_solution_report_round_trip():
    from kahan_aromas.cli import solver_report

    f = lv_divfree()
    sol = solve_darboux(f, 4, parity="even", seed=0)
    report = solver_report(sol)
    assert report["order"] == 4
    for s in report["solutions"]:
        P = Polynomial.from_json(s["polynomial"], f.nvars)
        assert verify_density(f, P).verified


@pytest.mark.parametrize("name, order", [("lv_divfree", 4), ("ishii", 4)])
def test_unlucky_discovery_is_refined(monkeypatch, name, order):
    # every discovery row of a ring at one Kahan step: the sampled nullspace
    # is far too large, and refinement at fresh steps must cut it down to the
    # exact solution space, expanding each returned density once and nothing
    # else
    import kahan_aromas.solver as solver_mod

    f = get_system(name, seed=0)
    expected = solve_darboux(f, order, parity="both", seed=0)
    assert expected.method == "sampled"

    real_sample_point = solver_mod._sample_point
    first = {}  # ring (modular or not) -> its one step

    def one_step(rng, kmap, modular):
        if modular not in first:
            first[modular] = real_sample_point(rng, kmap, modular)
        return first[modular]

    expanded = []
    real_defect = KahanMap.darboux_defect_cleared

    def counting_defect(self, P):
        expanded.append(P)
        return real_defect(self, P)

    monkeypatch.setattr(solver_mod, "_sample_point", one_step)
    monkeypatch.setattr(KahanMap, "darboux_defect_cleared", counting_defect)
    sol = solve_darboux(f, order, parity="both", seed=0)
    assert sol.method == "refined"
    assert sol.gammas == expected.gammas
    assert sol.densities == expected.densities
    assert sorted(map(str, expanded)) == sorted(map(str, sol.densities))


def _discovery_draws(monkeypatch, f, order, sector, seed=0):
    """The solution of one sector and the number of discovery steps it drew
    (checks draw their steps elsewhere, not through _sample_point)."""
    import kahan_aromas.solver as solver_mod

    real_sample_point = solver_mod._sample_point
    draws = []

    def counting(rng, kmap, modular):
        draws.append(None)
        return real_sample_point(rng, kmap, modular)

    monkeypatch.setattr(solver_mod, "_sample_point", counting)
    sol = solve_darboux(f, order, parity=sector, seed=seed)
    monkeypatch.undo()
    return sol, len(draws)


def _dense_random_field():
    """A quadratic field on R^3 with all 30 coefficients nonzero."""
    rng = random.Random(8)
    nonzero = lambda: rng.choice([-2, -1, 1, 2])
    r = range(1, 4)
    return QuadraticVectorField.from_json({
        "dim": 3,
        "quadratic": [[i, j, k, nonzero()] for i in r for j in r for k in range(j, 4)],
        "linear": [[i, j, nonzero()] for i in r for j in r],
        "constant": [[i, nonzero()] for i in r],
    })


def test_sector_without_density_stops_at_full_rank(monkeypatch):
    # a dense random field: the first K steps give rows of rank K, so no
    # density exists and the other steps are not drawn; at seed 19 one of
    # the first K + 1 draws has h = 0, which is no step
    f = _dense_random_field()
    for sector in ("even", "odd"):
        for seed in (0, 19):
            sol, draws = _discovery_draws(monkeypatch, f, 4, sector, seed)
            K = len(sol.bases[sector].elements)
            assert K > 2
            assert draws == K
            assert sol.densities == [] and sol.gammas == []
            assert sol.method == "sampled"


def test_sector_with_density_stops_once_the_rank_settles(monkeypatch):
    # the rank never reaches K: it settles at K minus the density count,
    # and discovery ends at the _STILL_DRAWS draws after the row that took
    # it there, far short of 2K + 16 rows
    import kahan_aromas.solver as solver_mod

    sol, draws = _discovery_draws(monkeypatch, lv_divfree(), 4, "even")
    K = len(sol.bases["even"].elements)
    assert sol.densities
    assert draws == K - len(sol.densities) + solver_mod._STILL_DRAWS < 2 * K + 16
    assert sol.method == "sampled"


def test_draw_loop_stops_after_draws_that_leave_the_rank(monkeypatch):
    # mod P, from the (K - 3)-th draw on every step repeats the one before
    # it, so the rank stalls at K - 3 and the loop stops after exactly
    # _STILL_DRAWS such draws, with no density and below rank K.  Its three
    # null vectors are no densities; they do not rebuild, so the exact run
    # takes over from the seed, and its 2K + 16 fresh rows prove there is none
    import kahan_aromas.solver as solver_mod

    f = _dense_random_field()
    K = len(build_basis(f, 4, None, "even").elements)
    real_sample_point = solver_mod._sample_point
    steps = []

    def stalling(rng, kmap, modular):
        repeat = modular and len(steps) >= K - 3
        steps.append((modular, steps[-1][1] if repeat else real_sample_point(rng, kmap, modular)))
        return steps[-1][1]

    monkeypatch.setattr(solver_mod, "_sample_point", stalling)
    checks = _counting(monkeypatch, solver_mod, "_refute_or_confirm")
    sol = solve_darboux(f, 4, parity="even", seed=0)
    assert K > 3 and checks == []
    assert [modular for modular, _ in steps] == [True] * (K - 3 + solver_mod._STILL_DRAWS) + [False] * (2 * K + 16)
    assert sol.densities == [] and sol.gammas == []
    assert sol.method == "sampled"


def test_draw_loop_stops_at_the_row_that_reaches_full_rank(monkeypatch):
    # the K-th and (K+1)-th steps repeat the step before them, so the rank
    # stalls at K - 1 for two draws; the next fresh step brings it to K, and
    # discovery stops at that row instead of drawing all 2K + 16
    import kahan_aromas.solver as solver_mod

    f = _dense_random_field()
    K = len(build_basis(f, 4, None, "even").elements)
    real_sample_point = solver_mod._sample_point
    steps = []

    def stalling(rng, kmap, modular):
        repeat = len(steps) in (K - 1, K)
        steps.append(steps[-1] if repeat else real_sample_point(rng, kmap, modular))
        return steps[-1]

    monkeypatch.setattr(solver_mod, "_sample_point", stalling)
    sol = solve_darboux(f, 4, parity="even", seed=0)
    assert K > 2
    assert len(steps) == K + 2
    assert sol.densities == [] and sol.gammas == []
    assert sol.method == "sampled"


@pytest.mark.parametrize(
    "f, seed",
    [(get_system(name, seed=0), 0) for name in sorted(SYSTEMS)]
    + [(_dense_random_field(), 0), (_dense_random_field(), 19)],
    ids=sorted(SYSTEMS) + ["dense_seed0", "dense_seed19"],
)
def test_modular_rank_draws_the_rows_of_the_exact_rank(monkeypatch, f, seed):
    # the draw loop folds its rows mod P; it must stop at the row where the
    # exact rows at the same steps reach rank K over Q, or _STILL_DRAWS rows
    # after their rank last rose (or at 2K + 16), and
    # give the solution of the exact rows and their nullspace, "refined"
    # only when that nullspace is larger than the solution space
    import kahan_aromas.solver as solver_mod

    kmap = f.kahan_map()
    for sector in ("even", "odd"):
        sol, draws = _discovery_draws(monkeypatch, f, 4, sector, seed)
        weighted = _weighted_polys(
            f, [(el.poly, el.multiset.order, el.multiset.sigma()) for el in sol.bases[sector].elements]
        )
        K = len(weighted)
        steps = (step for _, step in solver_mod._steps(random.Random(seed), kmap))
        rows, reduced, still = [], [], 0
        while len(rows) < 2 * K + 16 and len(reduced) < K and still < solver_mod._STILL_DRAWS:
            rows.append(residual_row_by_polynomials(next(steps), weighted))
            rank_before = len(reduced)
            reduced = rref_by_fractions(reduced + rows[-1:], K)
            still = 0 if len(reduced) > rank_before else still + 1
        assert draws == len(rows)
        monkeypatch.setattr(solver_mod, "_echelon_nullspace", lambda echelon, ncols: None)
        exact = solve_darboux(f, 4, parity=sector, seed=seed)
        monkeypatch.undo()
        assert (sol.gammas, sol.densities, sol.method) == (exact.gammas, exact.densities, exact.method)
        assert sol.method == ("sampled" if K - len(reduced) == len(sol.gammas) else "refined")


@pytest.mark.parametrize(
    "f, order",
    [(get_system(name, seed=0), 4) for name in sorted(SYSTEMS)]
    + [(_dense_random_field(), 4), (get_system("nambu_inhomogeneous", seed=0), 6)],
    ids=sorted(SYSTEMS) + ["dense", "nambu_inhomogeneous_order6"],
)
def test_sample_row_equals_the_residual_of_each_polynomial(f, order):
    # the batched row must be the per-polynomial row as rationals, not a
    # multiple of it: the rank mod P clears each row to integers
    import kahan_aromas.solver as solver_mod

    kmap = f.kahan_map()
    rng = random.Random(3)
    for sector in ("even", "odd"):
        basis = build_basis(f, order, None, sector)
        weighted = _weighted_polys(
            f, [(el.poly, el.multiset.order, el.multiset.sigma()) for el in basis.elements]
        )
        batch = PolynomialBatch(weighted)
        for _, step in itertools.islice(solver_mod._steps(rng, kmap), 5):
            row = solver_mod._sample_row(batch, step)
            assert row == residual_row_by_polynomials(step, weighted)
            assert all(type(v) is Fraction for v in row)


def _residue(v: Fraction) -> int:
    return v.numerator * pow(v.denominator, -1, P) % P


@functools.lru_cache(maxsize=None)
def _row_batch(name: str, sector: str):
    """A field, its map and the batch of its weighted order-4 basis of one
    sector: a corpus system, or "dense<n>", a dense random field on R^n."""
    if name.startswith("dense"):
        n = int(name[len("dense"):])
        f = random_quadratic_field(random.Random(n), n)
    else:
        f = get_system(name, seed=0)
    basis = build_basis(f, 4, None, sector)
    weighted = _weighted_polys(
        f, [(el.poly, el.multiset.order, el.multiset.sigma()) for el in basis.elements]
    )
    return f.kahan_map(), PolynomialBatch(weighted)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(SYSTEMS) + [f"dense{n}" for n in range(1, 5)]),
    st.sampled_from(["even", "odd"]),
    st.integers(0, 10_000),
)
def test_modular_row_is_the_exact_row_mod_p(name, sector, seed):
    # at the same drawn point, the row mod P is the exact row reduced mod P
    import kahan_aromas.solver as solver_mod

    kmap, batch = _row_batch(name, sector)
    pairs, step = solver_mod._sample_point(random.Random(seed), kmap, True)
    exact_row = solver_mod._sample_row(batch, kmap.step(pairs))
    assert solver_mod._sample_row(batch, step) == [_residue(v) for v in exact_row]
    point, n_minus, image, n_plus = step
    assert all(type(v) is int and 0 <= v < P for v in [n_minus, n_plus, *point, *image])


def _report(sol):
    from kahan_aromas.cli import solver_report

    return json.dumps(solver_report(sol), sort_keys=True)


def _counting(monkeypatch, module, name):
    """Count the calls of module.name, which still runs."""
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_coefficient_denominator_p_takes_the_exact_path(monkeypatch):
    # f / P steps as f does at h / P, so its densities have f's gamma; no
    # residue of its contents exists, so the rows are exact from the start
    import kahan_aromas.solver as solver_mod

    f = lv_divfree()
    g = QuadraticVectorField([c * Rat(1, P) for c in f.components])
    expected = solve_darboux(f, 4, parity="both", seed=0)
    folded = _counting(monkeypatch, solver_mod, "_fold")
    exact = _counting(monkeypatch, solver_mod, "nullspace")
    sol = solve_darboux(g, 4, parity="both", seed=0)
    assert folded == [] and len(exact) == 2  # one nullspace per sector
    assert sol.gammas == expected.gammas and sol.method == expected.method == "sampled"
    assert all(verify_density(g, d).verified for d in sol.densities)


@pytest.mark.parametrize("c", [Rat(2), Rat(-1, 3), Rat(P)], ids=["2", "minus_one_third", "P"])
@pytest.mark.parametrize(
    "name",
    ["lv_divfree", "lv_special", "ishii", "nambu_inhomogeneous", "dressing_chain", "nambu_homogeneous"],
)
def test_scaling_a_field_keeps_its_gamma_space(monkeypatch, name, c):
    # the Kahan map of c f at h is that of f at c h, so c f has f's gammas;
    # at c = P the content numerator of every element of order >= 1 is 0
    # mod P, so the rows are exact from the start: nothing is folded mod P
    # and the exact nullspace is taken once
    import kahan_aromas.solver as solver_mod

    f = get_system(name, seed=0)
    g = QuadraticVectorField([p * c for p in f.components])
    expected = solve_darboux(f, 4, parity="even", seed=0)
    folded = _counting(monkeypatch, solver_mod, "_fold")
    exact = _counting(monkeypatch, solver_mod, "nullspace")
    sol = solve_darboux(g, 4, parity="even", seed=0)
    assert sol.gammas == expected.gammas
    assert sol.method == expected.method == "sampled"
    assert len(exact) == (1 if c == P else 0)
    assert (folded == []) == (c == P)


def test_a_draw_with_det_m_zero_mod_p_is_skipped(monkeypatch):
    # at x = (1, 0, 0) the Volterra form has det(M) = 1 - h^2 / 4, which is 0
    # mod P at h = P + 2 and not over Q: discovery skips that draw, and the
    # solve is the one without it
    import kahan_aromas.solver as solver_mod

    f = lv_divfree()
    kmap = f.kahan_map()
    crafted = [(1, 1), (0, 1), (0, 1), (P + 2, 1)]
    assert kmap.step(crafted, True) is None
    assert kmap.step(crafted) is not None
    expected = _report(solve_darboux(f, 4, parity="both", seed=0))
    real_pair = solver_mod._random_pair
    draws = []

    def crafted_first(rng):
        draws.append(None)
        return crafted[len(draws) - 1] if len(draws) <= len(crafted) else real_pair(rng)

    monkeypatch.setattr(solver_mod, "_random_pair", crafted_first)
    assert _report(solve_darboux(f, 4, parity="both", seed=0)) == expected
    assert len(draws) > len(crafted)


@pytest.mark.parametrize(
    "entry, exact_calls",
    [(-(1 << 30), 1), (P + 1, 1)],
    ids=["does_not_rebuild", "rebuilds_wrong"],
)
def test_a_null_vector_past_the_bound_falls_back_to_the_exact_rows(monkeypatch, entry, exact_calls):
    # the Volterra density 1 - h^2 F(C2) / 8 with F(C2) scaled so that its
    # gamma is (1, entry): -2^30 has no rational of the bound mod P, and
    # P + 1 is rebuilt as 1, refuted, and its refuting row leaves the rank
    # mod P as it is; either way the exact rows take over once, and the
    # result is the exact one
    import kahan_aromas.solver as solver_mod

    f = lv_divfree()
    basis = build_basis(f, 2, None, "even")
    one, two_cycle = basis.elements
    two_cycle.poly = two_cycle.poly * Rat(-1, 4 * entry)
    exact = _counting(monkeypatch, solver_mod, "nullspace")
    checks = _counting(monkeypatch, solver_mod, "_refute_or_confirm")
    vectors, densities, method = solver_mod._solve_sector(f, basis, 0)
    assert vectors == solve_by_symbolic_assembly(f.kahan_map(), basis) == [[ONE, Rat(entry)]]
    assert method == "sampled" and len(exact) == exact_calls
    assert len(checks) == (1 if entry < 0 else 2)  # the wrong vector is checked too
    assert densities == [Polynomial.const(f.nvars, 1) - f.aroma_function(TWO_CYCLE) * X(3) ** 2 * Rat(1, 8)]


@pytest.mark.parametrize("route", ["does_not_rebuild", "rebuilt_wrong"])
@pytest.mark.parametrize("name", ["lv_divfree", "lv_special", "nambu_homogeneous", "ishii"])
def test_a_failed_modular_run_reruns_exactly_from_the_seed(monkeypatch, name, route):
    # the first echelon nullspace does not rebuild (None), or one entry x of
    # its last vector reads x + P, which has x's residue but is the wrong
    # rational: the entry is the last nonzero one past the leading 1 (which
    # always rebuilds as 1; 1 + P there would scale a true density), or the
    # last entry when there is none (ishii's constant density).  The vectors
    # before it are confirmed, and the wrong density is refuted with a row
    # that leaves the rank mod P as it is.  Either way the same loop runs
    # once more, exactly, from the seed, and gives the unpatched solve
    # without expanding any density twice
    import kahan_aromas.solver as solver_mod

    f = get_system(name, seed=0)
    expected = solve_darboux(f, 4, parity="even", seed=0)
    K = len(expected.bases["even"].elements)
    real_echelon_nullspace = solver_mod._echelon_nullspace
    patched = []

    def first_fails(echelon, ncols):
        vectors = real_echelon_nullspace(echelon, ncols)
        if patched:
            return vectors
        patched.append(None)
        if route == "does_not_rebuild":
            return None
        vec = vectors[-1]
        nonzero = [j for j, v in enumerate(vec) if v]
        vec[nonzero[-1] if len(nonzero) > 1 else len(vec) - 1] += P
        return vectors

    expanded = []
    real_defect = KahanMap.darboux_defect_cleared

    def counting_defect(self, P):
        expanded.append(str(P))
        return real_defect(self, P)

    monkeypatch.setattr(solver_mod, "_echelon_nullspace", first_fails)
    monkeypatch.setattr(KahanMap, "darboux_defect_cleared", counting_defect)
    draws = _counting(monkeypatch, solver_mod, "_sample_point")
    exact = _counting(monkeypatch, solver_mod, "nullspace")
    sol = solve_darboux(f, 4, parity="even", seed=0)
    assert (sol.gammas, sol.densities, sol.method) == (expected.gammas, expected.densities, expected.method)
    assert len(exact) == 1 and patched
    assert len(set(expanded)) == len(expanded)
    # mod P the rank settles at K minus the density count; the exact rows are all 2K + 16
    modular_draws = K - len(expected.densities) + solver_mod._STILL_DRAWS
    assert [modular for _, _, modular in draws] == [True] * modular_draws + [False] * (2 * K + 16)


def test_parameter_independent_empty_intersection():
    # the constant 1 is not a density for lv_special (det DPhi != 1) and at
    # order 0 nothing else is available
    with pytest.raises(SolverError):
        parameter_independent_solve([lv_special(), lv_special()], 2, 0, parity="even")


def test_randomized_searches_are_bounded(monkeypatch):
    # a map whose det(M) vanishes at every point: no sample point and no
    # witness point exists, and each search must give up with its count
    import kahan_aromas.solver as solver_mod

    monkeypatch.setattr(KahanMap, "apply_point", lambda self, ev: (ZERO, None))
    f = lv_divfree()
    with pytest.raises(SolverError, match=f"{solver_mod.SAMPLE_ATTEMPTS} attempts"):
        solver_mod._sample_point(random.Random(0), KahanMap(f), True)
    with pytest.raises(SolverError, match="attempts"):
        solve_darboux(f, 2, parity="even")
    with pytest.raises(SolverError, match="witness"):
        verify_density(f, Polynomial.const(f.nvars, 1) + X(0) * X(3) ** 2)


def test_first_integrals_search_is_bounded():
    # u vanishes at every sample point (u = 0 there), so no point can serve
    u = X(4)
    with pytest.raises(SolverError, match="attempts"):
        first_integrals([u, u * X(0)])


def test_corpus_draws_are_bounded(monkeypatch):
    import kahan_aromas.corpus as corpus_mod
    import oracles

    monkeypatch.setattr(oracles, "rank", lambda m, n: 0)
    with pytest.raises(SolverError, match="attempts"):
        oracles.random_invertible(random.Random(0), 3)
    monkeypatch.setattr(corpus_mod, "rand_small", lambda rng: ZERO)
    with pytest.raises(SolverError, match="attempts"):
        random_ishii_params(random.Random(0))


def test_build_basis_rejects_an_unknown_parity():
    with pytest.raises(ValueError, match="parity must be even, odd, or both"):
        build_basis(lv_divfree(), 2, parity="evn")


def test_parameter_independent_rejects_a_bad_parity_before_any_solve(monkeypatch):
    import kahan_aromas.solver as solver_mod

    solved = []
    monkeypatch.setattr(solver_mod, "solve_darboux", lambda *args, **kwargs: solved.append(args))
    with pytest.raises(ValueError, match="parity must be even, odd, or both"):
        parameter_independent_solve([lv_divfree(), lv_divfree()], 2, 2, parity="evn")
    assert solved == []


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: gamma_space(solve_darboux(lv_divfree(), 2, "even"), ["1"]),
            "gamma key C2(;) not covered by the coordinates",
        ),
        (lambda: parameter_independent_solve([lv_divfree()], 2, 2), "family list shorter than the instance count"),
    ],
    ids=["gamma-key-outside-coordinates", "family-shorter-than-instances"],
)
def test_solver_input_errors(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def test_constrained_density_outside_the_span_is_none():
    # every density of lv_divfree has an h^2 part quadratic in x, so none
    # has the h^2 part x1
    f = lv_divfree()
    sol = solve_darboux(f, 4, parity="even", seed=0)
    assert _find_constrained_density(sol, Polynomial.variable(f.nvars, 0)) is None


def test_conjecture_support_is_read_off_the_basis():
    # a homogeneous Nambu field's density carries an order-4 term
    rng = random.Random(0)
    f = nambu_homogeneous(random_symmetric(rng), random_symmetric(rng))
    report = conjecture_check(f, seed=0)
    assert (report.density_found, report.order4_support) == (True, ["C2(;)*C2(;)"])


@pytest.mark.parametrize("error", [ValueError("refused"), SolverError("no point")])
def test_solver_report_when_first_integrals_raise(monkeypatch, error):
    import kahan_aromas.cli as cli_mod

    rng = random.Random(3)
    f = nambu_homogeneous(random_symmetric(rng), random_symmetric(rng))
    sol = solve_darboux(f, 4, parity="even", seed=3)
    assert len(sol.densities) == 2

    def refuse(densities, seed=0):
        raise error

    monkeypatch.setattr(cli_mod, "first_integrals", refuse)
    report = cli_mod.solver_report(sol)
    assert (report["first_integrals"], report["independence_count"]) == ([], 0)
    assert len(report["solutions"]) == 2
