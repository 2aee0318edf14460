"""The acceptance gate: one test per criterion, one pass/fail line each.

All comparisons are exact rational identities; there are no tolerances.
Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
"""

import random

from kahan_aromas.coalgebra import (
    CoefficientFunctional,
    q_functional,
    q_row,
    series_evaluate,
)
from kahan_aromas.corpus import (
    divfree_homogeneous_r3,
    dressing_chain,
    golden_suite,
    ishii,
    ishii_invariants,
    lv,
    lv_divfree,
    lv_special,
    nambu_homogeneous,
    random_cubic_polynomial,
    random_divfree_homogeneous_r3_params,
    random_ishii_params,
    random_quadratic_field,
    random_symmetric,
    random_vector,
)
from kahan_aromas.fields import (
    KahanMap,
    QuadraticVectorField,
    affine_pullback,
    hamiltonian_field,
    modified_hamiltonian,
)
from kahan_aromas.graphs import (
    AromaMultiset,
    TAILED_TWO_CYCLE,
    THREE_CYCLE,
    TWO_CYCLE,
    UNIT,
    enumerate_aromas,
    enumerate_multisets,
    parse_multiset,
)
from kahan_aromas.linalg import rref
from kahan_aromas.poly import Polynomial, RationalFunction
from kahan_aromas.rationals import Rat, ZERO
from kahan_aromas.solver import (
    _find_constrained_density,
    conjecture_check,
    density_span_solve,
    first_integrals,
    gamma_space,
    necessary_conditions,
    parameter_independent_solve,
    solve_darboux,
    verify_density,
)

from oracles import (
    automorphism_count,
    functional_graph_classes,
    h_series,
    is_unit,
    multiset_to_endomap,
    poly_mat_det,
    random_invertible,
    random_skew,
    symbolic_jacobian_det,
)

from test_fields import _rk_form_exact, _self_adjoint_exact


def _report(num: int, name: str, ok: bool, detail: str = ""):
    print(f"\n[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"acceptance criterion {num} failed: {name} {detail}"


def test_acceptance_01_enumeration_and_symmetry_vs_oracle():
    counts_ok = True
    for order in range(1, 6):
        counts_ok &= len(enumerate_aromas(order)) == len(functional_graph_classes(order))
    sigma_ok = True
    for order in range(1, 6):
        for mset in enumerate_multisets(order):
            if is_unit(mset) or mset.order != order:
                continue
            if mset.sigma() != automorphism_count(multiset_to_endomap(mset)):
                sigma_ok = False
    _report(1, "enumeration + symmetry match brute force through order 5", counts_ok and sigma_ok)


def test_acceptance_02_sigma_golden_values():
    ok = (
        UNIT.sigma() == 1
        and THREE_CYCLE.sigma() == 3
        and TAILED_TWO_CYCLE.sigma() == 1
    )
    _report(2, "sigma(1)=1, sigma(3-cycle)=3, sigma(tailed-2-cycle)=1", ok)


def test_acceptance_03_girard_newton():
    rng = random.Random(300)
    ok = True
    for trial in range(20):
        d = 2 + trial % 3
        nv = d + 2
        A = [[Rat(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)] for _ in range(d)]
        f = QuadraticVectorField(
            [sum((Polynomial.variable(nv, j) * A[i][j] for j in range(d)), Polynomial.zero(nv)) for i in range(d)]
        )
        h = Polynomial.variable(nv, d)
        u = Polynomial.variable(nv, d + 1)
        M = [
            [
                Polynomial.const(nv, 1 if i == j else 0)
                + u * h * Polynomial.const(nv, A[i][j])
                for j in range(d)
            ]
            for i in range(d)
        ]
        det = poly_mat_det(M)
        bsum = Polynomial.zero(nv)
        for mset in enumerate_multisets(d):
            if mset.is_cycle_product():
                bsum = bsum + f.aroma_function(mset) * (u * h) ** mset.order * Rat(
                    mset.permutation_sign(), mset.sigma()
                )
        ok &= bsum == det
        for extra in (d + 1, d + 2):
            acc = Polynomial.zero(nv)
            for mset in enumerate_multisets(extra):
                if mset.order == extra and mset.is_cycle_product():
                    acc = acc + f.aroma_function(mset) * Rat(
                        mset.permutation_sign(), mset.sigma()
                    )
            ok &= acc.is_zero()
        if not ok:
            break
    _report(3, "B(eta_u) = det(I + uh f') for 20 seeded matrices, d=2..4", ok)


Q_TABLE_SMALL = {
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


def test_acceptance_04_q_machinery(capsys):
    import json as _json

    from kahan_aromas.cli import main as cli_main

    table_ok = True
    for enc, expected in Q_TABLE_SMALL.items():
        row = {m.encoding: v for m, v in q_row(parse_multiset(enc)).items()}
        table_ok &= row == expected
    # the CLI surface must emit the same rows
    assert cli_main(["hopf", "q-table", "--order", "3"]) == 0
    payload = _json.loads(capsys.readouterr().out)
    cli_rows = {r["alpha"]: r["entries"] for r in payload["rows"]}
    for enc, expected in Q_TABLE_SMALL.items():
        table_ok &= cli_rows[enc] == {k: str(v) for k, v in expected.items()}
    rng = random.Random(400)
    central_ok = True
    for trial in range(10):
        n = 2 + trial % 2
        f = random_quadratic_field(rng, n)
        support = {m: Rat(rng.randint(-4, 4)) for m in enumerate_multisets(3)}
        P = series_evaluate(CoefficientFunctional(support, 3), f, 3)
        kmap, D = KahanMap(f), max(P.x_degree() - 1, f.dim)
        lhs = h_series(kmap.darboux_defect_cleared(P), kmap.den**D, 5)
        rhs = series_evaluate(q_functional(CoefficientFunctional(support, 5)), f, 5)
        central_ok &= all(lhs[k] == rhs.coefficient_of_h(k) for k in range(6))
        if not central_ok:
            break
    _report(
        4,
        "q-table matches every hand-derived row; central identity exact through h^5",
        table_ok and central_ok,
    )


def test_acceptance_05_kahan_map_algebra():
    rng = random.Random(500)
    ok = True
    for trial in range(10):
        n = 1 + trial % 3
        f = random_quadratic_field(rng, n)
        m = KahanMap(f)
        ok &= _self_adjoint_exact(f)
        ok &= _rk_form_exact(f)
        ok &= m.det_jacobian() == symbolic_jacobian_det(m)
        if not ok:
            break
    _report(5, "self-adjointness, RK form, det DPhi formula on 10 seeded fields", ok)


def test_acceptance_06_canonical_hamiltonian():
    rng = random.Random(600)
    ok = True
    for n in (2, 4):
        J = random_skew(rng, n) if n == 4 else [[0, 1], [-1, 0]]
        H = random_cubic_polynomial(rng, n)
        f = hamiltonian_field(J, H)
        m = KahanMap(f)
        ok &= verify_density(f, m.den).verified
        ht = modified_hamiltonian(f, H)
        D = max(ht.num.x_degree(), n)
        ok &= m.substitute(ht.num, D) * ht.den == ht.num * m.substitute(ht.den, D)
    _report(6, "det(I-h/2 f') is a density and H~ is preserved (n=2 and n=4)", ok)


def test_acceptance_07_lv_divergence_free():
    f = lv_divfree()
    nv = 5
    h = Polynomial.variable(nv, 3)
    sol = solve_darboux(f, 4, parity="even", seed=700)
    target = Polynomial.const(nv, 1) - f.aroma_function(TWO_CYCLE) * h**2 * Rat(1, 8)
    found = density_span_solve(sol.densities, target) is not None
    ok = found and verify_density(f, target).verified
    i0 = sum((Polynomial.variable(nv, i) for i in range(3)), Polynomial.zero(nv))
    aug = solve_darboux(f, 4, parity="even", augmenters=[("I0", i0)], seed=701)
    aug_ok = (
        density_span_solve(aug.densities, target) is not None
        and density_span_solve(aug.densities, target * i0) is not None
    )
    ratios, _ = first_integrals([target, target * i0])
    ok = ok and aug_ok and ratios[0] == i0
    _report(7, "LV divfree: 1 - h^2/8 F(2-cycle) found; augmenter recovers I0", ok)


def test_acceptance_08_lv_special_h_independent():
    f = lv_special()
    nv = 5
    h = Polynomial.variable(nv, 3)
    z = Polynomial.variable(nv, 2)
    sol = solve_darboux(f, 4, parity="even", seed=800)
    g1 = z * z * h**2 * Rat(-4)
    i1 = (
        Polynomial.variable(nv, 0) + Polynomial.variable(nv, 1) + Polynomial.variable(nv, 2)
    ) ** 2
    g2 = g1 * i1 * h**2
    g3 = (
        Polynomial.variable(nv, 0)
        * Polynomial.variable(nv, 1)
        * (Polynomial.variable(nv, 0) + Polynomial.variable(nv, 2))
        * (Polynomial.variable(nv, 1) + Polynomial.variable(nv, 2))
        * Rat(16)
        * h**4
    )
    ok = all(
        density_span_solve(sol.densities, target) is not None for target in (g1, g2, g3)
    )
    ratios, count = first_integrals([g1, g2, g3], seed=800)
    ok = ok and ratios[0] == i1 * h**2 and count == 2
    _report(8, "LV special: -4z^2 density, I1 = (x+y+z)^2, independence 2", ok)


def test_acceptance_09_homogeneous_nambu():
    checks = golden_suite("nambu_homogeneous", seed=900)
    ok = all(c.passed for c in checks)
    detail = "; ".join(c.name for c in checks if not c.passed)
    _report(9, "homogeneous Nambu: dim 2, squared density, 32 x^T C x, F4=F2^2/2", ok, detail)


def test_acceptance_10_ishii_family():
    rng = random.Random(1000)
    drawn = [random_ishii_params(rng)[0] for _ in range(3)]
    volume_ok = True
    pis = parameter_independent_solve([ishii(**p) for p in drawn], 3, 6, parity="even", seed=1000)
    for f in pis.fields:
        m = KahanMap(f)
        volume_ok &= m.substitute(m.n_plus, 3) == m.den**4
    unit_vec = [Rat(1) if enc == "1" else ZERO for enc in pis.coords]
    dim_ok = pis.dimension >= 2 and pis.contains(unit_vec)
    relation_ok = True
    for i, params in enumerate(drawn):
        _, g2 = ishii_invariants(**params)
        dens = [row[i] for row in pis.densities if not row[i].is_zero()]
        relation_ok &= density_span_solve(dens, g2) is not None
        relation_ok &= verify_density(pis.fields[i], g2).verified
    _report(
        10,
        "Ishii: det DPhi == 1, dimension >= 2 with constants, g2-H1~ relation",
        volume_ok and dim_ok and relation_ok,
        f"dim={pis.dimension}",
    )


def test_acceptance_11_inhomogeneous_nambu_order6():
    checks = golden_suite("nambu_inhomogeneous", seed=1100)
    ok = all(c.passed for c in checks)
    detail = "; ".join(c.name for c in checks if not c.passed)
    _report(11, "inhomogeneous Nambu order 6: h^0=1, h^2=-(1/12)F(2-cycle), <=10 terms", ok, detail)


def test_acceptance_12_equivariance_and_kernel_determinism():
    coords = [m.encoding for m in enumerate_multisets(4, 2) if m.order % 2 == 0]
    base = gamma_space(solve_darboux(lv(1, 1, 1), 4, parity="even", seed=1200), coords)
    dc = gamma_space(
        solve_darboux(dressing_chain(0, 0, 0), 4, parity="even", seed=1201), coords
    )
    volterra = gamma_space(solve_darboux(lv_divfree(), 4, parity="even", seed=1202), coords)
    ok = base == dc == volterra
    rng = random.Random(1203)
    f = lv_divfree()
    for k in range(5):
        A = random_invertible(rng, 3)
        v = random_vector(rng, 3)
        g = affine_pullback(f, A, v)
        pulled = gamma_space(solve_darboux(g, 4, parity="even", seed=1210 + k), coords)
        ok &= pulled == volterra
    _report(12, "identical gamma-spaces: LV vs dressing chain and 5 affine pullbacks", ok)


def test_acceptance_13_necessary_conditions_across_corpus():
    rng = random.Random(1300)
    fields = [
        lv_special(),
        lv_divfree(),
        dressing_chain(Rat(1, 2), Rat(-1, 3), Rat(1)),
        nambu_homogeneous(random_symmetric(rng), random_symmetric(rng)),
        ishii(**random_ishii_params(rng)[0]),
    ]
    ok = True
    for idx, f in enumerate(fields):
        sol = solve_darboux(f, 3, parity="both", seed=1300 + idx)
        div_free = f.is_divergence_free()
        for gamma, parity in zip(sol.gammas, sol.parities):
            ok &= parity in ("even", "odd")
            if parity == "even" and gamma.get("1", ZERO) != 0:
                ok &= div_free
    # Theorem cond1 on the divergence-free LV and a Nambu draw
    for f, seed in ((lv_divfree(), 1310), (fields[3], 1311)):
        rep = necessary_conditions(f)
        ok &= rep.cond1.holds and rep.cond1.alpha is not None
        sol = solve_darboux(f, 4, parity="even", seed=seed)
        gamma_c2 = (rep.cond1.alpha - 3) / 12
        target_h2 = f.aroma_function(TWO_CYCLE) * (gamma_c2 / 2)
        ok &= _find_constrained_density(sol, target_h2) is not None
    _report(13, "leading-term/divergence coupling, cond1 relations, parity purity", ok)


def test_acceptance_14_conjecture_harness():
    rng = random.Random(1400)
    ok = True
    hypothesis_hits = 0
    failures = []
    for trial in range(20):
        f = divfree_homogeneous_r3(**random_divfree_homogeneous_r3_params(rng))
        rep = conjecture_check(f, seed=1400 + trial)
        if rep.hypothesis_holds and not rep.singular and not rep.tailed_two_cycle_zero:
            hypothesis_hits += 1
            if not rep.density_found:
                failures.append(trial)  # a potential counterexample: report it
    # fields where the hypothesis provably holds exercise the conclusion
    for f in (lv_divfree(), nambu_homogeneous(random_symmetric(rng), random_symmetric(rng))):
        rep = conjecture_check(f, seed=1450)
        if rep.tailed_two_cycle_zero or rep.singular:
            continue
        ok &= rep.hypothesis_holds and bool(rep.density_found)
    ok &= not failures
    _report(
        14,
        "conjecture harness on 20 random divfree fields + known-hypothesis fields",
        ok,
        f"hypothesis held on {hypothesis_hits}/20 random draws; counterexamples: {failures}",
    )
