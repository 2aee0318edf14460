"""Tests of the benchmark's own checker; they need only the standard library.

    python3 -m pytest perfbench/test_exact.py
"""

from __future__ import annotations

import random
from fractions import Fraction

import exact
import inputs

NV = inputs.NV3
H = inputs.H


def h_squared() -> dict:
    h = exact.var(NV, H)
    return exact.mul(h, h)


def lv_density(field: exact.Field) -> dict:
    """1 - (h^2/8) F(C2) for the divergence-free Volterra field."""
    return exact.add(exact.const(NV, 1), exact.scale(exact.mul(h_squared(), field.trace_jacobian_squared()), Fraction(-1, 8)))


def points(count: int = 3):
    return exact.sample_points(random.Random(7), 3, count)


def test_trace_of_jacobian_squared_of_lv_divfree():
    field = exact.Field(inputs.lv_divfree())
    value = exact.evaluate(field.trace_jacobian_squared(), [1, 2, 3, 0, 0])
    jac = field.jacobian_at([Fraction(1), Fraction(2), Fraction(3)])
    assert value == sum(jac[i][m] * jac[m][i] for i in range(3) for m in range(3))


def test_accepts_lv_divfree_density_and_rejects_its_perturbation():
    field = exact.Field(inputs.lv_divfree())
    density = lv_density(field)
    assert exact.passes_pointwise(field, density, points())
    x1 = exact.var(NV, 0)
    perturbed = exact.add(density, exact.mul(h_squared(), exact.mul(x1, x1)))
    assert not exact.passes_pointwise(field, perturbed, points())


def test_closed_forms_from_the_literature_pass():
    rng = random.Random(3)
    field_data = inputs.nambu_homogeneous(rng)
    field = exact.Field(field_data)
    layer = exact.add(exact.const(NV, 1), exact.scale(exact.mul(h_squared(), field.trace_jacobian_squared()), Fraction(-1, 24)))
    assert exact.passes_pointwise(field, exact.mul(layer, layer), points())
    assert not exact.passes_pointwise(field, layer, points())
    params = inputs.ishii_params(rng)
    assert exact.passes_pointwise(exact.Field(inputs.ishii(params)), inputs.ishii_g2(params), points())


def test_volume_preserving_map_has_constant_density():
    params = inputs.ishii_params(random.Random(5))
    assert exact.passes_pointwise(exact.Field(inputs.ishii(params)), exact.const(NV, 1), points())
    assert not exact.passes_pointwise(exact.Field(inputs.lv_divfree()), exact.var(NV, 0), points())


def test_kahan_step_of_a_linear_field_is_the_cayley_map():
    # f(x) = A x: x' = (I - h/2 A)^{-1} (I + h/2 A) x
    A = [[Fraction(1), Fraction(2), 0], [0, Fraction(-1), Fraction(3)], [Fraction(1, 2), 0, Fraction(2)]]
    field = exact.Field({"dim": 3, "linear": [[i + 1, j + 1, str(A[i][j])] for i in range(3) for j in range(3) if A[i][j]]})
    x, h = [Fraction(1), Fraction(-2), Fraction(1, 3)], Fraction(1, 5)
    n_minus, xp, n_plus = exact.kahan_step(field, x, h)
    minus = [[(i == j) - h / 2 * A[i][j] for j in range(3)] for i in range(3)]
    plus_x = [x[i] + h / 2 * sum(A[i][j] * x[j] for j in range(3)) for i in range(3)]
    assert xp == exact.solve(minus, plus_x)
    assert n_minus == exact.det(minus)
    assert n_plus == exact.det([[(i == j) + h / 2 * A[i][j] for j in range(3)] for i in range(3)])


def test_residual_is_the_uncleared_defect():
    field = exact.Field(inputs.lv_divfree())
    x1 = exact.var(NV, 0)
    density = exact.add(lv_density(field), exact.mul(h_squared(), exact.mul(x1, x1)))
    x, h = [Fraction(1), Fraction(2), Fraction(-1)], Fraction(1, 3)
    n_minus, xp, n_plus = exact.kahan_step(field, x, h)
    expected = n_minus * exact.evaluate(density, xp + [h, 0]) - exact.evaluate(density, x + [h, 0]) * n_plus
    assert exact.residual(field, density, x, h) == expected != 0


def test_pullback_by_identity_is_the_field_and_keeps_densities():
    rng = random.Random(11)
    field = inputs.random_dense(rng)
    identity = [[int(i == j) for j in range(3)] for i in range(3)]
    assert exact.Field(inputs.pullback(field, identity, [0, 0, 0])).value([1, 2, 3]) == exact.Field(field).value([1, 2, 3])
    # lv_divfree's density pulled back along x -> A x + v stays a density of the pulled-back field
    A, v = inputs.unimodular(rng), [1, -1, 2]
    pulled = exact.Field(inputs.pullback(inputs.lv_divfree(), A, v))
    forms = [exact.add(exact.const(NV, v[i]), *(exact.scale(exact.var(NV, j), A[i][j]) for j in range(3))) for i in range(3)]
    density = lv_density(exact.Field(inputs.lv_divfree()))
    composed = {}
    for e, c in density.items():
        term = {(0, 0, 0, e[3], e[4]): c}
        for i in range(3):
            for _ in range(e[i]):
                term = exact.mul(term, forms[i])
        composed = exact.add(composed, term)
    assert exact.passes_pointwise(pulled, composed, points())


def test_unimodular_matrices_have_determinant_one():
    rng = random.Random(2)
    assert all(exact.det(inputs.unimodular(rng)) == 1 for _ in range(20))


def test_span_and_gamma_space():
    x, y = exact.var(NV, 0), exact.var(NV, 1)
    assert exact.in_span([x, y], exact.add(exact.scale(x, 3), y))
    assert not exact.in_span([x], y)
    assert exact.in_span([], {})
    a = [{"1": "1", "C2(;)": "-1/12"}, {"C1()": "2"}]
    b = [{"1": "2", "C2(;)": "-1/6", "C1()": "2"}, {"C1()": "-1"}]
    assert exact.gamma_space(a) == exact.gamma_space(b)
    assert exact.gamma_space(a) != exact.gamma_space(a[:1])
    assert exact.gamma_space([]) == ([], [])


def test_generated_fields_have_their_generic_shape():
    rng = random.Random(1)
    field = inputs.nambu_inhomogeneous(rng)
    assert (len(field["quadratic"]), len(field["linear"]), len(field["constant"])) == (11, 9, 3)
    assert len(inputs.nambu_homogeneous(rng)["quadratic"]) == 18
    assert len(inputs.random_dense(rng)["quadratic"]) == 18


def test_json_round_trip():
    p = exact.add(exact.const(NV, Fraction(1, 3)), h_squared())
    assert exact.poly_from_json(exact.poly_to_json(p)) == p
