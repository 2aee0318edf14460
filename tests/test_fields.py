"""Vector fields, aromatic functions and the Kahan map.

The exact identities here (self-adjointness, RK form, the Jacobian
determinant formula, affine equivariance, the kernel classes) are the
contracts everything downstream relies on.
"""

import contextlib
import gc
import hashlib
import io
import json
import random
import weakref
from itertools import combinations_with_replacement
from math import prod

import pytest
from hypothesis import given, strategies as st

from kahan_aromas.corpus import (
    SYSTEMS,
    lv_divfree,
    lv_special,
    random_divfree_homogeneous_r3_params,
    divfree_homogeneous_r3,
    random_quadratic_field,
    random_cubic_polynomial,
    random_vector,
    dressing_chain,
    get_system,
    ishii,
    ishii_invariants,
    lv,
    nambu_homogeneous,
    random_ishii_params,
    random_symmetric,
)
from kahan_aromas.fields import (
    KahanMap,
    QuadraticVectorField,
    affine_pullback,
    hamiltonian_field,
    modified_hamiltonian,
)
from kahan_aromas.graphs import (
    LEAF,
    Aroma,
    AromaMultiset,
    Forest,
    LOOP,
    LOOP_WITH_TAIL,
    TAILED_TWO_CYCLE,
    TWO_CYCLE,
    UNIT,
    enumerate_multisets,
    enumerate_trees,
    parse_any,
    parse_multiset,
    tall_tree,
)
from kahan_aromas.poly import (
    PointEvaluator,
    Polynomial,
    RationalFunction,
    _degrees,
    rf_substitute,
    unpack_exponents,
)
from kahan_aromas.cli import main
from kahan_aromas.rationals import Rat, format_rat, parse_rat
from kahan_aromas.solver import parameter_independent_solve, solve_darboux
from oracles import (
    aroma_by_assignments,
    contains_self_loop,
    darboux_defect_term_by_term,
    elementary_differential,
    jacobian,
    kahan_map_by_cramer,
    kahan_series_closed_form,
    kahan_step_by_solve,
    random_invertible,
    random_skew,
    symbolic_jacobian_det,
)


def X(i, nv=5):
    return Polynomial.variable(nv, i)


def test_component_extraction_and_convention():
    # the wire convention: [i, j, k, v] in "quadratic" is v x_j x_k in f_i,
    # [i, j, v] in "linear" is v x_j and [i, v] in "constant" is v (1-based)
    f = QuadraticVectorField.from_json(
        {"dim": 2, "quadratic": [[1, 1, 2, "3"], [2, 2, 2, "2"]], "linear": [[1, 2, "5"]], "constant": [[2, "-1/2"]]}
    )
    x1, x2 = X(0, 4), X(1, 4)
    assert f.components == [x1 * x2 * 3 + x2 * 5, x2**2 * 2 - Rat(1, 2)]


# SHA-256 of json.dumps(to_json()), taken on the 0-based dict constructor while
# the field still kept coefficient tensors next to its polynomials; the cases
# now give the same terms to from_json
DICT_CONSTRUCTOR_JSON_SHA256 = {
    "random-n1": "97d8ad0de84d59ea51322cc60b67e80753c52fbbe1ff83cde0ec82fa2e6ec29d",
    "random-n2": "c33eae159779705e23464d61e9508c71d768db52b3b171a0b876d2591dfc7eb3",
    "random-n3": "80d7c980b052f26a993957a3bfbe4ea3b83667a7ae5a7f7bc472326bcd6ad90f",
    "random-n4": "5bb8019edc7b2e55e901b9bd5e776f1bfd10aa595db56761bbf805be80a0c618",
    "duplicate": "8315393e0d8e498750ded3e96e6c1708287de21273f2c14c0af2784e33aa7528",
    "swapped": "69b94d2ea5583e81373ca990f140227629325488e168347ba0bbcffb606e3a9a",
    "cancelling": "7c717c8e0391e161e9b02c31f98178d815e1a15b93bc2713e409453ddaa0c3bd",
}
DICT_CONSTRUCTOR_CASES = {
    **{f"random-n{n}": lambda n=n: random_quadratic_field(random.Random(200 + n), n) for n in range(1, 5)},
    # two entries name x1 x2 in f_1 and add up
    "duplicate": lambda: QuadraticVectorField.from_json(
        {"dim": 2, "quadratic": [[1, 1, 2, 2], [1, 1, 2, "1/3"], [2, 2, 2, "-1/2"]], "linear": [[2, 1, 1]], "constant": [[1, 4]]}
    ),
    # the dict constructor's keys (2, 2, 0) and (0, 1, 0) named j > k
    "swapped": lambda: QuadraticVectorField.from_json(
        {"dim": 3, "quadratic": [[3, 1, 3, 5], [1, 1, 2, -3]], "linear": [[3, 2, "7/3"]]}
    ),
    # the x1 x2 entries cancel; zero entries are dropped
    "cancelling": lambda: QuadraticVectorField.from_json(
        {"dim": 2, "quadratic": [[1, 1, 2, 1], [1, 1, 2, -1], [2, 2, 2, 3]], "linear": [[1, 1, 0]], "constant": [[2, 0]]}
    ),
}


@pytest.mark.parametrize("case", sorted(DICT_CONSTRUCTOR_CASES))
def test_dict_constructor_json_is_pinned(case):
    text = json.dumps(DICT_CONSTRUCTOR_CASES[case]().to_json())
    assert hashlib.sha256(text.encode()).hexdigest() == DICT_CONSTRUCTOR_JSON_SHA256[case]


def test_components_roundtrip():
    f = lv_special()
    again = QuadraticVectorField(f.components)
    assert again.components == f.components and again.to_json() == f.to_json()


def test_components_of_degree_three_are_refused():
    with pytest.raises(ValueError, match="vector field is not quadratic"):
        QuadraticVectorField([X(0, 3) ** 3])


_KINDS = ("constant", "linear", "quadratic")  # an entry of kind k names k indices after i
_VALUES = st.fractions(max_denominator=30).map(format_rat) | st.integers(-(10**30), 10**30)


@st.composite
def field_json(draw, dims=st.integers(1, 3)):
    """A valid field JSON object: random 1-based entries with j <= k, some
    naming one monomial more than once, and sections empty or left out."""
    dim = draw(dims)
    data = {"dim": dim}
    index = st.integers(1, dim)
    for k, kind in enumerate(_KINDS):
        rows = draw(st.lists(st.tuples(index, st.lists(index, min_size=k, max_size=k), _VALUES), max_size=6))
        if rows or draw(st.booleans()):
            data[kind] = [[i, *sorted(js), v] for i, js, v in rows]
    return data


@given(field_json())
def test_field_json_reads_each_entry_as_its_monomial(data):
    nv = data["dim"] + 2
    expected = [Polynomial.zero(nv)] * data["dim"]
    for kind in _KINDS:
        for i, *js, v in data.get(kind, []):
            exps = [0] * nv
            for j in js:
                exps[j - 1] += 1
            expected[i - 1] = expected[i - 1] + Polynomial.monomial(nv, exps, parse_rat(v))
    f = QuadraticVectorField.from_json(data)
    assert f.components == expected
    assert QuadraticVectorField.from_json(f.to_json()).components == f.components


# each holds a long value, whose echo the message must cut
_NOT_INDICES = st.sampled_from([1.0, "1", True, None, [1], "1" * 3000])
_NOT_VALUES = st.sampled_from(["1/0", "x" * 3000, "1" * 3000 + "/0", 0.5, None, True, [1]])
_NOT_LISTS = st.sampled_from([5, "1, 1, 1", {"1": 1}, None, 1.5, True, "x" * 3000])


@st.composite
def malformed_field_json(draw):
    """A valid field JSON object with one fault put in: an entry of the wrong
    arity, an index that is not an integer or is out of range, a quadratic
    entry with j > k, a value that is not exact, an entry or a section that
    is not a list, an unknown key, or a dim that is not a positive integer."""
    data = draw(field_json(dims=st.integers(2, 3)))
    dim = data["dim"]
    fault = draw(st.sampled_from(["arity", "index", "range", "order", "value", "entry", "section", "key", "dim"]))
    k = draw(st.integers(0, 2))
    entry = [*draw(st.lists(st.integers(1, dim), min_size=k + 1, max_size=k + 1)), "1"]
    entry[1:-1] = sorted(entry[1:-1])
    if fault == "arity":
        entry = draw(st.sampled_from([entry[:-2] + entry[-1:], entry + ["1"]]))
    elif fault == "index":
        entry[draw(st.integers(0, k))] = draw(_NOT_INDICES)
    elif fault == "range":
        entry[draw(st.integers(0, k))] = draw(st.sampled_from([0, -1, dim + 1, 10**40]))
    elif fault == "order":
        k, entry = 2, [1, 2, 1, "1"]
    elif fault == "value":
        entry[-1] = draw(_NOT_VALUES)
    elif fault == "entry":
        entry = draw(_NOT_LISTS)
    if fault == "section":
        data[_KINDS[k]] = draw(_NOT_LISTS)
    elif fault == "key":
        data[draw(st.text(min_size=1).filter(lambda key: key not in ("dim", *_KINDS)) | st.just("k" * 3000))] = []
    elif fault == "dim":
        data["dim"] = draw(st.sampled_from([0, -2, True, 2.0, "2", None, "2" * 3000]))
    else:
        section = data.setdefault(_KINDS[k], [])
        section.insert(draw(st.integers(0, len(section))), entry)
    return data


@given(malformed_field_json())
def test_a_malformed_field_file_exits_two_with_a_bounded_message(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("field") / "field.json"
    path.write_text(json.dumps(data))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["kahan", "map", "--field", str(path)])
    assert (code, out.getvalue()) == (2, "")
    assert err.getvalue().startswith("input error: malformed field JSON: ") and len(err.getvalue()) < 1024


def test_field_json_roundtrip_and_validation():
    f = lv_divfree()
    again = QuadraticVectorField.from_json(f.to_json())
    assert again.to_json() == f.to_json()
    with pytest.raises(ValueError):
        QuadraticVectorField.from_json(
            {"dim": 2, "quadratic": [[1, 2, 1, "1"]], "linear": [], "constant": []}
        )


def test_field_refuses_a_non_integer_dim():
    # True would be read as dimension 1
    for dim in (True, 2.0, "2", None):
        with pytest.raises(ValueError, match="needs a positive integer 'dim'"):
            QuadraticVectorField.from_json({"dim": dim})


def _jacobian_trace(f) -> Polynomial:
    """tr f'(x), the divergence summed from the partials."""
    jac = jacobian(f)
    return sum((jac[i][i] for i in range(f.dim)), Polynomial.zero(f.nvars))


def test_jacobian_divergence_examples():
    zero = QuadraticVectorField([Polynomial.zero(4)] * 2)
    assert zero.divergence().is_zero()
    assert all(p.is_zero() for row in jacobian(zero) for p in row)
    assert lv_special().divergence() == (X(1) - X(0)) * 2
    assert lv_divfree().divergence().is_zero()


def test_aroma_function_basics():
    f = lv_special()
    assert f.aroma_function(UNIT) == Polynomial.const(5, 1)
    assert f.aroma_function(LOOP) == _jacobian_trace(f)
    # the worked h-independent density: -2 F(2-cycle) + F(loop)^2 = -4z^2
    g1 = f.aroma_function(AromaMultiset((LOOP, LOOP))) - f.aroma_function(TWO_CYCLE) * 2
    assert g1 == X(2) ** 2 * Rat(-4)


def test_tailed_two_cycle_has_three_factor_terms():
    # F on the tailed 2-cycle is sum f^i_j f^j_{ik} f^k; cross-check on 1-D x^2
    f = QuadraticVectorField([X(0, 3) ** 2])
    x = Polynomial.variable(3, 0)
    assert f.aroma_function(TAILED_TWO_CYCLE) == (x * 2) * 2 * x**2


def _coprime_contents_field() -> QuadraticVectorField:
    """A dense field on R^3 whose components have the contents 1/2, 1/3 and
    5/7 times primitive integer polynomials with 40-bit coefficients, so the
    field's common denominator 42 is no single component's."""
    rng = random.Random(31)
    contents = [Rat(1, 2), Rat(1, 3), Rat(5, 7)]
    big = lambda i: contents[i] * (rng.randrange(1, 1 << 40) * rng.choice([-1, 1]))
    quad = [[i, j, k, big(i - 1)] for i in (1, 2, 3) for j in (1, 2, 3) for k in range(j, 4)]
    lin = [[i, j, big(i - 1)] for i in (1, 2, 3) for j in (1, 2, 3)]
    const = [[i, big(i - 1)] for i in (1, 2, 3)]
    f = QuadraticVectorField.from_json({"dim": 3, "quadratic": quad, "linear": lin, "constant": const})
    assert [p.content.denominator for p in f.components] == [2, 3, 7]
    return f


def _zero_component_field() -> QuadraticVectorField:
    """A field on R^3 with small rational coefficients whose second
    component is zero."""
    rng = random.Random(32)
    small = lambda: Rat(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
    quad = [[i, j, k, small()] for i in (1, 3) for j in (1, 2, 3) for k in range(j, 4)]
    lin = [[i, j, small()] for i in (1, 3) for j in (1, 2, 3)]
    const = [[i, small()] for i in (1, 3)]
    f = QuadraticVectorField.from_json({"dim": 3, "quadratic": quad, "linear": lin, "constant": const})
    assert f.components[1].is_zero()
    return f


# case -> (field builder, order)
CONTRACTION_CASES = {
    **{f"{n}-{order}": (lambda n=n: random_quadratic_field(random.Random(200 + n), n), order) for n, order in [(1, 6), (2, 6), (3, 5), (4, 4)]},
    "coprime-contents-3-5": (_coprime_contents_field, 5),
    "zero-component-3-5": (_zero_component_field, 5),
    # the components come from A^-1 f(Ax + v), kept as given
    "from-polynomials-3-5": (
        lambda: affine_pullback(
            random_quadratic_field(random.Random(33), 3), random_invertible(random.Random(34), 3), [Rat(1, 3), 0, Rat(-2, 5)]
        ),
        5,
    ),
}


@pytest.mark.parametrize("case", list(CONTRACTION_CASES))
def test_contraction_matches_assignment_oracle(case):
    # unfiltered: the indegree >= 3 aromas must contract to zero as well;
    # n = 2 at order 6 reaches chiral aromas such as C3(;[];[[]])
    build, order = CONTRACTION_CASES[case]
    f = build()
    degrees = {sum(e) for p in f.components for e, _ in p.sorted_terms()}
    assert degrees == {0, 1, 2}
    aromas = {a.encoding: a for m in enumerate_multisets(order) for a in m.aromas}
    moved = 0
    for aroma in aromas.values():
        assert f.aroma_function(aroma) == aroma_by_assignments(f, aroma)
        # the trace is taken against the cycle matrix of the most terms,
        # which the canonical rotation seldom puts at index 0
        if aroma.cycle_len > 1:
            mats = [f._cycle_matrices[forest.encoding] for forest in aroma.decorations]
            if all(bound is not None for _, bound in mats):
                terms = [sum(len(p) for row in mat for p in row) for mat, _ in mats]
                moved += terms.index(max(terms)) != 0
    assert moved
    # the tree vectors left in the memo are D^|tree| F(tree), D the field's
    # cleared denominator
    D = f._cleared()[0]
    for k in range(1, order):
        for tree in enumerate_trees(k):
            vector = [Polynomial(f.nvars, v) for v in f._tree_vector(tree)[0]]
            assert vector == [p * D**k for p in elementary_differential(f, tree)]


@pytest.mark.parametrize("divergence_free", [True, False])
def test_loops_with_trees_match_assignment_oracle(divergence_free):
    # a loop is summed straight to its trace: no cycle matrix is built
    if divergence_free:
        fields = [lv_divfree(), divfree_homogeneous_r3(**random_divfree_homogeneous_r3_params(random.Random(3)))]
    else:
        fields = [random_quadratic_field(random.Random(41), 3), _coprime_contents_field(), _zero_component_field()]
    for f in fields:
        assert f.is_divergence_free() is divergence_free
        for order in range(1, 5):
            for tree in enumerate_trees(order):
                for forest in (Forest((tree,)), Forest((tree, LEAF))):
                    aroma = Aroma(1, (forest,))
                    got = f.aroma_function(aroma)
                    assert got == aroma_by_assignments(f, aroma)
                    if divergence_free or len(forest.trees) > 1:
                        assert got.is_zero()
        assert f.aroma_function(LOOP) == _jacobian_trace(f)
        assert not f._cycle_matrices


def test_aroma_memo_does_not_depend_on_evaluation_order():
    # the tree vectors and cycle matrices memoized on the way differ with the order
    multisets = enumerate_multisets(5)
    forward, backward = _coprime_contents_field(), _coprime_contents_field()
    got = [forward.aroma_function(m) for m in multisets]
    assert got == [backward.aroma_function(m) for m in reversed(multisets)][::-1]
    # in shuffled order on one field, each F is what a fresh field gives
    shuffled = list(multisets)
    random.Random(0).shuffle(shuffled)
    one = random_quadratic_field(random.Random(43), 3)
    for m in shuffled:
        assert one.aroma_function(m) == random_quadratic_field(random.Random(43), 3).aroma_function(m)
    # a multiset's F is memoized too: a second read is the same object, the
    # product of its aromas' F
    for m, p in zip(multisets, got):
        assert forward.aroma_function(m) is p
        assert p == prod(map(forward.aroma_function, m.aromas), start=Polynomial.const(forward.nvars, 1))


def test_family_chain_products_are_pinned(monkeypatch):
    # sum |a||b| over the term products inside `_mat_mul` for one family
    # solve of three Ishii draws at order 6: with M_h the cycle matrix of
    # the most terms the chain multiplies the lighter ones (2,335 with M_h
    # the one of the largest summed degree bound)
    import kahan_aromas.fields as fields_mod

    real_mat_mul, real_mul_add = fields_mod._mat_mul, fields_mod._mul_add
    products, inside = [0], [False]

    def mat_mul(a, b, nvars):
        inside[0] = True
        try:
            return real_mat_mul(a, b, nvars)
        finally:
            inside[0] = False

    def mul_add(acc, a, b, nvars):
        if inside[0]:
            products[0] += len(a) * len(b)
        real_mul_add(acc, a, b, nvars)

    monkeypatch.setattr(fields_mod, "_mat_mul", mat_mul)
    monkeypatch.setattr(fields_mod, "_mul_add", mul_add)
    rng = random.Random(0)
    family = [ishii(**random_ishii_params(rng)[0]) for _ in range(3)]
    assert parameter_independent_solve(family, 3, 6, parity="even", seed=0).dimension
    assert products[0] == 1866


def test_one_dimensional_degeneracy():
    f = QuadraticVectorField([X(0, 3) ** 2])
    fp2 = (Polynomial.variable(3, 0) * 2) ** 2
    assert f.aroma_function(AromaMultiset((LOOP, LOOP))) == fp2
    assert f.aroma_function(TWO_CYCLE) == fp2


def test_quadratic_indegree_kernel():
    rng = random.Random(5)
    f = random_quadratic_field(rng, 2)
    for mset in enumerate_multisets(4):
        if mset.max_indegree() >= 3:
            assert f.aroma_function(mset).is_zero()


def test_divergence_free_kernel():
    f = lv_divfree()
    for mset in enumerate_multisets(4):
        if contains_self_loop(mset):
            assert f.aroma_function(mset).is_zero()


def test_hamiltonian_kernel_odd_cycles():
    rng = random.Random(11)
    J = random_skew(rng, 4)
    H = random_cubic_polynomial(rng, 4)
    f = hamiltonian_field(J, H)
    for k in (1, 3, 5):
        assert f.aroma_function(Aroma(k)).is_zero()


def test_divfree_r3_four_cycle_identity():
    rng = random.Random(13)
    f = divfree_homogeneous_r3(**random_divfree_homogeneous_r3_params(rng))
    f2 = f.aroma_function(TWO_CYCLE)
    f4 = f.aroma_function(Aroma(4))
    assert f4 * 2 == f2 * f2


def test_elementary_differentials():
    f = lv_special()
    assert elementary_differential(f, tall_tree(1)) == f.components
    chain2 = elementary_differential(f, tall_tree(2))
    jac = jacobian(f)
    expect = [
        sum((jac[i][j] * f.components[j] for j in range(3)), Polynomial.zero(5))
        for i in range(3)
    ]
    assert chain2 == expect
    # cherry on 1-D x^2: f''(f, f) = 2 x^4
    g = QuadraticVectorField([X(0, 3) ** 2])
    cherry = parse_any("[[][]]")
    assert elementary_differential(g, cherry) == [Polynomial.variable(3, 0) ** 4 * 2]


def test_kahan_map_zero_field():
    f = QuadraticVectorField([Polynomial.zero(4)] * 2)
    m = KahanMap(f)
    assert m.numerators == [X(0, 4), X(1, 4)]
    assert m.den == Polynomial.const(4, 1)
    assert m.det_jacobian() == RationalFunction(Polynomial.const(4, 1))


def test_kahan_map_one_dimensional():
    f = QuadraticVectorField([X(0, 3) ** 2])
    m = KahanMap(f)
    x, h = Polynomial.variable(3, 0), Polynomial.variable(3, 1)
    one = Polynomial.const(3, 1)
    assert m.numerators[0] == x
    assert m.den == one - h * x
    assert m.det_jacobian() == RationalFunction(one, (one - h * x) ** 2)


def test_kahan_map_linear_field_oracle():
    # 1-D linear lambda x: x' = (1 + h lambda/2)/(1 - h lambda/2) x
    lam = Rat(3, 2)
    f = QuadraticVectorField([X(0, 3) * lam])
    m = KahanMap(f)
    x, h = Polynomial.variable(3, 0), Polynomial.variable(3, 1)
    one = Polynomial.const(3, 1)
    expected = RationalFunction(x * (one + h * (lam / 2)), one - h * (lam / 2))
    assert RationalFunction(m.numerators[0], m.den) == expected


def _map_cases():
    """Every corpus system at seed 0, dense random fields for n = 1..4, and
    the coprime-content, zero-component and affine-pullback fields."""
    cases = {name: (lambda name=name: get_system(name, seed=0)) for name in SYSTEMS}
    cases.update({f"dense-{n}": (lambda n=n: random_quadratic_field(random.Random(300 + n), n)) for n in range(1, 5)})
    cases.update({case: build for case, (build, _) in CONTRACTION_CASES.items() if not case[0].isdigit()})
    return cases


@pytest.mark.parametrize("case", list(_map_cases()))
def test_integer_kahan_map_matches_cramer_oracle(case):
    f = _map_cases()[case]()
    kmap = KahanMap(f)
    den, numerators = kahan_map_by_cramer(f)
    assert (kmap.den.content, kmap.den.terms) == (den.content, den.terms)
    for got, want in zip(kmap.numerators, numerators, strict=True):
        assert (got.content, got.terms) == (want.content, want.terms)


@pytest.mark.parametrize("case", list(_map_cases()))
def test_cleared_parts_match_polynomial_partials(case):
    f = _map_cases()[case]()
    D, parts, degrees = f._cleared()
    want = {}
    for i, component in enumerate(f.components):
        for m in range(3):
            for idx in combinations_with_replacement(range(f.dim), m):
                p = component
                for j in idx:
                    p = p.partial_derivative(j)
                if p.terms:
                    scaled = p.content * D  # an integer: D clears every content
                    assert scaled.denominator == 1
                    want[(i, idx)] = {k: scaled.numerator * v for k, v in p.terms.items()}
    assert parts == want
    assert set(degrees) == set(parts)


def test_denominator_is_one_at_h_zero():
    rng = random.Random(17)
    for n in (1, 2, 3):
        f = random_quadratic_field(rng, n)
        m = KahanMap(f)
        assert m.den.coefficient_of_h(0) == Polynomial.const(f.nvars, 1)


def _self_adjoint_exact(field) -> bool:
    m = KahanMap(field)
    nums_m = [p.subs_h_negated() for p in m.numerators]
    den_m = m.den.subs_h_negated()
    for i in range(field.dim):
        D = m.numerators[i].x_degree()
        lhs = rf_substitute(m.numerators[i], nums_m, den_m, D)
        rhs_den = rf_substitute(m.den, nums_m, den_m, D)
        if lhs != Polynomial.variable(field.nvars, i) * rhs_den:
            return False
    return True


def _rk_form_exact(field) -> bool:
    # (x' - x)/h = -f(x)/2 + 2 f((x+x')/2) - f(x')/2, cleared by 2 den^2:
    #   2 den (num_i - x_i den) == h (S_mid_i - S_phi_i - den^2 f_i)
    # with S_mid = rf_substitute(f_i, x den + num, 2 den, 2) and
    # S_phi = rf_substitute(f_i, num, den, 2).
    m = KahanMap(field)
    n, nv = field.dim, field.nvars
    h = Polynomial.variable(nv, n)
    den = m.den
    mid_nums = [Polynomial.variable(nv, i) * den + m.numerators[i] for i in range(n)]
    mid_den = den * 2
    for i in range(n):
        fi = field.components[i]
        s_mid = rf_substitute(fi, mid_nums, mid_den, 2)
        s_phi = m.substitute(fi, 2)
        lhs = (m.numerators[i] - Polynomial.variable(nv, i) * den) * den * 2
        rhs = h * (s_mid - s_phi - den * den * fi)
        if lhs != rhs:
            return False
    return True


def test_self_adjointness_exact():
    rng = random.Random(23)
    for n in (1, 2, 3):
        assert _self_adjoint_exact(random_quadratic_field(rng, n))
    assert _self_adjoint_exact(lv_special())


def test_rk_formulation_exact():
    rng = random.Random(29)
    for n in (1, 2):
        assert _rk_form_exact(random_quadratic_field(rng, n))
    assert _rk_form_exact(lv_divfree())


def test_det_jacobian_formula_matches_symbolic():
    rng = random.Random(31)
    for n in (1, 2, 3):
        f = random_quadratic_field(rng, n)
        m = KahanMap(f)
        assert m.det_jacobian() == symbolic_jacobian_det(m)


def _golden_densities():
    """(field, density): the closed forms of the corpus golden suites at seed
    0 and the densities of the order-6 nambu_inhomogeneous solve."""
    x, y, z, h = X(0), X(1), X(2), X(3)
    one = Polynomial.const(5, 1)
    out = []
    f = lv_divfree()
    g = one - f.aroma_function(TWO_CYCLE) * h**2 * Rat(1, 8)
    out += [(f, g), (f, g * (x + y + z))]
    f = lv_special()
    g = z * z * h**2 * Rat(-4)
    out += [(f, g), (f, g * (x + y + z) ** 2 * h**2), (f, x * y * (x + z) * (y + z) * h**4 * 16)]
    rng = random.Random(0)
    f = nambu_homogeneous(random_symmetric(rng), random_symmetric(rng))
    out.append((f, (one - f.aroma_function(TWO_CYCLE) * h**2 * Rat(1, 24)) ** 2))
    params = random_ishii_params(random.Random(0))[0]
    f = ishii(**params)
    out += [(f, ishii_invariants(**params)[1]), (f, one)]
    f = dressing_chain(0, 0, 0)
    out.append((f, one - f.aroma_function(TWO_CYCLE) * h**2 * Rat(1, 8)))
    f = hamiltonian_field([[0, 1], [-1, 0]], random_cubic_polynomial(random.Random(0), 2))
    out.append((f, f.kahan_map().den))
    f = get_system("nambu_inhomogeneous", seed=0)
    out += [(f, P) for P in solve_darboux(f, 6, parity="even", seed=0).densities]
    return out


def test_defect_matches_term_by_term_oracle():
    for f, P in _golden_densities():
        kmap = f.kahan_map()
        assert kmap.darboux_defect_cleared(P).is_zero()
        assert darboux_defect_term_by_term(kmap, P).is_zero()
        bumped = P + X(f.dim, f.nvars) ** 2 * X(0, f.nvars) ** 2
        got = kmap.darboux_defect_cleared(bumped)
        assert not got.is_zero() and got == darboux_defect_term_by_term(kmap, bumped)


# the Volterra chain's matrices: the random draws of divfree_homogeneous_r3
# have no density at low order
_HALF = Rat(1, 2)
_VOLTERRA_MATRICES = {
    "A": [[0, _HALF, -_HALF], [_HALF, 0, 0], [-_HALF, 0, 0]],
    "B": [[0, -_HALF, 0], [-_HALF, 0, _HALF], [0, _HALF, 0]],
    "C": [[0, 0, _HALF], [0, 0, -_HALF], [_HALF, -_HALF, 0]],
}


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_defect_clears_by_one_power_of_den_less(name):
    # den S_{D+1}(P) - P S_{D+1}(N+), both terms at one clear power, is den
    # times the defect cleared at D = max(deg_x P - 1, dim), for a density
    # and for perturbations of x-degree 2 and dim + 2
    params = _VOLTERRA_MATRICES if name == "divfree_homogeneous_r3" else None
    f = get_system(name, params, seed=0)
    P = solve_darboux(f, 6 if name == "nambu_inhomogeneous" else 4, parity="even", seed=0).densities[0]
    kmap, nv = f.kahan_map(), f.nvars
    h, x1 = X(f.dim, nv), X(0, nv)
    for Q in (P, P + h**2 * x1**2, P + h**2 * x1 ** (f.dim + 2)):
        D = max(Q.x_degree() - 1, f.dim)
        got = kmap.darboux_defect_cleared(Q)
        one_power = kmap.den * kmap.substitute(Q, D + 1) - Q * kmap.substitute(kmap.n_plus, D + 1)
        assert one_power == kmap.den * got
        assert got.is_zero() is (Q is P)


def test_defect_cache_holds_no_product_of_the_top_degree():
    # the degree-D keys go through the last Horner step, one product per variable
    f = get_system("nambu_homogeneous", seed=0)
    h = X(f.dim, f.nvars)
    P = (1 - h**2 * f.aroma_function(TWO_CYCLE) * Rat(1, 24)) ** 2
    for P, D in ((P, 4), (P + h**2 * X(0) ** 5, 5)):
        kmap = KahanMap(f)
        assert P.x_degree() == D > f.dim
        assert kmap.darboux_defect_cleared(P).is_zero() is (D == 4)
        degrees = {sum(unpack_exponents(k, f.nvars)[: f.dim]) for k in kmap.subs_cache}
        assert max(degrees) == D - 1
        assert all(isinstance(entry.terms, dict) for entry in kmap.subs_cache.values())


def test_kahan_series_matches_map_expansion():
    rng = random.Random(37)
    for n in (1, 2, 3):
        f = random_quadratic_field(rng, n)
        assert KahanMap(f).series(4) == kahan_series_closed_form(f, 4)
    with pytest.raises(ValueError):
        KahanMap(f).series(-1)


def test_kahan_series_tall_tree_coefficients():
    f = lv_special()
    series = KahanMap(f).series(3)
    assert series[0] == [X(0), X(1), X(2)]
    assert series[1] == f.components
    # h^3 coefficient is b(tall-3) F(tall-3) = (1/4)(f')^2 f
    ed = elementary_differential(f, tall_tree(3))
    assert series[3] == [p * Rat(1, 4) for p in ed]


def test_affine_pullback_identity_and_scaling():
    f = lv_special()
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert affine_pullback(f, eye).to_json() == f.to_json()
    g = QuadraticVectorField([X(0, 3) ** 2])
    scaled = affine_pullback(g, [[2]])
    assert scaled.components[0] == Polynomial.variable(3, 0) ** 2 * 2
    with pytest.raises(ValueError):
        affine_pullback(g, [[0]])


def test_affine_pullback_lv_to_dressing_chain():
    # x = x~+z~, y = x~+y~, z = y~+z~ sends the LV flow to the dressing chain
    A = [[1, 0, 1], [1, 1, 0], [0, 1, 1]]
    pulled = affine_pullback(lv(1, 1, 1), A)
    assert pulled.to_json() == dressing_chain(0, 0, 0).to_json()


def test_aroma_equivariance():
    rng = random.Random(41)
    n = 2
    f = random_quadratic_field(rng, n)
    A = random_invertible(rng, n)
    v = random_vector(rng, n)
    g = affine_pullback(f, A, v)
    nv = n + 2
    linear_forms = [
        sum(
            (Polynomial.variable(nv, l) * A[j][l] for l in range(n)),
            Polynomial.const(nv, v[j]),
        )
        for j in range(n)
    ]
    one = Polynomial.const(nv, 1)
    for mset in enumerate_multisets(4):
        lhs = g.aroma_function(mset)
        p = f.aroma_function(mset)
        rhs = rf_substitute(p, linear_forms, one, p.x_degree())
        assert lhs == rhs, mset.encoding


def test_modified_hamiltonian_zero_and_cubic():
    J = [[0, 1], [-1, 0]]
    nv = 4
    zero = Polynomial.zero(nv)
    assert modified_hamiltonian(hamiltonian_field(J, zero), zero) == RationalFunction(zero)
    # H = x^3/3 gives f = (0, -x^2); invariance is checked exactly
    H = Polynomial.variable(nv, 0) ** 3 * Rat(1, 3)
    f = hamiltonian_field(J, H)
    assert f.components[0].is_zero()
    assert f.components[1] == -(Polynomial.variable(nv, 0) ** 2)
    ht = modified_hamiltonian(f, H)
    m = KahanMap(f)
    D = max(ht.num.x_degree(), 2)
    assert m.substitute(ht.num, D) * ht.den == ht.num * m.substitute(ht.den, D)


def test_modified_hamiltonian_quadratic_case():
    rng = random.Random(43)
    J = [[0, 1], [-1, 0]]
    nv = 4
    H = Polynomial.zero(nv)
    for _ in range(4):
        e = [0] * nv
        for _ in range(2):
            e[rng.randrange(2)] += 1
        H = H + Polynomial.monomial(nv, e, Rat(rng.randint(-3, 3), rng.randint(1, 2)))
    f = hamiltonian_field(J, H)
    ht = modified_hamiltonian(f, H)
    m = KahanMap(f)
    D = max(ht.num.x_degree(), 2)
    assert m.substitute(ht.num, D) * ht.den == ht.num * m.substitute(ht.den, D)


def test_modified_hamiltonian_rejects_bad_input():
    nv = 4
    H = Polynomial.variable(nv, 0) ** 3
    with pytest.raises(ValueError):
        hamiltonian_field([[0, 1], [1, 0]], H)  # not skew
    with pytest.raises(ValueError):
        hamiltonian_field([[0, 1], [-1, 0]], Polynomial.variable(nv, 0) ** 4)


def test_apply_point_matches_symbolic_map():
    # the map's numerators over den against a linear solve of the step
    rng = random.Random(47)
    fields = [
        lv_special(),
        random_quadratic_field(rng, 2),
        random_quadratic_field(rng, 3),
        random_quadratic_field(rng, 1),
        QuadraticVectorField.from_json({"dim": 2}),  # the zero field: den 1, x' = x
    ]
    for f in fields:
        m = KahanMap(f)
        for _ in range(3):
            xs = [Rat(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(f.dim)]
            h = Rat(rng.randint(-9, 9), rng.randint(1, 5))
            _, image = m.apply_point(PointEvaluator(f.nvars, xs + [h, Rat(0)]))
            assert image == kahan_step_by_solve(f, xs, h)
    # on det(M) = 0 there is no step: 1 - h x vanishes at x = h = 1 for x' = x^2
    g = QuadraticVectorField([X(0, 3) ** 2])
    at_pole = PointEvaluator(g.nvars, [Rat(1), Rat(1), Rat(0)])
    assert KahanMap(g).apply_point(at_pole) == (0, None)
    assert kahan_step_by_solve(g, [Rat(1)], Rat(1)) is None


def test_kahan_map_is_cached_and_dies_with_its_field():
    # a field -> map -> field cycle would keep the substitution cache alive
    # after the last caller until the cycle collector ran
    f = lv_divfree()
    kmap = f.kahan_map()
    assert f.kahan_map() is kmap
    ref = weakref.ref(kmap)
    collecting = gc.isenabled()
    gc.disable()
    try:
        del f, kmap
        assert ref() is None
    finally:
        if collecting:
            gc.enable()


def test_aroma_function_refuses_an_encoding():
    with pytest.raises(TypeError, match="expects an Aroma or AromaMultiset"):
        lv_divfree().aroma_function("C1()")


_BOUND_FIELDS = {
    **{name: lambda name=name: get_system(name, None, seed=0) for name in sorted(SYSTEMS)},
    **{f"dense-{n}": lambda n=n: random_quadratic_field(random.Random(n), n) for n in range(1, 5)},
}


@pytest.mark.parametrize("name", sorted(_BOUND_FIELDS))
def test_tree_bounds_cover_the_vectors(name):
    # a tree's stored bound is predicted from the partials' degrees before
    # its vector is multiplied; it must cover the degrees the vector has
    field = _BOUND_FIELDS[name]()
    for order in range(1, 7):
        for tree in enumerate_trees(order):
            vector, bound = field._tree_vector(tree)
            for component, degrees in zip(vector, bound):
                if component:
                    assert degrees is not None
                    assert all(m <= b for m, b in zip(_degrees(component, field.dim), degrees))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: QuadraticVectorField([]), "dimension must be at least 1"),
        (
            lambda: QuadraticVectorField.from_json({"dim": 2, "linear": [[1, 2.0, 1]]}),
            "field entry [1, 2.0, 1] has an index that is not an integer",
        ),
        (
            lambda: QuadraticVectorField([Polynomial.variable(5, 0)]),
            "component polynomial has the wrong variable universe",
        ),
        (
            lambda: QuadraticVectorField([Polynomial.variable(3, 1)]),
            "vector field components must not involve h or u",
        ),
        (
            lambda: hamiltonian_field([[0, 1], [-1, 0]], Polynomial.variable(5, 0)),
            "Hamiltonian lives in the wrong variable universe",
        ),
    ],
    ids=["dim-zero", "index-not-int", "wrong-universe", "component-in-h", "hamiltonian-universe"],
)
def test_field_input_errors(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message
