"""Structural invariants of the built-in systems and their golden suites."""

import random

import pytest
from hypothesis import given, strategies as st

import kahan_aromas.corpus as corpus_mod
from kahan_aromas.corpus import (
    _adjugate,
    SYSTEMS,
    divfree_homogeneous_r3,
    dressing_chain,
    get_system,
    golden_suite,
    ishii,
    ishii_invariants,
    lv,
    lv_divfree,
    lv_special,
    nambu_homogeneous,
    nambu_inhomogeneous,
    random_ishii_params,
    random_symmetric,
    random_vector,
)
from kahan_aromas.fields import KahanMap
from kahan_aromas.poly import Polynomial
from kahan_aromas.rationals import Rat

from oracles import oracle_det


def test_registry_covers_golden_suites():
    for name, spec in SYSTEMS.items():
        assert callable(spec.golden)
        f = get_system(name, seed=1)
        assert f.dim in (2, 3)


def test_lv_variants_match_spec_triples():
    f = lv_divfree()
    assert [str(p) for p in f.components] == [
        "x1*x2 - x1*x3",
        "-x1*x2 + x2*x3",
        "x1*x3 - x2*x3",
    ]
    g = lv_special()
    assert [str(p) for p in g.components] == [
        "x1*x2 + x1*x3",
        "-x1*x2 - x2*x3",
        "-x1*x3 + x2*x3",
    ]
    # at alpha=beta=gamma=1 this orientation is the time-reversed Volterra form
    assert lv(1, 1, 1).to_json() == {
        "dim": 3,
        "quadratic": [
            [1, 1, 2, "-1"],
            [1, 1, 3, "1"],
            [2, 1, 2, "1"],
            [2, 2, 3, "-1"],
            [3, 1, 3, "-1"],
            [3, 2, 3, "1"],
        ],
        "linear": [],
        "constant": [],
    }


def test_lv_conserves_linear_integral():
    rng = random.Random(1)
    for _ in range(3):
        f = lv(
            Rat(rng.randint(-3, 3), 2),
            Rat(rng.randint(-3, 3), 2),
            Rat(rng.randint(-3, 3), 2),
        )
        total = sum(f.components, Polynomial.zero(5))
        assert total.is_zero()


def test_dressing_chain_divergence_free():
    f = dressing_chain(Rat(1, 2), Rat(2), Rat(-1, 3))
    assert f.is_divergence_free()


def test_nambu_first_integral_structure():
    rng = random.Random(2)
    A, B = random_symmetric(rng), random_symmetric(rng)
    f = nambu_homogeneous(A, B)
    assert f.is_divergence_free()
    h = nambu_inhomogeneous(A, random_vector(rng), B, random_vector(rng))
    assert h.is_divergence_free()


def test_nambu_requires_symmetric_matrices():
    with pytest.raises(ValueError):
        nambu_homogeneous([[0, 1, 0], [0, 0, 0], [0, 0, 0]], [[1, 0, 0]] * 3)


def test_ishii_volume_preservation():
    params, _ = random_ishii_params(random.Random(3))
    f = ishii(**params)
    assert f.is_divergence_free()
    kmap = KahanMap(f)
    assert kmap.substitute(kmap.n_plus, 3) == kmap.den**4


def test_ishii_modified_invariant_is_preserved():
    params, _ = random_ishii_params(random.Random(4))
    f = ishii(**params)
    h1t, _g2 = ishii_invariants(**params)
    kmap = KahanMap(f)
    D = max(h1t.x_degree(), 3)
    # H1~ o Phi == H1~ exactly (det DPhi == 1, so numerators compare directly)
    assert kmap.substitute(h1t, D) == h1t * kmap.den**D


def test_get_system_unknown_and_params():
    with pytest.raises(ValueError, match="unknown system 'nope'"):
        get_system("nope")
    f = get_system("lv", {"alpha": "1", "beta": "1", "gamma": "-1"})
    assert f.to_json() == lv_special().to_json()


def test_cheap_golden_suites_pass():
    for name in ("lv", "lv_divfree", "lv_special", "canonical_hamiltonian"):
        checks = golden_suite(name, seed=0)
        assert checks and all(c.passed for c in checks), name


def test_canonical_hamiltonian_suite_builds_one_kahan_map(monkeypatch):
    # the modified Hamiltonian reads the numerators off the suite's own map
    built = []
    init = KahanMap.__init__

    def counting(self, field):
        built.append(field)
        init(self, field)

    monkeypatch.setattr(KahanMap, "__init__", counting)
    checks = golden_suite("canonical_hamiltonian", seed=0)
    assert all(c.passed for c in checks)
    assert len(built) == 1


def test_corpus_fields_self_adjoint():
    from test_fields import _self_adjoint_exact

    for f in (
        lv_divfree(),
        lv_special(),
        dressing_chain(Rat(1, 2), 0, Rat(-1, 3)),
        ishii(**random_ishii_params(random.Random(6))[0]),
    ):
        assert _self_adjoint_exact(f)


def test_frozen_solver_report_fixture(capsys):
    # the full report for a fixed seed is a byte-frozen golden fixture
    import os

    from kahan_aromas.cli import main

    path = os.path.join(os.path.dirname(__file__), "fixtures", "lv_divfree_order4_even_seed0.json")
    with open(path) as fh:
        expected = fh.read()
    code = main(
        ["darboux", "solve", "--system", "lv_divfree", "--order", "4", "--parity", "even", "--seed", "0"]
    )
    out = capsys.readouterr().out
    assert code == 0 and out == expected


_ENTRY = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@given(
    st.lists(st.lists(_ENTRY, min_size=3, max_size=3), min_size=3, max_size=3),
    st.tuples(_ENTRY, _ENTRY),
    st.booleans(),
)
def test_adjugate_times_matrix_is_det_times_identity(rows, coeffs, singular):
    if singular:  # the last row a combination of the others
        rows[2] = [coeffs[0] * a + coeffs[1] * b for a, b in zip(rows[0], rows[1])]
    M = [[Rat(v) for v in row] for row in rows]
    adj = _adjugate(M)
    det = oracle_det(M)
    scaled_eye = [[det if i == j else 0 for j in range(3)] for i in range(3)]

    def mul(A, B):
        return [[sum(A[i][k] * B[k][j] for k in range(3)) for j in range(3)] for i in range(3)]

    assert mul(adj, M) == scaled_eye
    assert mul(M, adj) == scaled_eye


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: divfree_homogeneous_r3([[1, 0, 0], [0, 0, 0], [0, 0, 0]], [[0] * 3] * 3, [[0] * 3] * 3),
            "matrices violate the divergence-free constraint",
        ),
    ],
    ids=["divergence-free-constraint"],
)
def test_corpus_input_errors(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def test_divfree_r3_suite_checks_the_conjectured_density(monkeypatch):
    # the forms of lv_divfree meet the hypothesis, so the suite checks for
    # the conjectured density instead of reporting the draw
    h = Rat(1, 2)
    forms = {
        "A": [[0, h, -h], [h, 0, 0], [-h, 0, 0]],
        "B": [[0, -h, 0], [-h, 0, h], [0, h, 0]],
        "C": [[0, 0, h], [0, 0, -h], [h, -h, 0]],
    }
    monkeypatch.setattr(corpus_mod, "random_divfree_homogeneous_r3_params", lambda rng: forms)
    checks = golden_suite("divfree_homogeneous_r3", seed=0)
    assert [(c.name, c.passed) for c in checks] == [("divergence vanishes", True), ("conjectured density found", True)]


def test_nambu_homogeneous_suite_rerolls_a_degenerate_draw(monkeypatch):
    # a zero first draw is the zero field, whose F(2-cycle) vanishes
    zero = [[0] * 3 for _ in range(3)]
    draws = iter([zero, zero])
    monkeypatch.setattr(corpus_mod, "random_symmetric", lambda rng, original=random_symmetric: next(draws, None) or original(rng))
    checks = golden_suite("nambu_homogeneous", seed=0)
    assert checks[0].name == "re-rolled degenerate draw"
    assert all(c.passed for c in checks)
