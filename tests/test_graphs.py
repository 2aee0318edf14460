"""Aroma combinatorics against the brute-force functional-graph oracle."""

import hashlib
import json
import time
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from kahan_aromas.graphs import (
    Aroma,
    AromaMultiset,
    Forest,
    LEAF,
    LOOP,
    LOOP_WITH_TAIL,
    TAILED_TWO_CYCLE,
    THREE_CYCLE,
    TWO_CYCLE,
    UNIT,
    enumerate_aromas,
    enumerate_forests,
    enumerate_multisets,
    enumerate_trees,
    parse_any,
    parse_aroma,
    parse_multiset,
    tall_tree,
)
from kahan_aromas.corpus import SYSTEMS, get_system

from oracles import (
    aroma_structure,
    automorphism_count,
    contains_self_loop,
    functional_graph_classes,
    is_unit,
    multiset_to_endomap,
    orbit_representative,
    rooted_tree_classes,
)


def test_canonical_encodings_pinned():
    assert LOOP.encoding == "C1()"
    assert TWO_CYCLE.encoding == "C2(;)"
    # rotation minimization puts the empty forest first
    assert TAILED_TWO_CYCLE.encoding == "C2(;[])"
    assert Aroma(2, (Forest((LEAF,)), Forest(()))).encoding == "C2(;[])"
    assert UNIT.encoding == "1"
    assert AromaMultiset((LOOP, LOOP)).encoding == "C1()*C1()"


def test_enumeration_counts_match_oracle():
    for order in range(1, 7):
        assert len(enumerate_aromas(order)) == len(functional_graph_classes(order))


def test_enumeration_bijective_with_oracle_classes():
    for order in range(1, 6):
        oracle = {orbit_representative(g) for g in functional_graph_classes(order)}
        ours = {
            orbit_representative(multiset_to_endomap(AromaMultiset((a,))))
            for a in enumerate_aromas(order)
        }
        assert ours == oracle


def test_tree_counts_match_oracle():
    for order in range(1, 7):
        assert len(enumerate_trees(order)) == len(rooted_tree_classes(order))


def test_multiset_counts():
    assert [m.encoding for m in enumerate_multisets(1)] == ["1", "C1()"]
    assert len(enumerate_multisets(2)) == 5
    assert len(enumerate_multisets(3)) == 12


def test_indegree_filter():
    # the two-tailed loop has a vertex of total indegree 3 (self-loop counts)
    two_tails = Aroma(1, (Forest((LEAF, LEAF)),))
    assert two_tails.max_indegree() == 3
    filtered = enumerate_multisets(3, max_indegree=2)
    encodings = {m.encoding for m in filtered}
    assert two_tails.encoding not in encodings
    assert TAILED_TWO_CYCLE.encoding in encodings
    assert len(filtered) == 11  # only the two-tailed loop drops at order 3


def test_max_indegree_of_a_deep_tree():
    # the children are built first, so 1500 levels need no recursion
    deep = "[" * 1500 + "]" * 1500
    assert parse_any(deep).max_indegree() == 1
    assert parse_multiset("C1(" + deep + ")").max_indegree() == 2


def test_sigma_golden_values():
    assert UNIT.sigma() == 1
    assert THREE_CYCLE.sigma() == 3
    assert TAILED_TWO_CYCLE.sigma() == 1
    assert AromaMultiset((TWO_CYCLE, TWO_CYCLE)).sigma() == 8


def test_sigma_matches_bruteforce_automorphisms():
    for order in range(1, 6):
        for mset in enumerate_multisets(order):
            if mset.order != order or is_unit(mset):
                continue
            assert mset.sigma() == automorphism_count(multiset_to_endomap(mset)), (
                mset.encoding
            )


def test_sigma_multiset_laws():
    aromas3 = enumerate_aromas(3)
    for a in enumerate_aromas(2):
        for b in aromas3:
            assert AromaMultiset((a, b)).sigma() == a.sigma() * b.sigma()
        for m in (2, 3):
            power = AromaMultiset((a,) * m)
            import math

            assert power.sigma() == a.sigma() ** m * math.factorial(m)


def test_tall_tree():
    t = tall_tree(3)
    assert t.encoding == "[[[]]]"
    assert t.sigma() == 1
    assert t.is_tall()
    assert not parse_any("[[][]]").is_tall()


def test_tree_and_forest_enumeration_basics():
    assert len(enumerate_trees(1)) == 1
    assert len(enumerate_trees(4)) == 4
    assert [f.encoding for f in enumerate_forests(0)] == [""]
    assert len(enumerate_forests(3)) == 4


def test_enumerate_aromas_spec_counts():
    assert len(enumerate_aromas(1)) == 1
    assert len(enumerate_aromas(2)) == 2
    assert len(enumerate_aromas(3)) == 4
    assert len(enumerate_aromas(4)) == 9


def test_errors_on_bad_orders():
    with pytest.raises(ValueError):
        enumerate_aromas(0)
    with pytest.raises(ValueError):
        enumerate_trees(0)
    with pytest.raises(ValueError):
        enumerate_multisets(-1)


def test_encode_parse_idempotent_through_order_6():
    for mset in enumerate_multisets(6):
        again = parse_multiset(mset.encoding)
        assert again == mset
        assert again.encoding == mset.encoding


def test_parse_rejects_malformed():
    # messages pinned before the parser became one explicit-stack loop
    messages = {
        "C2(;": "aroma encoding must end with ')': 'C2(;'",
        "[": "unbalanced brackets in '['",
        "[]]": "expected '[' at position 2 in '[]]'",
        "C0()": "an aroma has a cycle of length >= 1",
        "Cx()": "aroma cycle length must be a positive integer: 'Cx()'",
        "C2()": "aroma 'C2()' must carry exactly 2 forests",
        "]": "expected '[' at position 0 in ']'",
        "x": "expected '[' at position 0 in 'x'",
        "[x]": "unbalanced brackets in '[x]'",
        "[]][": "expected '[' at position 2 in '[]]['",
        "C1(])": "expected '[' at position 0 in ']'",
        "*": "expected '[' at position 0 in '*'",
        "C1(x)": "expected '[' at position 0 in 'x'",
        "[[]": "unbalanced brackets in '[[]'",
        "C2(;[]]": "aroma encoding must end with ')': 'C2(;[]]'",
    }
    for bad, message in messages.items():
        with pytest.raises(ValueError) as info:
            parse_any(bad)
        assert str(info.value) == message, bad


# SHA-256 of the enumerations (encoding, order, sigma, the structural
# predicates and the class multiplicities, in enumeration order) and of the aromatic functions of every
# multiset of order <= 4 on every corpus system (default draw, seed 0),
# taken before the graph classes shared one identity base and one sigma
GRAPHS_DIGEST_SHA256 = "7c306b86e3455d3074617ae20526faeec8b5f93604cabd25ccda4297a073b9f2"


def _graphs_digest_lines():
    for order in range(1, 7):
        for t in enumerate_trees(order):
            yield ["tree", t.encoding, t.order, t.sigma(), t.max_indegree(), t.is_tall()]
    for order in range(6):
        for f in enumerate_forests(order):
            yield ["forest", f.encoding, f.order, f.sigma()]
    for order in range(1, 7):
        for a in enumerate_aromas(order):
            yield ["aroma", a.encoding, a.order, a.sigma(), a.max_indegree(), a.is_bare_cycle()]
    for bound in (None, 2):
        for m in enumerate_multisets(7, bound):
            yield [
                "multiset",
                bound,
                m.encoding,
                m.order,
                m.sigma(),
                m.max_indegree(),
                m.is_cycle_product(),
                m.permutation_sign(),
                contains_self_loop(m),
                [count for _, count in m.classes()],
            ]
    multisets = enumerate_multisets(4)
    for name in sorted(SYSTEMS):
        field = get_system(name)
        for m in multisets:
            yield ["function", name, m.encoding, field.aroma_function(m).to_json()]


def test_graphs_digest_pinned():
    text = "\n".join(json.dumps(line) for line in _graphs_digest_lines())
    assert hashlib.sha256(text.encode()).hexdigest() == GRAPHS_DIGEST_SHA256


@given(st.integers(1, 5))
def test_aroma_rotation_canonicalization_idempotent(order):
    for a in enumerate_aromas(order):
        rebuilt = Aroma(a.cycle_len, a.decorations)
        assert rebuilt.encoding == a.encoding
        for r in range(a.cycle_len):
            rotated = a.decorations[r:] + a.decorations[:r]
            assert Aroma(a.cycle_len, rotated) == a


def test_a_long_cycle_is_canonicalized_one_rotation_at_a_time():
    # all 4,000 rotations held at once are 16 M references, about 128 MB
    k = 4000
    text = f"C{k}(" + ";".join(["[]"] + [""] * (k - 1)) + ")"
    tracemalloc.start()
    try:
        aroma = parse_aroma(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert aroma.encoding == f"C{k}(" + ";" * (k - 1) + "[])"
    assert peak < 4_000_000


@pytest.mark.parametrize("tail", [False, True], ids=["bare", "one-tail"])
def test_sigma_of_a_long_cycle_reads_its_least_period(tail):
    # comparing all k rotations would take about as long as building the
    # canonical rotation; a ratio of the two does not depend on the host
    k = 8000
    text = f"C{k}(" + ";".join(["[]" if tail else ""] + [""] * (k - 1)) + ")"
    start = time.perf_counter()
    aroma = parse_aroma(text)
    built = time.perf_counter() - start
    start = time.perf_counter()
    assert aroma.sigma() == (1 if tail else k)
    assert time.perf_counter() - start < built / 4


def test_structure_shapes():
    preds, tree_kids, k = aroma_structure(TAILED_TWO_CYCLE)
    assert k == 2 and len(preds) == 3
    indegrees = sorted(len(p) for p in preds)
    assert indegrees == [0, 1, 2]
    assert LOOP_WITH_TAIL.max_indegree() == 2


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Aroma(2, (Forest(),)), "one decoration forest per cycle vertex required"),
        (lambda: enumerate_forests(-1), "forest order must be nonnegative"),
        (lambda: tall_tree(0), "tree order must be at least 1"),
        (lambda: parse_aroma("[]"), "aroma encoding must start with 'C': '[]'"),
    ],
    ids=["decoration-count", "negative-forest-order", "tall-tree-zero", "aroma-without-C"],
)
def test_graph_input_errors(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message
