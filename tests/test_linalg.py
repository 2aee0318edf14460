"""Exact linear algebra against plain `Fraction` Gauss-Jordan elimination."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from kahan_aromas.linalg import (
    P,
    _HALF,
    _echelon_nullspace,
    _fold,
    _int_rows,
    _rebuild,
    complement,
    in_span,
    intersect_rowspaces,
    invert_rational_matrix,
    nullspace,
    pivot_columns,
    rank,
    rref,
)
from kahan_aromas.rationals import Rat, ZERO, ONE

from oracles import oracle_det, rref_by_fractions


def oracle_nullspace(rows, ncols):
    """One vector per free column of the oracle rref, first nonzero entry 1."""
    reduced = rref_by_fractions(rows, ncols)
    pivots = [next(j for j, v in enumerate(row) if v) for row in reduced]
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [ZERO] * ncols
        vec[f] = ONE
        for row, p in zip(reduced, pivots):
            vec[p] = -row[f]
        first = next(v for v in vec if v)
        basis.append([v / first for v in vec])
    return basis


def oracle_complement(rows, ncols):
    """The canonical basis of the right nullspace: its rref."""
    return rref_by_fractions(oracle_nullspace(rows, ncols), ncols)


def oracle_in_span(basis, target, ncols):
    if not any(target):
        return [ZERO] * len(basis)
    rows = [[row[j] for row in basis] + [target[j]] for j in range(ncols)]
    for vec in oracle_nullspace(rows, len(basis) + 1):
        if vec[-1]:
            return [-v / vec[-1] for v in vec[:-1]]
    return None


def oracle_intersection(a, b, ncols):
    """Zassenhaus: rows [a | a] and [b | 0]; the reduced rows whose left half
    vanishes span the intersection in their right half."""
    if not a or not b:
        return []
    stacked = [list(r) + list(r) for r in a] + [list(r) + [ZERO] * ncols for r in b]
    reduced = rref_by_fractions(stacked, 2 * ncols)
    return rref_by_fractions([row[ncols:] for row in reduced if not any(row[:ncols])], ncols)


def oracle_pivot_columns(rows, ncols):
    """Each column kept when it raises the rank of the columns before it."""
    kept = []
    for j in range(ncols):
        if len(rref_by_fractions([row[: j + 1] for row in rows], j + 1)) > len(kept):
            kept.append(j)
    return kept


def oracle_solve(square, rhs_rows):
    """X with square X = B (B by rows), or None when square is singular."""
    if oracle_det(square) == 0:
        return None
    n = len(square)
    width = len(rhs_rows[0]) if rhs_rows else 0
    aug = [list(row) + list(b) for row, b in zip(square, rhs_rows)]
    return [row[n:] for row in rref_by_fractions(aug, n + width)]


RATIONALS = st.builds(Rat, st.integers(-4, 4), st.integers(1, 3))
WIDE = st.integers(100, 400).flatmap(
    lambda bits: st.builds(Rat, st.integers(-(1 << bits), 1 << bits).filter(bool), st.integers(1, 1 << bits))
)
SHAPES = ("product", "no_rows", "zero_column", "one_row", "square_singular")


@st.composite
def rank_deficient(draw, ncols=None):
    """A product of random rational factors through an inner dimension no
    larger than either side, so the rank is at most that inner size."""
    shape = draw(st.sampled_from(SHAPES))
    if ncols is None:
        ncols = draw(st.integers(1, 6))
    nrows = {"no_rows": 0, "one_row": 1, "square_singular": ncols}.get(shape)
    if nrows is None:
        nrows = draw(st.integers(0, 7))
    inner = draw(st.integers(0, max(0, min(nrows, ncols) - (shape == "square_singular"))))
    left = draw(st.lists(st.lists(RATIONALS, min_size=inner, max_size=inner), min_size=nrows, max_size=nrows))
    right = draw(st.lists(st.lists(RATIONALS, min_size=ncols, max_size=ncols), min_size=inner, max_size=inner))
    matrix = [[sum((l[k] * right[k][j] for k in range(inner)), ZERO) for j in range(ncols)] for l in left]
    if shape == "zero_column":
        j = draw(st.integers(0, ncols - 1))
        for row in matrix:
            row[j] = ZERO
    return matrix, ncols


@settings(max_examples=300, deadline=None)
@given(rank_deficient(), st.data())
def test_kernel_matches_fraction_oracle(drawn, data):
    matrix, ncols = drawn
    reduced = rref_by_fractions(matrix, ncols)
    assert rref(matrix, ncols) == reduced
    assert rank(matrix, ncols) == len(reduced)
    assert nullspace(matrix, ncols) == oracle_nullspace(matrix, ncols)
    assert complement(matrix, ncols) == oracle_complement(matrix, ncols)
    assert pivot_columns(matrix, ncols) == oracle_pivot_columns(matrix, ncols)

    coeffs = data.draw(st.lists(RATIONALS, min_size=len(matrix), max_size=len(matrix)))
    inside = [sum((c * row[j] for c, row in zip(coeffs, matrix)), ZERO) for j in range(ncols)]
    outside = data.draw(st.lists(RATIONALS, min_size=ncols, max_size=ncols))
    for target in (inside, outside):
        assert in_span(matrix, target, ncols) == oracle_in_span(matrix, target, ncols)

    other, _ = data.draw(rank_deficient(ncols))
    third, _ = data.draw(rank_deficient(ncols))
    pairwise = oracle_intersection(matrix, other, ncols)
    assert intersect_rowspaces([matrix, other], ncols) == pairwise
    assert intersect_rowspaces([matrix, other, third], ncols) == oracle_intersection(pairwise, third, ncols)

    k = min(len(matrix), ncols)
    square = [row[:k] for row in matrix[:k]]
    identity = [[ONE if i == j else ZERO for j in range(k)] for i in range(k)]
    assert invert_rational_matrix(square) == oracle_solve(square, identity)

    # nonzero row scales of 100-400 bits keep the nullspace; read off the
    # echelon form mod P, it is rebuilt exactly when its entries are within
    # the bound of the rational reconstruction
    row_scales = data.draw(st.lists(WIDE, min_size=len(matrix), max_size=len(matrix)))
    wide = [[s * v for v in row] for s, row in zip(row_scales, matrix)]
    expected = nullspace(wide, ncols)
    assert expected == nullspace(matrix, ncols)
    echelon: dict = {}
    for row in wide:
        _fold(echelon, residues(row), ncols)
    small = all(abs(v.numerator) <= _HALF and v.denominator <= _HALF for vec in expected for v in vec)
    assert (_echelon_nullspace(echelon, ncols) == expected) == small


def residues(row):
    """A rational row cleared to integers (as `_int_rows` clears it), mod P."""
    return [v % P for v in _int_rows([row])[0]]


def folded_ranks(rows, ncols):
    """The size of the echelon form mod P after the first i rows, i = 0 ..
    len(rows), folded one at a time; each pivot row must be reduced mod P,
    1 at its pivot and 0 before it."""
    echelon: dict = {}
    ranks = [0]
    for row in rows:
        _fold(echelon, residues(row), ncols)
        for c, vec in echelon.items():
            assert vec[c] == 1 and not any(vec[:c]) and all(0 <= v < P for v in vec)
        ranks.append(len(echelon))
    return ranks


@settings(max_examples=100, deadline=None)
@given(rank_deficient(), st.data())
def test_rank_of_wide_entries_matches_fraction_oracle(drawn, data):
    # nonzero row and column scales of 100-400 bits keep the rank over Q
    matrix, ncols = drawn
    row_scales = data.draw(st.lists(WIDE, min_size=len(matrix), max_size=len(matrix)))
    col_scales = data.draw(st.lists(WIDE, min_size=ncols, max_size=ncols))
    wide = [[s * v * t for v, t in zip(row, col_scales)] for s, row in zip(row_scales, matrix)]
    assert rank(wide, ncols) == len(rref_by_fractions(wide, ncols))
    assert complement(wide, ncols) == oracle_complement(wide, ncols)
    # folded one at a time in shuffled order, with a copy of a row times P
    # (zero mod P and dependent over Q), the rows reach the same rank
    rows = data.draw(st.permutations(wide + [[P * v for v in row] for row in wide[:1]]))
    assert folded_ranks(rows, ncols)[-1] == len(rref_by_fractions(wide, ncols))


@pytest.mark.parametrize(
    "rows, ncols",
    [
        ([], 3),  # no rows: the whole space
        ([[ZERO, ZERO, ZERO], [ZERO, ZERO, ZERO]], 3),  # zero rows: the whole space
        ([[Rat(2), ONE, ZERO], [ONE, ZERO, Rat(-1, 3)], [ZERO, Rat(5), ONE]], 3),  # full rank: {0}
        ([[ONE, Rat(2), Rat(3), Rat(4)]], 4),  # pivots right to left leave three free columns
        ([[ZERO, ONE, ONE], [ZERO, Rat(2), Rat(2)]], 3),
    ],
)
def test_complement_edge_cases(rows, ncols):
    got = complement(rows, ncols)
    assert got == oracle_complement(rows, ncols)
    assert len(got) == ncols - len(rref_by_fractions(rows, ncols))
    for vec in got:
        assert all(sum((a * b for a, b in zip(row, vec)), ZERO) == 0 for row in rows)


NEAR_P = st.sampled_from([0, 1, -1, 2, P - 1, P, -P, P + 1, 2 * P]).map(Rat)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5), st.integers(1, 5), st.data())
def test_folded_rank_is_a_lower_bound_that_is_exact_when_full(nrows, ncols, data):
    # multiples of P vanish mod P, so the rank mod P of the folded rows may
    # fall below the rank over Q, but never above it; a full rank mod P is
    # therefore the rank over Q, which `rank` gives whatever the entries
    rows = data.draw(st.lists(st.lists(NEAR_P, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    got, exact = folded_ranks(rows, ncols)[-1], len(rref_by_fractions(rows, ncols))
    assert rank(rows, ncols) == exact
    assert got <= exact
    if got == min(nrows, ncols):
        assert got == exact
    # folded one at a time in shuffled order, every prefix keeps the same
    # bounds, and all the rows reach the same rank mod P
    shuffled = data.draw(st.permutations(rows))
    ranks = folded_ranks(shuffled, ncols)
    assert ranks[-1] == got
    for i, folded in enumerate(ranks):
        exact_prefix = len(rref_by_fractions(shuffled[:i], ncols))
        assert folded <= exact_prefix
        if folded == min(i, ncols):
            assert folded == exact_prefix


@pytest.mark.parametrize("n, d", [(1, 1), (_HALF, 1), (1, _HALF), (_HALF, _HALF - 1), (0, 1)])
def test_rational_reconstruction_round_trips_up_to_the_bound(n, d):
    for value in (Rat(n, d), Rat(-n, d)):
        assert _rebuild(value.numerator * pow(value.denominator, -1, P)) == value


@pytest.mark.parametrize("n, d", [(_HALF + 1, 1), (1, _HALF + 1)])
def test_rational_reconstruction_refuses_past_the_bound(n, d):
    # the bound is 2^30 - 1, so 2^30 and 1/2^30 have no representation in it
    assert _HALF == (1 << 30) - 1
    for value in (Rat(n, d), Rat(-n, d)):
        assert _rebuild(value.numerator * pow(value.denominator, -1, P)) is None


def test_echelon_nullspace_past_the_bound_is_refused_or_wrong():
    # the null vector (1, -2^30) of one row has an entry just past the bound,
    # so no vector comes back; (1, -3^40) has one far past it whose residue
    # rebuilds to another rational, which only an exact check can tell
    for entry, rebuilt in ((1 << 30, None), (3**40, [[ONE, Rat(-736460086, 384926601)]])):
        echelon: dict = {}
        _fold(echelon, residues([Rat(entry), ONE]), 2)
        assert nullspace([[Rat(entry), ONE]], 2) == [[ONE, Rat(-entry)]]
        assert _echelon_nullspace(echelon, 2) == rebuilt


def test_folded_rank_below_full_is_only_a_lower_bound():
    # P vanishes mod P, so the folded rank falls below the rank over Q
    for rows, folded, exact in (([[Rat(P)]], 0, 1), ([[Rat(P), ZERO], [ZERO, ONE]], 1, 2)):
        assert folded_ranks(rows, len(rows))[-1] == folded
        assert rank(rows, len(rows)) == exact


def test_nullspace_identity():
    eye = [[ONE, ZERO, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]]
    assert nullspace(eye, 3) == []


def test_nullspace_zero_matrix():
    zero = [[ZERO, ZERO, ZERO], [ZERO, ZERO, ZERO]]
    basis = nullspace(zero, 3)
    assert len(basis) == 3


def test_nullspace_rank_one_normalized():
    rows = [[Rat(1), Rat(2)], [Rat(2), Rat(4)]]
    assert nullspace(rows, 2) == [[Rat(1), Rat(-1, 2)]]


@given(st.integers(0, 10_000))
def test_nullspace_properties_random(seed):
    rng = random.Random(seed)
    m = rng.randint(1, 6)
    n = rng.randint(1, 6)
    rows = [
        [Rat(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)] for _ in range(m)
    ]
    basis = nullspace(rows, n)
    for vec in basis:
        for row in rows:
            assert sum((row[j] * vec[j] for j in range(n)), ZERO) == 0
        first = next(v for v in vec if v != 0)
        assert first == 1
    assert rank(rows, n) + len(basis) == n
    assert rank(rows, n) == len(rref_by_fractions(rows, n))


def test_rref_canonical_and_rowspace_equality():
    a = [[Rat(2), Rat(4), Rat(0)], [Rat(1), Rat(2), Rat(1)]]
    b = [[Rat(1), Rat(2), Rat(0)], [Rat(0), Rat(0), Rat(3)]]
    assert rref(a, 3) == rref(b, 3)


def test_in_span():
    basis = [[Rat(1), Rat(0), Rat(1)], [Rat(0), Rat(1), Rat(1)]]
    coords = in_span(basis, [Rat(2), Rat(3), Rat(5)], 3)
    assert coords == [Rat(2), Rat(3)]
    assert in_span(basis, [Rat(0), Rat(0), Rat(1)], 3) is None
    assert in_span(basis, [ZERO, ZERO, ZERO], 3) == [ZERO, ZERO]
    # an empty basis spans only the zero vector
    assert in_span([], [ZERO, ZERO, ZERO], 3) == []
    assert in_span([], [Rat(0), Rat(1), Rat(0)], 3) is None
    # a repeated row is a free column of the transposed system: coordinate 0
    repeated = [basis[0], basis[0], basis[1]]
    target = [Rat(2), Rat(3), Rat(5)]
    coords = in_span(repeated, target, 3)
    assert coords == [Rat(2), ZERO, Rat(3)]
    assert [sum((c * row[j] for c, row in zip(coords, repeated)), ZERO) for j in range(3)] == target
    for wrong in (target + [ONE], target[:-1]):
        with pytest.raises(ValueError, match="entries"):
            in_span(basis, wrong, 3)


def test_intersect_rowspaces():
    a = [[Rat(1), Rat(0), Rat(0)], [Rat(0), Rat(1), Rat(0)]]
    b = [[Rat(0), Rat(1), Rat(0)], [Rat(0), Rat(0), Rat(1)]]
    inter = intersect_rowspaces([a, b], 3)
    assert inter == [[ZERO, ONE, ZERO]]
    assert intersect_rowspaces([a, []], 3) == []
