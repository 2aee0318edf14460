"""Exact linear algebra over Q: nullspaces, rank, canonical subspace bases.

Every exact operation runs one kernel, `_reduce`: fraction-free
Gauss-Jordan elimination (Bareiss) on rows cleared to Python ints.  Each
division in it is exact, and at the end every pivot row has the same
leading value d, so the reduced row echelon form, nullspace vectors,
inverses and solutions are integers over d; rationals are built once, at
the public return.
Pivoting is "first nonzero in fixed row order", which makes every output
deterministic for a fixed row/column order.  `complement`, the canonical
basis of the orthogonal complement of a row space, takes the columns right
to left, so its one pass yields the nullspace vectors already reduced.
The rest serves only the solver's draw loop and works modulo the prime
P = 2^61 - 1, where no entry grows: `_fold` folds rows of residues one at a
time into an echelon form, and `_echelon_nullspace` rebuilds its nullspace
over Q by rational reconstruction, for a caller to check.
"""

from __future__ import annotations

import math

from .rationals import Rat, ZERO, ONE

P = (1 << 61) - 1  # a Mersenne prime: the modulus of discovery


def _int_rows(rows) -> list[list[int]]:
    """Each rational (or integer) row scaled to integers by the lcm of the
    denominators of its nonzero entries."""
    out = []
    for row in rows:
        lcm = math.lcm(*[v.denominator for v in row if v])
        out.append([v.numerator * (lcm // v.denominator) if v else 0 for v in row])
    return out


def _reduce(mat: list[list[int]], ncols: int, reverse: bool = False) -> tuple[list[int], int]:
    """Fraction-free reduced echelon form of integer rows, in place.

    Only the first ncols columns are searched for pivots, in ascending order
    (descending when reverse); every entry of a row is updated.  Returns
    (pivot columns, d).  Afterwards mat[k] is the k-th pivot row, with d at
    its pivot column and 0 at every other pivot column, and rows that
    reduced to zero are dropped.  The rref is mat / d.
    """
    prev = 1
    pivots: list[int] = []
    for c in reversed(range(ncols)) if reverse else range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if p is None:
            continue
        mat[r], mat[p] = mat[p], mat[r]
        row_p = mat[r]
        lead = row_p[c]
        for i, row in enumerate(mat):
            if i == r:
                continue
            f = row[c]
            if f:
                mat[i] = [(lead * a - f * b) // prev for a, b in zip(row, row_p)]
            elif lead != prev:
                mat[i] = [lead * a // prev for a in row]
        mat[r + 1 :] = [row for row in mat[r + 1 :] if any(row)]
        prev = lead
        pivots.append(c)
        if r + 1 == len(mat):
            break
    return pivots, prev


def _null_ints(mat: list[list[int]], ncols: int, reverse: bool = False) -> list[list[int]]:
    """Integer basis of the right nullspace of integer rows, one vector per
    free column in ascending order, with the pivots of `_reduce(mat, ncols,
    reverse)` (reduces mat in place)."""
    pivots, d = _reduce(mat, ncols, reverse)
    pivot_cols = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_cols:
            continue
        vec = [0] * ncols
        vec[f] = d
        for row, p in zip(mat, pivots):
            vec[p] = -row[f]
        basis.append(vec)
    return basis


def _normalized(vectors) -> list[list[Rat]]:
    """Each integer vector over its first nonzero entry."""
    out = []
    for vec in vectors:
        first = next(v for v in vec if v)
        out.append([Rat(v, first) if v else ZERO for v in vec])
    return out


def nullspace(rows, ncols: int) -> list[list[Rat]]:
    """Exact basis of the right nullspace of the given rational matrix.

    Basis vectors are indexed by the free columns in ascending order and
    normalized so the first nonzero entry equals 1.
    """
    return _normalized(_null_ints(_int_rows(rows), ncols))


def complement(rows, ncols: int) -> list[list[Rat]]:
    """Canonical basis (the rref) of the right nullspace of the rows: the
    orthogonal complement of their row space.

    The pivots are taken right to left, so each pivot row is nonzero only
    at its pivot and at free columns to its left.  The nullspace vector of
    free column f is then nonzero only at f and at pivots right of f, and
    these vectors, scaled to 1 at f, are the rref as they stand.
    """
    return _normalized(_null_ints(_int_rows(rows), ncols, reverse=True))


def _fold(echelon: dict[int, list[int]], vec: list[int], ncols: int) -> None:
    """Fold one row of ncols residues mod P into an echelon form, in place:
    at each nonzero column, ascending, the pivot row there is subtracted,
    and at the first nonzero column without one the rest is scaled to 1 and
    becomes its pivot row.  `echelon` maps each pivot column to its row,
    which is 0 before the pivot, so len(echelon) is the rank mod P of the
    rows folded so far."""
    for c in range(ncols):
        f = vec[c]
        if not f:
            continue
        pivot = echelon.get(c)
        if pivot is None:
            inv = pow(f, -1, P)
            echelon[c] = [v * inv % P for v in vec]
            return
        vec = [(a - f * b) % P for a, b in zip(vec, pivot)]


_HALF = math.isqrt(P // 2)  # 2^30 - 1: two rationals within it that agree mod P are equal


def _rebuild(a: int) -> Rat | None:
    """The rational n/d with |n|, d <= _HALF and n = a d mod P, or None: the
    extended Euclidean algorithm on (P, a) stopped at its first remainder
    <= _HALF (Wang, Guy & Davenport, SIGSAM Bull. 1982)."""
    r0, r1, t0, t1 = P, a % P, 0, 1
    while r1 > _HALF:
        r0, r1, t0, t1 = r1, r0 % r1, t1, t0 - r0 // r1 * t1
    return Rat(r1, t1) if abs(t1) <= _HALF and math.gcd(r1, t1) == 1 else None


def _echelon_nullspace(echelon: dict[int, list[int]], ncols: int) -> list[list[Rat]] | None:
    """The nullspace mod P of an echelon form (`_fold`), rebuilt over Q as
    `nullspace` gives it, or None when an entry does not rebuild.  Back
    substitution clears each pivot row at the later pivots; the vector of
    free column f is then 1 at f and minus each reduced row's entry at f."""
    reduced: dict[int, list[int]] = {}
    for p in sorted(echelon, reverse=True):
        row = echelon[p]
        for q, below in reduced.items():
            if f := row[q]:
                row = [(a - f * b) % P for a, b in zip(row, below)]
        reduced[p] = row
    vectors = []
    for f in (f for f in range(ncols) if f not in echelon):
        vec = [1 if j == f else -reduced[j][f] % P if j in reduced else 0 for j in range(ncols)]
        inv = pow(next(v for v in vec if v), -1, P)
        if None in (rebuilt := [_rebuild(v * inv) if v else ZERO for v in vec]):
            return None
        vectors.append(rebuilt)
    return vectors


def pivot_columns(rows, ncols: int) -> list[int]:
    """The columns outside the span of the columns before them, ascending:
    a maximal independent set of columns, each kept when it is independent
    of the earlier ones."""
    return _reduce(_int_rows(rows), ncols)[0]


def rank(rows, ncols: int) -> int:
    """The rank over Q of the rows' first ncols columns: their pivot count."""
    return len(pivot_columns(rows, ncols))


def rref(vectors, ncols: int) -> list[list[Rat]]:
    """Reduced row echelon form of the row space: the canonical subspace basis."""
    mat = _int_rows(vectors)
    pivots, d = _reduce(mat, ncols)
    return [[Rat(v, d) if v else ZERO for v in row] for row in mat[: len(pivots)]]


def _column_coordinates(rows, k: int) -> list[Rat] | None:
    """Coordinates of column k of the rows in the span of the k columns
    before it, or None when it is outside: -c / c_k for the nullspace
    vector c of column k, the only one with c_k != 0, which exists exactly
    when column k is free.  They are 0 at every free column before k."""
    for vec in _null_ints(_int_rows(rows), k + 1):
        if vec[k]:
            return [Rat(-v, vec[k]) for v in vec[:k]]
    return None


def in_span(basis, target, ncols: int) -> list[Rat] | None:
    """Coordinates of target in the span of basis rows (columns of [basis^T | target]), or None."""
    if len(target) != ncols:
        raise ValueError(f"target has {len(target)} entries, not {ncols}")
    rows = [[row[j] for row in basis] + [Rat(target[j])] for j in range(ncols)]
    return _column_coordinates(rows, len(basis))


def intersect_rowspaces(spaces, ncols: int) -> list[list[Rat]]:
    """Canonical basis of the intersection of row spaces.

    A vector lies in every space exactly when it is orthogonal to each
    space's orthogonal complement, so the intersection is the complement of
    the stacked complements; for large spaces these have few rows.
    """
    return complement([vec for space in spaces for vec in complement(space, ncols)], ncols)


def invert_rational_matrix(matrix) -> list[list[Rat]] | None:
    """Exact inverse of a square rational matrix; None when it is singular."""
    n = len(matrix)
    eye = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    mat = _int_rows(list(row) + e for row, e in zip(matrix, eye))
    pivots, d = _reduce(mat, n)
    if len(pivots) < n:
        return None
    return [[Rat(v, d) for v in row[n:]] for row in mat[:n]]

