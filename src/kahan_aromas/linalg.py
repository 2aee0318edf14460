"""Exact linear algebra over Q: nullspaces, rank, canonical subspace bases.

The forward elimination is fraction-free (Bareiss) on integer-cleared rows,
so intermediate entries stay integers; back-substitution produces rational
basis vectors.  Pivoting is "first nonzero in fixed row order", which makes
every output deterministic for a fixed row/column order.
"""

from __future__ import annotations

from .rationals import Rat, ZERO, ONE, clear_denominators


def _bareiss_echelon(rows: list[list[int]], ncols: int):
    """In-place fraction-free echelon form; returns (pivot_cols, pivot_rows)."""
    m = len(rows)
    prev = 1
    pr = 0
    pivots: list[int] = []
    for c in range(ncols):
        pivot = None
        for r in range(pr, m):
            if rows[r][c]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[pr], rows[pivot] = rows[pivot], rows[pr]
        lead = rows[pr][c]
        row_p = rows[pr]
        for i in range(pr + 1, m):
            row_i = rows[i]
            factor = row_i[c]
            for j in range(c + 1, ncols):
                row_i[j] = (lead * row_i[j] - factor * row_p[j]) // prev
            row_i[c] = 0
        prev = lead
        pivots.append(c)
        pr += 1
        if pr == m:
            break
    return pivots, pr


def nullspace(rows, ncols: int) -> list[list[Rat]]:
    """Exact basis of the right nullspace of the given rational matrix.

    Basis vectors are indexed by the free columns in ascending order and
    normalized so the first nonzero entry equals 1.
    """
    mat = [clear_denominators(row) for row in rows if any(v != 0 for v in row)]
    pivots, nrows = _bareiss_echelon(mat, ncols)
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free_cols:
        vec = [ZERO] * ncols
        vec[f] = ONE
        for r in range(nrows - 1, -1, -1):
            p = pivots[r]
            if p > f:
                continue
            acc = ZERO
            row = mat[r]
            for j in range(p + 1, ncols):
                if vec[j] != 0 and row[j]:
                    acc = acc + Rat(row[j]) * vec[j]
            vec[p] = -acc / row[p]
        first = next(v for v in vec if v != 0)
        basis.append([v / first for v in vec])
    return basis


def rank(rows, ncols: int) -> int:
    mat = [clear_denominators(row) for row in rows if any(v != 0 for v in row)]
    pivots, _ = _bareiss_echelon(mat, ncols)
    return len(pivots)


def rref(vectors, ncols: int) -> list[list[Rat]]:
    """Reduced row echelon form of the row space: the canonical subspace basis."""
    mat = [[Rat(v) for v in row] for row in vectors if any(v != 0 for v in row)]
    pr = 0
    pivots = []
    for c in range(ncols):
        pivot = None
        for r in range(pr, len(mat)):
            if mat[r][c] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        mat[pr], mat[pivot] = mat[pivot], mat[pr]
        lead = mat[pr][c]
        mat[pr] = [v / lead for v in mat[pr]]
        for r in range(len(mat)):
            if r != pr and mat[r][c] != 0:
                factor = mat[r][c]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[pr])]
        pivots.append(c)
        pr += 1
        if pr == len(mat):
            break
    return [row for row in mat if any(v != 0 for v in row)]


def same_rowspace(a, b, ncols: int) -> bool:
    return rref(a, ncols) == rref(b, ncols)


def in_span(basis, target, ncols: int) -> list[Rat] | None:
    """Coordinates of target in the span of basis rows, or None."""
    if all(v == 0 for v in target):
        return [ZERO] * len(basis)
    if not basis:
        return None
    # solve basis^T c = target via nullspace of [basis^T | -target]
    cols = len(basis) + 1
    rows = []
    for j in range(ncols):
        rows.append([basis[i][j] for i in range(len(basis))] + [Rat(target[j])])
    for vec in nullspace(rows, cols):
        if vec[-1] != 0:
            scale = -ONE / vec[-1]
            return [v * scale for v in vec[:-1]]
    return None


def intersect_rowspaces(a, b, ncols: int) -> list[list[Rat]]:
    """Canonical basis of the intersection of two row spaces.

    A vector lies in both spaces exactly when it is orthogonal to both
    orthogonal complements, so the intersection is the nullspace of the
    stacked complements; for large spaces these have few rows.
    """
    if not a or not b:
        return []
    return rref(nullspace(nullspace(a, ncols) + nullspace(b, ncols), ncols), ncols)


def mat_mul_vec(matrix, vec):
    return [sum((row[j] * vec[j] for j in range(len(vec))), ZERO) for row in matrix]


def solve_linear_system(matrix, rhs):
    """Solve square rational M x = rhs exactly; None when M is singular."""
    n = len(matrix)
    aug = [[Rat(v) for v in row] + [Rat(rhs[i])] for i, row in enumerate(matrix)]
    for c in range(n):
        pivot = None
        for r in range(c, n):
            if aug[r][c] != 0:
                pivot = r
                break
        if pivot is None:
            return None
        aug[c], aug[pivot] = aug[pivot], aug[c]
        lead = aug[c][c]
        aug[c] = [v / lead for v in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                factor = aug[r][c]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[c])]
    return [aug[i][n] for i in range(n)]


def invert_rational_matrix(matrix):
    n = len(matrix)
    cols = []
    for j in range(n):
        e = [ONE if i == j else ZERO for i in range(n)]
        col = solve_linear_system(matrix, e)
        if col is None:
            return None
        cols.append(col)
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def det_rational_matrix(matrix) -> Rat:
    n = len(matrix)
    mat = [[Rat(v) for v in row] for row in matrix]
    det = ONE
    for c in range(n):
        pivot = None
        for r in range(c, n):
            if mat[r][c] != 0:
                pivot = r
                break
        if pivot is None:
            return ZERO
        if pivot != c:
            mat[c], mat[pivot] = mat[pivot], mat[c]
            det = -det
        det = det * mat[c][c]
        lead = mat[c][c]
        for r in range(c + 1, n):
            if mat[r][c] != 0:
                factor = mat[r][c] / lead
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[c])]
    return det


def adjugate_rational_matrix(matrix):
    """Adjugate via cofactors; fine at the n <= 4 sizes used here."""
    n = len(matrix)
    if n == 1:
        return [[ONE]]

    def minor(rows, i, j):
        return [
            [rows[r][c] for c in range(n) if c != j] for r in range(n) if r != i
        ]

    adj = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            sign = -ONE if (i + j) & 1 else ONE
            adj[j][i] = sign * det_rational_matrix(minor(matrix, i, j))
    return adj
