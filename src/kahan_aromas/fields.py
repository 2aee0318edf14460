"""Quadratic vector fields, aromatic functions, and the Kahan map.

The field f on R^n is its component polynomials f_1 .. f_n, each of degree
<= 2 in x and free of h and u.  Field JSON lists the terms by degree,
1-based: an entry [i, j, k, v] of "quadratic" (j <= k) is the term v x_j x_k
of f_i, [i, j, v] of "linear" is v x_j and [i, v] of "constant" is v; no
other key is read.

The aromatic function F sends an aroma (or multiset) graph to a scalar
polynomial by Einstein summation: vertex v with predecessors p1..pm
contributes the factor d^m f^{i_v} / dx_{i_p1} ... dx_{i_pm}, summed over
all index assignments.  An aroma is one cycle with rooted trees hanging
off it, so the sum is evaluated by contraction instead of over the n^V
assignments:

- each hanging tree is its elementary differential, a vector;
- cycle vertex i with trees t1..tm becomes the n x n polynomial matrix
  M_i[a][b] = sum_js d^(m+1) f^a / dx_b dx_j1 ... dx_jm * prod_r F(t_r)^{j_r};
- F(aroma) = tr(M_{k-1} ... M_1 M_0), the cycle edge running i -> i+1.

A bare cycle of length k therefore gives tr(J^k).  The trace is invariant
under rotation of the cycle, so it is contracted as tr(M_h C): M_h is the
matrix of the largest stored degree bound, and C the product of the other
k - 1 in cyclic order from h + 1.  The heaviest factor then meets only the
n^2 trace products, never an n^3 chain product.  A loop (k = 1) is summed
straight to its trace, sum_a M[a][a], without building M.  A vertex's n
components are contracted in one pass, each product of child components
formed once for all of them.

The contraction runs in integers.  With D the lcm of the components'
content denominators, every partial of D f is an integer term dict (packed
key -> int), and every vertex of an aroma contributes exactly one partial,
so F_f(aroma) = F_{Df}(aroma) / D^|aroma|: a tree vector carries D^|tree|,
a cycle-vertex matrix D^(1 + its forest's order).  Each tree's vector and
each forest's matrix is memoized on the field with its per-variable degree
bound, predicted for a tree and measured for a matrix, and every bound is
checked (`poly._check_packable`) before anything is multiplied.  A sum of
products accumulates in place (`poly._mul_add`), so rational arithmetic
happens once per aroma, when its one `Polynomial` is built (the content
times integer terms layout of Monagan & Pearce, "Sparse polynomial
multiplication and division in Maple 14", 2009; the aroma algebra is that of
Munthe-Kaas & Verdier, "Aromatic Butcher series", FoCM 2016).

The Kahan map's Darboux defect N_{-h/2} P(Phi) - P N_{h/2}(Phi) is cleared
by the least power of den = det(I - (h/2) f') that clears each of its two
terms, den^D' with D' = max(deg_x P - 1, n)
(`KahanMap.darboux_defect_cleared`); whatever power clears it, it vanishes
exactly when P is a density (Celledoni, McLachlan, Owren & Quispel,
J. Phys. A 2013).
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import combinations_with_replacement, product

from .graphs import LOOP, Aroma, AromaMultiset, RootedTree
from .linalg import P, invert_rational_matrix
from .poly import (
    PointEvaluator,
    Polynomial,
    PolynomialBatch,
    RationalFunction,
    _check_packable,
    _degrees,
    _derivative,
    _from_ints,
    _mul_add,
    _mul_terms,
    _packed_add,
    pack_exponents,
    rf_substitute,
    series_in_h,
)
from .rationals import Rat, ZERO, format_rat, parse_rat, safe_repr

_KINDS = ("constant", "linear", "quadratic")  # a field JSON entry of kind k names k indices after i


class QuadraticVectorField:
    """Exact quadratic vector field on R^n, immutable after construction:
    its n >= 1 component polynomials f_1 .. f_n in x_1 .. x_n, h, u, kept as
    given once each is checked free of h and u and of degree <= 2 in x.
    `from_json` is the one reader of field JSON."""

    def __init__(self, components):
        components = list(components)
        if not components:
            raise ValueError("dimension must be at least 1")
        self.dim = n = len(components)
        self.nvars = n + 2
        for p in components:
            if p.nvars != self.nvars:
                raise ValueError("component polynomial has the wrong variable universe")
            if p.degree_in(n) or p.degree_in(n + 1):
                raise ValueError("vector field components must not involve h or u")
            if p.x_degree() > 2:
                raise ValueError("vector field is not quadratic")
        self.components = components  # f_1 .. f_n
        self._kahan_map: KahanMap | None = None
        self._cleared_parts: tuple[int, dict, dict] | None = None
        self._elementary: dict[str, tuple] = {}
        self._cycle_matrices: dict[str, tuple] = {}
        self._aroma_cache: dict[str, Polynomial] = {}

    # -- calculus ---------------------------------------------------------

    def divergence(self) -> Polynomial:
        """div f = sum_i d f_i / dx_i, which is F(loop)."""
        return self.aroma_function(LOOP)

    def is_divergence_free(self) -> bool:
        return self.divergence().is_zero()

    def is_homogeneous(self) -> bool:
        return all(sum(e) == 2 for p in self.components for e, _ in p.sorted_terms())

    def kahan_map(self) -> "KahanMap":
        """The field's Kahan map, built once: every caller shares its
        polynomials and point batches.  Its `subs_cache` holds the power
        products of its last substitution only."""
        if self._kahan_map is None:
            self._kahan_map = KahanMap(self)
        return self._kahan_map

    # -- aromatic functions ------------------------------------------------

    def _cleared(self) -> tuple[int, dict, dict]:
        """(D, parts, degrees), built once: D is the lcm of the components'
        content denominators, parts[(i, indices)] the int dict of
        D d^m f_i / dx_indices, for each sorted index tuple of length m <= 2
        whose partial is nonzero, and degrees[(i, indices)] its largest
        degree per variable.  The partials differentiate the int dicts."""
        if self._cleared_parts is None:
            D = math.lcm(*(p.content.denominator for p in self.components))
            parts = {}
            for i, p in enumerate(self.components):
                if p.terms:
                    s = (p.content * D).numerator  # D clears every content
                    parts[(i, ())] = {k: s * v for k, v in p.terms.items()}
            for m in (1, 2):
                for i in range(self.dim):
                    for idx in combinations_with_replacement(range(self.dim), m):
                        if out := _derivative(parts.get((i, idx[:-1]), {}), idx[-1]):
                            parts[(i, idx)] = out
            degrees = {key: _degrees(d, self.dim) for key, d in parts.items()}
            self._cleared_parts = D, parts, degrees
        return self._cleared_parts

    def _contract(self, lead: tuple[int, ...], vecs) -> list[dict]:
        """Component i is the sum over js of D d f_i / dx_{lead + js} *
        prod_r vecs[r][js[r]], an int dict with no zero values.  All n
        components are filled in one pass: each product of the vectors'
        components is formed once and serves every i whose partial is
        nonzero."""
        n, nv, parts = self.dim, self.nvars, self._cleared()[1]
        if not vecs:
            return [parts.get((i, lead), {}) for i in range(n)]
        out: list[dict] = [{} for _ in range(n)]
        for js in product(range(n), repeat=len(vecs)):
            idx = tuple(sorted(lead + js))
            coeffs = [(i, parts[(i, idx)]) for i in range(n) if (i, idx) in parts]
            if not coeffs:
                continue
            term = vecs[0][js[0]]
            for vec, j in zip(vecs[1:], js[1:]):
                if not term:
                    break
                term = _mul_terms(term, vec[j], nv)
            for i, part in coeffs:
                _mul_add(out[i], part, term, nv)
        return [{k: v for k, v in acc.items() if v} for acc in out]

    def _tree_vector(self, tree: RootedTree) -> tuple[list[dict], list]:
        """(vector, bound), memoized per field by tree encoding: the vector
        is D^|tree| F(tree) as int dicts, and bound[a] the largest degree per
        variable that component a can have, or None when it is zero.

        A vertex with more than two children gives the zero vector (its
        partials vanish), and its subtrees are not evaluated.  The subtrees
        not yet memoized are walked children first with an explicit stack.
        The walk takes each vertex's bound when it pops the vertex, the
        largest over its contracted products of the partial's degree plus
        the children's, and checks it against the packable degree, so every
        bound is checked before any vector is multiplied."""
        n, memo, partial_degrees = self.dim, self._elementary, self._cleared()[2]
        todo: list[RootedTree] = []  # children before parents
        bounds: dict[str, list | None] = {}  # walked trees; None until popped
        stack = [(tree, False)]
        while stack:
            t, expanded = stack.pop()
            if not expanded:
                if t.encoding not in memo and t.encoding not in bounds:
                    bounds[t.encoding] = None
                    stack.append((t, True))
                    if len(t.children) <= 2:
                        stack.extend((c, False) for c in t.children)
                continue
            todo.append(t)
            out = bounds[t.encoding] = [None] * n
            if len(t.children) > 2:
                continue
            encs = [c.encoding for c in t.children]
            kids = [bounds[e] if e in bounds else memo[e][1] for e in encs]
            for a, js in product(range(n), product(range(n), repeat=len(kids))):
                d = partial_degrees.get((a, tuple(sorted(js))))
                degs = [kid[j] for kid, j in zip(kids, js)]
                if d is None or None in degs:
                    continue
                got = [sum(col) for col in zip(d, *degs)]
                _check_packable(self.nvars, got)
                out[a] = got if out[a] is None else list(map(max, out[a], got))
        for t in todo:
            if len(t.children) > 2:
                vec = [{}] * n
            else:
                vec = self._contract((), [memo[c.encoding][0] for c in t.children])
            memo[t.encoding] = vec, bounds[t.encoding]
        return memo[tree.encoding]

    def _cycle_matrix(self, forest) -> tuple[list[list[dict]] | None, list[int] | None]:
        """(M, bound), memoized per field by forest encoding.  M[a][b] is
        the int dict of the cycle vertex with index a, fed by b along the
        cycle and by the forest's trees, contracted over the trees' indices;
        it carries D^(1 + the forest's order).  bound is the largest degree
        of M's entries per variable, or None when every entry is zero (as
        when the trees and the cycle edge make more than two partials)."""
        got = self._cycle_matrices.get(forest.encoding)
        if got is None:
            n, mat, bound = self.dim, None, None
            if len(forest.trees) <= 1:
                vecs = [self._tree_vector(t)[0] for t in forest.trees]
                mat = [list(row) for row in zip(*(self._contract((b,), vecs) for b in range(n)))]
                degs = [_degrees(p, n) for row in mat for p in row if p]
                if degs:
                    bound = [max(col) for col in zip(*degs)]
            got = self._cycle_matrices[forest.encoding] = (mat, bound)
        return got

    def _loop(self, forest) -> dict:
        """tr M as an int dict, M the matrix of a loop's vertex carrying the
        forest, summed straight from the partials without building M.  With
        no tree it is sum_a D d f_a / dx_a.  With one tree t it is sum_j g_j
        F(t)^j, g_j = sum_a D d^2 f_a / dx_a dx_j a constant, so each product
        has the degrees of t's vector, checked with its bound.  More trees
        make every partial vanish."""
        n, nv, parts = self.dim, self.nvars, self._cleared()[1]
        acc: dict = {}
        if not forest.trees:
            for a in range(n):
                _packed_add(acc, parts.get((a, (a,)), {}))
        elif len(forest.trees) == 1:
            vec = self._tree_vector(forest.trees[0])[0]
            for j in range(n):
                g = sum(parts.get((a, tuple(sorted((a, j)))), {}).get(0, 0) for a in range(n))
                if g:
                    _mul_add(acc, {0: g}, vec[j], nv)
        return {k: v for k, v in acc.items() if v}

    def _aroma(self, aroma: Aroma) -> Polynomial:
        """tr(M_{k-1} ... M_1 M_0) / D^|aroma|: cycle vertex i is fed by
        vertex i-1, and every vertex contributes one partial of D f.

        The trace is contracted as tr(M_h C).  M_h is the cycle matrix with
        the most terms over its entries (the first such), and
        C = M_{h-1} ... M_0 M_{k-1} ... M_{h+1} is the product of the others
        in cyclic order from h + 1, so the heaviest factor enters only the
        n^2 trace products and no n^3 chain product (the trace is invariant
        under rotation of the cycle).  A loop (k = 1) is summed straight to
        its trace (`_loop`).

        Per variable, the product's degree is at most the sum of the
        matrices' stored bounds, which is checked against the packable
        degree before any matrix is multiplied."""
        n, nv, k = self.dim, self.nvars, aroma.cycle_len
        if k == 1:
            acc = self._loop(aroma.decorations[0])
        else:
            mats = [self._cycle_matrix(f) for f in aroma.decorations]
            if any(bound is None for _, bound in mats):
                return Polynomial.zero(nv)
            _check_packable(nv, map(sum, zip(*(bound for _, bound in mats))))
            h = max(range(k), key=lambda i: sum(len(p) for row in mats[i][0] for p in row))
            heavy = mats[h][0]
            chain = [mats[(h - 1 - r) % k][0] for r in range(k - 1)]
            rest = reduce(lambda a, b: _mat_mul(a, b, nv), chain)
            acc = {}
            for a in range(n):
                for b in range(n):
                    _mul_add(acc, heavy[a][b], rest[b][a], nv)
            acc = {key: v for key, v in acc.items() if v}
        return _from_ints(nv, acc, 1, self._cleared()[0] ** aroma.order)

    def aroma_function(self, arg) -> Polynomial:
        """F(arg) for an aroma or aroma multiset, memoized by encoding.  An
        aroma and a multiset share an encoding only when the multiset is that
        one aroma, and then F is the same."""
        if not isinstance(arg, (Aroma, AromaMultiset)):
            raise TypeError("aroma_function expects an Aroma or AromaMultiset")
        got = self._aroma_cache.get(arg.encoding)
        if got is None:
            if isinstance(arg, Aroma):
                got = self._aroma(arg)
            else:
                got = Polynomial.const(self.nvars, 1)
                for aroma in arg.aromas:
                    got = got * self.aroma_function(aroma)
                    if got.is_zero():
                        break
            self._aroma_cache[arg.encoding] = got
        return got

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        entries = {"quadratic": [], "linear": [], "constant": []}
        for i, p in enumerate(self.components):
            for exps, v in p.sorted_terms():
                js = [j + 1 for j in range(self.dim) for _ in range(exps[j])]
                entries[_KINDS[len(js)]].append([i + 1, *js, format_rat(v)])
        # the 1-based indices of one entry kind are unique, so they decide the order
        return {"dim": self.dim, **{kind: sorted(rows) for kind, rows in entries.items()}}

    @staticmethod
    def from_json(data: dict) -> "QuadraticVectorField":
        """The field of a field JSON object, the one reader of its entries:
        an entry [i, j.., v] of kind `_KINDS[k]` names k indices j after i,
        1-based and in order, and entries naming one monomial add up."""
        if unknown := [key for key in data if key != "dim" and key not in _KINDS]:
            known = "'dim', 'quadratic', 'linear' and 'constant'"
            raise ValueError(f"unknown key {safe_repr(unknown[0])}; a field has only {known}")
        dim = data.get("dim")
        if type(dim) is not int or dim < 1:
            raise ValueError("field JSON needs a positive integer 'dim'")
        terms: list[dict] = [{} for _ in range(dim)]  # per component: packed key -> coefficient
        for k, kind in enumerate(_KINDS):
            section = data.get(kind, [])
            if type(section) is not list:
                raise ValueError(f"field section {kind!r} is not a list: {safe_repr(section)}")
            for entry in section:
                if type(entry) is not list or len(entry) != k + 2:
                    raise ValueError(f"{kind} entry {safe_repr(entry)} must be a list of {k + 2} items")
                *idx, v = entry
                if any(type(j) is not int for j in idx):
                    raise ValueError(f"field entry {safe_repr(entry)} has an index that is not an integer")
                if outside := [j for j in idx if not 1 <= j <= dim]:
                    raise ValueError(f"index {safe_repr(outside[0])} out of range for dimension {dim}")
                if k == 2 and idx[1] > idx[2]:
                    raise ValueError(f"quadratic entry {safe_repr(entry)} violates j <= k")
                comp = terms[idx[0] - 1]
                key = sum(pack_exponents([0] * (j - 1) + [1]) for j in idx[1:])  # keys add as monomials multiply
                comp[key] = comp.get(key, ZERO) + parse_rat(v)
        return QuadraticVectorField([Polynomial(dim + 2, t) for t in terms])

    def __repr__(self):
        return f"QuadraticVectorField(dim={self.dim}, f={[str(p) for p in self.components]})"


def _weighted_polys(field: QuadraticVectorField, items) -> list[Polynomial]:
    """F(alpha) h^|alpha| / sigma(alpha) for each (F(alpha), |alpha|,
    sigma(alpha)): the polynomials that the coordinates of gamma multiply in
    the aromatic series B(gamma) = sum_alpha gamma(alpha) h^|alpha| /
    sigma(alpha) F(alpha)."""
    h = Polynomial.variable(field.nvars, field.dim)
    powers = {k: h**k for k in {order for _, order, _ in items}}  # each h^k built once
    return [p * powers[order] * Rat(1, sigma) for p, order, sigma in items]


def _combination(nvars: int, polys: list[Polynomial], coeffs) -> Polynomial:
    """sum_k coeffs[k] polys[k], the zero polynomial when there is no term."""
    out = Polynomial.zero(nvars)
    for c, p in zip(coeffs, polys):
        if c != 0:
            out = out + p * c
    return out


# ---------------------------------------------------------------------------
# polynomial matrices


def _mat_mul(a: list[list[dict]], b: list[list[dict]], nvars: int) -> list[list[dict]]:
    """The product of two square matrices of int dicts."""
    n = len(a)
    out = []
    for row in a:
        out_row = []
        for j in range(n):
            acc: dict = {}
            for m in range(n):
                _mul_add(acc, row[m], b[m][j], nvars)
            out_row.append({k: v for k, v in acc.items() if v})
        out.append(out_row)
    return out


# ---------------------------------------------------------------------------
# the Kahan map


class KahanMap:
    """The Kahan update as an exact birational map, and its one definition.

    Phi_h(x)_i = numerators[i] / den  with  M = I - (h/2) f'(x),
    den = det(M) and, by Cramer's rule,
    numerators[i] = x_i * den + h * det(M with column i replaced by f(x)).
    den at h = 0 equals 1.  Point steps (`step`), the h-series and the
    modified Hamiltonian all read these polynomials, a step through two
    batches compiled with the map: den with the numerators, and N_{h/2}.

    They are built in integers from the field's cleared partials (D the
    lcm of the components' content denominators): A = 2D M = 2D I - h (D f')
    is a matrix of int dicts, so det(A) = (2D)^n den, and the column
    replaced by f becomes 2 (D f).  det(A) expands by Laplace and each
    replaced determinant along its replaced column, all from one memo of
    minors, and each polynomial is built once, over (2D)^n.

    The map keeps no reference to its field: the field caches its map, and
    the pair would be a reference cycle that keeps the substitution cache
    alive until the cycle collector runs.
    """

    def __init__(self, field: QuadraticVectorField):
        self.dim, self.nvars = n, nv = field.dim, field.nvars
        D, parts, _ = field._cleared()
        hkey = pack_exponents([0] * n + [1])
        # A = 2D M = 2D I - h (D f'), and 2 (D f) for the replaced column
        A = [
            [{k + hkey: -v for k, v in parts.get((i, (j,)), {}).items()} for j in range(n)]
            for i in range(n)
        ]
        for i in range(n):
            A[i][i][0] = 2 * D
        rhs = [{k: 2 * v for k, v in parts.get((i, ()), {}).items()} for i in range(n)]
        minors: dict = {}

        def minor(rows: tuple[int, ...], cols: tuple[int, ...]) -> dict:
            """det A[rows][cols] by Laplace along its first row, memoized."""
            if not rows:
                return {0: 1}
            got = minors.get((rows, cols))
            if got is None:
                acc: dict = {}
                for pos, j in enumerate(cols):
                    entry = A[rows[0]][j]
                    if entry:
                        sub = minor(rows[1:], cols[:pos] + cols[pos + 1 :])
                        if pos % 2:
                            entry = {k: -v for k, v in entry.items()}
                        _mul_add(acc, entry, sub, nv)
                got = minors[(rows, cols)] = {k: v for k, v in acc.items() if v}
            return got

        everything = tuple(range(n))
        det_a = minor(everything, everything)
        scale = (2 * D) ** n  # det A = scale det M
        self.den = _from_ints(nv, det_a, 1, scale)
        self.numerators = []
        for i in range(n):
            # x_i det A + h det(A with column i replaced by 2 D f), the
            # latter expanded along that column
            others = everything[:i] + everything[i + 1 :]
            xkey = pack_exponents([0] * i + [1])
            acc = {k + xkey: v for k, v in det_a.items()}
            for r in range(n):
                if rhs[r]:
                    cof = minor(everything[:r] + everything[r + 1 :], others)
                    sign = 1 if (r + i) % 2 == 0 else -1
                    _mul_add(acc, {k + hkey: sign * v for k, v in rhs[r].items()}, cof, nv)
            acc = {k: v for k, v in acc.items() if v}
            self.numerators.append(_from_ints(nv, acc, 1, scale))
        self.n_plus = self.den.subs_h_negated()  # N_{h/2} = det(I + (h/2) f'(x))
        self._point_batch = PolynomialBatch([self.den] + self.numerators)
        self._n_plus_batch = PolynomialBatch([self.n_plus])
        self.subs_cache: dict = {}

    def series(self, order: int) -> list[list[Polynomial]]:
        """h-expansion of Phi_h: the coefficient vectors of h^0 .. h^order."""
        if order < 0:
            raise ValueError("order must be nonnegative")
        per_component = [
            series_in_h(RationalFunction(num, self.den), order) for num in self.numerators
        ]
        return [list(layer) for layer in zip(*per_component)]

    def substitute(self, p: Polynomial, clear_power: int) -> Polynomial:
        """den**clear_power * p(Phi_h(x)), its power products left in
        `subs_cache`."""
        return rf_substitute(p, self.numerators, self.den, clear_power, self.subs_cache)

    def apply_point(self, point):
        """(det(M), image) at the point (x, h) from one batch of den and the
        numerators: exact at a `PointEvaluator`, residues at a list of
        residues mod P; the image is None where det(M) = 0 (mod P)."""
        den, *nums = self._point_batch.evaluate(point)
        if not den:
            return den, None
        if isinstance(point, PointEvaluator):
            return den, [num / den for num in nums]
        inverse = pow(den, -1, P)
        return den, [num * inverse % P for num in nums]

    def step(self, pairs, modular: bool = False):
        """(point (x, h), N_{-h/2}(x), point (x', h), N_{h/2}(x')) of the
        Kahan step from the point of (numerator, denominator) pairs, u = 0:
        exact at `PointEvaluator`s (`apply_point`) or residues mod P; None
        where det(M) = 0 (mod P)."""
        n = self.dim
        if modular:
            x = [a * pow(b, -1, P) % P for a, b in pairs] + [0]
        else:
            x = PointEvaluator(n + 2, [Rat(a, b) for a, b in pairs] + [ZERO])
        n_minus, image = self.apply_point(x)  # N_{-h/2}(x) is det(M)
        if image is None:
            return None
        phi = image + x[n:] if modular else PointEvaluator(n + 2, image + x.point[n:])
        return x, n_minus, phi, self._n_plus_batch.evaluate(phi)[0]

    def darboux_defect_cleared(self, P: Polynomial) -> Polynomial:
        """den^D' * [N_{-h/2}(x) P(Phi_h(x)) - P(x) N_{h/2}(Phi_h(x))] with
        D' = max(deg_x P - 1, dim); the zero polynomial iff P solves the
        Darboux equation with cofactor det DPhi_h.

        N_{-h/2} is den itself, so the first term is S_{D'+1}(P) and the
        second P S_{D'}(N+) (N+ has x-degree at most dim): D' is the least
        power of den that clears both, one less than the clearing of each
        term at one power whenever deg_x P > dim.  Both are built in one
        pass of the packed kernel, each pair at its own clear power, which
        unpacks only the defect."""
        D = max(P.x_degree() - 1, self.dim)
        pairs = [(Polynomial.const(self.nvars, 1), P, D + 1), (-P, self.n_plus, D)]
        return rf_substitute(pairs, self.numerators, self.den, cache=self.subs_cache)

    def darboux_defect_series(self, P: Polynomial, order: int) -> list[Polynomial]:
        """h-expansion of N_{-h/2} P(Phi) - P N_{h/2}(Phi) through h^order."""
        D = max(P.x_degree() - 1, self.dim)
        cleared = self.darboux_defect_cleared(P)
        return series_in_h(RationalFunction(cleared, self.den**D), order)

    def det_jacobian(self) -> RationalFunction:
        """det DPhi_h = det(I + (h/2) f'(Phi_h(x))) / det(I - (h/2) f'(x))."""
        n = self.dim
        cleared = self.substitute(self.n_plus, n)
        return RationalFunction(cleared, self.den ** (n + 1))


def affine_pullback(field: QuadraticVectorField, A, v=None) -> QuadraticVectorField:
    """(g . f)(x) = A^{-1} f(Ax + v), exact; raises on singular A."""
    n, nv = field.dim, field.nvars
    if v is None:
        v = [ZERO] * n
    A = [[Rat(x) for x in row] for row in A]
    Ainv = invert_rational_matrix(A)
    if Ainv is None:
        raise ValueError("affine pullback needs an invertible matrix")
    linear_forms = [
        sum(
            (Polynomial.variable(nv, l) * A[j][l] for l in range(n)),
            Polynomial.const(nv, v[j]),
        )
        for j in range(n)
    ]
    one = Polynomial.const(nv, 1)  # f(Ax + v) is the substitution over the denominator 1
    substituted = [rf_substitute(c, linear_forms, one, c.x_degree()) for c in field.components]
    new_components = [
        sum((substituted[j] * Ainv[i][j] for j in range(n)), Polynomial.zero(nv))
        for i in range(n)
    ]
    return QuadraticVectorField(new_components)


def hamiltonian_field(J, H: Polynomial) -> QuadraticVectorField:
    """f = J grad H for a constant skew J and cubic polynomial H."""
    n = len(J)
    J = [[Rat(x) for x in row] for row in J]
    for i in range(n):
        for j in range(n):
            if J[i][j] != -J[j][i]:
                raise ValueError("Poisson matrix must be skew-symmetric")
    if H.nvars != n + 2:
        raise ValueError("Hamiltonian lives in the wrong variable universe")
    if H.x_degree() > 3 or H.degree_in(n) or H.degree_in(n + 1):
        raise ValueError("Hamiltonian must be a polynomial of degree <= 3 in x only")
    grad = [H.partial_derivative(j) for j in range(n)]
    comps = [
        sum((grad[j] * J[i][j] for j in range(n)), Polynomial.zero(n + 2)) for i in range(n)
    ]
    return QuadraticVectorField(comps)


def modified_hamiltonian(field: QuadraticVectorField, H: Polynomial) -> RationalFunction:
    """The preserved integral H + (h/3) grad(H)^T (I - (h/2)f')^{-1} f.

    Only the canonical constant-Poisson case holds: field must be
    hamiltonian_field(J, H), which checks J and H.  The returned rational
    function satisfies Ht o Phi_h = Ht and reads field.kahan_map().
    """
    n, nv = field.dim, field.nvars
    kmap = field.kahan_map()
    # h (adj(M) f)_i = numerators[i] - x_i den
    acc = Polynomial.zero(nv)
    for i in range(n):
        step = kmap.numerators[i] - Polynomial.variable(nv, i) * kmap.den
        acc = acc + H.partial_derivative(i) * step
    return RationalFunction(H * kmap.den + acc * Rat(1, 3), kmap.den)
