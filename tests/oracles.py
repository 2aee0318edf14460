"""Independent brute-force oracles used to pin expected values.

Functional graphs are raw endomaps g: {0..n-1} -> {0..n-1} (the edge set is
v -> g[v]); isomorphism classes are computed by quotienting by all vertex
permutations, never by the package's canonical forms, and admissible cuts
are read off every subset of tree vertices, never by the package's
recursion over hanging trees.  Aromatic functions are summed over every
index assignment of the aroma's vertices, never by the package's
contraction, and each partial of the field is differentiated from its
component polynomial, never read off the package's cleared partials.
Linear algebra is Gauss-Jordan elimination in `Fraction` arithmetic, never
the package's fraction-free kernel.  Density
verification expands the symbolic defect before it looks at any point,
never the package's refute-at-points-first order, and Darboux solutions
are read off the fully expanded symbolic system, never off sampled points.
The Kahan map is rebuilt from its other definitions, never from the
package's numerators over den: a point step solves the linear system
(I - (h/2) f'(x)) k = f(x) by `Fraction` elimination, the h-series is the
closed form 2^(1-k) (f')^(k-1) f, and det DPhi differentiates the map
entrywise.  The h-series of a quotient is the Taylor division of its
numerator by its denominator, never a read of the package's tree vectors.
Substitution into the map expands term by term in `Polynomial`
arithmetic, never by the package's packed kernel.  A value at a point is
summed term by term in `Fraction`s, never read off the package's monomial
cache or its batched integer pass, and a discovery row takes one such
residual per polynomial at both points of the step.  The paper's monomial
ansatz is a basis of monomials in place of aromatic functions, for the
package's sector solve to compare with the aroma densities.  The family
intersection runs over every multiset coordinate, never over only the
coordinates some instance sees, and confirms each representative's
density by its own check, never by a span of the instance's densities.
A ratio of two polynomials is read off their canonical forms, never off
the package's span solve.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations, product
from math import prod

from kahan_aromas.corpus import rand_small
from kahan_aromas.fields import KahanMap, _combination, _weighted_polys
from kahan_aromas.graphs import UNIT, Aroma, Forest, RootedTree
from kahan_aromas.linalg import complement, intersect_rowspaces, nullspace, pivot_columns, rank
from kahan_aromas.poly import Polynomial, RationalFunction, divexact
from kahan_aromas.rationals import ONE, ZERO, _random_pair
from kahan_aromas.solver import (
    SAMPLE_ATTEMPTS,
    Basis,
    BasisElement,
    ParameterIndependentSolution,
    SolverError,
    VerificationResult,
    _coefficient_rows,
    _refute_or_confirm,
    sector_multisets,
    solve_darboux,
)


def is_connected(g: tuple[int, ...]) -> bool:
    n = len(g)
    seen = {0}
    frontier = [0]
    adj = [[] for _ in range(n)]
    for v, w in enumerate(g):
        adj[v].append(w)
        adj[w].append(v)
    while frontier:
        v = frontier.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == n


def relabel(g: tuple[int, ...], perm: tuple[int, ...]) -> tuple[int, ...]:
    """Conjugate the endomap: new[perm[v]] = perm[g[v]]."""
    out = [0] * len(g)
    for v, w in enumerate(g):
        out[perm[v]] = perm[w]
    return tuple(out)


def functional_graph_classes(n: int) -> set[tuple[int, ...]]:
    """Connected endomap classes on n vertices, one orbit representative each.

    Orbit-marking keeps this linear in n^n: each new representative expands
    its full permutation orbit into the seen-set once.
    """
    perms = list(permutations(range(n)))
    seen: set[tuple[int, ...]] = set()
    reps: set[tuple[int, ...]] = set()
    for g in product(range(n), repeat=n):
        if g in seen or not is_connected(g):
            continue
        reps.add(g)
        for p in perms:
            seen.add(relabel(g, p))
    return reps

def orbit_representative(g: tuple[int, ...]) -> tuple[int, ...]:
    return min(relabel(g, p) for p in permutations(range(len(g))))


def automorphism_count(g: tuple[int, ...]) -> int:
    """Number of vertex permutations commuting with the endomap."""
    n = len(g)
    return sum(1 for p in permutations(range(n)) if relabel(g, p) == g)


def rooted_tree_classes(n: int) -> set[tuple[int, ...]]:
    """Rooted trees on n vertices via increasing parent arrays, quotiented by
    root-fixing permutations (parent[0] = 0 marks the root)."""
    if n == 1:
        return {(0,)}
    perms = [p for p in permutations(range(n)) if p[0] == 0]
    seen: set[tuple[int, ...]] = set()
    reps: set[tuple[int, ...]] = set()

    def conj(parent, p):
        out = [0] * n
        for v in range(n):
            out[p[v]] = p[parent[v]]
        return tuple(out)

    for parents in product(*[range(i) for i in range(1, n)]):
        arr = (0,) + parents
        if arr in seen:
            continue
        reps.add(arr)
        for p in perms:
            seen.add(conj(arr, p))
    return reps


def aroma_structure(aroma):
    """Explicit vertex structure of an Aroma: (preds, tree_kids, cycle_len).

    Vertices 0..k-1 are the cycle (edge i -> i+1 mod k); tree vertices
    follow in DFS order.  preds[v] lists all vertices pointing at v
    (cycle edge included); tree_kids[v] lists only tree-vertex children.
    """
    k = aroma.cycle_len
    preds = [[(i - 1) % k] for i in range(k)]
    tree_kids: list[list[int]] = [[] for _ in range(k)]

    def add_tree(tree: RootedTree, parent: int) -> None:
        v = len(preds)
        preds.append([])
        tree_kids.append([])
        preds[parent].append(v)
        tree_kids[parent].append(v)
        for child in tree.children:
            add_tree(child, v)

    for i, forest in enumerate(aroma.decorations):
        for tree in forest.trees:
            add_tree(tree, i)
    return preds, tree_kids, k


def aroma_to_endomap(aroma) -> tuple[int, ...]:
    """Explicit endomap of an Aroma (structural conversion, no sigma logic)."""
    preds, tree_kids, k = aroma_structure(aroma)
    n = len(preds)
    g = [0] * n
    for i in range(k):
        g[i] = (i + 1) % k
    for v in range(n):
        for child in tree_kids[v]:
            g[child] = v
    return tuple(g)


def multiset_to_endomap(mset) -> tuple[int, ...]:
    g: list[int] = []
    for aroma in mset.aromas:
        shift = len(g)
        g.extend(shift + w for w in aroma_to_endomap(aroma))
    return tuple(g)


def aroma_cuts_by_vertex_subsets(aroma) -> list:
    """Admissible cuts of an aroma as (detached forest, remaining aroma): every
    subset of its tree vertices that holds no vertex together with one of its
    ancestors cuts the edge from each of those vertices to its parent."""
    preds, tree_kids, k = aroma_structure(aroma)
    nverts = len(preds)
    tree_vertices = list(range(k, nverts))
    parent = [None] * nverts
    for v in range(nverts):
        for c in tree_kids[v]:
            parent[c] = v

    def ancestors(v: int) -> frozenset:
        out = set()
        p = parent[v]
        while p is not None:
            out.add(p)
            p = parent[p]
        return frozenset(out)

    anc = {v: ancestors(v) for v in tree_vertices}

    def build(v: int, cut_set: frozenset) -> RootedTree:
        return RootedTree(tuple(build(c, cut_set) for c in tree_kids[v] if c not in cut_set))

    results = []
    for mask in range(1 << len(tree_vertices)):
        cut_set = frozenset(tree_vertices[b] for b in range(len(tree_vertices)) if mask >> b & 1)
        if any(anc[v] & cut_set for v in cut_set):
            continue
        detached = Forest(tuple(build(v, frozenset()) for v in cut_set))
        rest = Aroma(
            k,
            tuple(
                Forest(tuple(build(c, cut_set) for c in tree_kids[i] if c not in cut_set))
                for i in range(k)
            ),
        )
        results.append((detached, rest))
    return results


def is_unit(mset) -> bool:
    """Whether the multiset holds no aroma."""
    return not mset.aromas


def contains_self_loop(mset) -> bool:
    """Whether one of the multiset's aromas is a loop (cycle length 1)."""
    return any(a.cycle_len == 1 for a in mset.aromas)


def component_partial(field, i: int, indices) -> Polynomial:
    """d^m f_i / dx_{indices}, differentiated from the component polynomial
    f_i in `Polynomial` arithmetic."""
    p = field.components[i]
    for j in indices:
        p = p.partial_derivative(j)
    return p


def elementary_differential(field, tree: RootedTree) -> list[Polynomial]:
    """The B-series elementary differential F(tree) by its recursion in
    `Polynomial` arithmetic: component i sums, over the index j_r of each
    child, d^m f_i / dx_{j_1} ... dx_{j_m} times prod_r F(child_r)^{j_r}."""
    kids = [elementary_differential(field, c) for c in tree.children]
    out = []
    for i in range(field.dim):
        total = Polynomial.zero(field.nvars)
        for js in product(range(field.dim), repeat=len(kids)):
            term = component_partial(field, i, js)
            for kid, j in zip(kids, js):
                term = term * kid[j]
            total = total + term
        out.append(total)
    return out


def aroma_by_assignments(field, aroma):
    """F(aroma) as the plain sum over all n^V index assignments: vertex v with
    predecessors p1..pm contributes d^m f^{i_v} / dx_{i_p1} ... dx_{i_pm}."""
    preds, _, _ = aroma_structure(aroma)
    nv = field.nvars
    total = Polynomial.zero(nv)
    for assignment in product(range(field.dim), repeat=len(preds)):
        term = Polynomial.const(nv, 1)
        for v, pv in enumerate(preds):
            factor = component_partial(field, assignment[v], [assignment[u] for u in pv])
            term = term * factor
            if term.is_zero():
                break
        total = total + term
    return total


def h_support(p: Polynomial) -> tuple[int, ...]:
    """The h-degrees of p's terms, ascending."""
    h = p.nvars - 2
    return tuple(sorted({exps[h] for exps, _ in p.sorted_terms()}))


def random_skew(rng, n):
    """A skew-symmetric n x n matrix of small rationals."""
    M = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            M[i][j] = rand_small(rng)
            M[j][i] = -M[i][j]
    return M


def random_invertible(rng, n):
    """An invertible n x n matrix of small rationals; SolverError when
    SAMPLE_ATTEMPTS draws give none."""
    for _ in range(SAMPLE_ATTEMPTS):
        M = [[rand_small(rng) for _ in range(n)] for _ in range(n)]
        if rank(M, n) == n:
            return M
    raise SolverError(f"no invertible {n} x {n} draw in {SAMPLE_ATTEMPTS} attempts")


def rref_by_fractions(rows, ncols: int) -> list[list[Fraction]]:
    """Reduced row echelon form by Gauss-Jordan elimination on `Fraction`s,
    pivoting on the first nonzero entry in row order."""
    mat = [[Fraction(v) for v in row] for row in rows if any(v != 0 for v in row)]
    pr = 0
    for c in range(ncols):
        pivot = next((r for r in range(pr, len(mat)) if mat[r][c] != 0), None)
        if pivot is None:
            continue
        mat[pr], mat[pivot] = mat[pivot], mat[pr]
        lead = mat[pr][c]
        mat[pr] = [v / lead for v in mat[pr]]
        for r in range(len(mat)):
            if r != pr and mat[r][c] != 0:
                factor = mat[r][c]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[pr])]
        pr += 1
        if pr == len(mat):
            break
    return [row for row in mat if any(v != 0 for v in row)]


def oracle_det(square):
    """Determinant by the Leibniz formula."""
    n = len(square)
    total = ZERO
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod((square[i][perm[i]] for i in range(n)), start=ONE)
    return total


def evaluate_term_by_term(p: Polynomial, point) -> Fraction:
    """p at a rational point: each term's coefficient times its powers of
    the coordinates, summed in `Fraction`s."""
    point = [Fraction(v) for v in point]
    return sum(
        (c * prod((v**e for v, e in zip(point, exps)), start=ONE) for exps, c in p.sorted_terms()),
        ZERO,
    )


def rf_substitute_term_by_term(p, numerators, denominator, clear_power: int) -> Polynomial:
    """denominator**clear_power * p(x -> numerators/denominator) in
    `Polynomial` arithmetic: p's terms bucketed by x-monomial, each bucket
    times its power product of the numerators, Horner in the denominator."""
    n = p.nvars
    nx = n - 2
    if clear_power < p.x_degree():
        raise ValueError("clear_power below the x-degree")
    powers = {(0,) * nx: Polynomial.const(n, 1)}

    def power_product(a):
        if a not in powers:
            i = next(i for i, e in enumerate(a) if e)
            powers[a] = power_product(a[:i] + (a[i] - 1,) + a[i + 1 :]) * numerators[i]
        return powers[a]

    by_degree: dict[int, Polynomial] = {}
    for exps, coeff in p.sorted_terms():
        rest = Polynomial.monomial(n, (0,) * nx + exps[nx:], coeff)
        d = sum(exps[:nx])
        by_degree[d] = by_degree.get(d, Polynomial.zero(n)) + rest * power_product(exps[:nx])
    result = Polynomial.zero(n)
    if by_degree:
        top = max(by_degree)
        result = by_degree.get(0, result)
        for d in range(1, top + 1):
            result = result * denominator + by_degree.get(d, Polynomial.zero(n))
        for _ in range(clear_power - top):
            result = result * denominator
    return result


def darboux_defect_term_by_term(kmap, P) -> Polynomial:
    """S_{D+1}(P) - P S_D(N+) with S_c the term-by-term substitution at the
    clear power c and D = max(deg_x P - 1, dim)."""
    D = max(P.x_degree() - 1, kmap.dim)

    def subs(q, c):
        return rf_substitute_term_by_term(q, kmap.numerators, kmap.den, c)

    return subs(P, D + 1) - P * subs(kmap.n_plus, D)


def verify_density_by_expansion(field, P, seed: int = 0) -> VerificationResult:
    """Expand the cleared defect den^D [den P(Phi) - P N_{h/2}(Phi)],
    D = max(deg_x P - 1, dim), first; when it is not the zero polynomial,
    draw seeded points and return the first one where it does not vanish,
    its value divided by den^D."""
    kmap = KahanMap(field)
    defect = kmap.darboux_defect_cleared(P)
    if defect.is_zero():
        return VerificationResult(True)
    rng = random.Random(seed)
    D = max(P.x_degree() - 1, field.dim)
    for _ in range(SAMPLE_ATTEMPTS):
        *xs, h = [Fraction(*_random_pair(rng)) for _ in range(field.dim + 1)]
        point = xs + [h, ZERO]
        den_val = evaluate_term_by_term(kmap.den, point)
        if den_val == 0:
            continue
        value = evaluate_term_by_term(defect, point)
        if value != 0:
            return VerificationResult(False, (xs, h, value / den_val**D))
    raise SolverError(
        f"no witness point for the nonzero defect in {SAMPLE_ATTEMPTS} attempts"
    )


def solve_by_symbolic_assembly(kmap, basis) -> list:
    """Nullspace of the Darboux system assembled symbolically: one column per
    weighted basis element, its cleared defect at the shared clearing power
    D, and one row per monomial."""
    n = kmap.dim
    elements = basis.elements
    if not elements:
        return []
    h = Polynomial.variable(kmap.nvars, n)
    D = max(max(el.poly.x_degree() for el in elements), n)
    n_plus_sub = kmap.substitute(kmap.n_plus, D)
    columns = []
    for el in elements:
        weighted = el.poly * (h**el.multiset.order) * (ONE / el.multiset.sigma())
        columns.append(kmap.den * kmap.substitute(weighted, D) - weighted * n_plus_sub)
    monomials = sorted({k for c in columns for k in c.terms})
    rows = [[c.coefficient(mk) for c in columns] for mk in monomials]
    return nullspace(rows, len(elements))


def residual_row_by_polynomials(step, polys) -> list:
    """N_{-h/2}(x) P(x') - P(x) N_{h/2}(x') at one Kahan step for each P,
    P evaluated term by term at x and at x'."""
    ev_x, n_minus, ev_phi, n_plus = step
    return [
        n_minus * evaluate_term_by_term(p, ev_phi.point)
        - evaluate_term_by_term(p, ev_x.point) * n_plus
        for p in polys
    ]


def jacobian(field) -> list[list[Polynomial]]:
    """f'(x): the entry (i, j) is d f_i / dx_j."""
    return [[component_partial(field, i, (j,)) for j in range(field.dim)] for i in range(field.dim)]


def kahan_step_by_solve(field, xs, h):
    """x + h k with (I - (h/2) f'(x)) k = f(x) solved by Gauss-Jordan
    elimination on `Fraction`s; None when the matrix is singular."""
    n = field.dim
    point = [Fraction(v) for v in xs] + [Fraction(h), Fraction(0)]
    jac = jacobian(field)
    aug = [
        [
            (1 if i == j else 0) - Fraction(h) / 2 * evaluate_term_by_term(jac[i][j], point)
            for j in range(n)
        ]
        + [evaluate_term_by_term(field.components[i], point)]
        for i in range(n)
    ]
    reduced = rref_by_fractions(aug, n)
    if len(reduced) < n or any(reduced[i][i] != 1 for i in range(n)):
        return None
    return [point[i] + point[n] * reduced[i][n] for i in range(n)]


def kahan_series_closed_form(field, order: int) -> list[list[Polynomial]]:
    """h-expansion of the Kahan step: [x, f, (1/2) f'f, (1/4) (f')^2 f, ...],
    the h^k coefficient vector being 2^(1-k) (f')^(k-1) f for k >= 1."""
    n, nv = field.dim, field.nvars
    out = [[Polynomial.variable(nv, i) for i in range(n)]]
    jac = jacobian(field)
    current = list(field.components)
    for _ in range(order):
        out.append(current)
        current = [
            sum((jac[i][j] * current[j] for j in range(n)), Polynomial.zero(nv)) * Fraction(1, 2)
            for i in range(n)
        ]
    return out


def h_series(num: Polynomial, den: Polynomial, order: int) -> list[Polynomial]:
    """The Taylor coefficients c_0 .. c_order of num / den in h about h = 0,
    exact: c_k = (num_k - sum_{j<k} c_j den_{k-j}) / den_0, with p_k the
    h^k layer of p; den_0 must not be the zero polynomial."""
    num_layers, den_layers = num.h_coefficients(), den.h_coefficients()
    d0 = den_layers.get(0)
    if d0 is None:
        raise ZeroDivisionError("denominator vanishes identically at h = 0")
    coeffs: list[Polynomial] = []
    for k in range(order + 1):
        acc = num_layers.get(k, Polynomial.zero(num.nvars))
        for j in range(k):
            if (layer := den_layers.get(k - j)) is not None:
                acc = acc - coeffs[j] * layer
        coeffs.append(divexact(acc, d0))
    return coeffs


def poly_mat_det(mat: list[list[Polynomial]]) -> Polynomial:
    """The determinant by Laplace expansion along the first row, in
    `Polynomial` arithmetic."""
    n = len(mat)
    if n == 1:
        return mat[0][0]
    nv = mat[0][0].nvars
    det = Polynomial.zero(nv)
    for j in range(n):
        if mat[0][j].is_zero():
            continue
        minor = [[mat[r][c] for c in range(n) if c != j] for r in range(1, n)]
        term = mat[0][j] * poly_mat_det(minor)
        det = det + (term if j % 2 == 0 else -term)
    return det


def kahan_map_by_cramer(field) -> tuple[Polynomial, list[Polynomial]]:
    """(den, numerators) of the Kahan map by Cramer's rule over rational
    `Polynomial`s: M = I - (h/2) f'(x), den = det(M) and numerators[i] =
    x_i den + h det(M with column i replaced by f(x))."""
    n, nv = field.dim, field.nvars
    h = Polynomial.variable(nv, n)
    jac = jacobian(field)
    M = [
        [Polynomial.const(nv, 1 if i == j else 0) - h * jac[i][j] * Fraction(1, 2) for j in range(n)]
        for i in range(n)
    ]
    den = poly_mat_det(M)
    comps = field.components
    numerators = [
        Polynomial.variable(nv, i) * den
        + h * poly_mat_det([row[:i] + [fr] + row[i + 1 :] for row, fr in zip(M, comps)])
        for i in range(n)
    ]
    return den, numerators


def symbolic_jacobian_det(kmap) -> RationalFunction:
    """det DPhi from the entrywise-differentiated map:
    d(num_i / den) / dx_j = (den d num_i / dx_j - num_i d den / dx_j) / den^2."""
    n = kmap.dim
    G = [
        [
            kmap.numerators[i].partial_derivative(j) * kmap.den
            - kmap.numerators[i] * kmap.den.partial_derivative(j)
            for j in range(n)
        ]
        for i in range(n)
    ]
    return RationalFunction(poly_mat_det(G), kmap.den ** (2 * n))


def monomial_basis(n: int) -> Basis:
    """The paper's monomial ansatz at order 4, even: the monomials h^k x^m
    with k even, k <= 4 and deg m <= k (46 for n = 3, 22 for n = 2), each an
    element of the unit multiset, so `solver._solve_sector` weights it by 1."""
    elements = []
    for k in (0, 2, 4):
        for m in product(range(k + 1), repeat=n):
            if sum(m) <= k:
                elements.append(BasisElement(UNIT, Polynomial.monomial(n + 2, [*m, k, 0]), f"h^{k}*x^{m}"))
    return Basis(elements, [])


def parameter_independent_over_every_coordinate(family, instances, max_order, parity="even", seed=0):
    """The family solve with the common kernel, the projection and the
    intersection over every multiset coordinate, and each representative's
    density on each instance confirmed by `_refute_or_confirm`."""
    multisets = sector_multisets(max_order, parity)
    fields = list(family)[:instances]
    coords = [m.encoding for m in multisets]
    ncols = len(coords)
    solved, coordinate_polys = [], []
    for idx, f in enumerate(fields):
        sol = solve_darboux(f, max_order, parity, seed=seed + idx)
        gammas = [[g.get(key, ZERO) for key in coords] for g in sol.gammas]
        polys = _weighted_polys(f, [(f.aroma_function(m), m.order, m.sigma()) for m in multisets])
        coordinate_polys.append(polys)
        solved.append((gammas, _coefficient_rows(polys)))
    kernel_space = complement([row for _, rows in solved for row in rows], ncols)
    leads = [next(j for j, v in enumerate(vec) if v) for vec in kernel_space]
    free = sorted(set(range(ncols)) - set(leads))

    def project(v):
        parts = [(v[l], vec) for l, vec in zip(leads, kernel_space) if v[l]]
        return [v[j] - sum((c * vec[j] for c, vec in parts if vec[j]), ZERO) for j in free]

    quotients = [
        [project(v) for v in gammas] + nullspace([[row[j] for j in free] for row in rows], len(free))
        for gammas, rows in solved
    ]
    lifted = []
    for w in complement(intersect_rowspaces(quotients, len(free)), len(free)):
        terms = [(j, c) for j, c in zip(free, w) if c]
        row = [ZERO] * ncols
        for j, c in terms:
            row[j] = c
        for l, vec in zip(leads, kernel_space):
            row[l] = -sum((c * vec[j] for j, c in terms if vec[j]), ZERO)
        lifted.append(row)
    space = complement(lifted, ncols)
    projected = [project(v) for v in space]
    kept = pivot_columns([[pv[i] for pv in projected] for i in range(len(free))], len(space))
    representatives = [space[i] for i in kept]
    if not representatives:
        raise SolverError("empty intersection")
    densities = []
    rng = random.Random(seed)
    for vec in representatives:
        per_instance = [_combination(f.nvars, polys, vec) for f, polys in zip(fields, coordinate_polys)]
        for f, density in zip(fields, per_instance):
            if not density.is_zero() and _refute_or_confirm(f.kahan_map(), density, rng) is not None:
                raise SolverError("intersection vector failed symbolic verification")
        densities.append(per_instance)
    return ParameterIndependentSolution(
        fields, coords, space, kernel_space, representatives, densities, len(representatives), True
    )


def proportionality(numer: Polynomial, denom: Polynomial):
    """c with numer = c * denom, or None when no constant does it, read off
    the canonical forms: a nonzero numer is proportional to denom exactly
    when their integer terms agree, and c is the ratio of the contents."""
    if denom.is_zero():
        return None
    if numer.is_zero():
        return ZERO
    return numer.content / denom.content if numer.terms == denom.terms else None
