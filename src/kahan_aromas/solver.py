"""Discovery and exact verification of aromatic Darboux densities.

Pipeline (per parity sector): enumerate aroma multisets up to the requested
order with the quadratic indegree filter, expand their aromatic functions
(times any user augmenters), select a maximal linearly independent basis in
a fixed enumeration order, then solve the Darboux equation

    N_{-h/2}(x) P(Phi_h(x)) - P(x) N_{h/2}(Phi_h(x)) = 0,   cofactor det DPhi_h

for P in the weighted span of the basis.  Everything rests on one Kahan
step x' = Phi_h(x) from seeded rational pairs, exact or mod P
(`KahanMap.step`), where the identity reads N_{-h/2}(x) P(x') = P(x)
N_{h/2}(x'), and on one check of a candidate P: refute it by a nonzero
residual at a step, or else confirm it by expanding the cleared defect to
the literal zero polynomial.  Every value at a point comes from a compiled
`poly.PolynomialBatch`, and a candidate's residual is the discovery row of
its one-polynomial batch.

Discovery takes the residual of every weighted basis element at seeded
steps modulo the prime P of `linalg`, one pass per step over the basis
compiled once per sector: the residual is linear in the element, so each
monomial m gives u_m = N_{-h/2}(x) m(x') - N_{h/2}(x') m(x) and each
element is one dot product with the u_m.  Each row is folded into one
echelon form until it reaches rank K (full rank mod P proves full rank
over Q: no density), the rank has stayed as it is for _STILL_DRAWS draws
in a row, or 2K + 16 rows are drawn.  No draw has h = 0: Phi_0 is the
identity, where every residual is zero.  Each vector of the nullspace mod
P, rebuilt over Q, is checked; one refuted at a fresh step adds that
step's row, which raises the rank (method "refined"), until every vector
is confirmed (method "sampled" when none was refuted).  As nullity mod P
>= nullity over Q >= the dimension of the density space, they are then
the exact solution space's canonical basis, however early the draws
stopped.  The same loop runs exactly (`linalg.nullspace`, on all 2K + 16
rows) from the seed again when a vector does not rebuild or its refuting
row leaves the rank mod P as it is, and from the start when P divides a
content's numerator or denominator.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, field as dc_field

from .fields import KahanMap, QuadraticVectorField, _combination, _weighted_polys
from .graphs import (
    AromaMultiset,
    THREE_CYCLE,
    TAILED_TWO_CYCLE,
    LOOP,
    LOOP_WITH_TAIL,
    TWO_CYCLE,
    enumerate_multisets,
)
from .linalg import P, _column_coordinates, _echelon_nullspace, _fold
from .linalg import complement, in_span, intersect_rowspaces, nullspace, pivot_columns, rank, rref
from .poly import PointEvaluator, Polynomial, PolynomialBatch, RationalFunction
from .rationals import ONE, Rat, ZERO, _random_pair, safe_repr

QUADRATIC_MAX_INDEGREE = 2
SAMPLE_ATTEMPTS = 100  # random points tried by each randomized search
_STILL_DRAWS = 4  # discovery draws in a row that leave the rank mod P as it is end the draws


class SolverError(RuntimeError):
    """No result where one was required (empty solution or intersection)."""


@dataclass
class BasisElement:
    multiset: AromaMultiset
    poly: Polynomial  # F(multiset) * augmenter, fully expanded
    label: str | None = None  # the augmenter's label; None for a plain multiset

    @property
    def key(self) -> str:
        """The multiset encoding, or "label*encoding" for an augmented element."""
        return self.multiset.encoding if self.label is None else f"{self.label}*{self.multiset.encoding}"


@dataclass
class Basis:
    elements: list[BasisElement]
    dropped: list[str]


@functools.lru_cache(maxsize=None)
def sector_multisets(max_order: int, parity: str) -> tuple[AromaMultiset, ...]:
    """The multisets of a parity sector up to max_order, under the quadratic
    indegree filter and in enumeration order, enumerated once per sector.
    The Kahan map is self-adjoint, so a density is pure-even or pure-odd in
    h and each sector ("even" or "odd" orders) is solved alone; "both"
    keeps all."""
    if parity not in ("even", "odd", "both"):
        raise ValueError("parity must be even, odd, or both")
    return tuple(
        m
        for m in enumerate_multisets(max_order, QUADRATIC_MAX_INDEGREE)
        if parity == "both" or m.order % 2 == (parity == "odd")
    )


def check_augmenters(augmenters, dim: int) -> None:
    """Raise ValueError unless each (label, polynomial) augmenter can key its
    basis elements "label*encoding" unambiguously: the labels are distinct,
    none starts with "C" or holds "*" (so a key never reads as a multiset),
    and no polynomial involves h or u."""
    labels = set()
    for label, p in augmenters:
        label = str(label)
        if label.startswith("C") or "*" in label:
            raise ValueError(
                f"augmenter label {safe_repr(label)} must not start with 'C' or contain '*'"
            )
        if label in labels:
            raise ValueError(f"augmenter label {safe_repr(label)} is used twice")
        labels.add(label)
        if p.degree_in(dim) or p.degree_in(dim + 1):
            raise ValueError(f"augmenter {safe_repr(label)} must not involve h or u")


def build_basis(
    field: QuadraticVectorField,
    max_order: int,
    augmenters=None,
    parity: str = "both",
) -> Basis:
    """Maximal independent set of (augmented) aromatic functions of one
    parity sector.

    Candidates are scanned in a fixed order (plain multisets sorted by
    (order, encoding), then each augmenter times the same list); ties in
    pivot selection therefore always go to the earlier element.
    """
    augmenters = list(augmenters or [])
    check_augmenters(augmenters, field.dim)
    multisets = sector_multisets(max_order, parity)
    plain = [field.aroma_function(m) for m in multisets]
    candidates = [BasisElement(m, p) for m, p in zip(multisets, plain)]
    for label, aug in augmenters:
        candidates.extend(BasisElement(m, p * aug, str(label)) for m, p in zip(multisets, plain))
    # integer terms: independence does not depend on the content; a zero
    # candidate is never a pivot, so only the others are eliminated
    nonzero = [i for i, el in enumerate(candidates) if not el.poly.is_zero()]
    monomials = sorted({k for el in candidates for k in el.poly.terms})
    rows = [[candidates[i].poly.terms.get(mk, 0) for i in nonzero] for mk in monomials]
    kept = {nonzero[c] for c in pivot_columns(rows, len(nonzero))}
    return Basis(
        [el for i, el in enumerate(candidates) if i in kept],
        [el.key for i, el in enumerate(candidates) if i not in kept],
    )


def _coefficient_rows(polys: list[Polynomial]) -> list[list[int]]:
    """The coefficient matrix of the polynomials times L, the lcm of their
    contents' denominators: one integer row per monomial (in key order),
    one column per polynomial.  The scale changes no linear relation."""
    common = math.lcm(*(p.content.denominator for p in polys))
    scales = [(p.content.numerator * (common // p.content.denominator), p.terms) for p in polys]
    monomials = sorted({k for p in polys for k in p.terms})
    return [[s * terms.get(mk, 0) for s, terms in scales] for mk in monomials]


@dataclass
class KernelRelations:
    multisets: list[AromaMultiset]
    relations: list[list[Rat]]  # each: coefficients c with sum c_k F(alpha_k) = 0

    def contains(self, relation) -> bool:
        return in_span(self.relations, list(relation), len(self.multisets)) is not None


def kernel_relations(field: QuadraticVectorField, max_order: int) -> KernelRelations:
    """Exact linear relations among all aromatic functions up to max_order.

    Enumeration is unfiltered, so the quadratic indegree kernel shows up as
    relations supported on single multisets.
    """
    multisets = enumerate_multisets(max_order)
    rows = _coefficient_rows([field.aroma_function(m) for m in multisets])
    return KernelRelations(multisets, nullspace(rows, len(multisets)))


@dataclass
class DarbouxSolution:
    field: QuadraticVectorField
    max_order: int
    parity: str  # as requested: even | odd | both
    bases: dict[str, Basis]  # per sector, the even one first
    gammas: list[dict[str, Rat]]
    densities: list[Polynomial]
    parities: list[str]  # per solution: its sector, even | odd
    seed: int
    method: str


def _steps(rng, kmap: KahanMap, modular: bool = False):
    """(pairs, kmap.step(pairs, modular)) of each draw with h != 0 and a
    Kahan step among SAMPLE_ATTEMPTS seeded draws of pairs, x's n
    coordinates, then h.  The step Phi_0 is the identity, where every
    residual is zero, so a draw with h = 0 is never taken."""
    for _ in range(SAMPLE_ATTEMPTS):
        pairs = [_random_pair(rng) for _ in range(kmap.dim + 1)]
        if pairs[-1][0] and (step := kmap.step(pairs, modular)) is not None:
            yield pairs, step


def _sample_point(rng, kmap: KahanMap, modular: bool):
    """The first of `_steps`; SolverError when there is none."""
    for drawn in _steps(rng, kmap, modular):
        return drawn
    raise SolverError(f"no sample point off h = 0 and det(M) = 0 in {SAMPLE_ATTEMPTS} attempts")


def _sample_row(batch: PolynomialBatch, step) -> list:
    """The residual N_{-h/2}(x) P(x') - P(x) N_{h/2}(x') of each polynomial
    P of the batch at one Kahan step, exact or mod P as the step is; zero at
    every step when P is a density.  It is P's terms dotted with
    u_m = N_{-h/2}(x) m(x') - N_{h/2}(x') m(x), over one denominator."""
    point, n_minus, image, n_plus = step
    xs, dx = batch.monomial_values(point)
    ys, dy = batch.monomial_values(image)
    a = n_minus.numerator * n_plus.denominator * dx
    b = n_plus.numerator * n_minus.denominator * dy
    scale = n_minus.denominator * n_plus.denominator * dx * dy
    return batch._over(batch.dot([a * y - b * x for x, y in zip(xs, ys)]), scale, point)


def _refute_or_confirm(kmap: KahanMap, P: Polynomial, rng):
    """The exact check of P o Phi = det(DPhi) * P at the exact steps that
    `_steps` draws from rng.

    Returns (pairs, step, residual), a draw and P's residual there, when
    the first step's residual is nonzero, a proof that P is no density;
    nothing is expanded then.  A zero residual proves nothing, so the
    cleared defect is expanded once (also when no step comes), and None (P
    is a density) is returned only when it is the literal zero polynomial.
    A nonzero defect is refuted at the first later step with a nonzero
    residual; when no step shows it, SolverError is raised.  Each residual
    is P's row (`_sample_row`).
    """
    batch = PolynomialBatch([P])
    steps = _steps(rng, kmap)
    first = next(steps, None)
    if first is not None and (residual := _sample_row(batch, first[1])[0]) != 0:
        return *first, residual
    if kmap.darboux_defect_cleared(P).is_zero():
        return None
    for pairs, step in steps:
        if (residual := _sample_row(batch, step)[0]) != 0:
            return pairs, step, residual
    raise SolverError(
        f"no witness point for the nonzero defect in {SAMPLE_ATTEMPTS} attempts"
    )


def _solve_sector(field: QuadraticVectorField, basis: Basis, seed: int):
    """Exact gamma-space, its densities and the method of one sector's
    basis, by the discovery of the module docstring: one loop per ring,
    `discover(modular)`, run from its own `random.Random(seed)`, whose
    checks draw fresh steps after its rows and whose refuting draws give
    their rows in its ring from the pairs.  The run mod P stops drawing
    after _STILL_DRAWS draws in a row that leave its rank as it is, since
    a rank stopped short only costs refuted checks, and it returns None to
    hand over to the exact run, which draws all 2K + 16 rows.  A confirmed
    candidate stays a nullspace vector when rows are added (its free
    coordinate stays free), so both runs share `confirmed` and no density
    is expanded twice."""
    kmap = field.kahan_map()
    weighted = _weighted_polys(
        field, [(el.poly, el.multiset.order, el.multiset.sigma()) for el in basis.elements]
    )
    K = len(weighted)
    S = 2 * K + 16
    batch = PolynomialBatch(weighted)
    confirmed: dict[tuple, Polynomial] = {}  # candidate -> its density

    def discover(modular: bool):
        rng = random.Random(seed)
        rows, echelon = [], {}  # the exact rows, or the rows mod P (`linalg._fold`)

        def add(step) -> bool:  # whether the step's row raises the rank (exact rows: always)
            if not modular:
                rows.append(_sample_row(batch, step))
                return True
            rank_before = len(echelon)
            if step is not None:
                _fold(echelon, _sample_row(batch, step), K)
            return len(echelon) > rank_before

        still = 0  # draws in a row that left the rank as it was (exact rows: none)
        for _ in range(S):
            still = 0 if add(_sample_point(rng, kmap, modular)[1]) else still + 1
            if len(echelon) == K or still == _STILL_DRAWS:
                break
        method = "sampled"
        while True:
            vectors = _echelon_nullspace(echelon, K) if modular else nullspace(rows, K)
            if vectors is None:
                return None  # a vector does not rebuild
            refuted_any = False
            for vec in vectors:
                if tuple(vec) in confirmed:
                    continue
                density = _combination(field.nvars, weighted, vec)
                if (refuted := _refute_or_confirm(kmap, density, rng)) is None:
                    confirmed[tuple(vec)] = density
                    continue
                refuted_any, method = True, "refined"
                pairs, step, _ = refuted
                if not add(kmap.step(pairs, True) if modular else step):
                    return None  # the vector was rebuilt wrong
            if not refuted_any:
                return vectors, method

    contents = [p.content for p in weighted + [kmap.den, kmap.n_plus, *kmap.numerators]]
    modular = all(c.numerator * c.denominator % P for c in contents)  # P is prime
    vectors, method = (discover(True) if modular else None) or discover(False)
    return vectors, [confirmed[tuple(vec)] for vec in vectors], method


def solve_darboux(
    field: QuadraticVectorField,
    max_order: int,
    parity: str = "both",
    augmenters=None,
    seed: int = 0,
) -> DarbouxSolution:
    """Find all Darboux densities with cofactor det DPhi_h in the weighted
    aroma-function span up to max_order; every returned density is verified
    as an exact rational identity."""
    bases: dict[str, Basis] = {}
    gammas: list[dict[str, Rat]] = []
    densities: list[Polynomial] = []
    parities: list[str] = []
    methods = []
    for sector in ("even", "odd") if parity == "both" else (parity,):
        basis = build_basis(field, max_order, augmenters, sector)
        vectors, sector_densities, method = _solve_sector(field, basis, seed)
        bases[sector] = basis
        methods.append(method)
        for vec, density in zip(vectors, sector_densities):
            gammas.append(
                {el.key: c for el, c in zip(basis.elements, vec) if c != 0}
            )
            densities.append(density)
            parities.append(sector)
    return DarbouxSolution(
        field=field,
        max_order=max_order,
        parity=parity,
        bases=bases,
        gammas=gammas,
        densities=densities,
        parities=parities,
        seed=seed,
        method="refined" if "refined" in methods else "sampled",
    )


@dataclass
class VerificationResult:
    verified: bool
    witness: tuple | None = None  # (xs, h, residual of the uncleared defect)


def verify_density(field: QuadraticVectorField, P: Polynomial, seed: int = 0) -> VerificationResult:
    """Exact check of P o Phi = det(DPhi) * P: refute at points, then confirm.

    At a rational point (x, h) off det(M) = 0 the Kahan step x' = Phi_h(x)
    is exact, and the Darboux identity N_{-h/2}(x) P(x') = P(x) N_{h/2}(x')
    holds there if P is a density.  A nonzero residual is returned as the
    witness; otherwise only a cleared defect that expands to the literal
    zero polynomial is reported as verified.  The residual is the cleared
    defect over den^D at the point, and the points are drawn from `seed` in
    a fixed order, so the witness is the first point where the cleared
    defect does not vanish.  The points have u = 0, so a P that involves u
    raises ValueError, as an augmenter does; so does the zero P, which is
    the density of no measure.
    """
    if P.nvars != field.nvars:
        raise ValueError("polynomials live in different variable universes")
    if P.is_zero():
        raise ValueError("a density must be a nonzero polynomial")
    if P.degree_in(field.dim + 1):
        raise ValueError("a density must not involve u")
    refuted = _refute_or_confirm(field.kahan_map(), P, random.Random(seed))
    if refuted is None:
        return VerificationResult(True)
    pairs, _, residual = refuted
    *xs, h = [Rat(a, b) for a, b in pairs]
    return VerificationResult(False, (xs, h, residual))


def first_integrals(densities: list[Polynomial], seed: int = 0):
    """Ratios g_i / g_1 plus the count of functionally independent ones.

    The count is the rank (`linalg.rank`) of the gradient rows at one
    random point.

    Raises when fewer than two densities exist or all are proportional.
    """
    if len(densities) < 2:
        raise ValueError("first integrals need at least two densities")
    g1 = densities[0]
    if g1.is_zero():
        raise ValueError("the first density is zero: it cannot divide the others")
    others = densities[1:]

    if all(density_span_solve([g1], g) is not None for g in others):
        raise ValueError("all densities are proportional: no nontrivial integral")
    ratios = [RationalFunction(g, g1) for g in others]
    nx = g1.nvars - 2
    # rows of the gradients g1 dg - g dg1, from one batch of each density
    # followed by its partials
    parts = [(g, *map(g.partial_derivative, range(nx))) for g in densities]
    batch = PolynomialBatch([q for part in parts for q in part])
    rng = random.Random(seed)
    for _ in range(SAMPLE_ATTEMPTS):
        values = batch.evaluate(PointEvaluator(nx + 2, [Rat(*_random_pair(rng)) for _ in range(nx + 1)] + [ZERO]))
        (v1, *d1), *rest = [values[i : i + nx + 1] for i in range(0, len(values), nx + 1)]
        if v1 == 0:
            continue
        rows = [[v1 * dg - v * dg1 for dg, dg1 in zip(dgs, d1)] for v, *dgs in rest]
        return ratios, rank(rows, nx)
    raise SolverError(
        f"no point where the first density is nonzero in {SAMPLE_ATTEMPTS} attempts"
    )


@dataclass
class Cond1Report:
    holds: bool
    alpha: Rat | None
    both_zero: bool


@dataclass
class NecessaryConditionsReport:
    div_free: bool
    cond1: Cond1Report
    fcond2: bool


def _cond1(field: QuadraticVectorField) -> tuple[bool, Cond1Report]:
    """Whether F(tailed 2-cycle) vanishes, and cond1: F(3-cycle) = alpha
    F(tailed 2-cycle), or both vanish."""
    f_c3 = field.aroma_function(THREE_CYCLE)
    f_t2c = field.aroma_function(TAILED_TWO_CYCLE)
    if f_t2c.is_zero():
        both_zero = f_c3.is_zero()
        return True, Cond1Report(holds=both_zero, alpha=None, both_zero=both_zero)
    alpha = None if (coords := density_span_solve([f_t2c], f_c3)) is None else coords[0]
    return False, Cond1Report(holds=alpha is not None, alpha=alpha, both_zero=False)


def necessary_conditions(field: QuadraticVectorField) -> NecessaryConditionsReport:
    """Leading-term and h^2/h^3 obstructions for aromatic Darboux densities."""
    div_free = field.is_divergence_free()
    _, cond1 = _cond1(field)
    f_lt = field.aroma_function(LOOP_WITH_TAIL)
    f_l2 = field.aroma_function(AromaMultiset((LOOP, LOOP)))
    return NecessaryConditionsReport(div_free, cond1, f_lt == f_l2)


def density_span_solve(densities: list[Polynomial], target: Polynomial):
    """Coordinates of target in the span of the density polynomials, or
    None: the last column of their coefficient rows [d_1 ... d_k | t]."""
    return _column_coordinates(_coefficient_rows(densities + [target]), len(densities))


def gamma_space(solution: DarbouxSolution, coords: list[str]) -> list[list[Rat]]:
    """Solution gamma-vectors lifted onto a common coordinate list (RREF)."""
    index = {enc: i for i, enc in enumerate(coords)}
    rows = []
    for gamma in solution.gammas:
        row = [ZERO] * len(coords)
        for key, value in gamma.items():
            if key not in index:
                raise ValueError(f"gamma key {key} not covered by the coordinates")
            row[index[key]] = value
        rows.append(row)
    return rref(rows, len(coords))


@dataclass
class ParameterIndependentSolution:
    fields: list[QuadraticVectorField]
    coords: list[str]
    space: list[list[Rat]]  # all gamma solving every instance (kernel included)
    common_kernel: list[list[Rat]]
    representatives: list[list[Rat]]  # space modulo the common kernel
    densities: list[list[Polynomial]]  # per representative, per instance
    dimension: int  # len(representatives)
    verified: bool

    def contains(self, vector) -> bool:
        return in_span(self.space, list(vector), len(self.coords)) is not None


def parameter_independent_solve(
    family: list[QuadraticVectorField],
    instances: int,
    max_order: int,
    parity: str = "even",
    seed: int = 0,
) -> ParameterIndependentSolution:
    """Exactly intersect the per-instance gamma solution spaces of a family.

    Instance i, the i-th field of `family`, is solved by `solve_darboux`
    with seed + i.  Each instance's full solution set (basis solutions plus
    that instance's kernel of F, which contributes zero densities) is
    intersected in one `intersect_rowspaces`; the space vectors outside the
    span of the common kernel and of the vectors before them are the
    parameter-independent measures.  A coordinate whose F is zero on every
    instance is a unit vector of the common kernel and of the space, so the
    intersection runs over the coordinates some instance sees.  Each
    representative's density on an instance is proven by its coordinates
    in the span of that instance's verified densities (the cleared defect
    is linear in P); a density outside that span raises SolverError.
    """
    if instances < 2:
        raise ValueError("need at least two instances to intersect")
    multisets = sector_multisets(max_order, parity)
    fields = list(family)[:instances]
    if len(fields) < instances:
        raise ValueError("family list shorter than the instance count")
    coords = [m.encoding for m in multisets]
    solutions = [solve_darboux(f, max_order, parity, seed=seed + idx) for idx, f in enumerate(fields)]
    plain = [[f.aroma_function(m) for m in multisets] for f in fields]
    seen = [j for j in range(len(coords)) if any(not F[j].is_zero() for F in plain)]
    ncols = len(seen)

    # an instance's solution space is its gamma-space plus its kernel of F,
    # the complement of its coefficient rows; the common kernel K, which
    # lies in every space, is the complement of all instances' rows stacked
    rows, spaces, coordinate_polys = [], [], []  # the polys are reused for the densities below
    for f, sol, F in zip(fields, solutions, plain):
        polys = _weighted_polys(f, [(F[j], multisets[j].order, multisets[j].sigma()) for j in seen])
        instance_rows = _coefficient_rows(polys)
        gammas = [[g.get(coords[j], ZERO) for j in seen] for g in sol.gammas]
        spaces.append(gammas + complement(instance_rows, ncols))
        rows += instance_rows
        coordinate_polys.append(polys)
    kernel_space = complement(rows, ncols)
    space = intersect_rowspaces(spaces, ncols)

    # space modulo K: the vectors of space outside the span of K and of the
    # vectors before them, the pivot columns of [K + space] after K
    columns = kernel_space + space
    kept = pivot_columns([[v[j] for v in columns] for j in range(ncols)], len(columns))
    representatives = [space[i - len(kernel_space)] for i in kept if i >= len(kernel_space)]
    if not representatives:
        raise SolverError("empty intersection: no parameter-independent measure at this order")

    densities = []
    for vec in representatives:
        per_instance = [_combination(f.nvars, polys, vec) for f, polys in zip(fields, coordinate_polys)]
        for sol, density in zip(solutions, per_instance):
            if density_span_solve(sol.densities, density) is None:
                raise SolverError("intersection vector is no density of every instance")
        densities.append(per_instance)

    # back on every coordinate: each unseen one is its own unit vector, and
    # a canonical basis is in the order of its vectors' leading coordinates
    units = [[ONE if i == j else ZERO for i in range(len(coords))] for j in range(len(coords)) if j not in seen]

    def on_coords(vectors, extra=()):
        rows = list(extra)
        for v in vectors:
            row = [ZERO] * len(coords)
            for j, c in zip(seen, v):
                row[j] = c
            rows.append(row)
        return sorted(rows, key=lambda row: next(j for j, c in enumerate(row) if c))

    return ParameterIndependentSolution(
        fields=fields,
        coords=coords,
        space=on_coords(space, units),
        common_kernel=on_coords(kernel_space, units),
        representatives=on_coords(representatives),
        densities=densities,
        dimension=len(representatives),
        verified=True,
    )


@dataclass
class ConjectureReport:
    applicable: bool
    tailed_two_cycle_zero: bool
    hypothesis_holds: bool
    alpha: Rat | None
    singular: bool = False
    density_found: bool | None = None
    gamma_two_cycle: Rat | None = None
    order4_support: list[str] = dc_field(default_factory=list)
    order4_proportional_pairs: list[tuple[str, str, Rat]] = dc_field(default_factory=list)
    solution_dimension: int | None = None


def conjecture_check(field: QuadraticVectorField, seed: int = 0) -> ConjectureReport:
    """Instance check of the R^3 homogeneous divergence-free conjecture.

    When F(3-cycle) = alpha F(tailed 2-cycle) holds non-degenerately (and
    alpha != -3), an order-4 even density with h^0 part 1 and h^2 part
    -(3-alpha)/24 F(2-cycle) must exist; its order-4 completion is reported
    rather than pinned to a specific aroma.
    """
    if field.dim != 3 or not field.is_homogeneous() or not field.is_divergence_free():
        raise ValueError("conjecture check requires a homogeneous divergence-free field on R^3")
    tailed_zero, cond1 = _cond1(field)
    report = ConjectureReport(
        applicable=True,
        tailed_two_cycle_zero=tailed_zero,
        hypothesis_holds=cond1.holds,
        alpha=cond1.alpha,
        singular=cond1.alpha == -3,
        order4_proportional_pairs=_order4_proportional_pairs(field),
    )
    if tailed_zero or not cond1.holds or report.singular:
        return report
    sol = solve_darboux(field, 4, parity="even", seed=seed)
    report.gamma_two_cycle = -(Rat(3) - cond1.alpha) / 12
    target_h2 = field.aroma_function(TWO_CYCLE) * (report.gamma_two_cycle / TWO_CYCLE.sigma())
    found = _find_constrained_density(sol, target_h2)
    report.density_found = found is not None
    if found is not None:
        report.order4_support = sorted(
            el.key for el in sol.bases["even"].elements if el.multiset.order == 4 and el.key in found[0]
        )
    report.solution_dimension = len(sol.densities)
    return report


def _order4_proportional_pairs(field):
    """Detected exact proportionalities F(a) = c F(b) among order-4 multisets."""
    order4 = [m for m in sector_multisets(4, "even") if m.order == 4]
    polys = [(m.encoding, field.aroma_function(m)) for m in order4]
    pairs = []
    for (enc_a, pa), (enc_b, pb) in itertools.combinations(polys, 2):
        if pa.is_zero() or pb.is_zero():
            continue
        if (coords := density_span_solve([pb], pa)) is not None:
            pairs.append((enc_a, enc_b, coords[0]))
    return pairs


def _find_constrained_density(sol: DarbouxSolution, target_h2: Polynomial):
    """(gamma, density) for a combination of the solutions with h^0 part 1
    and the given h^2 part, or None."""
    h2 = Polynomial.variable(sol.field.nvars, sol.field.dim) ** 2
    layers = [d.coefficient_of_h(0) + d.coefficient_of_h(2) * h2 for d in sol.densities]
    combo = density_span_solve(layers, target_h2 * h2 + 1)
    if combo is None:
        return None
    gamma: dict[str, Rat] = {}
    for c, g in zip(combo, sol.gammas):
        for k, v in g.items():
            gamma[k] = gamma.get(k, ZERO) + c * v
    gamma = {k: v for k, v in gamma.items() if v != 0}
    return gamma, _combination(sol.field.nvars, sol.densities, combo)
