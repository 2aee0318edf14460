"""Built-in example systems with golden expectations.

Each system is registered with an exact builder, a seeded random parameter
draw (small rationals; degenerate draws are re-rolled and counted), and a
golden suite that re-derives the known preserved measures and first
integrals and compares exactly.  Golden failures are reported, not thrown.
"""

from __future__ import annotations

import inspect
import random
from dataclasses import dataclass
from typing import Callable

from .fields import QuadraticVectorField, hamiltonian_field, modified_hamiltonian
from .graphs import TWO_CYCLE, Aroma
from .poly import Polynomial
from .rationals import Rat, ZERO, parse_rat, safe_repr
from .solver import (
    SAMPLE_ATTEMPTS,
    SolverError,
    _find_constrained_density,
    conjecture_check,
    density_span_solve,
    first_integrals,
    gamma_space,
    necessary_conditions,
    sector_multisets,
    solve_darboux,
    verify_density,
)

NV3 = 5  # variable count for dim-3 fields (x, y, z, h, u)


def _x(i):
    return Polynomial.variable(NV3, i)


def _c(value):
    return Polynomial.const(NV3, value)


def _rat_matrix(rows, name, size=3):
    """A size x size parameter matrix of exact rationals; size None admits
    any square one."""
    seq = (list, tuple)
    ok = isinstance(rows, seq) and rows and all(isinstance(r, seq) for r in rows)
    n = len(rows) if ok and size is None else size
    if not ok or len(rows) != n or any(len(r) != n for r in rows):
        shape = "a square" if size is None else f"a {size} x {size}"
        raise ValueError(f"parameter {name!r} must be {shape} matrix, got {safe_repr(rows)}")
    return [[parse_rat(v) for v in row] for row in rows]


def _rat_vector(vec, name):
    if not isinstance(vec, (list, tuple)) or len(vec) != 3:
        raise ValueError(f"parameter {name!r} must be a vector of length 3, got {safe_repr(vec)}")
    return [parse_rat(v) for v in vec]


def _quadratic_form_poly(A):
    """x^T A x as a polynomial (A a rational 3x3 matrix)."""
    n = len(A)
    out = Polynomial.zero(NV3)
    for i in range(n):
        for j in range(n):
            if A[i][j] != 0:
                out = out + _x(i) * _x(j) * A[i][j]
    return out


def _cross(u, v):
    return [
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    ]


def _adjugate(M):
    """Adjugate of a 3 x 3 matrix: its rows are cross products of M's columns,
    so adj(M) M = det(M) I."""
    c0, c1, c2 = zip(*M)
    return [_cross(c1, c2), _cross(c2, c0), _cross(c0, c1)]


def _gradient(p: Polynomial, n: int):
    return [p.partial_derivative(i) for i in range(n)]


# ---------------------------------------------------------------------------
# builders


def lv(alpha=1, beta=1, gamma=1) -> QuadraticVectorField:
    """Generalized Lotka-Volterra: (x(bz-gy), y(-az+gx), z(ay-bx))."""
    a, b, g = parse_rat(alpha), parse_rat(beta), parse_rat(gamma)
    comps = [
        _x(0) * (_x(2) * b - _x(1) * g),
        _x(1) * (_x(2) * (-a) + _x(0) * g),
        _x(2) * (_x(1) * a - _x(0) * b),
    ]
    return QuadraticVectorField(comps)


def lv_divfree() -> QuadraticVectorField:
    """The divergence-free Volterra form lv(-1, -1, -1): (x(y-z), y(z-x), z(x-y))."""
    return lv(-1, -1, -1)


def lv_special() -> QuadraticVectorField:
    """The case alpha=beta=1, gamma=-1: (x(y+z), -y(x+z), z(y-x))."""
    return lv(1, 1, -1)


def dressing_chain(a=0, b=0, c=0) -> QuadraticVectorField:
    av, bv, cv = parse_rat(a), parse_rat(b), parse_rat(c)
    comps = [
        -_x(1) ** 2 + _x(2) ** 2 + _c(cv - bv),
        _x(0) ** 2 - _x(2) ** 2 + _c(av - cv),
        -_x(0) ** 2 + _x(1) ** 2 + _c(bv - av),
    ]
    return QuadraticVectorField(comps)


def nambu_homogeneous(A, B) -> QuadraticVectorField:
    """f = grad(x^T A x) x grad(x^T B x) for symmetric A, B."""
    A, B = _rat_matrix(A, "A"), _rat_matrix(B, "B")
    _require_symmetric(A, "A")
    _require_symmetric(B, "B")
    gH = _gradient(_quadratic_form_poly(A), 3)
    gK = _gradient(_quadratic_form_poly(B), 3)
    return QuadraticVectorField(_cross(gH, gK))


def nambu_inhomogeneous(H, hvec, K, kvec) -> QuadraticVectorField:
    """f = grad(x^T H x + h.x) x grad(x^T K x + k.x)."""
    H, K = _rat_matrix(H, "H"), _rat_matrix(K, "K")
    hvec, kvec = _rat_vector(hvec, "hvec"), _rat_vector(kvec, "kvec")
    _require_symmetric(H, "H")
    _require_symmetric(K, "K")
    pH = _quadratic_form_poly(H) + sum(
        (_x(i) * hvec[i] for i in range(3)), Polynomial.zero(NV3)
    )
    pK = _quadratic_form_poly(K) + sum(
        (_x(i) * kvec[i] for i in range(3)), Polynomial.zero(NV3)
    )
    return QuadraticVectorField(_cross(_gradient(pH, 3), _gradient(pK, 3)))


def _ishii_coefficients(b2, b3, c1, c2, c3):
    """Ishii's (A1, A2, A3)."""
    return b2 * c3 - b3 * c2, c2 * c3 + b3 * c1, -(b2 * c1 + c2 * c2)


def ishii(b2, b3, c1, c2, c3, k) -> QuadraticVectorField:
    """The generalized Ishii system with the volume-preserving coupling."""
    b2, b3, c1, c2, c3, k = map(parse_rat, (b2, b3, c1, c2, c3, k))
    A1, A2, _ = _ishii_coefficients(b2, b3, c1, c2, c3)
    a11 = k * A2 * c3
    a12 = -k * (A1 * c3 + A2 * b3)
    a22 = k * A1 * b3
    comps = [
        _x(0) * (-c2) + _x(1) * b2 + _x(2) * b3,
        _x(0) * c1 + _x(1) * c2 + _x(2) * c3,
        _x(0) ** 2 * a11 + _x(0) * _x(1) * a12 + _x(1) ** 2 * a22,
    ]
    return QuadraticVectorField(comps)


def ishii_invariants(b2, b3, c1, c2, c3, k):
    """(H1_tilde, g2_target): the modified invariant and the density it
    determines, g2 = 2 A3^2 + 4 k (A1 c3 - A2 b3)^2 H1_tilde (h^4-graded)."""
    b2, b3, c1, c2, c3, k = map(parse_rat, (b2, b3, c1, c2, c3, k))
    A1, A2, A3 = _ishii_coefficients(b2, b3, c1, c2, c3)
    h = Polynomial.variable(NV3, 3)
    lin1 = _x(0) * c3 - _x(1) * b3
    lin2 = _x(0) * A2 - _x(1) * A1
    h1_tilde = _x(2) + lin1 * lin1 * (k / 2) - h * h * (lin2 * lin2) * (k / 8)
    g2 = _c(2 * A3 * A3) + h1_tilde * (4 * k * (A1 * c3 - A2 * b3) ** 2)
    return h1_tilde, g2 * h**4


def divfree_homogeneous_r3(A, B, C) -> QuadraticVectorField:
    """(x^T A x, x^T B x, x^T C x) with the divergence-free row constraints."""
    A, B, C = _rat_matrix(A, "A"), _rat_matrix(B, "B"), _rat_matrix(C, "C")
    for M, name in ((A, "A"), (B, "B"), (C, "C")):
        _require_symmetric(M, name)
    for j in range(3):
        if A[0][j] + B[1][j] + C[2][j] != 0:
            raise ValueError("matrices violate the divergence-free constraint")
    comps = [_quadratic_form_poly(M) for M in (A, B, C)]
    return QuadraticVectorField(comps)


def canonical_hamiltonian(J, H) -> QuadraticVectorField:
    """f = J grad H for constant skew J and cubic H given as polynomial JSON."""
    J = _rat_matrix(J, "J", size=None)
    return hamiltonian_field(J, Polynomial.from_json(H, len(J) + 2))


def _require_symmetric(M, name):
    n = len(M)
    for i in range(n):
        for j in range(n):
            if M[i][j] != M[j][i]:
                raise ValueError(f"matrix {name} must be symmetric")


# ---------------------------------------------------------------------------
# seeded random parameter draws


def rand_small(rng) -> Rat:
    return Rat(rng.randint(-3, 3), rng.randint(1, 3))


def random_symmetric(rng, n=3):
    M = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            M[i][j] = M[j][i] = rand_small(rng)
    return M


def random_vector(rng, n=3):
    return [rand_small(rng) for _ in range(n)]


def random_quadratic_field(rng, n) -> QuadraticVectorField:
    """A dense quadratic field on R^n with small random coefficients."""
    quad, lin, const = [], [], []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            quad += [[i, j, k, rand_small(rng)] for k in range(j, n + 1)]
            lin.append([i, j, rand_small(rng)])
        const.append([i, rand_small(rng)])
    return QuadraticVectorField.from_json({"dim": n, "quadratic": quad, "linear": lin, "constant": const})


def random_cubic_polynomial(rng, n) -> Polynomial:
    """The sum of 6 random cubic monomials in x_1 .. x_n."""
    nv = n + 2
    out = Polynomial.zero(nv)
    for _ in range(6):
        exps = [0] * nv
        for _ in range(3):
            exps[rng.randrange(n)] += 1
        out = out + Polynomial.monomial(nv, exps, rand_small(rng))
    return out


def random_divfree_homogeneous_r3_params(rng):
    A = random_symmetric(rng)
    B = random_symmetric(rng)
    C = [[ZERO] * 3 for _ in range(3)]
    C[0][0] = rand_small(rng)
    C[0][1] = C[1][0] = rand_small(rng)
    C[1][1] = rand_small(rng)
    for j in range(3):
        val = -(A[0][j] + B[1][j])
        C[2][j] = val
        C[j][2] = val
    return {"A": A, "B": B, "C": C}


def random_ishii_params(rng):
    for rerolls in range(SAMPLE_ATTEMPTS):
        params = {name: rand_small(rng) for name in ("b2", "b3", "c1", "c2", "c3")}
        params["k"] = rand_small(rng)
        b2, b3, c1, c2, c3, k = (params[n] for n in ("b2", "b3", "c1", "c2", "c3", "k"))
        A1, A2, A3 = _ishii_coefficients(b2, b3, c1, c2, c3)
        if k != 0 and A3 != 0 and (A1 * c3 - A2 * b3) != 0:
            return params, rerolls
    raise SolverError(f"no nondegenerate Ishii parameters in {SAMPLE_ATTEMPTS} attempts")


# ---------------------------------------------------------------------------
# golden suites


@dataclass
class GoldenCheck:
    name: str
    passed: bool
    detail: str = ""


def _h():
    return Polynomial.variable(NV3, 3)


def _golden_lv_divfree(seed) -> list[GoldenCheck]:
    f = lv_divfree()
    checks = []
    sol = solve_darboux(f, 4, parity="even", seed=seed)
    target = _c(1) - f.aroma_function(TWO_CYCLE) * _h() ** 2 * Rat(1, 8)
    checks.append(
        GoldenCheck(
            "density 1 - h^2/8 F(2-cycle) in solution span",
            density_span_solve(sol.densities, target) is not None,
        )
    )
    cond = necessary_conditions(f)
    checks.append(GoldenCheck("div f = 0", cond.div_free))
    checks.append(
        GoldenCheck(
            "cond1: alpha = 0 and gamma(2-cycle) = (alpha-3)/12 = -1/4",
            cond.cond1.holds
            and cond.cond1.alpha == 0
            and any(g.get("C2(;)") == Rat(-1, 4) and g.get("1") == 1 for g in sol.gammas),
        )
    )
    i0 = _x(0) + _x(1) + _x(2)
    aug = solve_darboux(f, 4, parity="even", augmenters=[("I0", i0)], seed=seed)
    in_span_plain = density_span_solve(aug.densities, target)
    in_span_aug = density_span_solve(aug.densities, target * i0)
    checks.append(
        GoldenCheck(
            "augmented run contains g1 and I0*g1 (ratio recovers I0)",
            in_span_plain is not None and in_span_aug is not None,
        )
    )
    if in_span_plain is not None and in_span_aug is not None:
        ratios, _count = first_integrals([target, target * i0])
        checks.append(GoldenCheck("ratio equals I0 exactly", ratios[0] == i0))
    return checks


def _golden_lv_special(seed) -> list[GoldenCheck]:
    f = lv_special()
    checks = []
    sol = solve_darboux(f, 4, parity="even", seed=seed)
    z = _x(2)
    g1 = z * z * _h() ** 2 * Rat(-4)
    checks.append(
        GoldenCheck(
            "h-independent density -4 z^2 (times h^2 grading) found",
            density_span_solve(sol.densities, g1) is not None,
        )
    )
    i1 = (_x(0) + _x(1) + _x(2)) ** 2
    g2 = g1 * i1 * _h() ** 2
    g3 = _x(0) * _x(1) * (_x(0) + _x(2)) * (_x(1) + _x(2)) * Rat(16) * _h() ** 4
    checks.append(
        GoldenCheck(
            "g2 = g1 * (x+y+z)^2 found", density_span_solve(sol.densities, g2) is not None
        )
    )
    checks.append(
        GoldenCheck(
            "g3 = 16xy(x+z)(y+z) found", density_span_solve(sol.densities, g3) is not None
        )
    )
    ratios, count = first_integrals([g1, g2, g3], seed=seed)
    checks.append(
        GoldenCheck("I1 = (x+y+z)^2 up to the h^2 normalization", ratios[0] == i1 * _h() ** 2)
    )
    checks.append(GoldenCheck("independence count = 2", count == 2))
    return checks


def _golden_nambu_homogeneous(seed) -> list[GoldenCheck]:
    rng = random.Random(seed)
    checks = []
    A = random_symmetric(rng)
    B = random_symmetric(rng)
    f = nambu_homogeneous(A, B)
    fc2 = f.aroma_function(TWO_CYCLE)
    if fc2.is_zero():  # degenerate draw: re-roll once
        A, B = random_symmetric(rng), random_symmetric(rng)
        f = nambu_homogeneous(A, B)
        fc2 = f.aroma_function(TWO_CYCLE)
        checks.append(GoldenCheck("re-rolled degenerate draw", True))
    C = _mat_sub(
        _mat_sub(
            _mat_sub(_adjugate(_mat_add(_adjugate(A), _adjugate(B))), _adjugate(_adjugate(A))),
            _mat_add(_adjugate(_adjugate(B)), _mat_mul(_mat_mul(B, _adjugate(A)), B)),
        ),
        _mat_mul(_mat_mul(A, _adjugate(B)), A),
    )
    checks.append(
        GoldenCheck(
            "F(2-cycle) = 32 x^T C x", fc2 == _quadratic_form_poly(C) * Rat(32)
        )
    )
    fc4 = f.aroma_function(Aroma(4))
    checks.append(GoldenCheck("F(4-cycle) = (1/2) F(2-cycle)^2", fc4 * 2 == fc2 * fc2))
    sol = solve_darboux(f, 4, parity="even", seed=seed)
    checks.append(
        GoldenCheck(f"solution dimension = 2 (got {len(sol.densities)})", len(sol.densities) == 2)
    )
    gt = _c(1) - fc2 * _h() ** 2 * Rat(1, 24)
    gt = gt * gt
    checks.append(
        GoldenCheck(
            "(1 - h^2/24 F(2-cycle))^2 verified and in span",
            verify_density(f, gt).verified
            and density_span_solve(sol.densities, gt) is not None,
        )
    )
    h1 = _quadratic_form_poly(_rat_matrix(A, "A"))
    h2 = _quadratic_form_poly(_rat_matrix(B, "B"))
    grads_ok = all(
        sum((H.partial_derivative(i) * fi for i, fi in enumerate(f.components)), Polynomial.zero(NV3)).is_zero()
        for H in (h1, h2)
    )
    checks.append(GoldenCheck("H1, H2 are first integrals of the flow", grads_ok))
    return checks


def _mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def _mat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def _mat_mul(A, B):
    n = len(A)
    return [
        [sum((A[i][k] * B[k][j] for k in range(n)), ZERO) for j in range(n)]
        for i in range(n)
    ]


def _golden_ishii(seed) -> list[GoldenCheck]:
    checks = []
    params, rerolls = random_ishii_params(random.Random(seed))
    if rerolls:
        checks.append(GoldenCheck(f"re-rolled {rerolls} degenerate draws", True))
    f = ishii(**params)
    vol = f.kahan_map().det_jacobian() == 1
    checks.append(GoldenCheck("det DPhi_h == 1 exactly", vol))
    sol = solve_darboux(f, 6, parity="even", seed=seed)
    _h1t, g2 = ishii_invariants(**params)
    checks.append(
        GoldenCheck(
            "g2 = 2 A3^2 + 4k(A1c3-A2b3)^2 H1~ lies in the solution span",
            density_span_solve(sol.densities, g2) is not None,
        )
    )
    checks.append(GoldenCheck("constants lie in the span (volume preserved)",
                              density_span_solve(sol.densities, _c(1)) is not None))
    return checks


def _golden_nambu_inhomogeneous(seed) -> list[GoldenCheck]:
    rng = random.Random(seed)
    checks = []
    params = SYSTEMS["nambu_inhomogeneous"].random_params(rng)
    f = nambu_inhomogeneous(params["H"], params["hvec"], params["K"], params["kvec"])
    fc2 = f.aroma_function(TWO_CYCLE)
    sol = solve_darboux(f, 6, parity="even", seed=seed)
    found = _find_constrained_density(sol, fc2 * Rat(-1, 12))
    checks.append(
        GoldenCheck(
            "verified density with h^0 = 1 and h^2 = -(1/12) F(2-cycle)", found is not None
        )
    )
    if found is not None:
        gamma, density = found
        checks.append(
            GoldenCheck(
                f"density uses <= 10 aroma-basis terms (got {len(gamma)})",
                len(gamma) <= 10,
            )
        )
        checks.append(GoldenCheck("re-verifies", verify_density(f, density).verified))
    return checks


def _golden_dressing_chain(seed) -> list[GoldenCheck]:
    checks = []
    f_lv = lv(1, 1, 1)  # this orientation maps onto the a=b=c=0 dressing chain
    f_dc = dressing_chain(0, 0, 0)
    coords = [m.encoding for m in sector_multisets(4, "even")]
    s1 = solve_darboux(f_lv, 4, parity="even", seed=seed)
    s2 = solve_darboux(f_dc, 4, parity="even", seed=seed)
    g1 = gamma_space(s1, coords)
    g2 = gamma_space(s2, coords)
    checks.append(GoldenCheck("gamma-space(LV) == gamma-space(dressing chain)", g1 == g2))
    f_dc_rand = dressing_chain(Rat(1, 2), Rat(-1, 3), Rat(2))
    s3 = solve_darboux(f_dc_rand, 4, parity="even", seed=seed)
    g3 = gamma_space(s3, coords)
    checks.append(
        GoldenCheck("free parameters (a,b,c) leave the gamma-space unchanged", g3 == g1)
    )
    target = _c(1) - f_dc.aroma_function(TWO_CYCLE) * _h() ** 2 * Rat(1, 8)
    checks.append(
        GoldenCheck(
            "density 1 - h^2/8 F(2-cycle) holds for the dressing chain",
            density_span_solve(s2.densities, target) is not None,
        )
    )
    return checks


def _golden_canonical_hamiltonian(seed) -> list[GoldenCheck]:
    rng = random.Random(seed)
    checks = []
    J = [[0, 1], [-1, 0]]
    H = random_cubic_polynomial(rng, 2)
    f = hamiltonian_field(J, H)
    kmap = f.kahan_map()
    checks.append(
        GoldenCheck(
            "det(I - h/2 f') is a verified Darboux density",
            verify_density(f, kmap.den).verified,
        )
    )
    ht = modified_hamiltonian(f, H)
    D = max(ht.num.x_degree(), f.dim)
    lhs = kmap.substitute(ht.num, D) * ht.den
    rhs = ht.num * kmap.substitute(ht.den, D)
    checks.append(GoldenCheck("modified Hamiltonian is exactly preserved", lhs == rhs))
    return checks


def _golden_divfree_homogeneous_r3(seed) -> list[GoldenCheck]:
    rng = random.Random(seed)
    checks = []
    f = divfree_homogeneous_r3(**random_divfree_homogeneous_r3_params(rng))
    checks.append(GoldenCheck("divergence vanishes", f.is_divergence_free()))
    report = conjecture_check(f, seed=seed)
    if report.hypothesis_holds and not report.singular and not report.tailed_two_cycle_zero:
        checks.append(
            GoldenCheck("conjectured density found", bool(report.density_found))
        )
    else:
        checks.append(
            GoldenCheck("hypothesis does not apply to this draw (reported only)", True)
        )
    return checks


def _golden_lv(seed) -> list[GoldenCheck]:
    rng = random.Random(seed)
    f = lv(rand_small(rng), rand_small(rng), rand_small(rng))
    total = sum(f.components, Polynomial.zero(NV3))
    return [GoldenCheck("x+y+z is a first integral of the flow", total.is_zero())]


# ---------------------------------------------------------------------------
# the registry


@dataclass
class SystemSpec:
    name: str
    description: str
    build: Callable[..., QuadraticVectorField]  # takes the parameters as keywords
    random_params: Callable[[random.Random], dict] | None
    schema: str
    golden: Callable[[int], list[GoldenCheck]]  # the golden suite, given a seed


SYSTEMS: dict[str, SystemSpec] = {spec.name: spec for spec in (
    SystemSpec(
        "lv",
        "generalized Lotka-Volterra (x(bz-gy), y(-az+gx), z(ay-bx))",
        lv,
        None,
        '{"alpha": "p/q", "beta": "p/q", "gamma": "p/q"}',
        _golden_lv,
    ),
    SystemSpec(
        "lv_divfree",
        "divergence-free Volterra chain (x(y-z), y(z-x), z(x-y))",
        lv_divfree,
        None,
        "{}",
        _golden_lv_divfree,
    ),
    SystemSpec(
        "lv_special",
        "the h-independent-measure case (x(y+z), -y(x+z), z(y-x))",
        lv_special,
        None,
        "{}",
        _golden_lv_special,
    ),
    SystemSpec(
        "dressing_chain",
        "dressing chain (-y^2+z^2-b+c, x^2-z^2+a-c, -x^2+y^2-a+b)",
        dressing_chain,
        lambda rng: {"a": rand_small(rng), "b": rand_small(rng), "c": rand_small(rng)},
        '{"a": "p/q", "b": "p/q", "c": "p/q"}',
        _golden_dressing_chain,
    ),
    SystemSpec(
        "nambu_homogeneous",
        "homogeneous Nambu flow grad(x^T A x) x grad(x^T B x)",
        nambu_homogeneous,
        lambda rng: {"A": random_symmetric(rng), "B": random_symmetric(rng)},
        '{"A": 3x3 symmetric, "B": 3x3 symmetric}',
        _golden_nambu_homogeneous,
    ),
    SystemSpec(
        "nambu_inhomogeneous",
        "inhomogeneous Nambu flow grad(H) x grad(K), H and K general quadratics",
        nambu_inhomogeneous,
        lambda rng: {
            "H": random_symmetric(rng),
            "hvec": random_vector(rng),
            "K": random_symmetric(rng),
            "kvec": random_vector(rng),
        },
        '{"H": 3x3 sym, "hvec": [3], "K": 3x3 sym, "kvec": [3]}',
        _golden_nambu_inhomogeneous,
    ),
    SystemSpec(
        "ishii",
        "generalized Ishii system with exactly volume-preserving coupling",
        ishii,
        lambda rng: random_ishii_params(rng)[0],
        '{"b2","b3","c1","c2","c3","k": "p/q"}',
        _golden_ishii,
    ),
    SystemSpec(
        "divfree_homogeneous_r3",
        "homogeneous divergence-free quadratic field on R^3",
        divfree_homogeneous_r3,
        random_divfree_homogeneous_r3_params,
        '{"A","B","C": 3x3 symmetric with A[0,:]+B[1,:]+C[2,:]=0}',
        _golden_divfree_homogeneous_r3,
    ),
    SystemSpec(
        "canonical_hamiltonian",
        "canonical cubic-Hamiltonian field J grad H (n=2 default draw)",
        canonical_hamiltonian,
        lambda rng: {
            "J": [[0, 1], [-1, 0]],
            "H": random_cubic_polynomial(rng, 2).to_json(),
        },
        '{"J": skew matrix, "H": polynomial JSON in n+2 vars}',
        _golden_canonical_hamiltonian,
    ),
)}


def get_system(name: str, params: dict | None = None, seed: int = 0) -> QuadraticVectorField:
    if name not in SYSTEMS:
        raise ValueError(f"unknown system {safe_repr(name)}; known: {sorted(SYSTEMS)}")
    spec = SYSTEMS[name]
    if params is None:
        if spec.random_params is None:
            params = {}
        else:
            params = spec.random_params(random.Random(seed))
    if not isinstance(params, dict):
        raise ValueError(f"parameters of system {name!r} must be an object; schema: {spec.schema}")
    names = inspect.signature(spec.build).parameters
    unknown = sorted(set(params) - set(names))
    if unknown:
        raise ValueError(f"system {name!r} takes no parameter {safe_repr(unknown[0])}; schema: {spec.schema}")
    missing = [k for k, p in names.items() if p.default is p.empty and k not in params]
    if missing:
        raise ValueError(f"system {name!r} needs parameter {missing[0]!r}; schema: {spec.schema}")
    try:
        return spec.build(**params)
    except ValueError as exc:
        raise ValueError(f"system {name!r}: {exc}; schema: {spec.schema}") from exc


def golden_suite(name: str, seed: int = 0) -> list[GoldenCheck]:
    if name not in SYSTEMS:
        raise ValueError(f"no golden suite for {safe_repr(name)}; known: {sorted(SYSTEMS)}")
    return SYSTEMS[name].golden(seed)
