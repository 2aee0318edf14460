"""Seeded inputs: fields and closed-form densities, built without the program.

Every draw comes from a `random.Random` the caller seeds.  Coefficients are
small nonzero rationals, so the inputs of one workload cost about the same
whatever the seed.
"""

from __future__ import annotations

from fractions import Fraction

from exact import add, const, field_json, mul, scale, solve, var

NV3 = 5  # x1, x2, x3, h, u
H = 3  # index of h among the variables of a field on R^3


def small(rng, top: int = 3, den: int = 3) -> Fraction:
    """A nonzero rational p/q with |p| <= top and q <= den."""
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, top), rng.randint(1, den))


def symmetric(draw, band: int = 3):
    """A symmetric 3x3 matrix with entries draw() within `band` of the diagonal."""
    m = [[Fraction(0)] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, min(i + band, 3)):
            m[i][j] = m[j][i] = draw()
    return m


def _linear_forms(mat, shift=None) -> list[dict]:
    """The polynomials (mat x + shift)_i on R^3."""
    shift = shift or [0] * 3
    return [
        add(const(NV3, shift[i]), *(scale(var(NV3, j), mat[i][j]) for j in range(3)))
        for i in range(3)
    ]


def _cross(u: list[dict], v: list[dict]) -> list[dict]:
    return [
        add(mul(u[1], v[2]), scale(mul(u[2], v[1]), -1)),
        add(mul(u[2], v[0]), scale(mul(u[0], v[2]), -1)),
        add(mul(u[0], v[1]), scale(mul(u[1], v[0]), -1)),
    ]


def nambu(A, B, a=None, b=None) -> dict:
    """grad(x^T A x + a.x) x grad(x^T B x + b.x) as field JSON."""
    twice = lambda M: [[2 * v for v in row] for row in M]
    return field_json(_cross(_linear_forms(twice(A), a), _linear_forms(twice(B), b)))


def _shape(field: dict) -> tuple[int, int, int]:
    return len(field["quadratic"]), len(field["linear"]), len(field["constant"])


def nambu_inhomogeneous(rng) -> dict:
    """grad(x^T D x + a.x) x grad(x^T T x + b.x) with D diagonal, T
    tridiagonal and integer entries 1 or 2 in size.  Draws where coefficients
    cancel are drawn again, so every field has the generic 11 quadratic,
    9 linear and 3 constant terms and costs the program about the same."""
    entry = lambda: small(rng, 2, 1)
    while True:
        field = nambu(symmetric(entry, band=1), symmetric(entry, band=2), [entry() for _ in range(3)], [entry() for _ in range(3)])
        if _shape(field) == (11, 9, 3):
            return field


def nambu_homogeneous(rng) -> dict:
    """grad(x^T A x) x grad(x^T B x) with integer entries up to 3 in size,
    drawn again until all 18 quadratic coefficients are nonzero."""
    entry = lambda: small(rng, 3, 1)
    while True:
        field = nambu(symmetric(entry), symmetric(entry))
        if _shape(field) == (18, 0, 0):
            return field


def lv_divfree() -> dict:
    """The divergence-free Volterra field (x(y - z), y(z - x), z(x - y))."""
    x = [var(NV3, i) for i in range(3)]
    return field_json(
        [mul(x[i], add(x[(i + 1) % 3], scale(x[(i + 2) % 3], -1))) for i in range(3)]
    )


def ishii_params(rng) -> dict:
    """Ishii parameters off the degenerate set k = 0, A3 = 0, A1 c3 = A2 b3."""
    while True:
        p = {name: small(rng) for name in ("b2", "b3", "c1", "c2", "c3", "k")}
        A1 = p["b2"] * p["c3"] - p["b3"] * p["c2"]
        A2 = p["c2"] * p["c3"] + p["b3"] * p["c1"]
        A3 = -(p["b2"] * p["c1"] + p["c2"] ** 2)
        if A3 and A1 * p["c3"] - A2 * p["b3"]:
            return p


def ishii(p: dict) -> dict:
    """The generalized Ishii system with its volume-preserving coupling."""
    b2, b3, c1, c2, c3, k = (p[n] for n in ("b2", "b3", "c1", "c2", "c3", "k"))
    A1 = b2 * c3 - b3 * c2
    A2 = c2 * c3 + b3 * c1
    x, y, z = (var(NV3, i) for i in range(3))
    return field_json(
        [
            add(scale(x, -c2), scale(y, b2), scale(z, b3)),
            add(scale(x, c1), scale(y, c2), scale(z, c3)),
            add(scale(mul(x, x), k * A2 * c3), scale(mul(x, y), -k * (A1 * c3 + A2 * b3)), scale(mul(y, y), k * A1 * b3)),
        ]
    )


def ishii_g2(p: dict) -> dict:
    """h^4 g2 with g2 = 2 A3^2 + 4 k (A1 c3 - A2 b3)^2 H1~, the Ishii density
    built on the modified invariant
    H1~ = z + (k/2)(c3 x - b3 y)^2 - (h^2 k/8)(A2 x - A1 y)^2."""
    b2, b3, c1, c2, c3, k = (p[n] for n in ("b2", "b3", "c1", "c2", "c3", "k"))
    A1 = b2 * c3 - b3 * c2
    A2 = c2 * c3 + b3 * c1
    A3 = -(b2 * c1 + c2 * c2)
    x, y, z, h = (var(NV3, i) for i in range(4))
    lin1 = add(scale(x, c3), scale(y, -b3))
    lin2 = add(scale(x, A2), scale(y, -A1))
    h1 = add(z, scale(mul(lin1, lin1), k / 2), scale(mul(mul(h, h), mul(lin2, lin2)), -k / 8))
    g2 = add(const(NV3, 2 * A3 * A3), scale(h1, 4 * k * (A1 * c3 - A2 * b3) ** 2))
    return mul(g2, mul(mul(h, h), mul(h, h)))


def random_dense(rng) -> dict:
    """A quadratic field on R^3 with every coefficient a nonzero integer
    up to 2 in size."""
    entry = lambda: str(small(rng, 2, 1))
    return {
        "dim": 3,
        "quadratic": [[i + 1, j + 1, k + 1, entry()] for i in range(3) for j in range(3) for k in range(j, 3)],
        "linear": [[i + 1, j + 1, entry()] for i in range(3) for j in range(3)],
        "constant": [[i + 1, entry()] for i in range(3)],
    }


def unimodular(rng):
    """A 3x3 integer matrix of determinant 1 (unit lower times unit upper)."""
    def unit_triangular(below: bool):
        return [[1 if i == j else rng.randint(-2, 2) if (j < i) == below else 0 for j in range(3)] for i in range(3)]

    lower, upper = unit_triangular(True), unit_triangular(False)
    return [[sum(lower[i][m] * upper[m][j] for m in range(3)) for j in range(3)] for i in range(3)]


def pullback(field: dict, A, v) -> dict:
    """The field x -> A^{-1} f(A x + v), computed from the field JSON."""
    n = field["dim"]
    forms = _linear_forms(A, v)
    comps = [{} for _ in range(n)]
    for i, j, k, c in field.get("quadratic", []):
        comps[i - 1] = add(comps[i - 1], scale(mul(forms[j - 1], forms[k - 1]), Fraction(c)))
    for i, j, c in field.get("linear", []):
        comps[i - 1] = add(comps[i - 1], scale(forms[j - 1], Fraction(c)))
    for i, c in field.get("constant", []):
        comps[i - 1] = add(comps[i - 1], const(NV3, Fraction(c)))
    inverse = [solve(A, [Fraction(i == j) for i in range(n)]) for j in range(n)]  # columns of A^{-1}
    return field_json(
        [add(*(scale(comps[j], inverse[j][i]) for j in range(n))) for i in range(n)]
    )

