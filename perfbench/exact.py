"""Exact arithmetic the benchmark checks the program with.

Nothing here imports the program.  Polynomials are dicts from exponent
tuples over (x1, ..., xn, h, u) to Fractions, fields are the field JSON the
program reads, and densities are the polynomial JSON it writes.

The central check is the Kahan-step identity at rational points: with
x' = x + h (I - h/2 f'(x))^{-1} f(x) and N-/+ = det(I -/+ h/2 f'), a
density P satisfies  N-(x) P(x', h) = P(x, h) N+(x')  (Celledoni, McLachlan,
Owren & Quispel, J. Phys. A 2013).
"""

from __future__ import annotations

from fractions import Fraction

# -- polynomials --------------------------------------------------------------


def const(nv: int, c) -> dict:
    c = Fraction(c)
    return {(0,) * nv: c} if c else {}


def var(nv: int, i: int) -> dict:
    e = [0] * nv
    e[i] = 1
    return {tuple(e): Fraction(1)}


def add(*polys: dict) -> dict:
    out: dict = {}
    for p in polys:
        for e, c in p.items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def scale(p: dict, c) -> dict:
    c = Fraction(c)
    return {e: v * c for e, v in p.items()} if c else {}


def mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def evaluate(p: dict, point) -> Fraction:
    """Value of p at a point given for every variable."""
    powers: list[dict] = [{} for _ in point]
    total = Fraction(0)
    for e, c in p.items():
        term = c
        for i, k in enumerate(e):
            if k:
                got = powers[i].get(k)
                if got is None:
                    got = powers[i][k] = Fraction(point[i]) ** k
                term *= got
        total += term
    return total


def h_layer(p: dict, k: int, h_index: int) -> dict:
    """The terms of p whose h-exponent is k."""
    return {e: c for e, c in p.items() if e[h_index] == k}


def poly_from_json(data) -> dict:
    out: dict = {}
    for exps, coeff in data:
        e = tuple(int(v) for v in exps)
        out[e] = out.get(e, 0) + Fraction(coeff)
    return {e: c for e, c in out.items() if c}


def poly_to_json(p: dict) -> list:
    return [[list(e), str(c)] for e, c in sorted(p.items())]


# -- fields -------------------------------------------------------------------


class Field:
    """A quadratic field read from its JSON (1-based indices, j <= k)."""

    def __init__(self, data: dict):
        self.dim = int(data["dim"])
        self.quadratic = [(i - 1, j - 1, k - 1, Fraction(v)) for i, j, k, v in data.get("quadratic", [])]
        self.linear = [(i - 1, j - 1, Fraction(v)) for i, j, v in data.get("linear", [])]
        self.constant = [(i - 1, Fraction(v)) for i, v in data.get("constant", [])]

    @property
    def nvars(self) -> int:
        return self.dim + 2

    def value(self, x) -> list[Fraction]:
        out = [Fraction(0)] * self.dim
        for i, j, k, v in self.quadratic:
            out[i] += v * x[j] * x[k]
        for i, j, v in self.linear:
            out[i] += v * x[j]
        for i, v in self.constant:
            out[i] += v
        return out

    def jacobian_at(self, x) -> list[list[Fraction]]:
        n = self.dim
        jac = [[Fraction(0)] * n for _ in range(n)]
        for i, j, k, v in self.quadratic:
            jac[i][j] += v * x[k]
            jac[i][k] += v * x[j]
        for i, j, v in self.linear:
            jac[i][j] += v
        return jac

    def jacobian_poly(self) -> list[list[dict]]:
        """f' with entries as (linear) polynomials."""
        n, nv = self.dim, self.nvars
        jac = [[{} for _ in range(n)] for _ in range(n)]
        for i, j, k, v in self.quadratic:
            jac[i][j] = add(jac[i][j], scale(var(nv, k), v))
            jac[i][k] = add(jac[i][k], scale(var(nv, j), v))
        for i, j, v in self.linear:
            jac[i][j] = add(jac[i][j], const(nv, v))
        return jac

    def trace_jacobian_squared(self) -> dict:
        """tr(f'(x)^2), the aromatic function of the bare 2-cycle."""
        jac = self.jacobian_poly()
        n = self.dim
        return add(*(mul(jac[i][m], jac[m][i]) for i in range(n) for m in range(n)))


def field_json(components: list[dict]) -> dict:
    """Field JSON of a quadratic field given by component polynomials in x."""
    dim = len(components)
    quadratic, linear, constant = [], [], []
    for i, p in enumerate(components):
        for e, c in sorted(p.items()):
            if any(e[dim:]):
                raise ValueError("field components must not involve h or u")
            support = [j for j in range(dim) for _ in range(e[j])]
            if len(support) == 2:
                quadratic.append([i + 1, support[0] + 1, support[1] + 1, str(c)])
            elif len(support) == 1:
                linear.append([i + 1, support[0] + 1, str(c)])
            elif not support:
                constant.append([i + 1, str(c)])
            else:
                raise ValueError("field is not quadratic")
    return {"dim": dim, "quadratic": quadratic, "linear": linear, "constant": constant}


# -- dense linear algebra -----------------------------------------------------


def det(mat) -> Fraction:
    m = [[Fraction(v) for v in row] for row in mat]
    n = len(m)
    out = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            out = -out
        out *= m[c][c]
        for r in range(c + 1, n):
            if m[r][c]:
                f = m[r][c] / m[c][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return out


def solve(mat, rhs) -> list[Fraction]:
    """x with mat x = rhs for a nonsingular square matrix."""
    n = len(mat)
    m = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(mat, rhs)]
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c])
        m[c], m[p] = m[p], m[c]
        m[c] = [v / m[c][c] for v in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return [m[i][n] for i in range(n)]


def rref(rows) -> list[list[Fraction]]:
    """Reduced row echelon form with zero rows dropped: a canonical basis."""
    m = [[Fraction(v) for v in row] for row in rows if any(row)]
    ncols = len(m[0]) if m else 0
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [v / m[r][c] for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return m[:r]


def in_span(polys: list[dict], target: dict) -> bool:
    """Whether target is a linear combination of polys (exact elimination)."""
    monomials = sorted({e for p in polys for e in p} | set(target))
    rows = [[p.get(e, 0) for e in monomials] for p in polys]
    return len(rref(rows)) == len(rref(rows + [[target.get(e, 0) for e in monomials]]))


def gamma_space(gammas: list[dict]) -> tuple[list[str], list[list[Fraction]]]:
    """Coordinates and canonical basis of the span of gamma vectors."""
    keys = sorted({k for g in gammas for k in g})
    return keys, rref([[Fraction(g.get(k, 0)) for k in keys] for g in gammas])


# -- the Kahan step -----------------------------------------------------------


def kahan_step(field: Field, x, h):
    """(N-(x), x', N+(x')) at a rational point, or None where N-(x) = 0."""
    n = field.dim
    half = Fraction(h) / 2
    jac = field.jacobian_at(x)
    minus = [[(i == j) - half * jac[i][j] for j in range(n)] for i in range(n)]
    n_minus = det(minus)
    if not n_minus:
        return None
    step = solve(minus, field.value(x))
    xp = [x[i] + h * step[i] for i in range(n)]
    jac_p = field.jacobian_at(xp)
    n_plus = det([[(i == j) + half * jac_p[i][j] for j in range(n)] for i in range(n)])
    return n_minus, xp, n_plus


def residual(field: Field, density: dict, x, h) -> Fraction:
    """N-(x) P(x', h) - P(x, h) N+(x'); zero for every point iff P is a density."""
    x = [Fraction(v) for v in x]
    h = Fraction(h)
    got = kahan_step(field, x, h)
    if got is None:
        raise ZeroDivisionError("the Kahan step is singular at this point")
    n_minus, xp, n_plus = got
    return n_minus * evaluate(density, xp + [h, 0]) - evaluate(density, x + [h, 0]) * n_plus


def sample_points(rng, dim: int, count: int):
    """Small rational points (x, h) with h != 0, drawn from rng."""
    def small():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 5))

    points = []
    while len(points) < count:
        x = [small() for _ in range(dim)]
        h = small()
        if h:
            points.append((x, h))
    return points


def passes_pointwise(field: Field, density: dict, points) -> bool:
    """The Kahan-step identity at every regular point (at least one needed)."""
    regular = 0
    for x, h in points:
        try:
            if residual(field, density, x, h):
                return False
        except ZeroDivisionError:
            continue
        regular += 1
    return regular > 0
