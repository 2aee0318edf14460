"""Sparse multivariate polynomials and rational functions over Q.

Every polynomial for a dimension-n problem lives in the fixed variable
universe x1 < x2 < ... < xn < h < u  (nvars = n + 2).  h is the step size,
u the auxiliary parameter of the determinant expansion; both are ordinary
variables, so "polynomial in x and h" needs no special casing.

Exponent vectors are packed into a single int (10 bits per variable) so that
monomial multiplication is integer addition.  Compared as ints, packed keys
are a monomial order (lex, the last variable most significant) as long as no
exponent leaves its slot; products check that none does and raise ValueError
otherwise.  This module alone reads the layout: other modules build keys
with `pack_exponents` and work on int dicts key -> int through its private
kernels (`_mul_add`, `_mul_terms`, `_derivative`, `_degrees`), and a degree
bound past the packable range is refused by `_check_packable`.

A polynomial is one rational `content` times `terms`, a dict packed key ->
primitive Python int: the gcd of the ints is 1 and the int of the largest key
is positive; zero is content 0 with no terms.  The form is unique, so
equality and hashing compare (content, terms).  This is the layout of
FLINT's fmpq_mpoly, a content times an integer polynomial (see Monagan &
Pearce, "Sparse polynomial multiplication and division in Maple 14", 2009):
rational arithmetic happens once per operation, on the contents.  A product
of primitive polynomials is primitive (Gauss's lemma) and its leading term
is the product of the leading terms, so multiplication is an int convolution
with no gcd pass; a sum brings both sides to a common content and takes one
gcd.  `coefficient` and `sorted_terms` read rational coefficients.

Substitution into a map, S(q) = den^c q(N/den), runs on one packed kernel,
`rf_substitute` (Kronecker substitution; see Harvey, "Faster polynomial
multiplication via multipoint Kronecker substitution", J. Symb. Comput.
2009).  In its h layout each (x, u)-monomial holds one int whose balanced
base-2^B digits are its h-coefficients, digit j carrying
h^(j + offset + x-degree): the digit index is h-degree minus x-degree minus
a per-polynomial offset, which adds under multiplication, so products add
keys and multiply ints in C.  When every digit index of a call is 0 (a span
of one digit, as on a homogeneous field) the x_n layout packs x_n, the last
x-variable, into the ints instead and leaves h implied.  B comes from a
proven bound on the result's coefficients, a sum of products of l1-norms,
so every digit of the result decodes to the exact coefficient; only the
result is unpacked.  The power products N^a are built for x-degrees below
the top one only: the top-degree terms are grouped by their lowest
variable i and multiplied by N_i once per group, inside the last Horner
step.

Values at a point have one definition.  A list of polynomials is compiled
once into a `PolynomialBatch`, whose monomial plan builds every monomial
by one product from a smaller one, over the integer numerators of a
rational point (a `PointEvaluator`) or over its residues mod P, and takes
one integer dot product per polynomial; a rational is built only for each
exact result.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from itertools import accumulate
from operator import mul, or_

from .linalg import P
from .rationals import Rat, ZERO, ONE, format_rat, parse_rat, safe_repr

_BITS = 10
_MASK = (1 << _BITS) - 1


def pack_exponents(exps) -> int:
    key = 0
    for i, e in enumerate(exps):
        if e:
            if e < 0 or e > _MASK:
                raise ValueError(f"exponent {e} out of packable range")
            key |= e << (_BITS * i)
    return key


def unpack_exponents(key: int, nvars: int) -> tuple[int, ...]:
    return tuple((key >> (_BITS * i)) & _MASK for i in range(nvars))


def _x_degree_of(key: int, nx: int) -> int:
    """Total degree of a packed key in its first nx variables."""
    d = 0
    for i in range(nx):
        d += (key >> (_BITS * i)) & _MASK
    return d


def var_names(nvars: int) -> list[str]:
    return [f"x{i + 1}" for i in range(nvars - 2)] + ["h", "u"]


@lru_cache(maxsize=None)
def _top_bits(nvars: int) -> int:
    """The highest bit of every exponent slot."""
    return sum(1 << (_BITS * i + _BITS - 1) for i in range(nvars))


def _overflow(nvars: int, index: int, degree: int) -> ValueError:
    name = var_names(nvars)[index]
    return ValueError(f"degree {degree} in {name} exceeds the packable {_MASK}")


def _check_packable(nvars: int, degrees) -> None:
    """Raise ValueError at the first variable i whose degrees[i] is past the packable range."""
    for i, degree in enumerate(degrees):
        if degree > _MASK:
            raise _overflow(nvars, i, degree)


def _degrees(ints: dict, n: int) -> list[int]:
    """The largest exponent of each of the first n variables over the keys."""
    return [max(((k >> (_BITS * i)) & _MASK for k in ints), default=0) for i in range(n)]


def _derivative(ints: dict, index: int) -> dict:
    """The derivative of an int dict in the variable of that index."""
    shift = _BITS * index
    return {k - (1 << shift): v * e for k, v in ints.items() if (e := (k >> shift) & _MASK)}


def _check_product_degrees(a: dict, b: dict, nvars: int) -> None:
    """Raise ValueError when a product of a and b would overflow a slot."""
    oa, ob = reduce(or_, a), reduce(or_, b)
    if not (oa | ob) & _top_bits(nvars):
        return  # every exponent is below half the slot
    for i in range(nvars):
        s = _BITS * i
        # the OR of a slot bounds its largest exponent from above
        if ((oa >> s) & _MASK) + ((ob >> s) & _MASK) <= _MASK:
            continue
        da = max((k >> s) & _MASK for k in a)
        db = max((k >> s) & _MASK for k in b)
        if da + db > _MASK:
            raise _overflow(nvars, i, da + db)


def _mul_add(acc: dict, a: dict, b: dict, nvars: int) -> None:
    """acc += a * b in place, for dicts key -> int, plain or packed: keys add
    and ints multiply.  A sum that cancels stays in acc as a zero.  Raises
    ValueError when an exponent would leave its slot."""
    if not a or not b:
        return
    _check_product_degrees(a, b, nvars)
    if len(a) > len(b):
        a, b = b, a
    get = acc.get
    bitems = list(b.items())
    for ka, va in a.items():
        for kb, vb in bitems:
            k = ka + kb
            acc[k] = get(k, 0) + va * vb


def _mul_terms(a: dict, b: dict, nvars: int) -> dict:
    """The product of two dicts key -> int (see `_mul_add`), with no zero
    values."""
    out: dict = {}
    _mul_add(out, a, b, nvars)
    return {k: v for k, v in out.items() if v}


def _make(nvars: int, content: Rat, terms: dict) -> "Polynomial":
    """A polynomial from parts already in canonical form."""
    p = object.__new__(Polynomial)
    p.nvars = nvars
    p.content = content
    p.terms = terms
    return p


def _from_ints(nvars: int, ints: dict, num: int = 1, den: int = 1) -> "Polynomial":
    """(num/den) * ints, for an int dict with no zero values, made canonical."""
    if not ints:
        return Polynomial.zero(nvars)
    g = math.gcd(*ints.values())
    if ints[max(ints)] < 0:
        g = -g
    if g != 1:
        ints = {k: v // g for k, v in ints.items()}
    return _make(nvars, Rat(num * g, den), ints)


class Polynomial:
    """Immutable sparse polynomial: content times primitive integer terms."""

    __slots__ = ("nvars", "content", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        """From a dict packed key -> rational coefficient."""
        coeffs = {k: Rat(v) for k, v in (terms or {}).items() if v != 0}
        den = math.lcm(*(c.denominator for c in coeffs.values()))
        p = _from_ints(
            nvars, {k: c.numerator * (den // c.denominator) for k, c in coeffs.items()}, 1, den
        )
        self.nvars, self.content, self.terms = nvars, p.content, p.terms

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Polynomial":
        return _make(nvars, ZERO, {})

    @staticmethod
    def const(nvars: int, value) -> "Polynomial":
        value = Rat(value)
        if value == 0:
            return Polynomial.zero(nvars)
        return _make(nvars, value, {0: 1})

    @staticmethod
    def variable(nvars: int, index: int) -> "Polynomial":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for nvars={nvars}")
        return _make(nvars, ONE, {1 << (_BITS * index): 1})

    @staticmethod
    def monomial(nvars: int, exps, coeff=ONE) -> "Polynomial":
        coeff = Rat(coeff)
        if coeff == 0:
            return Polynomial.zero(nvars)
        if len(exps) != nvars:
            raise ValueError("exponent vector arity does not match variable count")
        return _make(nvars, coeff, {pack_exponents(exps): 1})

    # -- predicates and queries ----------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and 0 in self.terms)

    def coefficient(self, key: int) -> Rat:
        """The rational coefficient of a packed monomial key."""
        return self.content * self.terms.get(key, 0)

    def total_degree(self) -> int:
        return max((sum(unpack_exponents(k, self.nvars)) for k in self.terms), default=0)

    def degree_in(self, index: int) -> int:
        return max(((k >> (_BITS * index)) & _MASK for k in self.terms), default=0)

    def x_degree(self) -> int:
        """Total degree in the x-variables only (h and u ignored)."""
        nx = self.nvars - 2
        return max((_x_degree_of(k, nx) for k in self.terms), default=0)

    # -- arithmetic -----------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise ValueError("polynomials live in different variable universes")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.const(self.nvars, other)
        self._check(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        a, b, ca, cb = self.terms, other.terms, self.content, other.content
        if len(a) < len(b):
            a, b, ca, cb = b, a, cb, ca
        # common content g/den; a and b are scaled by the integers sa and sb
        pa, qa, pb, qb = ca.numerator, ca.denominator, cb.numerator, cb.denominator
        g = math.gcd(pa, pb)
        if pa < 0 and pb < 0:
            g = -g
        den = qa // math.gcd(qa, qb) * qb
        sa = pa // g * (den // qa)
        sb = pb // g * (den // qb)
        out = dict(a) if sa == 1 else {k: sa * v for k, v in a.items()}
        get = out.get
        for k, v in b.items():
            s = get(k, 0) + sb * v
            if s:
                out[k] = s
            else:
                del out[k]
        return _from_ints(self.nvars, out, g, den)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.nvars, -self.content, self.terms)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.const(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            other = Rat(other)
            if other == 0 or not self.terms:
                return Polynomial.zero(self.nvars)
            return _make(self.nvars, self.content * other, self.terms)
        self._check(other)
        out = _mul_terms(self.terms, other.terms, self.nvars)
        if not out:
            return Polynomial.zero(self.nvars)
        return _make(self.nvars, self.content * other.content, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative powers are not polynomials")
        if exponent > 1:
            _check_packable(self.nvars, [d * exponent for d in _degrees(self.terms, self.nvars)])
        result = Polynomial.const(self.nvars, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return (
                self.nvars == other.nvars
                and self.content == other.content
                and self.terms == other.terms
            )
        return self.is_constant() and self.coefficient(0) == Rat(other)

    def __hash__(self):
        return hash((self.nvars, self.content, frozenset(self.terms.items())))

    # -- calculus and substitution ---------------------------------------

    def partial_derivative(self, index: int) -> "Polynomial":
        c = self.content
        return _from_ints(self.nvars, _derivative(self.terms, index), c.numerator, c.denominator)

    def subs_h_negated(self) -> "Polynomial":
        """h -> -h (negates coefficients of odd h-powers)."""
        shift = _BITS * (self.nvars - 2)
        out = {k: (-v if (k >> shift) & 1 else v) for k, v in self.terms.items()}
        if out and out[max(out)] < 0:
            return _make(self.nvars, -self.content, {k: -v for k, v in out.items()})
        return _make(self.nvars, self.content, out)

    def h_coefficients(self) -> dict[int, "Polynomial"]:
        """Split into h-homogeneous layers: {h-degree: poly with the h-power removed}."""
        shift = _BITS * (self.nvars - 2)
        layers: dict[int, dict] = {}
        for k, v in self.terms.items():
            e = (k >> shift) & _MASK
            layers.setdefault(e, {})[k - (e << shift)] = v
        c = self.content
        return {
            e: _from_ints(self.nvars, t, c.numerator, c.denominator)
            for e, t in sorted(layers.items())
        }

    def coefficient_of_h(self, power: int) -> "Polynomial":
        return self.h_coefficients().get(power, Polynomial.zero(self.nvars))

    # -- serialization ----------------------------------------------------

    def sorted_terms(self):
        """(exponent tuple, rational coefficient) pairs in ascending key order."""
        n, c = self.nvars, self.content
        return [(unpack_exponents(k, n), c * self.terms[k]) for k in sorted(self.terms)]

    def to_json(self):
        return [[list(e), format_rat(c)] for e, c in self.sorted_terms()]

    @staticmethod
    def from_json(data, nvars: int) -> "Polynomial":
        seq = (list, tuple)
        if not isinstance(data, seq) or not all(
            isinstance(t, seq)
            and len(t) == 2
            and isinstance(t[0], seq)
            and all(type(e) is int for e in t[0])
            for t in data
        ):
            raise ValueError(
                "polynomial JSON must be a list of [exponents, coefficient] pairs"
                f" with integer exponents, got {safe_repr(data)}"
            )
        terms = {}
        for exps, coeff in data:
            if len(exps) != nvars:
                raise ValueError("exponent vector arity mismatch in polynomial JSON")
            key = pack_exponents(exps)
            c = parse_rat(coeff)
            if c != 0:
                terms[key] = terms.get(key, ZERO) + c
        return Polynomial(nvars, terms)

    def __str__(self):
        if not self.terms:
            return "0"
        names = var_names(self.nvars)
        pieces = []
        for exps, coeff in self.sorted_terms():
            factors = []
            for name, e in zip(names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            body = "*".join(factors)
            if not body:
                pieces.append(format_rat(coeff))
            elif coeff == 1:
                pieces.append(body)
            elif coeff == -1:
                pieces.append(f"-{body}")
            else:
                pieces.append(f"{format_rat(coeff)}*{body}")
        return " + ".join(pieces).replace("+ -", "- ")

    __repr__ = __str__


def divexact(p: Polynomial, d: Polynomial) -> Polynomial:
    """Exact polynomial division p / d; raises ValueError if not divisible.

    Uses single-divisor reduction under the packed-key monomial order, which
    is multiplication-compatible, so exact divisibility is decided correctly.
    The exact quotient of primitive integer polynomials is a primitive integer
    polynomial with a positive lead (Gauss's lemma), so the reduction runs in
    ints and a leading coefficient that does not divide also means "not exact".
    """
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    n = p.nvars
    content = p.content / d.content
    if d.is_constant() or p.is_zero():
        return _make(n, content, p.terms)
    lead_key = max(d.terms)
    lead_coeff = d.terms[lead_key]
    lead_exps = unpack_exponents(lead_key, n)
    dterms = list(d.terms.items())
    rem = dict(p.terms)
    quot: dict = {}
    while rem:
        k = max(rem)
        qc, r = divmod(rem[k], lead_coeff)
        if r or any(a < b for a, b in zip(unpack_exponents(k, n), lead_exps)):
            raise ValueError("polynomial division is not exact")
        qk = k - lead_key
        quot[qk] = qc
        for dk, dv in dterms:
            t = qk + dk
            cur = rem.get(t, 0) - qc * dv
            if cur:
                rem[t] = cur
            else:
                rem.pop(t, None)
    return _make(n, content, quot)


class RationalFunction:
    """Quotient of polynomials.

    gcd-normalization is deliberately skipped (multivariate gcd is the
    bottleneck and never needed for correctness); only rational content and
    constant denominators are reduced.  Equality divides out a denominator
    that exactly divides the other one, and cross-multiplies otherwise.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial | None = None):
        if den is None:
            den = Polynomial.const(num.nvars, 1)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if den.is_constant():
            num = num * (ONE / den.coefficient(0))
            den = Polynomial.const(num.nvars, 1)
        self.num = num
        self.den = den

    @property
    def nvars(self):
        return self.num.nvars

    def __eq__(self, other):
        small, large = self, _as_rf(other, self.nvars)
        if small.den.total_degree() > large.den.total_degree():
            small, large = large, small
        try:
            q = divexact(large.den, small.den)
        except ValueError:
            return (small.num * large.den) == (large.num * small.den)
        return small.num * q == large.num

    def __str__(self):
        if self.den.is_constant():
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    __repr__ = __str__


def _as_rf(value, nvars: int) -> RationalFunction:
    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, Polynomial):
        return RationalFunction(value)
    return RationalFunction(Polynomial.const(nvars, value))


class _Packed:
    """One polynomial packed for the substitution kernel: `terms` maps a key
    to an int of balanced base-2^B digits (see `rf_substitute`).  In the
    h layout (xn false) a key is an (x, u)-monomial and the digits are its
    h-coefficients; in the x_n layout (xn true) a key is an
    (x_1..x_{n-1}, u)-monomial and digit p carries x_n^p."""

    __slots__ = ("terms", "xn")

    def __init__(self, terms: dict, xn: bool):
        self.terms = terms
        self.xn = xn


def _h_range(terms: dict, nx: int) -> tuple[int, int]:
    """(min, max) over terms of h-degree minus x-degree ((0, 0) for no terms)."""
    hshift = _BITS * nx
    diffs = [((k >> hshift) & _MASK) - _x_degree_of(k, nx) for k in terms]
    return (min(diffs), max(diffs)) if diffs else (0, 0)


def _pack(terms: dict, nx: int, bits: int, offset: int, xn: bool, scale: int = 1) -> dict:
    """scale * terms with the h-power of each term moved into digit
    (h-degree - x-degree - offset) of its (x, u)-key's int or, in the x_n
    layout, with the x_n-power moved into digit x_n-degree of its
    (x_1..x_{n-1}, u)-key's int and the h-power left implied."""
    hshift = _BITS * nx
    nshift = hshift - _BITS
    out: dict = {}
    get = out.get
    for k, v in terms.items():
        e = (k >> hshift) & _MASK
        key = k - (e << hshift)
        if xn:
            e = (key >> nshift) & _MASK
            key -= e << nshift
        else:
            e -= _x_degree_of(key, nx) + offset
        out[key] = get(key, 0) + (scale * v << (bits * e))
    return out


def _unpack(packed: dict, offset: int, bits: int, nvars: int, xn: bool) -> dict:
    """The int terms of a packed polynomial: the balanced base-2^bits digits
    of each int, digit j carrying h^(j + offset + x-degree of the key) and,
    in the x_n layout, x_n^j."""
    nx = nvars - 2
    hshift = _BITS * nx
    step = 1 << hshift  # one digit up
    if xn:
        step += 1 << (hshift - _BITS)
    full = 1 << bits
    half, mask = full >> 1, full - 1
    out = {}
    for xu, v in packed.items():
        e = offset + _x_degree_of(xu, nx)
        k = xu + (e << hshift)
        while v:
            d = v & mask
            if d >= half:
                d -= full
            if d:
                if e > _MASK:
                    raise _overflow(nvars, nx, e)
                out[k] = d
            v = (v - d) >> bits
            e += 1
            k += step
    return out


def _lowest_variable(key: int) -> int:
    """The index of the first variable of a nonzero key: the slot of its
    lowest set bit."""
    return ((key & -key).bit_length() - 1) // _BITS


def _divisor_chain(key: int, cache: dict) -> tuple:
    """(value, chain) in a cache of monomial powers holding the key 0: the
    value of key's largest cached divisor, reached by peeling the lowest
    variable, and the peeled (key, variable) pairs to build, divisor up."""
    chain = []
    got = cache.get(key)
    while got is None:
        i = _lowest_variable(key)
        chain.append((key, i))
        key -= 1 << (_BITS * i)
        got = cache.get(key)
    return got, reversed(chain)


def _power_product(xkey: int, cache: dict, packed_nums: list[dict], xn: bool, nvars: int) -> dict:
    """The packed N'^a for the x-key a (see `_divisor_chain`)."""
    got, chain = _divisor_chain(xkey, cache)
    got = got.terms
    for key, i in chain:
        got = _mul_terms(got, packed_nums[i], nvars)
        cache[key] = _Packed(got, xn)
    return got


def _packed_add(acc: dict, other: dict, shift: int = 0) -> None:
    """acc += other * 2^shift, in place."""
    get = acc.get
    for k, v in other.items():
        acc[k] = get(k, 0) + (v << shift)


def rf_substitute(
    p: Polynomial | list[tuple[Polynomial, Polynomial, int]],
    numerators: list[Polynomial],
    denominator: Polynomial,
    clear_power: int | None = None,
    cache: dict | None = None,
) -> Polynomial:
    """Return S_c(p) = denominator**c * p(x -> numerators/denominator), c
    the clear power.

    p may also be a list of (multiplier, polynomial, clear power) triples,
    clear_power then left out: each pair carries its own c, and the result
    is the sum of multiplier * S_c(polynomial), built in one packed pass and
    unpacked once.  The substitution touches the x-variables only; h and u
    pass through.  All polynomials share the denominator's variable
    universe, and each clear power is at least the x-degree of its
    polynomial, so the result is a polynomial (ValueError otherwise).  A
    given cache dict is emptied first and then holds this call's packed
    power products, each a `_Packed` whose `terms` maps a key to an int;
    no call reads another's.  The power products do not depend on c, so
    pairs of different clear powers share them.

    The kernel.  With the contents of the numerators and of the denominator
    over their one lcm L, N'_i = L N_i and D' = L den are integer
    polynomials and S_c(q) = content(q) L^-c R_q, where
    R_q = sum_a q_a N'^a D'^(c - |a|) (q_a the integer (h, u)-part of q at
    x^a) is summed by x-degree, Horner in D'.  The result is built over
    L^-c_max, c_max the largest clear power of the call, so a pair of clear
    power c enters scaled by L^(c_max - c).  Every factor is packed: one
    int per (x, u)-monomial, whose balanced base-2^B digit j holds the
    coefficient of h^(j + offset + x-degree), with a per-polynomial offset,
    the least h-degree minus x-degree of its terms.
    That difference adds under multiplication, so a product adds keys and
    multiplies ints, and a sum shifts the operand with the larger offset.
    Only the result is unpacked.

    The top degree.  A pair's x-keys of its top x-degree t > 0 meet N'
    only through the last Horner step, so no N'^a of degree t is built:
    each such a not already cached gives up its lowest variable i,
    q_a N'^(a - e_i) is summed into U_i, and sum_i U_i N'_i (one product
    per variable instead of one per key) joins the degree-t bucket before
    the Horner pass in D'.  A call caches power products below its top
    degrees only, each built on the largest cached divisor.

    The layout.  Before packing, the span counts the digits the call can
    reach above the result's offset: a pair's largest leaf shift, plus its
    c times the largest digit index of a numerator or of the denominator,
    plus the multiplier's.  A span of 1, as on a homogeneous field, puts
    every h-degree at the x-degree plus the offset, so the x_n layout moves
    x_n, the last x-variable, from the key into the int, digit p carrying
    x_n^p, and leaves h implied; a wider span keeps the h layout.

    The digit width.  No coefficient of a product exceeds the product of
    its factors' l1-norms, so no coefficient of the integer result
    sum_j s_j M_j R_j (M_j the primitive multiplier, s_j the pairs' rational
    factors over their lcm, times L^(c_max - c_j)) exceeds
        bound = sum_j |s_j| |M_j|_1 sum_a |q_a|_1 prod_i |N'_i|_1^a_i |D'|_1^(c_j - |a|).
    Packing evaluates at z = 2^B a polynomial in z with those coefficients,
    and ring arithmetic commutes with the evaluation.  With
    B = bitlength(bound) + 1 every coefficient lies strictly between
    -2^(B-1) and 2^(B-1), where the balanced base-2^B expansion of an int
    is unique, so every digit decodes to the exact coefficient.

    Degrees.  Before packing, a bound on the result's degree in x_i, per
    pair the largest sum_j a_j deg_i(N_j) + (c - |a|) deg_i(den) + deg_i(M),
    that passes the packable range raises ValueError; so does an h-degree
    past it when the result is unpacked.
    """
    n = denominator.nvars
    pairs = [(Polynomial.const(n, 1), p, clear_power)] if isinstance(p, Polynomial) else list(p)
    for f in [*numerators, *(f for pair in pairs for f in pair[:2])]:
        denominator._check(f)
    nx = n - 2
    if len(numerators) != nx:
        raise ValueError("substitution map arity does not match the x-variable count")
    for _, q, c in pairs:
        degx = q.x_degree()
        if c < degx:
            raise ValueError(
                f"clear_power {c} < x-degree {degx}: result would not be polynomial"
            )
    if cache is None:
        cache = {}
    cache.clear()
    c_max = max((c for _, _, c in pairs), default=0)
    factors = list(numerators) + [denominator]
    common = math.lcm(*(f.content.denominator for f in factors))
    scales = [f.content.numerator * (common // f.content.denominator) for f in factors]
    norms = [abs(s) * sum(map(abs, f.terms.values())) for s, f in zip(scales, factors)]
    degrees = [_degrees(f.terms, nx) for f in factors]
    ratios = [m.content * q.content for m, q, _ in pairs]
    lcm_pairs = math.lcm(*(r.denominator for r in ratios))
    # S_c(q) = content(q) L^-c R_q, brought over the one L^-c_max of the result
    pair_scales = [
        r.numerator * (lcm_pairs // r.denominator) * common ** (c_max - c)
        for r, (_, _, c) in zip(ratios, pairs)
    ]

    hshift = _BITS * nx
    x_mask = (1 << hshift) - 1
    ranges = [_h_range(f.terms, nx) for f in factors]
    off_num = min((lo for lo, _ in ranges[:-1]), default=0)
    off_den = ranges[-1][0]
    # the largest digit index of any N'^a D'^(c - |a|), per unit of c
    step = max([hi - off_num for _, hi in ranges[:-1]] + [ranges[-1][1] - off_den])
    bound = 0
    work = []
    for (m, q, c), s in zip(pairs, pair_scales):
        if not q.terms or s == 0:
            continue
        # q's term x^a h^e u^b enters with N'^a D'^(c - |a|), whose offset is
        # |a| off_num + (c - |a|) off_den; its digit index is e plus that
        # offset minus the least such sum, the offset of S(q)
        inner = 0
        entries = []
        for k, v in q.terms.items():
            xkey = k & x_mask
            exps = unpack_exponents(xkey, nx)
            # |q_a| prod_i |N'_i|^a_i |D'|^(c - |a|)
            inner += abs(v) * math.prod(map(pow, norms, exps)) * norms[-1] ** (c - sum(exps))
            e = (k >> hshift) & _MASK
            d = _x_degree_of(xkey, nx)
            entries.append((xkey, k - xkey - (e << hshift), e + d * off_num + (c - d) * off_den, v))
        bound += abs(s) * sum(map(abs, m.terms.values())) * inner
        m_degrees = _degrees(m.terms, nx)
        for a in dict.fromkeys(unpack_exponents(entry[0], nx) for entry in entries):
            _check_packable(n, [
                sum(e * f[i] for e, f in zip(a, degrees)) + (c - sum(a)) * g + gm
                for i, (g, gm) in enumerate(zip(degrees[-1], m_degrees))
            ])
        low = min(entry[2] for entry in entries)
        lo_m, hi_m = _h_range(m.terms, nx)
        # the largest h-degree minus x-degree that the pair's result can hold
        work.append((m, s, c, entries, low, lo_m, max(entry[2] for entry in entries) + c * step + hi_m))
    if not work:
        return Polynomial.zero(n)
    total_offset = min(w[4] + w[5] for w in work)
    xn = max(w[6] for w in work) == total_offset and nx > 0  # a span of one digit
    bits = bound.bit_length() + 1
    cache[0] = _Packed({0: 1}, xn)

    packed_nums = [_pack(f.terms, nx, bits, off_num, xn, s) for f, s in zip(numerators, scales)]
    packed_den = _pack(denominator.terms, nx, bits, off_den, xn, scales[-1])
    total: dict = {}
    for m, s, c, entries, low, lo_m, _ in work:
        mults: dict[int, dict] = {}  # x-key -> {u-key: packed int}
        for xkey, ukey, index, v in entries:
            row = mults.setdefault(xkey, {})
            row[ukey] = row.get(ukey, 0) + (s * v << (bits * (index - low)))
        top = max(_x_degree_of(xkey, nx) for xkey in mults)
        by_degree: dict[int, dict] = {}
        peeled: dict[int, dict] = {}  # variable i -> U_i
        for xkey, row in mults.items():
            degree = _x_degree_of(xkey, nx)
            if degree == top and top and xkey not in cache:
                # q_a N'^(a - e_i) joins U_i, i the lowest variable of a
                i = _lowest_variable(xkey)
                xkey -= 1 << (_BITS * i)
                acc = peeled.setdefault(i, {})
            else:
                acc = by_degree.setdefault(degree, {})
            _mul_add(acc, row, _power_product(xkey, cache, packed_nums, xn, n), n)
        if peeled:
            bucket = by_degree.setdefault(top, {})
            for i, u in peeled.items():
                _mul_add(bucket, u, packed_nums[i], n)
        result = by_degree.get(0, {})
        for d in range(1, top + 1):
            result = _mul_terms(result, packed_den, n)
            bucket = by_degree.get(d)
            if bucket:
                _packed_add(result, bucket)
        for _ in range(c - top):
            result = _mul_terms(result, packed_den, n)
        result = _mul_terms(result, _pack(m.terms, nx, bits, lo_m, xn), n)
        # the digits of a pair whose offset is above the result's shift up
        _packed_add(total, result, bits * (low + lo_m - total_offset))
    ints = _unpack(total, total_offset, bits, n, xn)
    return _from_ints(n, ints, 1, lcm_pairs * common**c_max)


def series_in_h(r: RationalFunction, order: int) -> list[Polynomial]:
    """Taylor coefficients in h about h=0 (exact), c_0 .. c_order.

    Precondition: the denominator does not vanish identically at h=0.
    """
    num_layers = r.num.h_coefficients()
    den_layers = r.den.h_coefficients()
    d0 = den_layers.get(0)
    if d0 is None or d0.is_zero():
        raise ZeroDivisionError("denominator vanishes identically at h = 0")
    coeffs: list[Polynomial] = []
    n = r.nvars
    for k in range(order + 1):
        acc = num_layers.get(k, Polynomial.zero(n))
        for j in range(k):
            dl = den_layers.get(k - j)
            if dl is not None:
                acc = acc - coeffs[j] * dl
        coeffs.append(divexact(acc, d0))
    return coeffs


class PointEvaluator:
    """One rational point over a common denominator, x_i = a_i / d: the
    point, d and the integer numerators a_i, which a `PolynomialBatch`
    evaluates at."""

    def __init__(self, nvars: int, values):
        if len(values) != nvars:
            raise ValueError("point arity does not match variable count")
        self.point = [Rat(v) for v in values]
        self.den = math.lcm(*(v.denominator for v in self.point))
        self.nums = [v.numerator * (self.den // v.denominator) for v in self.point]


class PolynomialBatch:
    """A fixed list of polynomials compiled once into one monomial plan,
    which builds each monomial as one variable times the monomial left by
    peeling it, built before.  Over the integer numerators of a
    `PointEvaluator` with common denominator d, a monomial of degree t is
    A / d^t, the integer A d^(T - t) over d^T (T the largest degree); over
    a point given as its list of residues mod P (`linalg.P`) it is a
    residue.  Each polynomial is then its content times one integer dot
    product of its terms with those values.  A caller may combine the
    values of several points first: a linear functional of every
    polynomial costs one pass and one dot product each.
    """

    def __init__(self, polys: list[Polynomial]):
        at = {0: 0}  # monomial -> the index of its value
        self._plan = []  # (index of the peeled value, variable) per value after 1
        self._degrees = [0]
        for k in (k for p in polys for k in p.terms):
            below, chain = _divisor_chain(k, at)
            for key, i in chain:
                self._plan.append((below, i))
                self._degrees.append(self._degrees[below] + 1)
                below = at[key] = len(self._plan)
        self.contents = [p.content for p in polys]
        self._content_residues = [  # None where the denominator is 0 mod P
            c.numerator * pow(c.denominator, -1, P) % P if c.denominator % P else None for c in self.contents
        ]
        self._terms = [(tuple(map(at.__getitem__, p.terms)), tuple(p.terms.values())) for p in polys]

    def monomial_values(self, point) -> tuple[list[int], int]:
        """(values, scale) with monomial i of the plan values[i] / scale at
        the point: scale d^T at a `PointEvaluator`, and 1 at residues mod P."""
        walked = [1]
        if isinstance(point, PointEvaluator):
            nums = point.nums
            for below, i in self._plan:
                walked.append(walked[below] * nums[i])
            powers = list(accumulate([point.den] * max(self._degrees), mul, initial=1))[::-1]  # d^(T - t)
            return [w * powers[t] for w, t in zip(walked, self._degrees)], powers[0]
        for below, i in self._plan:
            walked.append(walked[below] * point[i] % P)
        return walked, 1

    def evaluate(self, point) -> list:
        """Every polynomial's value at the point: a rational, or a residue at
        a list of residues (each content's denominator a unit mod P)."""
        values, scale = self.monomial_values(point)
        return self._over(self.dot(values), scale, point)

    def _over(self, sums: list[int], scale: int, point) -> list:
        """Each content times its dot product over scale, as `evaluate`."""
        if isinstance(point, PointEvaluator):
            return [Rat(c.numerator * s, c.denominator * scale) for c, s in zip(self.contents, sums)]
        return [c * s % P for c, s in zip(self._content_residues, sums)]

    def dot(self, values: list[int]) -> list[int]:
        """Per polynomial, the sum of its integer terms times the values of
        their monomials: its value over the values' scale, before the
        content."""
        return [sum(map(mul, coeffs, map(values.__getitem__, idx))) for idx, coeffs in self._terms]
