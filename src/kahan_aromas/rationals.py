"""Exact rational arithmetic substrate.

Rationals are the stdlib `fractions.Fraction`, exported as `Rat`.
Polynomials keep Python-int coefficients times one rational content (see
`poly`), so rational arithmetic is confined to one content per polynomial
operation, to values at points and to the linear algebra.  Rationals render
as "p" / "p/q" strings, which is the wire format for coefficients
everywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction as Rat

ZERO = Rat(0)
ONE = Rat(1)
_P_OR_P_Q = re.compile(r"\s*([-+]?)([0-9]+)(?:/([0-9]+))?\s*")


def parse_rat(value) -> Rat:
    """The exact value of an int (not a bool), a rational, or a "p" / "p/q"
    string of any length (spaces around it tolerated): the one reader of an
    exact value from outside.  Anything else, and a zero denominator, raises
    ValueError."""
    if isinstance(value, Rat) or (isinstance(value, int) and not isinstance(value, bool)):
        return Rat(value)
    m = _P_OR_P_Q.fullmatch(value) if isinstance(value, str) else None
    if m is None:
        raise ValueError(f"expected an integer or a rational string 'p/q', got {safe_repr(value)}")
    sign, p, q = m.groups()
    try:
        return Rat(-_integer(p) if sign == "-" else _integer(p), _integer(q or "1"))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {safe_repr(value)}") from None


def _integer(digits: str) -> int:
    """The int of a string of decimal digits, read in parts at a power of
    ten past the interpreter's digit limit: the inverse of `_decimal`."""
    if len(digits) <= 600:
        return int(digits)
    k = len(digits) // 2
    return _integer(digits[:-k]) * 10**k + _integer(digits[-k:])


def _decimal(n: int) -> str:
    """The decimal digits of an int.  str() refuses an int past the
    interpreter's digit limit (never below 640 digits), so a longer one is
    split at a power of ten and each part is written alone."""
    if n.bit_length() < 2000:  # at most 603 digits
        return str(n)
    if n < 0:
        return "-" + _decimal(-n)
    k = n.bit_length() * 3 // 20  # about half of its digits
    high, low = divmod(n, 10**k)
    return _decimal(high) + _decimal(low).rjust(k, "0")


def safe_repr(value) -> str:
    """repr(value) for a message, cut to its first 80 characters and its
    length when longer; an int past the interpreter's digit limit, whose
    repr raises, shows as its digit count."""
    try:
        text = repr(value)
    except ValueError:
        if isinstance(value, int):
            return f"an integer of {len(_decimal(abs(value)))} digits"
        return f"a {type(value).__name__} holding an integer too long to print"
    return _cut(text, 80)


def _cut(text: str, bound: int) -> str:
    return text if len(text) <= bound else f"{text[:bound]}... ({len(text)} characters)"


def format_rat(value) -> str:
    value = Rat(value)
    text = _decimal(value.numerator)
    return text if value.denominator == 1 else f"{text}/{_decimal(value.denominator)}"


def _random_pair(rng) -> tuple[int, int]:
    """The numerator and the denominator of a small random rational: the
    solver's draw of a sample-point coordinate."""
    return rng.randint(-20, 20), rng.randint(1, 7)
