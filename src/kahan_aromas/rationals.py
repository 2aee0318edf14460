"""Exact rational arithmetic substrate.

Rationals are the stdlib `fractions.Fraction`, exported as `Rat`.
Polynomials keep Python-int coefficients times one rational content (see
`poly`), so rational arithmetic is confined to one content per polynomial
operation, to values at points and to the linear algebra.  Rationals render
as "p" / "p/q" strings, which is the wire format for coefficients
everywhere.
"""

from __future__ import annotations

from fractions import Fraction as Rat

ZERO = Rat(0)
ONE = Rat(1)


def parse_rat(text: str) -> Rat:
    """Parse "p" or "p/q" (spaces tolerated); anything else, a zero
    denominator included, raises ValueError."""
    if not isinstance(text, str):
        raise ValueError(f"expected a rational string 'p' or 'p/q', got {text!r}")
    try:
        return Rat(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def format_rat(value) -> str:
    return str(Rat(value))


def random_rational(rng) -> Rat:
    """A small random rational: the solver's sample-point draw."""
    return Rat(rng.randint(-20, 20), rng.randint(1, 7))
