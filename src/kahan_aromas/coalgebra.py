"""Coefficient functionals on aroma multisets and the Kahan Q operator.

The three ingredients of the Darboux defect calculus:

  * the binomial coproduct  D_disjoint(a) = sum over submultisets b of a,
    b (x) a\\b, counting multiplicities -- products of aromatic series;
  * the comodule coproduct  D_comodule(a): cut any subset of non-cycle
    edges, detached rooted trees go to the forest slot -- composition of an
    aromatic series with a B-series map;
  * the determinant functional eta_u with eta_u(a) = sgn(pi_a) u^|a| on
    products of bare cycles, expanding det(I + u h f').

The Q operator combines them:  <Q(g), a> = <eta_{-1/2} (x) phi (x) g
- g (x) phi (x) eta_{1/2}, (I (x) D_comodule) o D_disjoint(a)>, with phi the
multiplicative extension of Kahan's tall-tree coefficients.  B(g) is a
Darboux polynomial for f exactly when Q(g) lies in the kernel of F.

Both coproducts are plain dicts from a pair (left, right) to a positive
integer coefficient; functionals are dicts keyed by AromaMultiset.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import comb

from .graphs import (
    Aroma,
    AromaMultiset,
    EMPTY_FOREST,
    Forest,
    RootedTree,
    UNIT,
    enumerate_multisets,
)
from .fields import _combination, _weighted_polys
from .poly import Polynomial
from .rationals import Rat, ONE, ZERO


class TruncationError(ValueError):
    """A functional was evaluated above its declared truncation order."""


class CoefficientFunctional:
    """Finitely supported map from aroma multisets to rationals.

    Values on multisets above truncation_order are unknown, not zero;
    evaluating there raises TruncationError instead of silently truncating.
    """

    def __init__(self, support: dict, truncation_order: int):
        clean: dict[AromaMultiset, Rat] = {}
        for alpha, value in support.items():
            value = Rat(value)
            if value != 0:
                clean[alpha] = value
        if truncation_order < max((alpha.order for alpha in clean), default=0):
            raise ValueError("truncation_order below the maximal supported order")
        self.support = clean
        self.truncation_order = truncation_order

    def value(self, alpha: AromaMultiset) -> Rat:
        if alpha.order > self.truncation_order:
            raise TruncationError(
                f"functional only known up to order {self.truncation_order}, "
                f"asked at order {alpha.order}"
            )
        return self.support.get(alpha, ZERO)

    def __repr__(self):
        body = ", ".join(f"{k}: {v}" for k, v in sorted(self.support.items()))
        return f"CoefficientFunctional({{{body}}}, <= {self.truncation_order})"


def _functional(value_of, truncation_order: int) -> CoefficientFunctional:
    """The functional alpha -> value_of(alpha) on every multiset up to the
    truncation order."""
    support = {alpha: value_of(alpha) for alpha in enumerate_multisets(truncation_order)}
    return CoefficientFunctional(support, truncation_order)


def counit(truncation_order: int = 0) -> CoefficientFunctional:
    return CoefficientFunctional({UNIT: ONE}, truncation_order)


def kahan_coeff(forest: Forest) -> Rat:
    """Kahan's B-series coefficients: b(tall tree) = 2^(1-|tau|), else 0;
    extended multiplicatively to forests with b(empty) = 1."""
    out = ONE
    for tree in forest.trees:
        out = out * (Rat(1, 2 ** (tree.order - 1)) if tree.is_tall() else ZERO)
    return out


def coproduct_disjoint(
    alpha: AromaMultiset,
) -> dict[tuple[AromaMultiset, AromaMultiset], int]:
    """Binomial coproduct: sum over submultisets b of alpha of b (x) alpha\\b,
    with the product of binomial multiplicities as coefficient."""
    classes = alpha.classes()
    out = {}
    for takes in product(*(range(mult + 1) for _, mult in classes)):
        left, right, coeff = [], [], 1
        for (aroma, mult), take in zip(classes, takes):
            left += [aroma] * take
            right += [aroma] * (mult - take)
            coeff *= comb(mult, take)
        out[AromaMultiset(left), AromaMultiset(right)] = coeff
    return out


def _forest_cuts(trees) -> list[tuple[tuple, tuple]]:
    """(detached trees, kept trees) for every admissible cut of trees hanging
    from one vertex: each tree is cut on its own."""
    return [
        (sum((d for d, _ in choice), ()), sum((k for _, k in choice), ()))
        for choice in product(*(_tree_cuts(t) for t in trees))
    ]


@lru_cache(maxsize=None)
def _tree_cuts(tree: RootedTree) -> list[tuple[tuple, tuple]]:
    """A hanging tree is cut off whole, or it keeps its root and each child
    subtree is cut on its own."""
    return [((tree,), ())] + [
        (detached, (RootedTree(kept),)) for detached, kept in _forest_cuts(tree.children)
    ]


def _aroma_cuts(aroma: Aroma) -> list[tuple[Forest, Aroma]]:
    """Admissible cuts of non-cycle edges: (detached forest, remaining aroma).

    A cut set is admissible when no cut edge lies inside a subtree detached
    by another cut (an antichain in the ancestor order); only those cuts
    invert the grafting of whole trees onto the core, which is what the
    composition law sums over.  Each detached tree keeps all descendants of
    its cut vertex.  Cuts are listed with multiplicity, one per antichain.
    """
    return [
        (
            Forest(sum((d for d, _ in choice), ())),
            Aroma(aroma.cycle_len, tuple(Forest(k) for _, k in choice)),
        )
        for choice in product(*(_forest_cuts(f.trees) for f in aroma.decorations))
    ]


def coproduct_comodule(alpha: AromaMultiset) -> dict[tuple[Forest, AromaMultiset], int]:
    """Comodule coproduct: cut non-cycle edges; detached trees (x) what remains.

    Extends to multisets componentwise (forests concatenate, aromas multiply).
    """
    out = {(EMPTY_FOREST, UNIT): 1}
    for aroma in alpha.aromas:
        cuts = _aroma_cuts(aroma)
        nxt = {}
        for (forest, rest), coeff in out.items():
            for detached, reduced in cuts:
                key = (
                    Forest(forest.trees + detached.trees),
                    rest.times(AromaMultiset((reduced,))),
                )
                nxt[key] = nxt.get(key, 0) + coeff
        out = nxt
    return out


def _pair(left, right, coproduct: dict) -> Rat:
    """<left (x) right, coproduct> for functions left and right."""
    total = ZERO
    for (a, b), coeff in coproduct.items():
        la = left(a)
        if la != 0:
            total = total + coeff * la * right(b)
    return total


def multiply_functionals(
    gamma0: CoefficientFunctional, gamma1: CoefficientFunctional
) -> CoefficientFunctional:
    """Convolution against the binomial coproduct; governs products of series."""
    return _functional(
        lambda alpha: _pair(gamma0.value, gamma1.value, coproduct_disjoint(alpha)),
        min(gamma0.truncation_order, gamma1.truncation_order),
    )


def compose_with_bseries(b, gamma: CoefficientFunctional) -> CoefficientFunctional:
    """(b . gamma)(alpha) = <b (x) gamma, D_comodule(alpha)>: the coefficients
    of B(gamma) evaluated along the B-series map whose coefficient of a
    forest is b(forest)."""
    if b(EMPTY_FOREST) != 1:
        raise ValueError("composition requires b(empty forest) = 1")
    return _functional(
        lambda alpha: _pair(b, gamma.value, coproduct_comodule(alpha)),
        gamma.truncation_order,
    )


def eta(u, alpha: AromaMultiset) -> Rat:
    """Girard-Newton coefficients of det(I + u h f'): sgn(pi_alpha) u^|alpha|
    on products of bare cycles, zero elsewhere."""
    if not alpha.is_cycle_product():
        return ZERO
    return Rat(alpha.permutation_sign()) * Rat(u) ** alpha.order


def eta_functional(u, truncation_order: int) -> CoefficientFunctional:
    return _functional(lambda alpha: eta(u, alpha), truncation_order)


_Q_ROW_CACHE: dict[AromaMultiset, dict] = {}
_U_HALF = Rat(1, 2)


def q_row(alpha: AromaMultiset) -> dict[AromaMultiset, Rat]:
    """<Q(gamma), alpha> as a linear form: multiset beta -> coefficient of
    gamma(beta)."""
    got = _Q_ROW_CACHE.get(alpha)
    if got is not None:
        return dict(got)
    row: dict[AromaMultiset, Rat] = {}
    for (beta, delta), c in coproduct_disjoint(alpha).items():
        eta_minus_beta = eta(-_U_HALF, beta)
        for (forest, rho), c2 in coproduct_comodule(delta).items():
            phi = kahan_coeff(forest)
            if phi == 0:
                continue
            weight = c * c2 * phi
            if eta_minus_beta != 0:
                row[rho] = row.get(rho, ZERO) + weight * eta_minus_beta
            eta_plus_rho = eta(_U_HALF, rho)
            if eta_plus_rho != 0:
                row[beta] = row.get(beta, ZERO) - weight * eta_plus_rho
    row = {k: v for k, v in row.items() if v != 0}
    _Q_ROW_CACHE[alpha] = dict(row)
    return row


def q_apply(gamma: CoefficientFunctional, alpha: AromaMultiset) -> Rat:
    if alpha.order > gamma.truncation_order:
        raise TruncationError(
            f"Q at order {alpha.order} needs gamma beyond its truncation "
            f"{gamma.truncation_order}"
        )
    total = ZERO
    for beta, coeff in q_row(alpha).items():
        v = gamma.value(beta)
        if v != 0:
            total = total + coeff * v
    return total


def q_functional(gamma: CoefficientFunctional) -> CoefficientFunctional:
    """Q(gamma) on all multisets up to gamma's truncation order."""
    return _functional(lambda alpha: q_apply(gamma, alpha), gamma.truncation_order)


def series_evaluate(gamma: CoefficientFunctional, field, truncation: int) -> Polynomial:
    """B(gamma) = sum over |alpha| <= truncation of h^|alpha| gamma(alpha)
    / sigma(alpha) * F(alpha), as an exact polynomial in (x, h), weighted as
    the solver weights its basis (`fields._weighted_polys`)."""
    if truncation > gamma.truncation_order:
        raise TruncationError("evaluation order exceeds the functional's truncation")
    support = [(a, c) for a, c in gamma.support.items() if a.order <= truncation]
    polys = _weighted_polys(field, [(field.aroma_function(a), a.order, a.sigma()) for a, _ in support])
    return _combination(field.nvars, polys, [c for _, c in support])
