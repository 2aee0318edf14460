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
"""

from __future__ import annotations

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
        clean: dict[str, Rat] = {}
        max_order = 0
        for key, value in support.items():
            ms = key if isinstance(key, AromaMultiset) else None
            enc = key.encoding if ms is not None else str(key)
            order = ms.order if ms is not None else _order_of_encoding(enc)
            value = Rat(value)
            if value != 0:
                clean[enc] = value
                max_order = max(max_order, order)
        if truncation_order < max_order:
            raise ValueError("truncation_order below the maximal supported order")
        self.support = clean
        self.truncation_order = truncation_order

    def value(self, alpha: AromaMultiset) -> Rat:
        if alpha.order > self.truncation_order:
            raise TruncationError(
                f"functional only known up to order {self.truncation_order}, "
                f"asked at order {alpha.order}"
            )
        return self.support.get(alpha.encoding, ZERO)

    def items(self):
        return sorted(self.support.items())

    def __eq__(self, other):
        return (
            isinstance(other, CoefficientFunctional)
            and self.support == other.support
            and self.truncation_order == other.truncation_order
        )

    def __repr__(self):
        body = ", ".join(f"{k}: {v}" for k, v in self.items())
        return f"CoefficientFunctional({{{body}}}, <= {self.truncation_order})"


def _order_of_encoding(enc: str) -> int:
    from .graphs import parse_multiset

    return parse_multiset(enc).order


def counit(truncation_order: int = 0) -> CoefficientFunctional:
    return CoefficientFunctional({UNIT: ONE}, truncation_order)


class ForestFunctional:
    """Multiplicative functional on rooted forests, given by a tree rule."""

    def __init__(self, tree_rule):
        self._tree_rule = tree_rule
        self._cache: dict[str, Rat] = {}

    def value(self, forest: Forest | RootedTree) -> Rat:
        if isinstance(forest, RootedTree):
            forest = Forest((forest,))
        got = self._cache.get(forest.encoding)
        if got is None:
            got = ONE
            for tree in forest.trees:
                got = got * Rat(self._tree_rule(tree))
                if got == 0:
                    break
            self._cache[forest.encoding] = got
        return got


def _kahan_tree_rule(tree: RootedTree) -> Rat:
    if tree.is_tall():
        return Rat(1, 2 ** (tree.order - 1))
    return ZERO


def kahan_forest_functional() -> ForestFunctional:
    return ForestFunctional(_kahan_tree_rule)


_KAHAN_B = kahan_forest_functional()


def kahan_coeff(arg) -> Rat:
    """Kahan's B-series coefficients: b(tall tree) = 2^(1-|tau|), else 0;
    extended multiplicatively to forests with b(empty) = 1."""
    return _KAHAN_B.value(arg)


class FormalTensorSum:
    """Finite rational combination of component tuples, like terms merged."""

    def __init__(self, terms: dict | None = None):
        self.terms: dict[tuple, Rat] = {}
        if terms:
            for comp, coeff in terms.items():
                self.add(comp, coeff)

    def add(self, components: tuple, coeff) -> None:
        coeff = Rat(coeff)
        if coeff == 0:
            return
        cur = self.terms.get(components)
        if cur is None:
            self.terms[components] = coeff
        else:
            cur = cur + coeff
            if cur == 0:
                del self.terms[components]
            else:
                self.terms[components] = cur

    def items(self):
        return sorted(
            self.terms.items(), key=lambda kv: tuple(c.encoding for c in kv[0])
        )

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        return isinstance(other, FormalTensorSum) and self.terms == other.terms

    def __repr__(self):
        body = " + ".join(
            (f"{v} * " if v != 1 else "")
            + "(x)".join(c.encoding if c.encoding else "1" for c in comps)
            for comps, v in self.items()
        )
        return body or "0"


def coproduct_disjoint(alpha: AromaMultiset) -> FormalTensorSum:
    """Binomial coproduct: sum over submultisets b of alpha of b (x) alpha\\b,
    with the product of binomial multiplicities as coefficient."""
    classes = alpha.classes()
    out = FormalTensorSum()

    def rec(idx: int, left: list, right: list, coeff: int):
        if idx == len(classes):
            out.add((AromaMultiset(tuple(left)), AromaMultiset(tuple(right))), coeff)
            return
        aroma, mult = classes[idx]
        for take in range(mult + 1):
            rec(
                idx + 1,
                left + [aroma] * take,
                right + [aroma] * (mult - take),
                coeff * comb(mult, take),
            )

    rec(0, [], [], 1)
    return out


def _aroma_cuts(aroma: Aroma) -> list[tuple[Forest, Aroma]]:
    """Admissible cuts of non-cycle edges: (detached forest, remaining aroma).

    A cut set is admissible when no cut edge lies inside a subtree detached
    by another cut (an antichain in the ancestor order); only those cuts
    invert the grafting of whole trees onto the core, which is what the
    composition law sums over.  Each detached tree keeps all descendants of
    its cut vertex.
    """
    preds, tree_kids, k = aroma.structure()
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

    def build(v: int) -> RootedTree:
        return RootedTree(tuple(build(c) for c in tree_kids[v]))

    whole = {v: build(v) for v in tree_vertices}

    results = []
    for mask in range(1 << len(tree_vertices)):
        cut = [tree_vertices[b] for b in range(len(tree_vertices)) if mask >> b & 1]
        cut_set = set(cut)
        if any(anc[v] & cut_set for v in cut):
            continue
        detached = Forest(tuple(whole[v] for v in cut))

        def remaining(v: int) -> RootedTree:
            return RootedTree(
                tuple(remaining(c) for c in tree_kids[v] if c not in cut_set)
            )

        rest = Aroma(
            k,
            tuple(
                Forest(
                    tuple(remaining(c) for c in tree_kids[i] if c not in cut_set)
                )
                for i in range(k)
            ),
        )
        results.append((detached, rest))
    return results


def coproduct_comodule(alpha) -> FormalTensorSum:
    """Comodule coproduct: cut non-cycle edges; detached trees (x) what remains.

    Extends to multisets componentwise (forests concatenate, aromas multiply).
    """
    if isinstance(alpha, Aroma):
        alpha = AromaMultiset((alpha,))
    out = FormalTensorSum()
    out.add((EMPTY_FOREST, UNIT), ONE)
    for aroma in alpha.aromas:
        cuts = _aroma_cuts(aroma)
        nxt = FormalTensorSum()
        for (forest, rest), coeff in out.terms.items():
            for detached, reduced in cuts:
                nxt.add(
                    (
                        Forest(forest.trees + detached.trees),
                        rest.times(AromaMultiset((reduced,))),
                    ),
                    coeff,
                )
        out = nxt
    return out


def multiply_functionals(
    gamma0: CoefficientFunctional, gamma1: CoefficientFunctional
) -> CoefficientFunctional:
    """Convolution against the binomial coproduct; governs products of series."""
    truncation = min(gamma0.truncation_order, gamma1.truncation_order)
    support = {}
    for alpha in enumerate_multisets(truncation):
        total = ZERO
        for (left, right), coeff in coproduct_disjoint(alpha).terms.items():
            a = gamma0.value(left)
            if a == 0:
                continue
            b = gamma1.value(right)
            if b != 0:
                total = total + coeff * a * b
        if total != 0:
            support[alpha] = total
    return CoefficientFunctional(support, truncation)


def compose_with_bseries(
    b: ForestFunctional, gamma: CoefficientFunctional
) -> CoefficientFunctional:
    """(b . gamma)(alpha) = <b (x) gamma, D_comodule(alpha)>: the coefficients
    of B(gamma) evaluated along the B-series map with forest coefficients b."""
    if b.value(EMPTY_FOREST) != 1:
        raise ValueError("composition requires b(empty forest) = 1")
    truncation = gamma.truncation_order
    support = {}
    for alpha in enumerate_multisets(truncation):
        total = ZERO
        for (forest, rest), coeff in coproduct_comodule(alpha).terms.items():
            bv = b.value(forest)
            if bv == 0:
                continue
            gv = gamma.value(rest)
            if gv != 0:
                total = total + coeff * bv * gv
        if total != 0:
            support[alpha] = total
    return CoefficientFunctional(support, truncation)


def eta(u, alpha: AromaMultiset) -> Rat:
    """Girard-Newton coefficients of det(I + u h f'): sgn(pi_alpha) u^|alpha|
    on products of bare cycles, zero elsewhere."""
    if not alpha.is_cycle_product():
        return ZERO
    return Rat(alpha.permutation_sign()) * Rat(u) ** alpha.order


def eta_functional(u, truncation_order: int) -> CoefficientFunctional:
    support = {}
    for alpha in enumerate_multisets(truncation_order):
        v = eta(u, alpha)
        if v != 0:
            support[alpha] = v
    return CoefficientFunctional(support, truncation_order)


_Q_ROW_CACHE: dict[str, dict] = {}
_U_HALF = Rat(1, 2)


def q_row(alpha: AromaMultiset) -> dict[AromaMultiset, Rat]:
    """<Q(gamma), alpha> as a linear form: multiset beta -> coefficient of
    gamma(beta)."""
    got = _Q_ROW_CACHE.get(alpha.encoding)
    if got is not None:
        return dict(got)
    row: dict[AromaMultiset, Rat] = {}
    for (beta, delta), c in coproduct_disjoint(alpha).terms.items():
        eta_minus_beta = eta(-_U_HALF, beta)
        for (forest, rho), c2 in coproduct_comodule(delta).terms.items():
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
    _Q_ROW_CACHE[alpha.encoding] = dict(row)
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
    support = {}
    for alpha in enumerate_multisets(gamma.truncation_order):
        v = q_apply(gamma, alpha)
        if v != 0:
            support[alpha] = v
    return CoefficientFunctional(support, gamma.truncation_order)


def q_matrix(order: int):
    """(multisets, rows): rows[r][c] = coefficient of gamma(multisets[c]) in
    <Q(gamma), multisets[r]>, over the canonical multiset basis up to order."""
    multisets = enumerate_multisets(order)
    index = {m.encoding: i for i, m in enumerate(multisets)}
    rows = []
    for alpha in multisets:
        row = [ZERO] * len(multisets)
        for beta, coeff in q_row(alpha).items():
            row[index[beta.encoding]] = coeff
        rows.append(row)
    return multisets, rows


def series_evaluate(gamma: CoefficientFunctional, field, truncation: int) -> Polynomial:
    """B(gamma) = sum over |alpha| <= truncation of h^|alpha| gamma(alpha)
    / sigma(alpha) * F(alpha), as an exact polynomial in (x, h)."""
    from .graphs import parse_multiset

    if truncation > gamma.truncation_order:
        raise TruncationError("evaluation order exceeds the functional's truncation")
    nv = field.nvars
    out = Polynomial.zero(nv)
    h = Polynomial.variable(nv, field.dim)
    for enc, coeff in gamma.items():
        alpha = parse_multiset(enc)
        if alpha.order > truncation:
            continue
        term = field.aroma_function(alpha)
        if term.is_zero():
            continue
        out = out + term * (h ** alpha.order) * (coeff / alpha.sigma())
    return out
