"""Rooted trees, forests, aromas and aroma multisets.

An aroma is a connected functional graph: every vertex has one outgoing
edge, so there is exactly one directed cycle, with rooted trees hanging off
the cycle vertices (tree edges oriented toward the cycle).  Canonical forms:

    tree      T ::= "[" T* "]"            children sorted by byte order
    forest    F ::= T*                    trees sorted by byte order
    aroma     A ::= "C" k "(" F1 ";" ... ";" Fk ")"
                                          cycle edge i -> i+1 (mod k); the
                                          decoration sequence is rotated to
                                          its lexicographically minimal form
    multiset  M ::= "1" | A ("*" A)*      members sorted by byte order

Two objects are isomorphic iff their encodings are equal; the encoding is
the wire format used by the CLI and JSON reports.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby
from math import factorial, prod

from .rationals import safe_repr


def _sigma(parts) -> int:
    """Symmetry factor of a sorted tuple of parts: a class of m equal parts,
    each of symmetry s, contributes s^m * m!."""
    s = 1
    for part, group in groupby(parts):
        m = sum(1 for _ in group)
        s *= part.sigma() ** m * factorial(m)
    return s


def _least_rotation(seq) -> tuple[int, int]:
    """(start, period): seq rotated to start is its least rotation (Booth,
    Inf. Process. Lett. 1980), and period its least period, both from one
    linear pass of Duval's Lyndon factorization of seq + seq (J. Algorithms
    1983).  The last factor begun before len(seq) starts the least rotation,
    which is that Lyndon factor repeated, so its length is the period."""
    n, s, i = len(seq), tuple(seq) * 2, 0
    while i < n:
        start, k, j = i, i, i + 1
        while j < 2 * n and ((same := s[k] == s[j]) or s[k] < s[j]):
            k = k + 1 if same else i
            j += 1
        while i <= k:
            i += j - k
    return start, j - k


class _Encoded:
    """Identity by canonical encoding: equal encodings, isomorphic graphs."""

    __slots__ = ("encoding", "order")

    def __eq__(self, other):
        return type(other) is type(self) and self.encoding == other.encoding

    def __hash__(self):
        return hash(self.encoding)

    def __repr__(self):
        return self.encoding or "()"


class RootedTree(_Encoded):
    __slots__ = ("children", "_symmetry", "_max_indegree")

    def __init__(self, children=()):
        kids = tuple(sorted(children, key=lambda t: t.encoding))
        self.children = kids
        self.encoding = "[" + "".join(t.encoding for t in kids) + "]"
        self.order = 1 + sum(t.order for t in kids)
        # the children are built first, so neither value needs recursion on deep trees
        self._symmetry = _sigma(kids)
        self._max_indegree = max([len(kids), *(t._max_indegree for t in kids)])

    def sigma(self) -> int:
        return self._symmetry

    def is_tall(self) -> bool:
        node = self
        while node.children:
            if len(node.children) > 1:
                return False
            node = node.children[0]
        return True

    def max_indegree(self) -> int:
        """Largest vertex indegree (a tree vertex's indegree is its child count)."""
        return self._max_indegree


LEAF = RootedTree(())


class Forest(_Encoded):
    __slots__ = ("trees",)

    def __init__(self, trees=()):
        ts = tuple(sorted(trees, key=lambda t: t.encoding))
        self.trees = ts
        self.encoding = "".join(t.encoding for t in ts)
        self.order = sum(t.order for t in ts)

    def sigma(self) -> int:
        return _sigma(self.trees)


EMPTY_FOREST = Forest(())


class Aroma(_Encoded):
    __slots__ = ("cycle_len", "decorations", "_period")

    def __init__(self, cycle_len: int, decorations=()):
        if cycle_len < 1:
            raise ValueError("an aroma has a cycle of length >= 1")
        decs = tuple(decorations) or tuple(EMPTY_FOREST for _ in range(cycle_len))
        if len(decs) != cycle_len:
            raise ValueError("one decoration forest per cycle vertex required")
        # canonical rotation: lexicographically minimal encoding sequence
        start, self._period = _least_rotation([f.encoding for f in decs])
        decs = decs[start:] + decs[:start]
        self.cycle_len = cycle_len
        self.decorations = decs
        self.encoding = f"C{cycle_len}(" + ";".join(f.encoding for f in decs) + ")"
        self.order = cycle_len + sum(f.order for f in decs)

    def sigma(self) -> int:
        # k over the least period (a divisor of k) rotations fix the cycle
        return self.cycle_len // self._period * prod(f.sigma() for f in self.decorations)

    def is_bare_cycle(self) -> bool:
        return all(not f.trees for f in self.decorations)

    def max_indegree(self) -> int:
        best = 0
        for f in self.decorations:
            best = max(best, 1 + len(f.trees))
            for t in f.trees:
                best = max(best, t.max_indegree())
        return best


class AromaMultiset(_Encoded):
    __slots__ = ("aromas", "_symmetry")

    def __init__(self, aromas=()):
        ar = tuple(sorted(aromas, key=lambda a: a.encoding))
        self.aromas = ar
        self.encoding = "*".join(a.encoding for a in ar) if ar else "1"
        self.order = sum(a.order for a in ar)
        self._symmetry = _sigma(ar)

    def sigma(self) -> int:
        return self._symmetry

    def classes(self):
        return [(aroma, sum(1 for _ in group)) for aroma, group in groupby(self.aromas)]

    def is_cycle_product(self) -> bool:
        return all(a.is_bare_cycle() for a in self.aromas)

    def permutation_sign(self) -> int:
        """Sign of the permutation whose cycle type the multiset describes."""
        sign = 1
        for a in self.aromas:
            if (a.cycle_len - 1) & 1:
                sign = -sign
        return sign

    def max_indegree(self) -> int:
        return max((a.max_indegree() for a in self.aromas), default=0)

    def times(self, other: "AromaMultiset") -> "AromaMultiset":
        return AromaMultiset(self.aromas + other.aromas)

    def __lt__(self, other):
        return (self.order, self.encoding) < (other.order, other.encoding)


UNIT = AromaMultiset(())
LOOP = Aroma(1)
TWO_CYCLE = Aroma(2)
THREE_CYCLE = Aroma(3)
LOOP_WITH_TAIL = Aroma(1, (Forest((LEAF,)),))
TAILED_TWO_CYCLE = Aroma(2, (EMPTY_FOREST, Forest((LEAF,))))


# ---------------------------------------------------------------------------
# enumeration


def _multisets(universe, budget: int):
    """Every multiset of universe items with total order <= budget, the
    empty one included, each once, as a tuple in universe order.  The
    universe must be sorted by order."""
    stack = [((), 0, budget)]
    while stack:
        chosen, start, remaining = stack.pop()
        yield chosen
        for i in range(start, len(universe)):
            item = universe[i]
            if item.order > remaining:
                break
            stack.append((chosen + (item,), i, remaining - item.order))


@lru_cache(maxsize=None)
def enumerate_trees(order: int):
    """All rooted trees with the given vertex count, canonically sorted."""
    if order < 1:
        raise ValueError("tree order must be at least 1")
    if order == 1:
        return (LEAF,)
    trees = [RootedTree(f.trees) for f in enumerate_forests(order - 1)]
    return tuple(sorted(trees, key=lambda t: t.encoding))


@lru_cache(maxsize=None)
def enumerate_forests(order: int):
    """All forests (tree multisets) with the given total vertex count."""
    if order < 0:
        raise ValueError("forest order must be nonnegative")
    universe = [t for k in range(1, order + 1) for t in enumerate_trees(k)]
    forests = [
        Forest(trees)
        for trees in _multisets(universe, order)
        if sum(t.order for t in trees) == order
    ]
    return tuple(sorted(forests, key=lambda f: f.encoding))


def tall_tree(order: int) -> RootedTree:
    if order < 1:
        raise ValueError("tree order must be at least 1")
    t = LEAF
    for _ in range(order - 1):
        t = RootedTree((t,))
    return t


def _decorations(slots: int, budget: int):
    """Every sequence of `slots` forests with total order `budget`."""
    if slots == 1:
        for f in enumerate_forests(budget):
            yield (f,)
        return
    for used in range(budget + 1):
        for f in enumerate_forests(used):
            for rest in _decorations(slots - 1, budget - used):
                yield (f,) + rest


@lru_cache(maxsize=None)
def enumerate_aromas(order: int):
    """All aromas of exactly the given order, one per isomorphism class."""
    if order < 1:
        raise ValueError("aroma order must be at least 1")
    found = {}
    for k in range(1, order + 1):
        for decs in _decorations(k, order - k):
            a = Aroma(k, decs)
            found.setdefault(a.encoding, a)
    return tuple(sorted(found.values(), key=lambda a: a.encoding))


def enumerate_multisets(max_order: int, max_indegree: int | None = None):
    """All aroma multisets of order <= max_order (the unit included).

    With max_indegree given, multisets containing any vertex of total
    indegree above the bound are dropped (cycle edges and self-loops count).
    """
    if max_order < 0:
        raise ValueError("max_order must be nonnegative")
    universe = [
        a
        for k in range(1, max_order + 1)
        for a in enumerate_aromas(k)
        if max_indegree is None or a.max_indegree() <= max_indegree
    ]
    return sorted(AromaMultiset(aromas) for aromas in _multisets(universe, max_order))


# ---------------------------------------------------------------------------
# parsing (inverse of the canonical encodings)


def parse_forest(text: str) -> Forest:
    text = text.strip()
    # stack[0] collects the forest's trees, stack[d] the children of the
    # tree opened at depth d
    stack = [[]]
    for pos, char in enumerate(text):
        if char == "[":
            stack.append([])
        elif char == "]" and len(stack) > 1:
            kids = stack.pop()
            stack[-1].append(RootedTree(kids))
        elif len(stack) == 1:
            raise ValueError(f"expected '[' at position {pos} in {safe_repr(text)}")
        else:
            raise ValueError(f"unbalanced brackets in {safe_repr(text)}")
    if len(stack) > 1:
        raise ValueError(f"unbalanced brackets in {safe_repr(text)}")
    return Forest(stack[0])


def parse_aroma(text: str) -> Aroma:
    text = text.strip()
    if not text.startswith("C"):
        raise ValueError(f"aroma encoding must start with 'C': {safe_repr(text)}")
    open_paren = text.find("(")
    if open_paren < 0:
        raise ValueError(f"aroma encoding needs '(' after the cycle length: {safe_repr(text)}")
    length = text[1:open_paren]
    if not (length.isascii() and length.isdigit()):
        raise ValueError(f"aroma cycle length must be a positive integer: {safe_repr(text)}")
    k = int(length)
    if not text.endswith(")"):
        raise ValueError(f"aroma encoding must end with ')': {safe_repr(text)}")
    body = text[open_paren + 1 : -1]
    parts = body.split(";") if body or k == 1 else []
    if len(parts) != k:
        raise ValueError(f"aroma {safe_repr(text)} must carry exactly {k} forests")
    return Aroma(k, tuple(parse_forest(p) for p in parts))


def parse_multiset(text: str) -> AromaMultiset:
    text = text.strip()
    if text in ("1", ""):
        return UNIT
    return AromaMultiset(tuple(parse_aroma(p) for p in text.split("*")))


def parse_any(text: str):
    """Parse a tree, forest, aroma or multiset from its canonical encoding."""
    text = text.strip()
    if not text or text == "1" or text.startswith("C"):
        return parse_multiset(text)
    forest = parse_forest(text)
    if len(forest.trees) == 1:
        return forest.trees[0]
    return forest
