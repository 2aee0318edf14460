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
from math import factorial


def _grouped(items):
    """Group equal consecutive items of a sorted sequence: [(item, count)]."""
    out = []
    for it in items:
        if out and out[-1][0] == it:
            out[-1][1] += 1
        else:
            out.append([it, 1])
    return [(a, b) for a, b in out]


class RootedTree:
    __slots__ = ("children", "encoding", "order")

    def __init__(self, children=()):
        kids = tuple(sorted(children, key=lambda t: t.encoding))
        self.children = kids
        self.encoding = "[" + "".join(t.encoding for t in kids) + "]"
        self.order = 1 + sum(t.order for t in kids)

    def sigma(self) -> int:
        s = 1
        for child, mult in _grouped(self.children):
            s *= child.sigma() ** mult * factorial(mult)
        return s

    def is_tall(self) -> bool:
        node = self
        while node.children:
            if len(node.children) > 1:
                return False
            node = node.children[0]
        return True

    def max_indegree(self) -> int:
        """Largest vertex indegree (a tree vertex's indegree is its child count)."""
        best = len(self.children)
        for c in self.children:
            best = max(best, c.max_indegree())
        return best

    def __eq__(self, other):
        return isinstance(other, RootedTree) and self.encoding == other.encoding

    def __hash__(self):
        return hash(self.encoding)

    def __lt__(self, other):
        return self.encoding < other.encoding

    def __repr__(self):
        return self.encoding


LEAF = RootedTree(())


class Forest:
    __slots__ = ("trees", "encoding", "order")

    def __init__(self, trees=()):
        ts = tuple(sorted(trees, key=lambda t: t.encoding))
        self.trees = ts
        self.encoding = "".join(t.encoding for t in ts)
        self.order = sum(t.order for t in ts)

    def sigma(self) -> int:
        s = 1
        for tree, mult in _grouped(self.trees):
            s *= tree.sigma() ** mult * factorial(mult)
        return s

    def is_empty(self) -> bool:
        return not self.trees

    def __eq__(self, other):
        return isinstance(other, Forest) and self.encoding == other.encoding

    def __hash__(self):
        return hash(("F", self.encoding))

    def __lt__(self, other):
        return self.encoding < other.encoding

    def __repr__(self):
        return self.encoding or "()"


EMPTY_FOREST = Forest(())


class Aroma:
    __slots__ = ("cycle_len", "decorations", "encoding", "order")

    def __init__(self, cycle_len: int, decorations=()):
        if cycle_len < 1:
            raise ValueError("an aroma has a cycle of length >= 1")
        decs = tuple(decorations) or tuple(EMPTY_FOREST for _ in range(cycle_len))
        if len(decs) != cycle_len:
            raise ValueError("one decoration forest per cycle vertex required")
        # canonical rotation: lexicographically minimal encoding sequence
        seqs = [decs[i:] + decs[:i] for i in range(cycle_len)]
        decs = min(seqs, key=lambda s: tuple(f.encoding for f in s))
        self.cycle_len = cycle_len
        self.decorations = decs
        self.encoding = f"C{cycle_len}(" + ";".join(f.encoding for f in decs) + ")"
        self.order = cycle_len + sum(f.order for f in decs)

    def sigma(self) -> int:
        encs = tuple(f.encoding for f in self.decorations)
        rotations = sum(
            1
            for r in range(self.cycle_len)
            if encs[r:] + encs[:r] == encs
        )
        s = rotations
        for f in self.decorations:
            s *= f.sigma()
        return s

    def is_bare_cycle(self) -> bool:
        return all(f.is_empty() for f in self.decorations)

    def has_self_loop(self) -> bool:
        return self.cycle_len == 1

    def max_indegree(self) -> int:
        best = 0
        for f in self.decorations:
            best = max(best, 1 + len(f.trees))
            for t in f.trees:
                best = max(best, t.max_indegree())
        return best

    def structure(self):
        """Explicit vertex structure: (preds, tree_kids, cycle_len).

        Vertices 0..k-1 are the cycle (edge i -> i+1 mod k); tree vertices
        follow in DFS order.  preds[v] lists all vertices pointing at v
        (cycle edge included); tree_kids[v] lists only tree-vertex children.
        """
        k = self.cycle_len
        preds = [[(i - 1) % k] for i in range(k)]
        tree_kids: list[list[int]] = [[] for _ in range(k)]

        def add_tree(tree: RootedTree, parent: int) -> None:
            v = len(preds)
            preds.append([])
            tree_kids.append([])
            preds[parent].append(v)
            tree_kids[parent].append(v)
            for child in tree.children:
                add_tree(child, v)

        for i, forest in enumerate(self.decorations):
            for tree in forest.trees:
                add_tree(tree, i)
        return preds, tree_kids, k

    def __eq__(self, other):
        return isinstance(other, Aroma) and self.encoding == other.encoding

    def __hash__(self):
        return hash(self.encoding)

    def __lt__(self, other):
        return self.encoding < other.encoding

    def __repr__(self):
        return self.encoding


class AromaMultiset:
    __slots__ = ("aromas", "encoding", "order")

    def __init__(self, aromas=()):
        ar = tuple(sorted(aromas, key=lambda a: a.encoding))
        self.aromas = ar
        self.encoding = "*".join(a.encoding for a in ar) if ar else "1"
        self.order = sum(a.order for a in ar)

    def sigma(self) -> int:
        s = 1
        for aroma, mult in _grouped(self.aromas):
            s *= aroma.sigma() ** mult * factorial(mult)
        return s

    def classes(self):
        return _grouped(self.aromas)

    def is_unit(self) -> bool:
        return not self.aromas

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

    def contains_self_loop(self) -> bool:
        return any(a.has_self_loop() for a in self.aromas)

    def times(self, other: "AromaMultiset") -> "AromaMultiset":
        return AromaMultiset(self.aromas + other.aromas)

    def __eq__(self, other):
        return isinstance(other, AromaMultiset) and self.encoding == other.encoding

    def __hash__(self):
        return hash(("M", self.encoding))

    def __lt__(self, other):
        return (self.order, self.encoding) < (other.order, other.encoding)

    def __repr__(self):
        return self.encoding


UNIT = AromaMultiset(())
LOOP = Aroma(1)
TWO_CYCLE = Aroma(2)
THREE_CYCLE = Aroma(3)
LOOP_WITH_TAIL = Aroma(1, (Forest((LEAF,)),))
TAILED_TWO_CYCLE = Aroma(2, (EMPTY_FOREST, Forest((LEAF,))))


# ---------------------------------------------------------------------------
# enumeration


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
    if order == 0:
        return (EMPTY_FOREST,)
    universe = []
    for k in range(1, order + 1):
        universe.extend(enumerate_trees(k))

    results = []

    def rec(start: int, remaining: int, chosen: list):
        if remaining == 0:
            results.append(Forest(tuple(chosen)))
            return
        for i in range(start, len(universe)):
            t = universe[i]
            if t.order <= remaining:
                chosen.append(t)
                rec(i, remaining - t.order, chosen)
                chosen.pop()

    rec(0, order, [])
    return tuple(sorted(set(results), key=lambda f: f.encoding))


def tall_tree(order: int) -> RootedTree:
    if order < 1:
        raise ValueError("tree order must be at least 1")
    t = LEAF
    for _ in range(order - 1):
        t = RootedTree((t,))
    return t


@lru_cache(maxsize=None)
def enumerate_aromas(order: int):
    """All aromas of exactly the given order, one per isomorphism class."""
    if order < 1:
        raise ValueError("aroma order must be at least 1")
    found = {}
    for k in range(1, order + 1):
        rest = order - k

        def place(slot: int, remaining: int, decs: list):
            if slot == k - 1:
                for f in enumerate_forests(remaining):
                    a = Aroma(k, tuple(decs) + (f,))
                    found.setdefault(a.encoding, a)
                return
            for used in range(remaining + 1):
                for f in enumerate_forests(used):
                    decs.append(f)
                    place(slot + 1, remaining - used, decs)
                    decs.pop()

        place(0, rest, [])
    return tuple(sorted(found.values(), key=lambda a: a.encoding))


def enumerate_multisets(max_order: int, max_indegree: int | None = None):
    """All aroma multisets of order <= max_order (the unit included).

    With max_indegree given, multisets containing any vertex of total
    indegree above the bound are dropped (cycle edges and self-loops count).
    """
    if max_order < 0:
        raise ValueError("max_order must be nonnegative")
    universe = []
    for k in range(1, max_order + 1):
        for a in enumerate_aromas(k):
            if max_indegree is None or a.max_indegree() <= max_indegree:
                universe.append(a)
    universe.sort(key=lambda a: (a.order, a.encoding))

    results = [UNIT]

    def rec(start: int, remaining: int, chosen: list):
        for i in range(start, len(universe)):
            a = universe[i]
            if a.order <= remaining:
                chosen.append(a)
                results.append(AromaMultiset(tuple(chosen)))
                rec(i, remaining - a.order, chosen)
                chosen.pop()

    rec(0, max_order, [])
    return sorted(set(results), key=lambda m: (m.order, m.encoding))


# ---------------------------------------------------------------------------
# parsing (inverse of the canonical encodings)


def _parse_tree_at(text: str, pos: int):
    if pos >= len(text) or text[pos] != "[":
        raise ValueError(f"expected '[' at position {pos} in {text!r}")
    pos += 1
    kids = []
    while pos < len(text) and text[pos] == "[":
        child, pos = _parse_tree_at(text, pos)
        kids.append(child)
    if pos >= len(text) or text[pos] != "]":
        raise ValueError(f"unbalanced brackets in {text!r}")
    return RootedTree(tuple(kids)), pos + 1


def parse_forest(text: str) -> Forest:
    text = text.strip()
    trees = []
    pos = 0
    while pos < len(text):
        tree, pos = _parse_tree_at(text, pos)
        trees.append(tree)
    return Forest(tuple(trees))


def parse_aroma(text: str) -> Aroma:
    text = text.strip()
    if not text.startswith("C"):
        raise ValueError(f"aroma encoding must start with 'C': {text!r}")
    open_paren = text.find("(")
    if open_paren < 0:
        raise ValueError(f"aroma encoding needs '(' after the cycle length: {text!r}")
    length = text[1:open_paren]
    if not (length.isascii() and length.isdigit()):
        raise ValueError(f"aroma cycle length must be a positive integer: {text!r}")
    k = int(length)
    if not text.endswith(")"):
        raise ValueError(f"aroma encoding must end with ')': {text!r}")
    body = text[open_paren + 1 : -1]
    parts = body.split(";") if body or k == 1 else []
    if len(parts) != k:
        raise ValueError(f"aroma {text!r} must carry exactly {k} forests")
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
