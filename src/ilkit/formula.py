"""Formulas of interpretability logic.

The object language has five core node kinds: atoms, falsum, implication,
the unary box, and the binary ``|>`` modality.  Every other connective
(negation, conjunction, disjunction, equivalence, diamond, verum) is
definable and gets expanded eagerly by the builder functions, so the rest
of the toolkit only ever pattern-matches on the core.

Nodes are hash-consed: building a node equal to a live one returns that
node, so ``==`` is ``is`` and ``parse(to_str(f)) is f``.  Walks over formulas
and the set terms of ``algebra`` are loops, not recursion: over ``postorder``
(each distinct subterm once, after its subterms; immutable, so cached on the
root), or for printing, which repeats shared subterms, over one work stack.

ASCII grammar (loosest binding first)::

    imp      ::= rhd (("->" | "<->") imp)?          right-associative
    rhd      ::= junction ("|>" junction)?          non-associative
    junction ::= unary (("&" | "|") unary)*         left-associative
    unary    ::= ("~" | "[]" | "<>") unary | primary
    primary  ::= atom | "F" | "T" | "(" imp ")"

Atoms match ``[a-z][a-z0-9_]*``.  An unparenthesized ``a |> b |> c`` is a
parse error rather than a silent grouping choice.  The parser recurses
only into parentheses, and refuses nesting deeper than ``NESTING_LIMIT``.
"""

from __future__ import annotations

import re
import threading
import weakref
from functools import cache

NESTING_LIMIT = 100

_NODES = weakref.WeakValueDictionary()
_NODES_LOCK = threading.Lock()


class Node:
    """Immutable hash-consed tree node, the base of formulas and set terms.

    A node class lists its constructor arguments in ``__slots__``; ``kids``
    holds those that are nodes, ``_walk`` a cached ``postorder``.  Building
    returns the live equal node if there is one; the table is weak, so a
    node dies with its last user.
    """

    __slots__ = ("kids", "_walk", "__weakref__")

    def __new__(cls, *args):
        key = (cls, *args)
        with _NODES_LOCK:
            node = _NODES.get(key)
            if node is None:
                node = object.__new__(cls)
                for name, value in zip(cls.__slots__, args, strict=True):
                    object.__setattr__(node, name, value)
                object.__setattr__(node, "kids",
                                   tuple(a for a in args if isinstance(a, Node)))
                _NODES[key] = node
        return node

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


def postorder(root: Node, enter=None) -> tuple:
    """Each distinct subterm of ``root`` once, after its subterms; with
    ``enter``, nodes failing ``enter(node)`` come unopened.  Without
    ``enter`` the walk is cached on ``root``: its strict subterms only, so
    no node refers to itself, and on the roots walked only, not on their
    subterms, so memory stays linear in the roots actually walked."""
    if enter is None and (walk := getattr(root, "_walk", None)) is not None:
        return walk + (root,)
    seen, out = set(), []
    stack = [(root, False)]
    while stack:
        node, ready = stack.pop()
        if ready:
            out.append(node)
        elif node not in seen:
            seen.add(node)
            stack.append((node, True))
            if enter is None or enter(node):
                stack.extend((kid, False) for kid in reversed(node.kids))
    if enter is None:
        object.__setattr__(root, "_walk", tuple(out[:-1]))
    return tuple(out)


@cache
def truth_columns(width: int) -> tuple:
    """Truth-table columns over ``2**width`` valuations: bit ``j`` of column
    ``t`` is bit ``t`` of ``j``.  Each is one period (``2**t`` zeros, then
    ``2**t`` ones) doubled by shift and OR up to the full width."""
    size = 1 << width
    cols = []
    for t in range(width):
        run = 1 << t
        col, period = ((1 << run) - 1) << run, run << 1
        while period < size:
            col |= col << period
            period <<= 1
        cols.append(col)
    return tuple(cols)


def _render(root, pieces) -> str:
    """Text of ``root``; ``pieces(item)`` lists its strings and sub-items."""
    out = []
    stack = [root]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        else:
            stack.extend(reversed(pieces(item)))
    return "".join(out)


class Formula(Node):
    """Base class for formula nodes; ``str`` and ``repr`` are ``to_str``."""

    __slots__ = ()

    def __repr__(self):
        return to_str(self)


class Atom(Formula):
    __slots__ = ("name",)


class Bottom(Formula):
    __slots__ = ()


class Implies(Formula):
    __slots__ = ("lhs", "rhs")


class Box(Formula):
    __slots__ = ("body",)


class Rhd(Formula):
    __slots__ = ("lhs", "rhs")


BOT = Bottom()
TOP = Implies(BOT, BOT)


def neg(a: Formula) -> Formula:
    return Implies(a, BOT)


def conj(a: Formula, b: Formula) -> Formula:
    return neg(Implies(a, neg(b)))


def disj(a: Formula, b: Formula) -> Formula:
    return Implies(neg(a), b)


def iff(a: Formula, b: Formula) -> Formula:
    return conj(Implies(a, b), Implies(b, a))


def dia(a: Formula) -> Formula:
    return neg(Box(neg(a)))


def atoms(f: Formula) -> frozenset[str]:
    """The set of atom names occurring in ``f``."""
    return frozenset(g.name for g in postorder(f) if isinstance(g, Atom))


def modal_depth(f: Formula) -> int:
    """Maximum nesting of box/``|>`` (each ``|>`` counts one level)."""
    depth = {}
    for g in postorder(f):
        d = max((depth[k] for k in g.kids), default=0)
        depth[g] = d + 1 if isinstance(g, (Box, Rhd)) else d
    return depth[f]


def size(f: Formula) -> int:
    """Number of core connective nodes (implication, box, ``|>``)."""
    count = {}
    for g in postorder(f):
        count[g] = sum(count[k] for k in g.kids) + (not isinstance(g, (Atom, Bottom)))
    return count[f]


class ParseError(ValueError):
    """Malformed formula text; ``position`` is the 0-based offset."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# Fixed tokens (longest first), atoms, or any other character, which is an error.
_TOKEN_RE = re.compile(r"\s*(?:(<->|<>|\[\]|->|\|>|[~&|()FT])|([a-z][a-z0-9_]*)|(\S))")


def _tokenize(text):
    toks = []
    for m in _TOKEN_RE.finditer(text):
        fixed, atom, bad = m.groups()
        if bad:
            raise ParseError(f"unexpected character {bad!r}", m.start(3))
        toks.append((fixed, fixed, m.start(1)) if fixed else ("atom", atom, m.start(2)))
    toks.append(("end", "end of input", len(text)))
    return toks


class _Parser:
    """Recursive descent, with loops for prefix operators and ``->``
    chains, so that only parentheses nest Python calls."""

    def __init__(self, text):
        self.toks = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.toks[self.i][0]

    def take(self):
        t = self.toks[self.i]
        if t[0] == "end":
            raise ParseError("unexpected end of input", t[2])
        self.i += 1
        return t

    def run(self):
        f = self.imp()
        t = self.toks[self.i]
        if t[0] != "end":
            raise ParseError(f"unexpected {t[1]!r}", t[2])
        return f

    def imp(self):
        lefts = []
        f = self.rhd()
        while self.peek() in ("->", "<->"):
            lefts.append((f, self.take()[0]))
            f = self.rhd()
        for left, op in reversed(lefts):
            f = Implies(left, f) if op == "->" else iff(left, f)
        return f

    def rhd(self):
        left = self.junction()
        if self.peek() != "|>":
            return left
        self.take()
        right = self.junction()
        if self.peek() == "|>":
            raise ParseError("|> is non-associative; parenthesize the chain",
                             self.toks[self.i][2])
        return Rhd(left, right)

    def junction(self):
        left = self.unary()
        while self.peek() in ("&", "|"):
            op = self.take()[0]
            right = self.unary()
            left = conj(left, right) if op == "&" else disj(left, right)
        return left

    def unary(self):
        ops = []
        while self.peek() in ("~", "[]", "<>"):
            ops.append(self.take()[0])
        f = self.primary()
        for op in reversed(ops):
            f = neg(f) if op == "~" else Box(f) if op == "[]" else dia(f)
        return f

    def primary(self):
        t = self.take()
        if t[0] == "atom":
            return Atom(t[1])
        if t[0] == "F":
            return BOT
        if t[0] == "T":
            return TOP
        if t[0] == "(":
            if self.depth == NESTING_LIMIT:
                raise ParseError(
                    f"parentheses nested deeper than {NESTING_LIMIT}", t[2])
            self.depth += 1
            f = self.imp()
            self.depth -= 1
            t = self.take()
            if t[0] != ")":
                raise ParseError(f"expected ')', got {t[1]!r}", t[2])
            return f
        raise ParseError(f"unexpected {t[1]!r}", t[2])


def parse(text: str) -> Formula:
    """Parse ASCII formula text into the five-connective core."""
    return _Parser(text).run()


def _view(f):
    """Recognize a core node as the derived connective it prints best as.

    The patterns mirror the expansion equations exactly, so re-parsing the
    sugared output always rebuilds the identical tree.  Match order inside
    the negation shape matters: diamond and equivalence are special cases
    of the conjunction pattern.
    """
    if not isinstance(f, Implies):
        return _core_view(f)
    a, b = f.lhs, f.rhs
    if b == BOT:
        if a == BOT:
            return ("top",)
        if isinstance(a, Box) and isinstance(a.body, Implies) and a.body.rhs == BOT:
            return ("dia", a.body.lhs)
        if isinstance(a, Implies) and isinstance(a.rhs, Implies) and a.rhs.rhs == BOT:
            x, y = a.lhs, a.rhs.lhs
            if (isinstance(x, Implies) and isinstance(y, Implies)
                    and x.lhs == y.rhs and x.rhs == y.lhs):
                return ("iff", x.lhs, x.rhs)
            return ("and", x, y)
        return ("not", a)
    if isinstance(a, Implies) and a.rhs == BOT:
        return ("or", a.lhs, b)
    return ("imp", a, b)


_CORE_TAGS = {Bottom: "bot", Implies: "imp", Box: "box", Rhd: "rhd"}


def _core_view(f):
    return ("atom", f.name) if isinstance(f, Atom) else (_CORE_TAGS[type(f)], *f.kids)


_ASCII = {"bot": "F", "top": "T", "not": "~", "box": "[]", "dia": "<>",
          "and": "&", "or": "|", "rhd": "|>", "imp": "->", "iff": "<->"}
_UNICODE = {"bot": "⊥", "top": "⊤", "not": "¬", "box": "□",
            "dia": "◊", "and": "∧", "or": "∨", "rhd": "▷",
            "imp": "→", "iff": "↔"}

# Binding strength used when deciding parentheses; matches the grammar.
_LEVEL = {"imp": 1, "iff": 1, "rhd": 2, "and": 3, "or": 3,
          "not": 4, "box": 4, "dia": 4, "atom": 5, "bot": 5, "top": 5}
# Least binding strength each operand of a binary tag prints without parentheses.
_SIDES = {"imp": (2, 1), "iff": (2, 1), "rhd": (3, 3), "and": (3, 4), "or": (3, 4)}


def to_str(f: Formula, unicode: bool = False, sugar: bool = True) -> str:
    """Print a formula; ``parse(to_str(f)) is f`` for every formula."""
    syms = _UNICODE if unicode else _ASCII
    view = _view if sugar else _core_view

    def pieces(item):
        g, need = item
        v = view(g)
        tag = v[0]
        if tag in ("atom", "bot", "top"):
            return [v[1] if tag == "atom" else syms[tag]]
        if tag in ("not", "box", "dia"):
            out = [syms[tag], (v[1], 4)]
        else:
            left, right = _SIDES[tag]
            out = [(v[1], left), f" {syms[tag]} ", (v[2], right)]
        return ["(", *out, ")"] if _LEVEL[tag] < need else out

    return _render((f, 1), pieces)


def enumerate_formulas(pool, depth: int, size_bound: int,
                       modalities=("box", "rhd")):
    """Yield every formula over the atom ``pool`` within the bounds.

    The stream is deterministic and duplicate-free: formulas are grouped by
    core size and, within one size, implications come first (grouped by the
    size of the left subtree), then boxes, then ``|>``-formulas.  Size 0 is
    the sorted atoms followed by falsum.  ``depth`` bounds the modal depth;
    ``modalities`` can drop ``"rhd"`` (or ``"box"``) for fragment pools.
    """
    names = sorted(set(pool))
    levels = [[Atom(a) for a in names] + [BOT]]
    depths = {g: 0 for g in levels[0]}
    yield from levels[0]
    for k in range(1, size_bound + 1):
        level = []
        for i in range(k):
            for l in levels[i]:
                for r in levels[k - 1 - i]:
                    g = Implies(l, r)
                    depths[g] = max(depths[l], depths[r])
                    level.append(g)
        if "box" in modalities:
            for b in levels[k - 1]:
                if depths[b] < depth:
                    g = Box(b)
                    depths[g] = depths[b] + 1
                    level.append(g)
        if "rhd" in modalities:
            for i in range(k):
                for l in levels[i]:
                    for r in levels[k - 1 - i]:
                        if depths[l] < depth and depths[r] < depth:
                            g = Rhd(l, r)
                            depths[g] = max(depths[l], depths[r]) + 1
                            level.append(g)
        levels.append(level)
        yield from level
