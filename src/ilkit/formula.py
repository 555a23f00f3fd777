"""Formulas of interpretability logic.

The object language has five core node kinds: atoms, falsum, implication,
the unary box, and the binary ``|>`` modality.  Every other connective
(negation, conjunction, disjunction, equivalence, diamond, verum) is
definable and gets expanded eagerly by the builder functions, so the rest
of the toolkit only ever pattern-matches on the core.

Nodes are hash-consed: building a node equal to a live one returns that
node, so ``==`` is ``is`` and ``parse(to_str(f)) is f``; each class fixes
once whether a new node's arguments are its kids.  The intern table takes
no lock: a miss builds its node first and publishes it with one atomic
``dict.setdefault``, and a thread that loses the race returns the winner's
node.  Walks over formulas and the set terms of ``algebra`` are loops, not
recursion: over ``postorder`` (each distinct subterm once, after its
subterms, off a stack of nodes and finishing markers; cached on the root),
or for printing, which repeats shared subterms, over one work stack.

ASCII grammar (loosest binding first)::

    imp      ::= rhd (("->" | "<->") imp)?          right-associative
    rhd      ::= junction ("|>" junction)?          non-associative
    junction ::= unary (("&" | "|") unary)*         left-associative
    unary    ::= ("~" | "[]" | "<>") unary | primary
    primary  ::= atom | "F" | "T" | "(" imp ")"

Atoms match ``[a-z][a-z0-9_]*``.  An unparenthesized ``a |> b |> c`` is a
parse error rather than a silent grouping choice.  ``parse`` is one loop
over the tokens with the pending operators on an explicit stack, so it never
recurses; it refuses parentheses nested deeper than ``NESTING_LIMIT``, and
prefix operators and ``->`` chains of any length parse.  A leaf table
builds each distinct atom once per parse.
"""

from __future__ import annotations

import re
import weakref
from _weakref import _remove_dead_weakref
from functools import cache

from .limits import NESTING_LIMIT

# The weak intern table: key -> _Ref to the live node.  A node's death drops
# its entry through the reference's callback.  Its keys hash and compare in C
# (classes, strings and nodes by identity), so each dict call is atomic.
_NODES = {}


class _Ref(weakref.ref):
    """A weak reference to an interned node that remembers its table key."""

    __slots__ = ("key",)


def _forget(ref):
    # atomic (the weakref module's own choice): it deletes the entry only
    # while that is a dead reference, never a node published since
    _remove_dead_weakref(_NODES, ref.key)


class Node:
    """Immutable hash-consed tree node, the base of formulas and set terms.

    A node class lists its constructor arguments in ``__slots__``: the one
    ``name`` of an atom or variable, or only nodes, which are then its
    ``kids`` (a class mixing the two is refused when defined); ``_walk`` is
    a cached ``postorder``.  Building returns the live equal node if there
    is one; the table is weak, so a node dies with its last user.  A hit is
    one dict read.  A miss fills a new node's slots through setters fetched
    once per class and publishes it with ``_NODES.setdefault``: if another
    thread published an equal node first, that node is returned and ours is
    dropped, which leaves the winner's entry alone; a dead entry under the
    key is removed (only while dead) and the publish tried again.
    """

    __slots__ = ("kids", "_walk", "__weakref__")
    _setters, _named = (), False

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        slots = cls.__slots__
        if "name" in slots and len(slots) > 1:
            raise TypeError(f"{cls.__name__} mixes a name with node arguments")
        cls._setters = tuple(getattr(cls, name).__set__ for name in slots)
        cls._named = slots == ("name",)

    def __new__(cls, *args):
        key = (cls, *args)
        ref = _NODES.get(key)
        if ref is not None and (node := ref()) is not None:
            return node
        setters = cls._setters
        arity = len(args)
        if arity != len(setters):
            raise ValueError(f"{cls.__name__} takes {len(setters)} "
                             f"arguments, got {arity}")
        node = object.__new__(cls)
        _set_kids(node, () if cls._named else args)
        if arity == 2:
            setters[0](node, args[0])
            setters[1](node, args[1])
        elif arity == 1:
            setters[0](node, args[0])
        else:
            for setter, arg in zip(setters, args):
                setter(node, arg)
        ref = _Ref(node, _forget)
        ref.key = key
        while (live := _NODES.setdefault(key, ref)()) is None:   # a dead entry
            _remove_dead_weakref(_NODES, key)
        return live

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


_set_kids = Node.kids.__set__
_DONE = object()   # on the ``postorder`` stack: the node under it is finished


def postorder(root: Node, enter=None) -> tuple:
    """Each distinct subterm of ``root`` once, after its subterms; with
    ``enter``, nodes failing ``enter(node)`` come unopened.  Without
    ``enter`` the walk is cached on ``root``: its strict subterms only, so
    no node refers to itself, and on the roots walked only, not on their
    subterms, so memory stays linear in the roots actually walked."""
    if enter is None and (walk := getattr(root, "_walk", None)) is not None:
        return walk + (root,)
    seen, out = set(), []
    stack = [root]
    while stack:
        node = stack.pop()
        if node is _DONE:
            out.append(stack.pop())
        elif node not in seen:
            seen.add(node)
            stack += (node, _DONE)
            if enter is None or enter(node):
                stack += reversed(node.kids)
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


# One token: a fixed one (longest first), an atom, or any other character,
# which is an error.
_TOKEN_RE = re.compile(r"\s*(<->|<>|\[\]|->|\|>|[~&|()FT]|[a-z][a-z0-9_]*|\S)")
# Binary operators: (binding strength, constructor, least strength of a
# pending operator that is built when this one arrives).  ``->`` and ``<->``
# build only tighter operators first (right-associative), ``&`` and ``|``
# their equals too (left-associative), and ``|>`` only junctions: a pending
# ``|>`` then is a non-associative chain, an error.
_BINARY = {"->": (1, Implies, 2), "<->": (1, iff, 2), "|>": (2, Rhd, 3),
           "&": (3, conj, 3), "|": (3, disj, 3)}
_PREFIX = {"~": neg, "[]": Box, "<>": dia}
_FIXED = {*_BINARY, *_PREFIX, "(", ")", "F", "T"}


def _error(text, i, message) -> ParseError:
    """The error at token ``i``, positioned by a second scan of ``text``,
    which reports a stray character anywhere in it first."""
    starts = []
    for m in _TOKEN_RE.finditer(text):
        tok = m.group(1)
        if tok not in _FIXED and not "a" <= tok[0] <= "z":
            return ParseError(f"unexpected character {tok!r}", m.start(1))
        starts.append(m.start(1))
    return ParseError(message, (starts + [len(text)])[i])


def parse(text: str) -> Formula:
    """Parse ASCII formula text into the five-connective core.

    One loop over the tokens with operator precedence on an explicit stack:
    read an operand (prefix operators, then an atom, a constant or an
    opening parenthesis), then the operator after it, first building every
    pending operator that binds at least as tightly.  Nothing recurses, and
    only open parentheses count toward ``NESTING_LIMIT``.  Token positions
    are found only for an error.
    """
    toks = _TOKEN_RE.findall(text)
    toks.append("")   # end of input
    # ``ops`` holds the pending binary operators as their ``_BINARY`` entries,
    # their left operands in ``lefts``, and per open parenthesis a (0, the
    # prefix operators before it) entry, so index 0 is a strength and index 1
    # what an entry builds or restores; ``wraps`` are the prefix operators of
    # the operand being read.
    ops, lefts, wraps = [], [], []
    leaves = {"F": BOT, "T": TOP}   # and each atom, built once per parse
    depth, i = 0, -1   # i: the index of the token in hand
    while True:
        i += 1
        tok = toks[i]
        if tok in _PREFIX:
            wraps.append(_PREFIX[tok])
            continue
        if tok == "(":
            if depth == NESTING_LIMIT:
                raise _error(text, i, f"parentheses nested deeper than {NESTING_LIMIT}")
            depth += 1
            ops.append((0, wraps))
            wraps = []
            continue
        f = leaves.get(tok)
        if f is None:
            if not "a" <= tok[:1] <= "z":
                raise _error(text, i,
                             f"unexpected {tok!r}" if tok else "unexpected end of input")
            f = leaves[tok] = Atom(tok)
        while True:   # the operand is read: wrap it, then close parentheses
            if wraps:
                for wrap in reversed(wraps):
                    f = wrap(f)
            i += 1
            tok = toks[i]
            if tok != ")" or not depth:
                break
            while ops[-1][0]:
                f = ops.pop()[1](lefts.pop(), f)
            wraps = ops.pop()[1]
            depth -= 1
        op = _BINARY.get(tok)
        if op is None:
            if not tok and not depth:
                while ops:
                    f = ops.pop()[1](lefts.pop(), f)
                return f
            raise _error(text, i, "unexpected end of input" if not tok else
                         f"expected ')', got {tok!r}" if depth else f"unexpected {tok!r}")
        builds = op[2]
        while ops and ops[-1][0] >= builds:
            f = ops.pop()[1](lefts.pop(), f)
        if op[1] is Rhd and ops and ops[-1][1] is Rhd:
            raise _error(text, i, "|> is non-associative; parenthesize the chain")
        ops.append(op)
        lefts.append(f)
        if wraps:
            wraps = []


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
