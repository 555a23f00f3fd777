"""The set-operator layer: inverse-image operators and the translation.

Formulas translate to terms of a concrete set algebra over a frame's world
set.  ``r_inv`` is the usual diamond preimage, ``r_inv_dual`` its box dual,
and ``s_inv`` the binary operator matching the ``|>`` forcing clause:
``s_inv(X, Y)`` holds the worlds ``w`` such that every R-successor of ``w``
inside ``X`` has an S_w-successor inside ``Y``.  A formula is forced
exactly on the evaluation of its translation.  Set terms are interned
nodes like formulas; ``translate`` and ``eval_term`` are each one loop over
``formula.postorder``, and ``term_to_str`` streams through one work stack.
Forcing (``semantics``) evaluates through the same mask kernels defined
here; the independent reference for both routes is the naive evaluator in
``tests/oracles.py``.  ``eval_term`` stays a per-valuation evaluator on
purpose: the translation-agreement check holds it against forcing.  Term
validity over all valuations goes through ``semantics.frame_valid``, whose
bit-parallel sweep table covers set terms and formulas alike.
"""

from __future__ import annotations

from .formula import (Atom, Bottom, Box, Formula, Implies, Node, Rhd, _render,
                      atoms, postorder)
from .frames import Frame, Model, WorldSet


class SetTerm(Node):
    """Base class for set-term nodes; ``str`` and ``repr`` are ``term_to_str``."""

    __slots__ = ()

    def __repr__(self):
        return term_to_str(self)


class Var(SetTerm):
    __slots__ = ("name",)


class Empty(SetTerm):
    __slots__ = ()


class Full(SetTerm):
    __slots__ = ()


class Complement(SetTerm):
    __slots__ = ("arg",)


class Union(SetTerm):
    __slots__ = ("lhs", "rhs")


class Intersection(SetTerm):
    __slots__ = ("lhs", "rhs")


class BoxOp(SetTerm):
    __slots__ = ("arg",)


class DiaOp(SetTerm):
    __slots__ = ("arg",)


class SOp(SetTerm):
    __slots__ = ("lhs", "rhs")


def r_inv_mask(fr: Frame, xmask: int) -> int:
    out = 0
    for w, row in fr.r_rows[0]:
        if row & xmask:
            out |= 1 << w
    return out


def r_inv_dual_mask(fr: Frame, ymask: int) -> int:
    rows, out = fr.r_rows   # R-leaves hold vacuously
    for w, row in rows:
        if not row & ~ymask:
            out |= 1 << w
    return out


def s_inv_mask(fr: Frame, xmask: int, ymask: int) -> int:
    rows, out = fr.r_rows   # R-leaves hold vacuously
    for w, row in rows:
        hits = row & xmask
        while hits:   # one step per set bit, not per position
            low = hits & -hits
            if fr.s_succ[w][low.bit_length() - 1] & ymask == 0:
                break
            hits ^= low
        else:
            out |= 1 << w
    return out


def r_inv(fr: Frame, x: WorldSet) -> WorldSet:
    """Worlds with an R-successor in x."""
    return WorldSet(fr.n, r_inv_mask(fr, x.mask))


def r_inv_dual(fr: Frame, y: WorldSet) -> WorldSet:
    """Worlds whose every R-successor lies in y."""
    return WorldSet(fr.n, r_inv_dual_mask(fr, y.mask))


def s_inv(fr: Frame, x: WorldSet, y: WorldSet) -> WorldSet:
    """Worlds whose R-successors inside x all have an S_w-successor in y."""
    return WorldSet(fr.n, s_inv_mask(fr, x.mask, y.mask))


# The translation relabels these node classes, children in order.
_TERM_OF = {Bottom: Empty, Box: BoxOp, Rhd: SOp}


def translate(f: Formula) -> SetTerm:
    """Structural translation into the set algebra.

    Falsum becomes the empty set, an atom its set variable, implication the
    union of the complemented antecedent with the consequent, box the dual
    preimage, and ``|>`` the binary operator.
    """
    terms = {}
    for g in postorder(f):
        if isinstance(g, Atom):
            terms[g] = Var(g.name)
        elif isinstance(g, Implies):
            terms[g] = Union(Complement(terms[g.lhs]), terms[g.rhs])
        else:
            terms[g] = _TERM_OF[type(g)](*(terms[k] for k in g.kids))
    return terms[f]


# Mask of a set term from its subterms' masks ``v``; variables read the valuation.
_SET_OPS = {
    Empty: lambda fr, v, u: 0,
    Full: lambda fr, v, u: fr.full_mask,
    Complement: lambda fr, v, u: fr.full_mask & ~v[u.arg],
    Union: lambda fr, v, u: v[u.lhs] | v[u.rhs],
    Intersection: lambda fr, v, u: v[u.lhs] & v[u.rhs],
    BoxOp: lambda fr, v, u: r_inv_dual_mask(fr, v[u.arg]),
    DiaOp: lambda fr, v, u: r_inv_mask(fr, v[u.arg]),
    SOp: lambda fr, v, u: s_inv_mask(fr, v[u.lhs], v[u.rhs]),
}


def eval_term(fr: Frame, env: dict, t: SetTerm, cache=None) -> WorldSet:
    """Evaluate a set term under a valuation of its variables; ``cache``
    (term -> mask) may be shared by calls with the same frame and valuation."""
    if cache is None:
        cache = {}
    for u in () if t in cache else postorder(t):
        if u in cache:
            continue
        if isinstance(u, Var):
            if u.name not in env:
                raise ValueError(f"unbound set variable {u.name!r}")
            ws = env[u.name]
            cache[u] = ws.mask if isinstance(ws, WorldSet) else int(ws)
        else:
            cache[u] = _SET_OPS[type(u)](fr, cache, u)
    return WorldSet(fr.n, cache[t])


def agreement(m: Model, f: Formula) -> bool:
    """Does the translated term evaluate to the forcing extension?"""
    from .semantics import extension

    env = {name: ws for name, ws in m.ev.items()}
    for name in atoms(f):
        env.setdefault(name, WorldSet.empty(m.frame.n))
    return eval_term(m.frame, env, translate(f)) == extension(m, f)


# Text around the children of each set term but variables.
_TERM_TEXT = {Empty: ("empty",), Full: ("W",),
              Complement: ("comp(", ")"), Union: ("(", " | ", ")"),
              Intersection: ("(", " & ", ")"), BoxOp: ("Rhat_inv(", ")"),
              DiaOp: ("R_inv(", ")"), SOp: ("S_inv(", ", ", ")")}


def term_to_str(t: SetTerm) -> str:
    def pieces(u):
        if isinstance(u, Var):
            return [f"A_{u.name}"]
        text = _TERM_TEXT[type(u)]
        out = [text[0]]
        for kid, after in zip(u.kids, text[1:]):
            out += [kid, after]
        return out

    return _render(t, pieces)
