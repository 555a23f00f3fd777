"""The set-operator layer: inverse-image operators and the translation.

Formulas translate to terms of a concrete set algebra over a frame's world
set.  ``r_inv`` is the usual diamond preimage, ``r_inv_dual`` its box dual,
and ``s_inv`` the binary operator matching the ``|>`` forcing clause:
``s_inv(X, Y)`` holds the worlds ``w`` such that every R-successor of ``w``
inside ``X`` has an S_w-successor inside ``Y``.  A formula is forced
exactly on the evaluation of its translation.  Forcing (``semantics``)
evaluates through the same mask kernels defined here; the independent
reference for both routes is the naive evaluator in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formula import Atom, Bottom, Box, Formula, Implies, Rhd, atoms
from .frames import Frame, Model, WorldSet


class SetTerm:
    __slots__ = ()

    def __str__(self):
        return term_to_str(self)


@dataclass(frozen=True, slots=True)
class Var(SetTerm):
    name: str


@dataclass(frozen=True, slots=True)
class Empty(SetTerm):
    pass


@dataclass(frozen=True, slots=True)
class Full(SetTerm):
    pass


@dataclass(frozen=True, slots=True)
class Complement(SetTerm):
    arg: SetTerm


@dataclass(frozen=True, slots=True)
class Union(SetTerm):
    lhs: SetTerm
    rhs: SetTerm


@dataclass(frozen=True, slots=True)
class Intersection(SetTerm):
    lhs: SetTerm
    rhs: SetTerm


@dataclass(frozen=True, slots=True)
class BoxOp(SetTerm):
    arg: SetTerm


@dataclass(frozen=True, slots=True)
class DiaOp(SetTerm):
    arg: SetTerm


@dataclass(frozen=True, slots=True)
class SOp(SetTerm):
    lhs: SetTerm
    rhs: SetTerm


def r_inv_mask(fr: Frame, xmask: int) -> int:
    out = 0
    for w in range(fr.n):
        if fr.r_succ[w] & xmask:
            out |= 1 << w
    return out


def r_inv_dual_mask(fr: Frame, ymask: int) -> int:
    out = 0
    for w in range(fr.n):
        if fr.r_succ[w] & ~ymask == 0:
            out |= 1 << w
    return out


def s_inv_mask(fr: Frame, xmask: int, ymask: int) -> int:
    out = 0
    for w in range(fr.n):
        hits = fr.r_succ[w] & xmask
        ok = True
        u = 0
        while hits:
            if hits & 1 and fr.s_succ[w][u] & ymask == 0:
                ok = False
                break
            hits >>= 1
            u += 1
        if ok:
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


def translate(f: Formula) -> SetTerm:
    """Structural translation into the set algebra.

    Falsum becomes the empty set, an atom its set variable, implication the
    union of the complemented antecedent with the consequent, box the dual
    preimage, and ``|>`` the binary operator.
    """
    if isinstance(f, Bottom):
        return Empty()
    if isinstance(f, Atom):
        return Var(f.name)
    if isinstance(f, Implies):
        return Union(Complement(translate(f.lhs)), translate(f.rhs))
    if isinstance(f, Box):
        return BoxOp(translate(f.body))
    if isinstance(f, Rhd):
        return SOp(translate(f.lhs), translate(f.rhs))
    raise TypeError(f"not a formula node: {f!r}")


def eval_term(fr: Frame, env: dict, t: SetTerm, cache=None) -> WorldSet:
    """Evaluate a set term under a valuation of its variables."""
    if cache is None:
        cache = {}
    return WorldSet(fr.n, _eval_mask(fr, env, t, cache))


def _eval_mask(fr, env, t, cache):
    got = cache.get(t)
    if got is not None:
        return got
    if isinstance(t, Var):
        if t.name not in env:
            raise ValueError(f"unbound set variable {t.name!r}")
        ws = env[t.name]
        mask = ws.mask if isinstance(ws, WorldSet) else int(ws)
    elif isinstance(t, Empty):
        mask = 0
    elif isinstance(t, Full):
        mask = fr.full_mask
    elif isinstance(t, Complement):
        mask = fr.full_mask & ~_eval_mask(fr, env, t.arg, cache)
    elif isinstance(t, Union):
        mask = _eval_mask(fr, env, t.lhs, cache) | _eval_mask(fr, env, t.rhs, cache)
    elif isinstance(t, Intersection):
        mask = _eval_mask(fr, env, t.lhs, cache) & _eval_mask(fr, env, t.rhs, cache)
    elif isinstance(t, BoxOp):
        mask = r_inv_dual_mask(fr, _eval_mask(fr, env, t.arg, cache))
    elif isinstance(t, DiaOp):
        mask = r_inv_mask(fr, _eval_mask(fr, env, t.arg, cache))
    elif isinstance(t, SOp):
        mask = s_inv_mask(fr, _eval_mask(fr, env, t.lhs, cache),
                          _eval_mask(fr, env, t.rhs, cache))
    else:
        raise TypeError(f"not a set term: {t!r}")
    cache[t] = mask
    return mask


def agreement(m: Model, f: Formula) -> bool:
    """Does the translated term evaluate to the forcing extension?"""
    from .semantics import extension

    env = {name: ws for name, ws in m.ev.items()}
    for name in atoms(f):
        env.setdefault(name, WorldSet.empty(m.frame.n))
    return eval_term(m.frame, env, translate(f)) == extension(m, f)


def term_to_str(t: SetTerm) -> str:
    if isinstance(t, Var):
        return f"A_{t.name}"
    if isinstance(t, Empty):
        return "empty"
    if isinstance(t, Full):
        return "W"
    if isinstance(t, Complement):
        return f"comp({term_to_str(t.arg)})"
    if isinstance(t, Union):
        return f"({term_to_str(t.lhs)} | {term_to_str(t.rhs)})"
    if isinstance(t, Intersection):
        return f"({term_to_str(t.lhs)} & {term_to_str(t.rhs)})"
    if isinstance(t, BoxOp):
        return f"Rhat_inv({term_to_str(t.arg)})"
    if isinstance(t, DiaOp):
        return f"R_inv({term_to_str(t.arg)})"
    if isinstance(t, SOp):
        return f"S_inv({term_to_str(t.lhs)}, {term_to_str(t.rhs)})"
    raise TypeError(f"not a set term: {t!r}")
