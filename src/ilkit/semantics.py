"""Forcing semantics over finite Veltman models.

The binary modality is read existentially through the per-world relation:
``w`` forces ``a |> b`` when every R-successor of ``w`` forcing ``a`` has an
S_w-successor forcing ``b``.  Extensions are bitmasks computed by one loop
over ``formula.postorder``, so model checking a formula costs one pass over
its distinct subterms, at any depth.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import r_inv_dual_mask, s_inv_mask
from .formula import (Atom, Bottom, Box, Formula, Implies, Rhd, atoms,
                      enumerate_formulas, postorder)
from .frames import Frame, Model, WorldSet, bits

VALUATION_BITS_LIMIT = 20


# Extension mask of a node from its subterms' masks ``v``; atoms read the model.
_FORCING = {
    Bottom: lambda fr, v, g: 0,
    Implies: lambda fr, v, g: (fr.full_mask & ~v[g.lhs]) | v[g.rhs],
    Box: lambda fr, v, g: r_inv_dual_mask(fr, v[g.body]),
    Rhd: lambda fr, v, g: s_inv_mask(fr, v[g.lhs], v[g.rhs]),
}


def _fill(m: Model, nodes, masks: dict) -> None:
    """Add to ``masks`` the extension of each node (children first) it lacks."""
    for g in nodes:
        if g not in masks:
            masks[g] = (m.ev_mask(g.name) if isinstance(g, Atom)
                        else _FORCING[type(g)](m.frame, masks, g))


def extension(m: Model, f: Formula, cache=None) -> WorldSet:
    """The set of worlds forcing ``f``; ``cache`` (formula -> mask) may be
    shared by calls on the same model."""
    if cache is None:
        cache = {}
    _fill(m, postorder(f, lambda g: g not in cache), cache)
    return WorldSet(m.frame.n, cache[f])


def force(m: Model, w: int, f: Formula, cache=None) -> bool:
    return w in extension(m, f, cache)


def model_valid(m: Model, f: Formula) -> bool:
    return extension(m, f).mask == m.frame.full_mask


@dataclass(frozen=True)
class FrameVerdict:
    valid: bool
    ev: dict | None = None
    world: int | None = None

    def __bool__(self):
        return self.valid


def frame_valid(fr: Frame, f: Formula, bits_limit=VALUATION_BITS_LIMIT) -> FrameVerdict:
    """Validity of ``f`` on the frame: quantify over all valuations.

    Valuations are swept as integers whose bits lay out the atom masks
    atom-major, world-minor (sorted atoms), so the reported counterexample
    is the one with the smallest such integer, then the smallest world.
    """
    names = sorted(atoms(f))
    n = fr.n
    full = fr.full_mask
    bits = len(names) * n
    if bits > bits_limit:
        raise ValueError(
            f"refusing to sweep 2^{bits} valuations (limit 2^{bits_limit})")
    nodes = list(postorder(f))
    leaves = [Atom(name) for name in names]
    blank = Model(fr)
    for vid in range(1 << bits):
        masks = {a: vid >> i * n & full for i, a in enumerate(leaves)}
        _fill(blank, nodes, masks)
        if masks[f] != full:
            world = min(w for w in range(n) if not masks[f] >> w & 1)
            return FrameVerdict(False, {a.name: WorldSet(n, masks[a])
                                        for a in leaves}, world)
    return FrameVerdict(True)


@dataclass(frozen=True)
class BisimVerdict:
    ok: bool
    pair: tuple | None = None
    clause: str | None = None   # "atoms" | "forth" | "back"
    witness: tuple | None = None

    def __bool__(self):
        return self.ok


def _zigzag_ok(ml, wl, ul, mr, wr, z_fwd):
    """One direction of the inner clause: choose a partner for ul among the
    R-successors of wr such that every S-successor on the right is matched
    by an S-successor on the left."""
    frl, frr = ml.frame, mr.frame
    for ur in range(frr.n):
        if not frr.r_succ[wr] >> ur & 1 or ur not in z_fwd.get(ul, ()):
            continue
        good = True
        for vr in range(frr.n):
            if not frr.s_succ[wr][ur] >> vr & 1:
                continue
            if not any(frl.s_succ[wl][ul] >> vl & 1 and vr in z_fwd.get(vl, ())
                       for vl in range(frl.n)):
                good = False
                break
        if good:
            return True
    return False


def check_bisim(ml: Model, mr: Model, z) -> BisimVerdict:
    """Check that the pair set ``z`` is a bisimulation between the models.

    Reports the first failing pair with the broken clause: ``atoms`` (the
    two worlds disagree on some atom), ``forth`` (an R-successor on the left
    has no matching successor on the right whose S-successors can all be
    pulled back), or ``back`` (the mirror image).  The witness is the
    orphaned successor.
    """
    pairs = sorted(set(z))
    z_fwd = {}
    z_bwd = {}
    for wl, wr in pairs:
        z_fwd.setdefault(wl, set()).add(wr)
        z_bwd.setdefault(wr, set()).add(wl)
    names = sorted(set(ml.ev) | set(mr.ev))
    for wl, wr in pairs:
        for name in names:
            if (wl in ml.ev_set(name)) != (wr in mr.ev_set(name)):
                return BisimVerdict(False, (wl, wr), "atoms", (name,))
        for ul in bits(ml.frame.r_succ[wl]):
            if not _zigzag_ok(ml, wl, ul, mr, wr, z_fwd):
                return BisimVerdict(False, (wl, wr), "forth", (ul,))
        for ur in bits(mr.frame.r_succ[wr]):
            if not _zigzag_ok(mr, wr, ur, ml, wl, z_bwd):
                return BisimVerdict(False, (wl, wr), "back", (ur,))
    return BisimVerdict(True)


def max_bisim(ml: Model, mr: Model) -> frozenset:
    """The largest bisimulation between the models (greatest fixpoint)."""
    names = sorted(set(ml.ev) | set(mr.ev))
    pairs = set()
    for wl in range(ml.frame.n):
        for wr in range(mr.frame.n):
            if all((wl in ml.ev_set(a)) == (wr in mr.ev_set(a)) for a in names):
                pairs.add((wl, wr))
    while True:
        z_fwd = {}
        z_bwd = {}
        for wl, wr in pairs:
            z_fwd.setdefault(wl, set()).add(wr)
            z_bwd.setdefault(wr, set()).add(wl)
        keep = set()
        for wl, wr in pairs:
            ok = all(_zigzag_ok(ml, wl, ul, mr, wr, z_fwd)
                     for ul in bits(ml.frame.r_succ[wl]))
            ok = ok and all(_zigzag_ok(mr, wr, ur, ml, wl, z_bwd)
                            for ur in bits(mr.frame.r_succ[wr]))
            if ok:
                keep.add((wl, wr))
        if keep == pairs:
            return frozenset(pairs)
        pairs = keep


def equiv_up_to(ml: Model, wl: int, mr: Model, wr: int, depth: int,
                pool=None, size_bound: int = 3):
    """First formula within the bounds telling the two points apart, or None.

    ``pool`` defaults to the atoms named by either model.
    """
    if pool is None:
        pool = set(ml.ev) | set(mr.ev)
    cl, cr = {}, {}
    # the enumeration yields every formula after its subformulas
    for f in enumerate_formulas(pool, depth, size_bound):
        _fill(ml, (f,), cl)
        _fill(mr, (f,), cr)
        if cl[f] >> wl & 1 != cr[f] >> wr & 1:
            return f
    return None
