"""Forcing semantics over finite Veltman models.

The binary modality is read existentially through the per-world relation:
``w`` forces ``a |> b`` when every R-successor of ``w`` forcing ``a`` has an
S_w-successor forcing ``b``.  Extensions are bitmasks computed by one loop
over ``formula.postorder``, so model checking a formula costs one pass over
its distinct subterms, at any depth.

Frame validity extends the bitmask from worlds to (valuation x world):
``frame_valid`` sweeps the valuations in ascending blocks of
``2**SWEEP_BLOCK_BITS``, giving each node one Python int per world whose bit
``j`` is its truth under the block's ``j``-th valuation.  Atoms are fixed
truth-table columns (or constants, for valuation bits above the block), and
each connective is a few big-int operations per world, so one pass over the
formula decides a whole block.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import r_inv_dual_mask, s_inv_mask
from .formula import (Atom, Bottom, Box, Formula, Implies, Rhd,
                      enumerate_formulas, postorder, truth_columns)
from .frames import Frame, Model, WorldSet, bits

VALUATION_BITS_LIMIT = 20
SWEEP_BLOCK_BITS = 12


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


def _sweep_block(nodes, atom_cols: dict, succ: list, ones: int) -> dict:
    """Per-world truth columns of each node over one block of valuations.

    ``succ[w]`` lists the R-successors ``u`` of ``w``, each with its
    S_w-successors; bit ``j`` of a column is the truth under the block's
    ``j``-th valuation, and ``ones`` has a bit for every valuation.
    """
    v = {}
    for g in nodes:
        kind = type(g)
        if kind is Atom:
            col = atom_cols[g.name]
        elif kind is Bottom:
            col = [0] * len(succ)
        elif kind is Implies:
            col = [(a ^ ones) | b for a, b in zip(v[g.lhs], v[g.rhs])]
        elif kind is Box:
            a = v[g.body]
            col = []
            for row in succ:
                meet = ones
                for u, _ in row:
                    meet &= a[u]
                col.append(meet)
        else:
            a, b = v[g.lhs], v[g.rhs]
            col = []
            for row in succ:
                meet = ones
                for u, s_row in row:
                    reach = 0
                    for x in s_row:
                        reach |= b[x]
                    meet &= (a[u] ^ ones) | reach
                col.append(meet)
        v[g] = col
    return v


def frame_valid(fr: Frame, f: Formula, bits_limit=VALUATION_BITS_LIMIT) -> FrameVerdict:
    """Validity of ``f`` on the frame: quantify over all valuations.

    Valuations are numbered by integers whose bits lay out the atom masks
    atom-major, world-minor (sorted atoms).  They are swept in ascending
    blocks of ``2**SWEEP_BLOCK_BITS``, each block in one bit-parallel pass
    over the formula; the first refuting block ends the sweep.  The
    reported counterexample is the valuation with the smallest number,
    then the smallest world.
    """
    nodes = list(postorder(f))
    names = sorted({g.name for g in nodes if type(g) is Atom})
    n = fr.n
    nbits = len(names) * n
    if nbits > bits_limit:
        raise ValueError(
            f"refusing to sweep 2^{nbits} valuations (limit 2^{bits_limit})")
    width = min(nbits, SWEEP_BLOCK_BITS)
    ones = (1 << (1 << width)) - 1
    low = truth_columns(width)
    succ = [[(u, tuple(bits(fr.s_succ[w][u]))) for u in bits(fr.r_succ[w])]
            for w in range(n)]
    for base in range(0, 1 << nbits, 1 << width):
        # valuation bits below the block width vary inside the block
        cols = [low[t] if t < width else ones if base >> t & 1 else 0
                for t in range(nbits)]
        root = _sweep_block(nodes, {name: cols[i * n:(i + 1) * n]
                                    for i, name in enumerate(names)},
                            succ, ones)[f]
        fail = 0
        for col in root:
            fail |= col ^ ones
        if fail:
            j = (fail & -fail).bit_length() - 1
            vid = base + j
            world = next(w for w in range(n) if not root[w] >> j & 1)
            return FrameVerdict(False, {name: WorldSet(n, vid >> i * n & fr.full_mask)
                                        for i, name in enumerate(names)}, world)
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


def first_apart(ml: Model, mr: Model, pairs, depth: int, pool=None,
                size_bound: int = 3):
    """First ``(pair, formula)`` within the bounds telling a pair of points
    apart, or None.

    The formulas over ``pool`` (default: the atoms named by either model)
    are evaluated once on each model; the search takes the pairs in order,
    and for each pair the formulas in enumeration order.
    """
    if pool is None:
        pool = set(ml.ev) | set(mr.ev)
    formulas = list(enumerate_formulas(pool, depth, size_bound))
    cl, cr = {}, {}
    # the enumeration yields every formula after its subformulas
    _fill(ml, formulas, cl)
    _fill(mr, formulas, cr)
    for wl, wr in pairs:
        for f in formulas:
            if cl[f] >> wl & 1 != cr[f] >> wr & 1:
                return (wl, wr), f
    return None


def equiv_up_to(ml: Model, wl: int, mr: Model, wr: int, depth: int,
                pool=None, size_bound: int = 3):
    """First formula within the bounds telling the two points apart, or None.

    ``pool`` defaults to the atoms named by either model.
    """
    found = first_apart(ml, mr, [(wl, wr)], depth, pool, size_bound)
    return found[1] if found else None
