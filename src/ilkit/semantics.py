"""Forcing semantics over finite Veltman models.

The binary modality is read existentially through the per-world relation:
``w`` forces ``a |> b`` when every R-successor of ``w`` forcing ``a`` has an
S_w-successor forcing ``b``.  Extensions are bitmasks computed by one loop
over ``formula.postorder``, so model checking a formula costs one pass over
its distinct subterms, at any depth.

Frame validity extends the bitmask from worlds to (valuation x world):
``frame_valid`` sweeps the valuations in ascending blocks of up to
``2**SWEEP_BLOCK_BITS``, giving each node one Python int per world whose bit
``j`` is its truth under the block's ``j``-th valuation.  Atoms are fixed
truth-table columns (or constants, for valuation bits above the block), and
each connective is a few big-int operations per world, so one pass over the
formula decides a whole block.  A block narrows only when its columns
would outgrow ``2**SWEEP_MEMORY_BITS`` bits; then each check runs as soon as
its nodes exist, each column is dropped after its last reader, and the width
follows the peak of live columns.  Formulas and the set terms of ``algebra``
share one sweep table, ``_COLUMN_OPS``, so the same sweep decides whether a
term denotes every world under every valuation of its set variables.
One block loop, ``_sweep``, gives each block's failing checks to
``frame_valid`` and ``sweep_apart``, which take the least, and to
``frame_refuted``, which decides a whole pool in one sweep.

Bisimulations are checked on partner bitmasks: the zigzag clause costs one
OR per S-successor of a successor, once per call, and one subset test per
candidate partner.  Pairs outside the models are refused.
"""

from __future__ import annotations

from functools import reduce
from operator import or_

from .algebra import (_TERM_OF, Complement, DiaOp, Full, Intersection, Union,
                      Var, r_inv_dual_mask, s_inv_mask)
from .formula import (Atom, Bottom, Box, Formula, Implies, Node, Rhd,
                      enumerate_formulas, postorder, truth_columns)
from .frames import Frame, Model, WorldSet, bits, disjoint_union
from .limits import VALUATION_BITS_LIMIT
from .records import Frozen

SWEEP_BLOCK_BITS = 12
SWEEP_MEMORY_BITS = 23   # a block's columns hold at most 2**23 bits (1 MiB)
_FULL = Full()


# Extension mask of a node from its subterms' masks ``v``; atoms read the model.
_FORCING = {
    Bottom: lambda fr, v, g: 0,
    Implies: lambda fr, v, g: (fr.full_mask & ~v[g.lhs]) | v[g.rhs],
    Box: lambda fr, v, g: r_inv_dual_mask(fr, v[g.body]),
    Rhd: lambda fr, v, g: s_inv_mask(fr, v[g.lhs], v[g.rhs]),
}


def extension(m: Model, f: Formula, cache=None) -> WorldSet:
    """The set of worlds forcing ``f``; ``cache`` (formula -> mask) may be
    shared by calls on the same model."""
    if cache is None:
        cache = {}
    for g in () if f in cache else postorder(f):
        if g not in cache:
            cache[g] = (m.ev_mask(g.name) if isinstance(g, Atom)
                        else _FORCING[type(g)](m.frame, cache, g))
    return WorldSet(m.frame.n, cache[f])


def force(m: Model, w: int, f: Formula, cache=None) -> bool:
    return w in extension(m, f, cache)


class FrameVerdict(Frozen):
    _fields = ("valid", "ev", "world")

    def __init__(self, valid: bool, ev: dict | None = None, world: int | None = None):
        self._fill(valid, ev, world)

    def __bool__(self):
        return self.valid


def _meet(succ, ones, a):
    """Box and ``Rhat_inv``: per world, the AND of ``a`` over its R-successors."""
    col = []
    for row in succ:
        meet = ones
        for u, _ in row:
            meet &= a[u]
        col.append(meet)
    return col


def _s_meet(succ, ones, a, b):
    """``|>`` and ``S_inv``: per world w, the AND over R-successors u of
    ``a[u]`` implying the OR of ``b`` over S_w[u]."""
    col = []
    for row in succ:
        meet = ones
        for u, s_row in row:
            reach = 0
            for x in s_row:
                reach |= b[x]
            meet &= (a[u] ^ ones) | reach
        col.append(meet)
    return col


# Columns of a node from the block's ``succ`` and ``ones`` and the columns of
# its subterms, for formulas and set terms alike; ``R_inv`` is the dual of
# ``Rhat_inv``.
_COLUMN_OPS = {
    Bottom: lambda succ, ones: [0] * len(succ),
    Full: lambda succ, ones: [ones] * len(succ),
    Implies: lambda succ, ones, a, b: [(x ^ ones) | y for x, y in zip(a, b)],
    Complement: lambda succ, ones, a: [x ^ ones for x in a],
    Union: lambda succ, ones, a, b: [x | y for x, y in zip(a, b)],
    Intersection: lambda succ, ones, a, b: [x & y for x, y in zip(a, b)],
    Box: _meet,
    DiaOp: lambda succ, ones, a: [x ^ ones for x in
                                  _meet(succ, ones, [y ^ ones for y in a])],
    Rhd: _s_meet,
}
_COLUMN_OPS.update({t: _COLUMN_OPS[f] for f, t in _TERM_OF.items()})


def _sweep_block(steps, v: dict, succ, ones: int):
    """Sweep one block of valuations: per step ``(g, op, after)``, add to
    ``v`` (which holds the leaves' columns) node g's per-world truth
    columns, then, if ``after`` is ``(checks, dead)``, run those checks
    ``(k, (g, a, h, b))`` and drop the dead columns.  Bit ``j`` of a column
    is the truth under the block's ``j``-th valuation; ``succ[w]`` lists
    each R-successor u of w with its S_w-successors, and ``ones`` has a bit
    for every valuation.  Returns ``(j, k)`` for each failing check k, j
    its least failing valuation."""
    fails = []
    for g, op, after in steps:
        if op:
            v[g] = op(succ, ones, *[v[x] for x in g.kids])
        if after:
            for k, (x, a, y, b) in after[0]:
                if fail := v[x][a] ^ v[y][b]:
                    fails.append(((fail & -fail).bit_length() - 1, k))
            for x in after[1]:
                del v[x]
    return fails


def _sweep(nodes, succ, n: int, layout, checks, bits_limit=VALUATION_BITS_LIMIT):
    """Per block of valuations of the leaves of ``nodes`` on ``n`` worlds,
    ascending: the leaves sorted by name, the block's first valuation and
    the ``(j, k)`` of ``_sweep_block`` for the checks ``(g, a, h, b)`` (node
    g at world a differs from node h at world b).  Blocks are as wide as
    ``SWEEP_BLOCK_BITS`` and the live columns under ``SWEEP_MEMORY_BITS``
    allow; world w of the frame ``succ`` takes the leaves of world
    ``layout[w]``.  Refuses, before any column exists, ``bits_limit``
    outside ``0..VALUATION_BITS_LIMIT`` and over ``2**bits_limit`` valuations."""
    if not 0 <= bits_limit <= VALUATION_BITS_LIMIT:
        raise ValueError(
            f"bits limit {bits_limit} is outside 0..{VALUATION_BITS_LIMIT}")
    leaves = sorted((g for g in nodes if type(g) in (Atom, Var)), key=lambda g: g.name)
    nbits = len(leaves) * n
    if nbits > bits_limit:
        raise ValueError(
            f"refusing to sweep 2^{nbits} valuations (limit 2^{bits_limit})")
    ops = [_COLUMN_OPS.get(type(g)) for g in nodes]
    cap = lambda live: SWEEP_MEMORY_BITS - (live * len(layout) - 1).bit_length()
    # unplanned, every column lives through the block and the checks run last
    after, peak = [None] * (len(nodes) - 1) + [(list(enumerate(checks)), ())], len(nodes)
    if cap(peak) < min(nbits, SWEEP_BLOCK_BITS):
        # the plan: each check runs once its nodes exist, each column goes after its last reader
        at = {g: i for i, g in enumerate(nodes)}
        last = {x: i for i, g in enumerate(nodes) for x in (*g.kids, g)}
        ready, dead, pair_at = [[] for _ in nodes], [[] for _ in nodes], {}
        for k, check in enumerate(checks):
            g, _, h, _ = check
            i = pair_at.get((g, h))
            if i is None:   # once per distinct (g, h): pencil checks all have g is h
                i = pair_at[g, h] = max(at[g], at[h])
                last[g], last[h] = max(last[g], i), max(last[h], i)
            ready[i].append((k, check))
        for x, i in last.items():
            dead[i].append(x)
        live = peak = ops.count(None)   # the leaves' columns live from the start
        for op, gone in zip(ops, dead):
            peak = max(peak, live := live + (op is not None))
            live -= len(gone)
        after = list(zip(ready, dead))
    width = max(0, min(nbits, SWEEP_BLOCK_BITS, cap(peak)))
    ones = (1 << (1 << width)) - 1
    low = truth_columns(width)
    for base in range(0, 1 << nbits, 1 << width):
        # valuation bits below the block width vary inside the block
        cols = [low[t] if t < width else ones if base >> t & 1 else 0
                for t in range(nbits)]
        v = {g: [cols[i * n + w] for w in layout] for i, g in enumerate(leaves)}
        yield leaves, base, _sweep_block(zip(nodes, ops, after), v, succ, ones)


def _first_failure(nodes, succ, n: int, layout, checks, bits_limit=VALUATION_BITS_LIMIT):
    """The least valuation (leaf name -> world set) under which a check of
    ``_sweep`` fails, with its first failing check; or None."""
    for leaves, base, fails in _sweep(nodes, succ, n, layout, checks, bits_limit):
        if fails:
            j, k = min(fails)
            return ({g.name: WorldSet(n, base + j >> i * n & (1 << n) - 1)
                     for i, g in enumerate(leaves)}, checks[k])
    return None


def frame_valid(fr: Frame, f: Node, bits_limit=VALUATION_BITS_LIMIT) -> FrameVerdict:
    """Validity of the formula or set term ``f`` on the frame: quantify over
    all valuations of its atoms or set variables (a term is valid when it
    denotes every world).

    Valuations are numbered by integers whose bits lay out the variable
    masks variable-major, world-minor (sorted names), and swept in
    ascending blocks, each in one bit-parallel pass over ``f``.  The
    counterexample is the valuation with the smallest number, then the
    smallest world.  Refuses ``bits_limit`` outside
    ``0..VALUATION_BITS_LIMIT`` and more than ``2**bits_limit`` valuations.
    """
    # valid: at every world, the same column as the term denoting every world
    found = _first_failure([*postorder(f), _FULL], fr.succ_lists, fr.n, range(fr.n),
                           [(f, w, _FULL, w) for w in range(fr.n)], bits_limit)
    return FrameVerdict(True) if found is None else FrameVerdict(False, found[0], found[1][1])


def frame_refuted(fr: Frame, nodes) -> set[int]:
    """The indices of the formulas or set terms in ``nodes`` that some
    valuation refutes on the frame, as ``frame_valid`` would, by one sweep
    of their distinct subterms until every member has failed.  Refuses
    more than ``2**VALUATION_BITS_LIMIT`` valuations of the pool's atoms."""
    n = fr.n
    walk = dict.fromkeys(g for f in nodes for g in postorder(f))   # each after its subterms
    refuted = set()
    for *_, fails in _sweep([*walk, _FULL], fr.succ_lists, n, range(n),
                            [(f, w, _FULL, w) for f in nodes for w in range(n)]):
        refuted.update(k // n for _, k in fails)
        if len(refuted) == len(nodes):
            break
    return refuted


def sweep_apart(frl: Frame, frr: Frame, world_map, pairs, formulas):
    """The first ``(valuation, pair, formula)`` telling a pair's points
    apart: the least valuation of the atoms on ``frl`` (numbered as in
    ``frame_valid``), world w of ``frr`` taking those of world
    ``world_map[w]``, then ``pairs`` and ``formulas`` (subformulas first) in
    order; or None.  One sweep covers both frames, ``frr``'s worlds last."""
    n = frl.n
    found = _first_failure(formulas, disjoint_union([frl, frr]).succ_lists, n,
                           [*range(n), *world_map],
                           [(f, wl, f, n + wr) for wl, wr in pairs for f in formulas])
    if found is None:
        return None
    ev, (f, wl, _, wr) = found
    return ev, (wl, wr - n), f


class BisimVerdict(Frozen):
    _fields = ("ok", "pair", "clause", "witness")

    def __init__(self, ok: bool, pair: tuple | None = None,
                 clause: str | None = None, witness: tuple | None = None):
        # clause: "atoms" | "forth" | "back"
        self._fill(ok, pair, clause, witness)

    def __bool__(self):
        return self.ok


def _zigzag_ok(memo, key, s_row, partners, cands, s_other):
    """One direction of the inner clause: some candidate (a set bit of
    ``cands``) has all its S-successors partnered with ones in ``s_row``.
    ``memo`` keeps the partners of ``s_row`` per ``key``, its (w, u)."""
    if (reach := memo.get(key)) is None:
        reach = memo[key] = reduce(or_, [partners[v] for v in bits(s_row)], 0)
    return any(not s_other[x] & ~reach for x in bits(cands))


def _atom_rows(ml: Model, mr: Model):
    """The sorted atom names, and per model each world's mask of them."""
    names = sorted(set(ml.ev) | set(mr.ev))
    return (names, *([sum((m.ev_mask(a) >> w & 1) << i for i, a in enumerate(names))
                      for w in range(m.frame.n)] for m in (ml, mr)))


def _broken(ml: Model, mr: Model, z):
    """Each pair of ``z`` that breaks a clause, in sorted order, with the
    first clause it breaks and its witness.  ``z`` goes into partner masks
    first (``fwd[wl]`` holds wl's partners, ``bwd[wr]`` wr's)."""
    frl, frr = ml.frame, mr.frame
    fwd, bwd = [0] * frl.n, [0] * frr.n
    for wl, wr in z:
        if not (0 <= wl < frl.n and 0 <= wr < frr.n):
            raise ValueError(f"pair ({wl}, {wr}) is outside the models")
        fwd[wl] |= 1 << wr
        bwd[wr] |= 1 << wl
    names, sig_l, sig_r = _atom_rows(ml, mr)
    reach_l, reach_r = {}, {}

    def clause(wl, wr):
        if apart := sig_l[wl] ^ sig_r[wr]:
            return "atoms", (names[(apart & -apart).bit_length() - 1],)
        rl, rr, sl, sr = frl.r_succ[wl], frr.r_succ[wr], frl.s_succ[wl], frr.s_succ[wr]
        for ul in bits(rl):
            if not _zigzag_ok(reach_l, (wl, ul), sl[ul], fwd, rr & fwd[ul], sr):
                return "forth", (ul,)
        for ur in bits(rr):
            if not _zigzag_ok(reach_r, (wr, ur), sr[ur], bwd, rl & bwd[ur], sl):
                return "back", (ur,)

    for wl, row in enumerate(fwd):
        for wr in bits(row):
            if found := clause(wl, wr):
                yield (wl, wr), *found


def check_bisim(ml: Model, mr: Model, z) -> BisimVerdict:
    """Check that the pair set ``z`` is a bisimulation between the models:
    the first failing pair with its broken clause and witness, ``atoms`` (an
    atom the worlds disagree on), ``forth`` (an R-successor on the left that
    no partner answers with all its S-successors pulled back) or ``back``
    (the mirror image).  Raises ValueError if a pair lies outside either
    model."""
    found = next(_broken(ml, mr, z), None)
    return BisimVerdict(False, *found) if found else BisimVerdict(True)


def max_bisim(ml: Model, mr: Model) -> frozenset:
    """The largest bisimulation between the models (greatest fixpoint): from
    the pairs that agree on atoms, drop those breaking a clause until none
    does."""
    _, sig_l, sig_r = _atom_rows(ml, mr)
    pairs = {(wl, wr) for wl, a in enumerate(sig_l)
             for wr, b in enumerate(sig_r) if a == b}
    while drop := {pair for pair, *_ in _broken(ml, mr, pairs)}:
        pairs -= drop
    return frozenset(pairs)


def equiv_up_to(ml: Model, wl: int, mr: Model, wr: int, depth: int,
                pool=None, size_bound: int = 3):
    """First formula within the bounds telling the two points apart, or None;
    ``pool`` defaults to the atoms named by either model."""
    if pool is None:
        pool = set(ml.ev) | set(mr.ev)
    cl, cr = {}, {}   # each formula comes after its subformulas: one node filled per call
    return next((f for f in enumerate_formulas(pool, depth, size_bound)
                 if force(ml, wl, f, cl) != force(mr, wr, f, cr)), None)
