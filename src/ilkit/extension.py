"""Ultrafilter extensions of finite Veltman frames.

An extension world pairs an ultrafilter with the path of filter labels that
reached it: the roots are (f, ()) for every ultrafilter f, and whenever
``assuring(fr, f, l, g)`` holds, (f, sigma) spawns (g, sigma + (l,)).  The
edge relation is the transitive closure of those one-step moves, and the
per-world S relation is generated — inside the successor set of (f, sigma)
— by reflexivity, the edge relation itself, and agreement of labels at
position len(sigma): ``frames.complete`` closes the label-agreement
cliques, given as S seeds, as it closes any frame.  The recursion bottoms
out because a world whose ultrafilter sits at an R-leaf of the base frame
assures nothing, so label paths never outgrow the longest base R-chain.

The construction also covers the classical unary-modality extension as a
baseline: over a finite frame that one is isomorphic to the frame itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .algebra import s_inv_mask
from .filters import (Filter, FrameOps, Ultrafilter, all_proper_filters,
                      all_ultrafilters)
from .formula import TOP, conj, dia
from .frames import Frame, Model, WorldSet, _closure, bits, complete
from .semantics import extension as forcing_extension
from .semantics import force

SATURATION_POOL_LIMIT = 12   # pool formulas: check_saturation forces 2^k conjunctions
LABEL_MEMBER_LIMIT = 8       # filter members: check_label_saturation tabulates 2^k subfamilies


class ResourceLimitError(RuntimeError):
    """The extension would exceed the configured world cap."""


@dataclass(frozen=True, slots=True)
class UEWorld:
    uf: Ultrafilter
    labels: tuple

    def __repr__(self):
        path = ",".join(repr(l) for l in self.labels)
        return f"({self.uf!r},[{path}])"


class UEFrame:
    """Extension frame: the worlds list, their index map, and a plain Frame
    over the indices (so every frame/semantics tool applies directly)."""

    def __init__(self, base, worlds, frame, one_step):
        self.base = base
        self.worlds = list(worlds)
        self.frame = frame
        self.one_step = tuple(one_step)
        self.index = {w: i for i, w in enumerate(self.worlds)}

    def __len__(self):
        return len(self.worlds)


def build_ue(base: Frame, labels=None, max_worlds: int = 100_000) -> UEFrame:
    """Construct the extension of a frame.

    ``labels`` restricts the label alphabet (default: every proper filter).
    Worlds are discovered level by level — all label paths of one length
    before any longer path — parents in index order and, per parent, labels
    by minimum mask, target ultrafilters by witness.  Exceeding
    ``max_worlds`` raises ResourceLimitError rather than truncating.
    The frame is ``complete`` applied to the closed edge relation and, as
    S seeds, the label-agreement cliques inside each successor set.
    """
    if labels is None:
        labels = all_proper_filters(base.n)
    else:
        labels = list(labels)
        for l in labels:
            if not l.is_proper:
                raise ValueError("labels must be proper filters")
    ufs = all_ultrafilters(base)
    worlds = [UEWorld(uf, ()) for uf in ufs]
    index = {w: i for i, w in enumerate(worlds)}
    ops = FrameOps(base)
    # the labels that assure something at each base world, with their rows:
    # an extension world's moves depend on its ultrafilter only
    moves = [[(l, row) for l in labels
              if (row := ops.assured(f.witness, l.min_mask))] for f in ufs]
    one_step = []
    frontier = list(worlds)
    while frontier:
        fresh = []
        for w in frontier:
            wi = index[w]
            for l, row in moves[w.uf.witness]:
                for g in bits(row):
                    child = UEWorld(ufs[g], w.labels + (l,))
                    ci = index.get(child)
                    if ci is None:
                        if len(worlds) >= max_worlds:
                            raise ResourceLimitError(
                                f"extension exceeds {max_worlds} worlds; "
                                "raise the cap or restrict the labels")
                        ci = len(worlds)
                        index[child] = ci
                        worlds.append(child)
                        fresh.append(child)
                    one_step.append((wi, ci))
        frontier = fresh

    n = len(worlds)
    r = [0] * n
    for i, j in one_step:
        r[i] |= 1 << j
    _closure(r, range(n))
    # S seeds: the successors that agree on label k form a clique, and every
    # R-leaf shares one empty row
    leaf = (0,) * n
    seeds = []
    for i, w in enumerate(worlds):
        k = len(w.labels)
        cliques = {}
        for j in bits(r[i]):
            cliques.setdefault(worlds[j].labels[k], []).append(j)
        rows = [0] * n if cliques else leaf
        for clique in cliques.values():
            mask = sum(1 << j for j in clique)
            for j in clique:
                rows[j] = mask
        seeds.append(tuple(rows))
    frame = complete(Frame(n, tuple(r), tuple(seeds)))
    return UEFrame(base, worlds, frame, one_step)


@dataclass
class UEModel:
    ue: UEFrame
    model: Model


def build_ue_model(m: Model, labels=None, max_worlds: int = 100_000) -> UEModel:
    """Extension of a model: a world holds an atom iff the atom's base
    extension belongs to the world's ultrafilter."""
    ue = build_ue(m.frame, labels, max_worlds)
    ev = {name: WorldSet(len(ue), sum(1 << i for i, w in enumerate(ue.worlds)
                                      if w.uf.contains(ws)))
          for name, ws in m.ev.items()}
    return UEModel(ue, Model(ue.frame, ev))


def ue_force(um: UEModel, w, f) -> bool:
    """Forcing inside the extension; ``w`` is a UEWorld or an index."""
    i = um.ue.index[w] if isinstance(w, UEWorld) else w
    return force(um.model, i, f)


@dataclass(frozen=True)
class UEVerdict:
    ok: bool
    detail: tuple | None = None

    def __bool__(self):
        return self.ok


def check_truth_theorem(m: Model, pool, ue_model: UEModel = None) -> UEVerdict:
    """Base and extension agree: world x forces a pool formula exactly when
    every extension world built on the ultrafilter at x does."""
    um = ue_model if ue_model is not None else build_ue_model(m)
    base_cache, ue_cache = {}, {}
    for f in pool:
        base_ext = forcing_extension(m, f, base_cache)
        ue_ext = forcing_extension(um.model, f, ue_cache)
        for i, w in enumerate(um.ue.worlds):
            if (i in ue_ext) != (w.uf.witness in base_ext):
                return UEVerdict(False, (w.uf.witness, w, f))
    return UEVerdict(True)


def check_saturation(um: UEModel, pool) -> UEVerdict:
    """Modal saturation over a finite pool.

    A set of pool formulas is locally possible at a world when, for every
    finite subset, the diamond of its conjunction is forced there; the
    model is saturated when each such set is jointly forced at a single
    successor.  The detail of a failure is (world, offending tuple).
    """
    pool = list(pool)
    if len(pool) > SATURATION_POOL_LIMIT:
        raise ValueError(f"pool of {len(pool)} formulas means "
                         f"2^{len(pool)} subsets; limit is {SATURATION_POOL_LIMIT}")
    model = um.model
    cache = {}
    conj_mask = {}
    dia_mask = {}
    for picked in range(1 << len(pool)):
        chosen = [pool[t] for t in bits(picked)]
        g = reduce(conj, chosen) if chosen else TOP
        conj_mask[picked] = forcing_extension(model, g, cache).mask
        dia_mask[picked] = forcing_extension(model, dia(g), cache).mask
    for i in range(model.frame.n):
        succ = model.frame.r_succ[i]
        for picked in range(1 << len(pool)):
            # possible: the diamond of every subset's conjunction holds at i
            sub = picked
            while sub and dia_mask[sub] >> i & 1:
                sub = (sub - 1) & picked
            if dia_mask[sub] >> i & 1 and succ & conj_mask[picked] == 0:
                sigma = tuple(pool[t] for t in bits(picked))
                return UEVerdict(False, (um.ue.worlds[i], sigma))
    return UEVerdict(True)


def check_label_saturation(fr: Frame) -> UEVerdict:
    """If every finite subfamily of a proper filter label admits an assured
    successor, the whole filter does.  Checked literally: the hypothesis
    ranges over all subfamilies of the filter's member list.  The filters
    up{w} have the most members, 2^(n-1), checked before any is built."""
    most = (1 << fr.n) // 2
    if most > LABEL_MEMBER_LIMIT:
        raise ValueError(f"a {fr.n}-world frame has filters of {most} members; "
                         f"limit is {LABEL_MEMBER_LIMIT}")
    ops = FrameOps(fr)
    for l in all_proper_filters(fr.n):
        members = [ws.mask for ws in l.members()]
        subfamilies = [ops.family_rows([members[t] for t in bits(picked)])
                       for picked in range(1 << len(members))]
        for f in all_ultrafilters(fr):
            hypothesis = all(rows[f.witness] for rows in subfamilies)
            if hypothesis and not ops.assured(f.witness, l.min_mask):
                return UEVerdict(False, (f, l))
    return UEVerdict(True)


def find_assured_successor(fr: Frame, f: Ultrafilter, l: Filter,
                           a: WorldSet, b: WorldSet):
    """Witness for the successor-transfer law.

    Preconditions (ValueError if unmet): the set of worlds moving their
    a-successors into b lies in f, and some assured successor of f under l
    holds a.  Returns the first assured successor holding b, or None —
    and None here means a genuine counterexample, which the test suite
    treats as a failure.
    """
    if not s_inv_mask(fr, a.mask, b.mask) >> f.witness & 1:
        raise ValueError("precondition: transfer set not in the source ultrafilter")
    row = FrameOps(fr).assured(f.witness, l.min_mask)
    if not row & a.mask:
        raise ValueError("precondition: no assured successor holds the source set")
    hits = row & b.mask
    return Ultrafilter(fr.n, (hits & -hits).bit_length() - 1) if hits else None


def witness_from_negated(fr: Frame, f: Ultrafilter, a: WorldSet, b: WorldSet):
    """Witness extraction from a negated transfer set.

    Precondition (ValueError if unmet): the complement of the transfer set
    for (a, b) lies in f.  Searches for a pair (g, l) with a in g, the
    complement of b a member of l, and g an assured successor under l;
    labels are tried by minimum mask, ultrafilters by witness.
    """
    full = fr.full_mask
    if not (full & ~s_inv_mask(fr, a.mask, b.mask)) >> f.witness & 1:
        raise ValueError("precondition: complemented transfer set not in f")
    bbar = full & ~b.mask
    ops = FrameOps(fr)
    for l in all_proper_filters(fr.n):
        if l.min_mask & ~bbar:
            continue
        hits = ops.assured(f.witness, l.min_mask) & a.mask
        if hits:
            return (Ultrafilter(fr.n, (hits & -hits).bit_length() - 1), l)
    return None


@dataclass
class ClassicalUE:
    frame: Frame
    witnesses: tuple
    model: Model | None = None


def classical_ue(fr: Frame, m: Model = None) -> ClassicalUE:
    """The classical unary-modality extension, by the book.

    Worlds are the ultrafilters (indexed by witness); f sees g exactly when
    every set in g has its R-preimage in f, checked literally against all
    subsets: each preimage ``rinv[x]`` is ANDed into ``seen_by[g]`` for
    every g in x.  The S component is completed minimally from the edge
    relation since only the box fragment is meaningful here.
    """
    n = fr.n
    rinv = FrameOps(fr).rinv
    seen_by = [fr.full_mask] * n
    for x in range(1 << n):
        for g in bits(x):
            seen_by[g] &= rinv[x]
    pairs = [(f, g) for g in range(n) for f in bits(seen_by[g])]
    frame = complete(Frame.build(n, pairs))
    # the principal ultrafilter at x holds a set exactly when x is in it
    model = None if m is None else Model(frame, m.ev)
    return ClassicalUE(frame, tuple(f.witness for f in all_ultrafilters(fr)), model)


def ue_to_dict(ue: UEFrame) -> dict:
    """JSON-ready shape: worlds with their witness and label minimum sets,
    the edge list, and the per-world S families."""
    worlds = [{"ultrafilter_witness": w.uf.witness,
               "label_min_sets": [sorted(l.min_set()) for l in w.labels]}
              for w in ue.worlds]
    edges = [[i, j] for i, j in ue.frame.r_pairs()]
    s_families = {str(i): [[u, v] for u, v in ue.frame.s_pairs(i)]
                  for i in range(len(ue.worlds)) if ue.frame.r_succ[i]}
    return {"base_worlds": ue.base.n, "worlds": worlds,
            "edges": edges, "s_families": s_families}


def ue_to_dot(ue: UEFrame, name: str = "ue") -> str:
    def tag(w):
        mins = ";".join("{" + ",".join(map(str, l.min_set())) + "}"
                        for l in w.labels)
        return f"U{w.uf.witness}" + (f" [{mins}]" if mins else "")

    lines = [f"digraph {name} {{"]
    for i, w in enumerate(ue.worlds):
        lines.append(f'  {i} [label="{tag(w)}"];')
    for i, j in ue.frame.r_pairs():
        lines.append(f"  {i} -> {j};")
    for w in range(len(ue.worlds)):
        for i, j in ue.frame.s_pairs(w):
            if i != j:
                lines.append(f'  {i} -> {j} [style=dashed, label="S({w})"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
