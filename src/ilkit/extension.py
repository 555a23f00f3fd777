"""Ultrafilter extensions of finite Veltman frames.

An extension world pairs an ultrafilter with the path of filter labels that
reached it: the roots are (f, ()) for every ultrafilter f, and whenever
``assuring(fr, f, l, g)`` holds, (f, sigma) spawns (g, sigma + (l,)).  The
edge relation is the transitive closure of those one-step moves, and the
per-world S relation is generated — inside the successor set of (f, sigma)
— by reflexivity, the edge relation itself, and agreement of labels at
position len(sigma).  ``build_ue`` builds both closed, one OR per
one-step move and per R pair, with no pass of ``frames.complete``.  The
recursion bottoms out because a world whose ultrafilter sits at an R-leaf
of the base frame assures nothing, so label paths never outgrow the
longest base R-chain.  The labels are every proper filter, 2^n - 1 of
them over n base worlds, so a base over ``limits.LABEL_WORLDS_LIMIT``
worlds is refused (ValueError) before any label is listed, and an
extension that outgrows its world cap (``limits.UE_WORLDS_CAP`` by
default) raises ResourceLimitError.

The construction also covers the classical unary-modality extension as a
baseline: over a finite frame that one is isomorphic to the frame itself.
"""

from __future__ import annotations

import itertools
from functools import cache, cached_property, reduce

from .algebra import s_inv_mask
from .filters import (Filter, FrameOps, Ultrafilter, all_proper_filters,
                      all_ultrafilters)
from .formula import TOP, conj, dia
from .frames import Frame, Model, WorldSet, bits, complete
from .limits import LABEL_MEMBER_LIMIT, SATURATION_POOL_LIMIT, UE_WORLDS_CAP
from .records import Frozen, Record
from .semantics import extension as forcing_extension


class ResourceLimitError(RuntimeError):
    """The extension would exceed the configured world cap."""


class UEWorld(Frozen):
    __slots__ = _fields = ("uf", "labels")

    def __init__(self, uf: Ultrafilter, labels: tuple):
        _set_uf(self, uf)
        _set_labels(self, labels)

    def __repr__(self):
        path = ",".join(repr(l) for l in self.labels)
        return f"({self.uf!r},[{path}])"


# the slots' setters, for the constructor above
_set_uf, _set_labels = UEWorld.uf.__set__, UEWorld.labels.__set__


class UEFrame:
    """Extension frame as columns (per world a witness and a path id, per
    path id its labels, per world with moves its one-step children by
    label) and a plain Frame over the world indices, so every frame and
    semantics tool applies directly.  Worlds and one-step moves are built
    on first read."""

    def __init__(self, base, witnesses, paths, path_labels, frame, cliques):
        self.base, self.frame, self.cliques = base, frame, cliques
        self.witnesses, self.paths, self.path_labels = witnesses, paths, path_labels

    @cached_property
    def worlds(self):
        return self.first_worlds(len(self))

    def first_worlds(self, k):
        """The first ``k`` worlds, built from the columns; ``worlds`` stays unread."""
        ufs, labels = all_ultrafilters(self.base), self.path_labels
        return [UEWorld(ufs[g], labels[p]) for g, p in zip(self.witnesses, self.paths[:k])]

    @cached_property
    def one_step(self):
        return tuple((wi, ci) for wi, labelled in self.cliques.items()
                     for kids in labelled for ci in kids)

    @cached_property
    def built_on(self):
        """Per base world x, the mask of the extension worlds whose
        ultrafilter is the principal one at x."""
        masks = [0] * self.base.n
        for i, g in enumerate(self.witnesses):
            masks[g] |= 1 << i
        return masks

    def __len__(self):
        return len(self.witnesses)


def build_ue(base: Frame, max_worlds: int = UE_WORLDS_CAP) -> UEFrame:
    """Construct the extension of a frame, labelled by every proper filter.

    Worlds are discovered level by level — all label paths of one length
    before any longer path — parents in index order and, per parent, labels
    by minimum mask, target ultrafilters by witness.  A world is its witness
    g and path id pid (interned from parent path id and label minimum, with
    one shared label tuple), looked up by the int ``pid * base.n + g``;
    ``UEFrame.worlds`` builds the ``UEWorld`` objects on first read.
    Exceeding ``max_worlds`` raises ResourceLimitError rather than
    truncating; a base with more worlds than that raises before any world
    is built, and one over ``LABEL_WORLDS_LIMIT`` worlds raises ValueError
    before any label is listed.

    The frame is built closed, with no ``complete``, children first (a
    child has a longer path, so a higher index).  Under each label, the
    one-step children and their R rows make a clique: the successors of
    (f, sigma) whose label at position |sigma| is that label.  R[(f, sigma)]
    is the union of its cliques, and S_(f, sigma) maps each member u to
    u's clique, filled from the children's successor lists.  No closure is
    needed: agreement is an equivalence, so the cliques are reflexive and
    transitive, and the R-descendants of u extend u's path, so they share
    its label at |sigma| and lie in its clique.  Only worlds with
    successors get rows; the R-leaves share one zero tuple.
    """
    if base.n > max_worlds:
        raise ResourceLimitError(f"extension exceeds {max_worlds} worlds; "
                                 f"the base alone has {base.n}")
    nb, labels, ops = base.n, all_proper_filters(base.n), FrameOps(base)
    # the labels that assure something at each base world, with the witnesses
    # they reach: an extension world's moves depend on its ultrafilter only
    moves = [[(l.min_mask, l, bits(row)) for l in labels
              if (row := ops.assured(x, l.min_mask))] for x in range(nb)]
    witnesses, paths, path_labels = list(range(nb)), [0] * nb, [()]
    path_ids, index, cliques = {}, {}, {}
    frontier = range(nb)
    while frontier:
        fresh = []
        for wi in frontier:
            parent = paths[wi]
            for min_mask, l, targets in moves[witnesses[wi]]:
                pid = path_ids.setdefault(parent << nb | min_mask, len(path_labels))
                if pid == len(path_labels):   # a new path
                    path_labels.append(path_labels[parent] + (l,))
                kids, first = [], pid * nb
                for g in targets:
                    ci = index.get(first + g)
                    if ci is None:
                        if len(witnesses) >= max_worlds:
                            raise ResourceLimitError(
                                f"extension exceeds {max_worlds} worlds; "
                                "raise the cap")
                        ci = index[first + g] = len(witnesses)
                        witnesses.append(g)
                        paths.append(pid)
                        fresh.append(ci)
                    kids.append(ci)
                cliques.setdefault(wi, []).append(kids)
        frontier = fresh

    n = len(witnesses)
    # the R-leaves share one zero tuple; succ[j] lists R[j] once it is built
    r, s, succ = [0] * n, [(0,) * n] * n, [()] * n
    for wi, labelled in reversed(cliques.items()):   # children first
        rows, rw = [0] * n, 0
        for kids in labelled:
            clique = 0
            for j in kids:
                clique |= 1 << j | r[j]
            rw |= clique
            for j in kids:
                rows[j] = clique
                for v in succ[j]:
                    rows[v] = clique
        r[wi], succ[wi], s[wi] = rw, bits(rw), tuple(rows)
    frame = Frame(n, tuple(r), tuple(s))
    return UEFrame(base, witnesses, paths, path_labels, frame, cliques)


def _union(built_on, mask):
    """The extension worlds built on the base worlds in ``mask``."""
    out = 0
    for x in bits(mask):
        out |= built_on[x]
    return out


class UEModel(Record):
    _fields = ("ue", "model")

    def __init__(self, ue: UEFrame, model: Model):
        self._fill(ue, model)


def build_ue_model(m: Model) -> UEModel:
    """Extension of a model: a world holds an atom iff the atom's base
    extension belongs to the world's ultrafilter."""
    ue = build_ue(m.frame)
    ev = {name: WorldSet(len(ue), _union(ue.built_on, ws.mask))
          for name, ws in m.ev.items()}
    return UEModel(ue, Model(ue.frame, ev))


class UEVerdict(Frozen):
    _fields = ("ok", "detail")

    def __init__(self, ok: bool, detail: tuple | None = None):
        self._fill(ok, detail)

    def __bool__(self):
        return self.ok


def check_truth_theorem(m: Model, pool, ue_model: UEModel = None) -> UEVerdict:
    """Base and extension agree: world x forces a pool formula exactly when
    every extension world built on the ultrafilter at x does.  Compared as
    masks, so a failure names the lowest extension world that differs."""
    um = ue_model if ue_model is not None else build_ue_model(m)
    base_cache, ue_cache = {}, {}
    for f in pool:
        want = _union(um.ue.built_on, forcing_extension(m, f, base_cache).mask)
        diff = want ^ forcing_extension(um.model, f, ue_cache).mask
        if diff:
            w = um.ue.worlds[(diff & -diff).bit_length() - 1]
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


class ClassicalUE(Record):
    _fields = ("frame", "model")

    def __init__(self, frame: Frame, model: Model | None = None):
        self._fill(frame, model)


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
    return ClassicalUE(frame, model)


def ue_to_dict(ue: UEFrame) -> dict:
    """JSON-ready shape: worlds with their witness and label minimum sets,
    the edge list, and the per-world S families.  Each distinct S row value
    is listed once, as its rows repeat across a clique."""
    worlds = [{"ultrafilter_witness": w.uf.witness,
               "label_min_sets": [sorted(l.min_set()) for l in w.labels]}
              for w in ue.worlds]
    edges = [[i, j] for i, j in ue.frame.r_pairs()]
    fr, members = ue.frame, cache(bits)
    s_families = {str(i): [[u, v] for u in itertools.compress(range(fr.n), fr.s_succ[i])
                           for v in members(fr.s_succ[i][u])]
                  for i, _ in fr.r_rows[0]}
    return {"base_worlds": ue.base.n, "worlds": worlds,
            "edges": edges, "s_families": s_families}


def ue_to_json(ue: UEFrame) -> str:
    """The text of ``json.dumps(ue_to_dict(ue), sort_keys=True)``, byte for
    byte, written straight from the frame's rows with no per-pair objects.

    Each distinct S row value gets one list of member strings, built once
    per clique, and each S cell (u, row) is one join of that list; label
    minimum sets are written once per mask, each path's label text once,
    the edges in one join, and the world keys of ``s_families`` go in
    string order, as ``sort_keys`` has them ("0" < "10" < "2")."""
    fr = ue.frame
    members = cache(lambda row: list(map(str, bits(row))))

    @cache
    def min_set(mask):
        return "[" + ", ".join(members(mask)) + "]"

    def pairs(u, row):   # "[u, v1], [u, v2], ..."
        return f"[{u}, " + f"], [{u}, ".join(members(row)) + "]"

    paths = [", ".join(min_set(l.min_mask) for l in labels) for labels in ue.path_labels]
    worlds = ", ".join(f'{{"label_min_sets": [{paths[p]}], "ultrafilter_witness": {g}}}'
                       for g, p in zip(ue.witnesses, ue.paths))
    edges = ", ".join(pairs(i, row) for i, row in fr.r_rows[0])
    families = {}
    for i, _ in fr.r_rows[0]:
        cells = fr.s_succ[i]
        families[str(i)] = ", ".join(pairs(u, cells[u])
                                     for u in itertools.compress(range(fr.n), cells))
    s_families = ", ".join(f'"{key}": [{families[key]}]' for key in sorted(families))
    return (f'{{"base_worlds": {ue.base.n}, "edges": [{edges}], '
            f'"s_families": {{{s_families}}}, "worlds": [{worlds}]}}')


def ue_to_dot(ue: UEFrame) -> str:
    def tag(w):
        mins = ";".join("{" + ",".join(map(str, l.min_set())) + "}"
                        for l in w.labels)
        return f"U{w.uf.witness}" + (f" [{mins}]" if mins else "")

    lines = ["digraph ue {"]
    for i, w in enumerate(ue.worlds):
        lines.append(f'  {i} [label="{tag(w)}"];')
    for i, j in ue.frame.r_pairs():
        lines.append(f"  {i} -> {j};")
    for w, _ in ue.frame.r_rows[0]:   # an R-leaf's S_w is empty
        for i, j in ue.frame.s_pairs(w):
            if i != j:
                lines.append(f'  {i} -> {j} [style=dashed, label="S({w})"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
