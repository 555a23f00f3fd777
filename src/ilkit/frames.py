"""Finite Veltman frames and models.

Worlds are the integers ``0..n-1``.  Relations are stored as bitmask rows:
``r_succ[w]`` is the successor set of ``w`` under R, and ``s_succ[w][u]``
is the successor set of ``u`` under the per-world relation S_w.  A frame
is legal when R is transitive and irreflexive and each S_w is a reflexive,
transitive relation on R[w] that contains R restricted to R[w].

``complete`` is the one place that closes relations.  Its closure walks
set bits (``bits``), one OR per pair of the result, and closes S_w over
R[w] only.  A dense chain is still cubic, as its S relations hold about
n^3/6 pairs.  An ultrafilter extension is built closed and never passes
through it.

``validate`` screens each world with C-level ``map``/``reduce`` over its
R-successors and walks cell by cell only the worlds the screen flags; a
world without R-successors whose tuple object was seen all zero before
costs nothing, so the shared leaf tuple of an extension is scanned once.
``bits`` returns a list.  The preimage operators of ``algebra`` walk
``Frame.r_rows``, the worlds with R-successors only.
"""

from __future__ import annotations

import itertools
from functools import cached_property, reduce
from operator import add, and_, eq, or_, rshift

from .records import Frozen, Ordered


class _cached(cached_property):
    """Stored past ``__dict__``, whose creation slows every attribute read."""

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = self.func(obj)
        object.__setattr__(obj, self.attrname, value)
        return value


def bits(mask):
    """The indices of the set bits of ``mask``, lowest first, as a list: a
    low-bit step per bit up to 24 set bits, past that the zero runs of the
    reversed binary text summed at C speed (2-4x faster on wide masks)."""
    if mask.bit_count() > 24:
        runs = bin(mask)[:1:-1].split("1")[:-1]   # none past the highest bit
        return list(map(add, itertools.accumulate(map(len, runs)), itertools.count()))
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class WorldSet(Ordered):
    """A subset of the worlds ``0..n-1``, stored as a bitmask."""

    __slots__ = _fields = ("n", "mask")

    def __init__(self, n: int, mask: int):
        if not 0 <= mask < (1 << n):
            raise ValueError(f"mask {mask:#x} out of range for n={n}")
        _set_n(self, n)
        _set_mask(self, mask)

    @classmethod
    def from_iter(cls, n, worlds):
        mask = 0
        for w in worlds:
            if not 0 <= w < n:
                raise ValueError(f"world {w} out of range for n={n}")
            mask |= 1 << w
        return cls(n, mask)

    @classmethod
    def full(cls, n):
        return cls(n, (1 << n) - 1)

    @classmethod
    def empty(cls, n):
        return cls(n, 0)

    def _check(self, other):
        if self.n != other.n:
            raise ValueError("world sets belong to different frames")

    def __contains__(self, w):
        return 0 <= w < self.n and bool(self.mask >> w & 1)

    def __iter__(self):
        return iter(bits(self.mask))

    def __len__(self):
        return self.mask.bit_count()

    def __or__(self, other):
        self._check(other)
        return WorldSet(self.n, self.mask | other.mask)

    def __and__(self, other):
        self._check(other)
        return WorldSet(self.n, self.mask & other.mask)

    def __sub__(self, other):
        self._check(other)
        return WorldSet(self.n, self.mask & ~other.mask)

    def complement(self):
        return WorldSet(self.n, self.mask ^ (1 << self.n) - 1)

    def __repr__(self):
        return "{" + ",".join(str(w) for w in self) + "}"


# the slots' setters, for the constructor above
_set_n, _set_mask = WorldSet.n.__set__, WorldSet.mask.__set__


class Frame(Frozen):
    """A finite Veltman frame over worlds ``0..n-1``."""

    _fields = ("n", "r_succ", "s_succ")   # dict-backed, for the cached properties

    def __init__(self, n: int, r_succ: tuple[int, ...], s_succ: tuple[tuple[int, ...], ...]):
        # not through ``self.__dict__``, which would slow attribute reads
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "r_succ", r_succ)
        object.__setattr__(self, "s_succ", s_succ)

    @classmethod
    def build(cls, n, r_pairs=(), s_triples=()):
        """Assemble a (possibly law-violating) frame from relation pairs."""
        r = [0] * n
        for i, j in r_pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"R pair ({i},{j}) out of range")
            r[i] |= 1 << j
        s = [[0] * n for _ in range(n)]
        for w, i, j in s_triples:
            if not (0 <= w < n and 0 <= i < n and 0 <= j < n):
                raise ValueError(f"S triple ({w},{i},{j}) out of range")
            s[w][i] |= 1 << j
        return cls(n, tuple(r), tuple(tuple(row) for row in s))

    @property
    def full_mask(self):
        return (1 << self.n) - 1

    def r_pairs(self):
        for i, row in enumerate(self.r_succ):
            for j in bits(row):
                yield (i, j)

    @_cached
    def r_rows(self):
        """``(w, R[w])`` for the worlds with R-successors, and the R-leaves' mask."""
        rows = tuple((w, row) for w, row in enumerate(self.r_succ) if row)
        return rows, self.full_mask & ~sum(1 << w for w, _ in rows)

    @_cached
    def succ_lists(self):
        """Per world, each R-successor with the tuple of its S-successors."""
        return [[(u, tuple(bits(sw[u]))) for u in bits(row)]
                for row, sw in zip(self.r_succ, self.s_succ)]

    def s_pairs(self, w):
        cells = self.s_succ[w]
        for i in itertools.compress(range(self.n), cells):
            for j in bits(cells[i]):
                yield (i, j)


def disjoint_union(frames) -> Frame:
    """The frames side by side, each world's rows shifted up past the frames
    before it; R-leaves, with no S cells when legal, share one zero S tuple."""
    r, s, zero = [], [], (0,) * sum(fr.n for fr in frames)
    for fr in frames:
        base = len(r)
        r += [row << base for row in fr.r_succ]
        s += [zero[:base] + tuple(x << base for x in sw) + zero[len(r):] if rw else zero
              for rw, sw in zip(fr.r_succ, fr.s_succ)]
    return Frame(len(zero), tuple(r), tuple(s))


class CompletionError(ValueError):
    """The least legal extension of the given seed relations does not exist."""


class Verdict(Frozen):
    _fields = ("ok", "violations")

    def __init__(self, ok: bool, violations: tuple = ()):
        self._fill(ok, violations)

    def __bool__(self):
        return self.ok


def validate(fr: Frame) -> Verdict:
    """Check every frame law; the verdict lists all violations with witnesses.

    Law names: ``R-irreflexive`` (w,), ``R-transitive`` (w,u,v),
    ``S-domain`` (w,u,v), ``S-reflexive`` (w,u), ``S-transitive`` (w,u,v,x),
    ``S-contains-R`` (w,u,v).

    Screen, then walk.  Per world w, C-level ``map``/``reduce`` over the
    R-successors screen every law: R[w] holds their R rows, S_w has a
    nonzero cell exactly at each of them (one ``tuple.count``), inside
    R[w], reflexive, holding its R row, and transitive (at once when the
    distinct rows are pairwise disjoint, else per distinct row).  Only a
    world the screen flags is walked cell by cell, and that walk alone
    names violations: it visits the cells in R[w] and the nonzero ones, in
    order.  A legal frame is never walked.
    """
    n, r, s = fr.n, fr.r_succ, fr.s_succ
    r_flagged, s_flagged, zero_rows = [], [], set()
    for w in range(n):
        rw, sw = r[w], s[w]
        if not rw and (id(sw) in zero_rows or not any(sw)):
            zero_rows.add(id(sw))
            continue
        members = bits(rw)
        below, rows = list(map(r.__getitem__, members)), list(map(sw.__getitem__, members))
        if rw >> w & 1 or reduce(or_, below, 0) & ~rw:
            r_flagged.append(w)
        union, distinct = reduce(or_, rows, 0), set(rows)
        # the docstring's order; reflexive rows that are pairwise disjoint are transitive
        if (sw.count(0) != n - len(members) or union & ~rw
                or not all(map(and_, map(rshift, rows, members), itertools.repeat(1)))
                or not all(map(eq, map(or_, below, rows), rows))
                or sum(map(int.bit_count, distinct)) != union.bit_count()
                and any(reduce(or_, map(sw.__getitem__, bits(row))) & ~row for row in distinct)):
            s_flagged.append(w)

    bad = []
    for w in r_flagged:
        if r[w] >> w & 1:
            bad.append(("R-irreflexive", (w,)))
        for u in bits(r[w]):
            if r[u] & ~r[w]:
                v = (r[u] & ~r[w]).bit_length() - 1
                bad.append(("R-transitive", (w, u, v)))
    for w in s_flagged:
        rw, sw = r[w], s[w]
        members = set(bits(rw))
        for u in sorted(members.union(itertools.compress(range(n), sw))):
            row, inside = sw[u], u in members
            if not inside:
                bad.append(("S-domain", (w, u, row.bit_length() - 1)))
            elif row & ~rw:
                bad.append(("S-domain", (w, u, (row & ~rw).bit_length() - 1)))
            if inside and not row >> u & 1:
                bad.append(("S-reflexive", (w, u)))
            bad.extend(("S-transitive", (w, u, v, (sw[v] & ~row).bit_length() - 1))
                       for v in bits(row) if sw[v] & ~row)
            if inside and r[u] & rw & ~row:
                v = (r[u] & rw & ~row).bit_length() - 1
                bad.append(("S-contains-R", (w, u, v)))
    return Verdict(not bad, tuple(bad))


def _closure(rows, members):
    """Transitive closure, in place, of the rows at ``members``: each row
    absorbs the rows at its set bits, then at the bits that added, until it
    stops growing.  Highest first, so rows that point upward absorb rows
    that are already closed."""
    for u in reversed(members):
        row = fresh = rows[u]
        while fresh:
            grown = row
            for v in bits(fresh):
                grown |= rows[v]
            fresh = grown & ~row
            row = grown
        rows[u] = row
    return rows


def _find_cycle(fr, start):
    """A shortest cycle through ``start``, whose closed R row holds it: a
    BFS along the seed edges, each reached world keeping its path."""
    paths = {start: [start]}
    queue = [start]
    for cur in queue:   # the queue grows as the loop runs
        for nxt in bits(fr.r_succ[cur]):
            if nxt == start:
                return paths[cur] + [start]
            if nxt not in paths:
                paths[nxt] = paths[cur] + [nxt]
                queue.append(nxt)


def complete(fr: Frame) -> Frame:
    """Least legal frame extending the seed relations.

    R is replaced by its transitive closure (a resulting self-loop means the
    seeds contain a cycle, which no legal frame extends).  Each S_w picks up
    reflexivity on R[w], the pairs of R inside R[w], and transitivity.  An
    S_w seed pair that leaves R[w] x R[w] is unfixable and rejected.  A
    world with no R-successors keeps its (empty) seed row tuple.
    """
    n = fr.n
    r = _closure(list(fr.r_succ), range(n))
    for w in range(n):
        if r[w] >> w & 1:
            cycle = _find_cycle(fr, w)
            raise CompletionError(
                "R closure creates a cycle: " + " -> ".join(map(str, cycle)))
    s = list(fr.s_succ)
    for w, seed in enumerate(s):
        rw = r[w]
        members = bits(rw)
        rows = [0] * n
        for u in members:
            rows[u] = seed[u] & rw
        if rows != list(seed):
            u = next(u for u, row in enumerate(seed) if row != rows[u])
            raise CompletionError(f"S_{w} seed at {u} leaves R[{w}] x R[{w}]")
        if members:
            for u in members:
                rows[u] |= 1 << u | r[u] & rw
            s[w] = tuple(_closure(rows, members))
    return Frame(n, tuple(r), tuple(s))


class Model:
    """A frame together with a valuation of atoms as world sets."""

    def __init__(self, frame: Frame, ev=None):
        self.frame = frame
        self.ev = {}
        for name, ws in dict(ev or {}).items():
            if isinstance(ws, WorldSet):
                if ws.n != frame.n:
                    raise ValueError(f"valuation of {name!r} has wrong size")
                self.ev[name] = ws
            else:
                self.ev[name] = WorldSet.from_iter(frame.n, ws)

    def ev_mask(self, atom: str) -> int:
        ws = self.ev.get(atom)
        return ws.mask if ws is not None else 0

    def ev_set(self, atom: str) -> WorldSet:
        return self.ev.get(atom, WorldSet.empty(self.frame.n))


def chain(k: int) -> Frame:
    """The strict linear order on k worlds, with the forced S structure."""
    return complete(Frame.build(k, [(i, i + 1) for i in range(k - 1)]))


def fan(k: int) -> Frame:
    """A root below an antichain of k worlds."""
    return complete(Frame.build(k + 1, [(0, i) for i in range(1, k + 1)]))


def tree(branching: int, depth: int) -> Frame:
    """The full tree, with R the ancestor relation.  Nodes are numbered
    level by level, so node j > 0 has parent (j - 1) // branching."""
    nodes = sum(max(branching, 0) ** k for k in range(max(depth, 0) + 1))
    return complete(Frame.build(nodes, [((j - 1) // branching, j) for j in range(1, nodes)]))


def _s_rows_options(n, r, w):
    """All legal S_w rows for a fixed transitive irreflexive R, sorted: each
    member u of R[w] takes a row inside R[w] holding its core, u and R[u]
    there, and of these choices the transitive ones are kept."""
    rw = r[w]
    members = bits(rw)
    choices = [[row for row in range(rw + 1) if row & core == core and not row & ~rw]
               for core in (1 << u | r[u] & rw for u in members)]
    out = []
    for combo in itertools.product(*choices):
        rows = [0] * n
        for u, row in zip(members, combo):
            rows[u] = row
        if all(rows[v] & ~row == 0 for row in combo for v in bits(row)):
            out.append(tuple(rows))
    out.sort()
    return out


def _strict_orders(n: int) -> list:
    """Every strict order on n worlds as R rows, ordered by ``(r[n-1], ...,
    r[0])``: from world n-1 down, each order of the worlds above k takes
    every row for k, in order, that misses k, lies in each row holding k
    and holds the rows of its members, so R stays transitive."""
    orders = [(0,) * n]   # the rows of the worlds below k are still 0
    for k in reversed(range(n)):
        grown = []
        for r in orders:
            cap = reduce(and_, [row for row in r if row >> k & 1], (1 << n) - 1 & ~(1 << k))
            grown += [r[:k] + (m,) + r[k + 1:] for m in range(cap + 1)
                      if not m & ~cap and not any(r[j] & ~m for j in bits(m))]
        orders = grown
    return orders


def all_frames(n: int):
    """Every legal frame on n worlds, in a fixed deterministic order.

    R ranges over the strict orders (transitive irreflexive relations),
    generated directly, not filtered from all 2^(n(n-1)) relations, and,
    per world, S_w over every relation between the forced core and the full
    square on R[w] that stays transitive.
    """
    for r in _strict_orders(n):
        for combo in itertools.product(*(_s_rows_options(n, r, w) for w in range(n))):
            yield Frame(n, r, combo)


def frame_classes(n: int):
    """Each isomorphism class of ``all_frames(n)`` as ``(representative,
    orbit size)``, in ``all_frames`` order.

    A representative is its class's first frame in that order, which holds
    the first R of its R-class, as ``all_frames`` orders by R first and a
    relabelling of R carries an image of every frame.  Each such R takes
    Aut(R) from the n! relabellings; each S choice not yet seen opens a
    class and marks its Aut(R)-orbit seen: |R-orbit| x that = n!/|Aut|.
    """
    # per relabelling p: the image of every mask, and src with src[p[w]] == w
    relabel = []
    for p in itertools.permutations(range(n)):
        image = [sum(1 << p[b] for b in bits(m)) for m in range(1 << n)]
        relabel.append((image, sorted(range(n), key=p.__getitem__)))
    seen_r = set()
    for r in _strict_orders(n):
        if r in seen_r:
            continue
        images = [tuple(image[r[w]] for w in src) for image, src in relabel]
        seen_r.update(images)
        aut = [p for p, img in zip(relabel, images) if img == r]
        seen = set()
        for s in itertools.product(*(_s_rows_options(n, r, w) for w in range(n))):
            if s in seen:
                continue
            orbit = {tuple(tuple(image[s[w][u]] for u in src) for w in src) for image, src in aut}
            seen |= orbit
            yield Frame(n, r, s), len(relabel) // len(aut) * len(orbit)
