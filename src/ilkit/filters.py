"""Filters, ultrafilters, and the label-indexed assuring relation.

Over a finite world set every filter is the up-set of its least element, so
a filter is stored as that minimum (``min_mask``); the whole powerset — the
improper filter — is the up-set of the empty set.  Ultrafilters are
principal and carry just their witness world.

``assuring(fr, f, l, g)`` is the relation between ultrafilters indexed by a
proper filter label ``l``: for every set A, if the worlds forced to move
A-complement successors into the complement of some member of ``l`` form a
set in ``f``, then both A and its box-preimage must lie in ``g``.  Because
``s_inv`` is monotone in its second argument and ``l`` is the up-set of its
minimum B, quantifying over all finite choices of members collapses to the
single choice {B}; ``assuring_family`` keeps the raw quantifier for
arbitrary finite families, and the test suite holds a naive oracle against
the reduction.  Rows come in closed form, with no sweep over the sets A:
at f, under a union of complements ybar, the hypothesis for A fires exactly
when A contains D = {u in R[f] : S_f[u] misses ybar}.  A meet its
box-preimage grows with A, so its meet over those A is its value at D.
``FrameOps`` tabulates the label rows once per frame, one bitmask of
successors per (f, label), together with the frame's preimage operators.
The labels and the preimage tables number 2^n for n worlds, so
``all_proper_filters`` and the ``FrameOps`` table fills refuse a frame over
``limits.LABEL_WORLDS_LIMIT`` worlds with ValueError before building them.
"""

from __future__ import annotations

from .algebra import r_inv_dual_mask, r_inv_mask, s_inv_mask
from .frames import Frame, WorldSet, bits
from .limits import check_label_worlds
from .records import Ordered


class Ultrafilter(Ordered):
    __slots__ = _fields = ("n", "witness")

    def __init__(self, n: int, witness: int):
        if not 0 <= witness < n:
            raise ValueError(f"witness {witness} out of range for n={n}")
        _set_uf_n(self, n)
        _set_witness(self, witness)

    def contains(self, ws) -> bool:
        mask = ws.mask if isinstance(ws, WorldSet) else int(ws)
        return bool(mask >> self.witness & 1)

    def __repr__(self):
        return f"U{self.witness}"


class Filter(Ordered):
    __slots__ = _fields = ("n", "min_mask")

    def __init__(self, n: int, min_mask: int):
        if not 0 <= min_mask < (1 << n):
            raise ValueError(f"min mask {min_mask:#x} out of range")
        _set_filter_n(self, n)
        _set_min_mask(self, min_mask)

    @property
    def is_proper(self) -> bool:
        return self.min_mask != 0

    def min_set(self) -> WorldSet:
        return WorldSet(self.n, self.min_mask)

    def contains(self, ws) -> bool:
        mask = ws.mask if isinstance(ws, WorldSet) else int(ws)
        return self.min_mask & ~mask == 0

    def members(self) -> list[WorldSet]:
        """All member sets, smallest mask first."""
        return [WorldSet(self.n, m) for m in range(1 << self.n)
                if m & self.min_mask == self.min_mask]

    def __repr__(self):
        return f"up{self.min_set()!r}"


# the slots' setters, for the constructors above
_set_uf_n, _set_witness = Ultrafilter.n.__set__, Ultrafilter.witness.__set__
_set_filter_n, _set_min_mask = Filter.n.__set__, Filter.min_mask.__set__


def all_ultrafilters(fr: Frame) -> list[Ultrafilter]:
    return [Ultrafilter(fr.n, w) for w in range(fr.n)]


def all_proper_filters(n: int) -> list[Filter]:
    """Every proper filter, ordered by minimum mask; ValueError past
    ``LABEL_WORLDS_LIMIT`` worlds."""
    check_label_worlds(n)
    return [Filter(n, m) for m in range(1, 1 << n)]


def has_fip(sets) -> bool:
    """Finite intersection property of a finite family of world sets.

    At finite scale every finite subfamily's intersection contains the
    total intersection, so the property collapses to one test; the empty
    family has it vacuously.
    """
    sets = list(sets)
    if not sets:
        return True
    mask = sets[0].mask
    n = sets[0].n
    for ws in sets[1:]:
        if ws.n != n:
            raise ValueError("family mixes world-set sizes")
        mask &= ws.mask
    return mask != 0


def generate_filter(n: int, sets) -> Filter:
    """The filter generated by a family: up-set of the total intersection.

    Improper (min empty) exactly when the family lacks the finite
    intersection property; the empty family generates the up-set of W.
    """
    mask = (1 << n) - 1
    for ws in sets:
        if ws.n != n:
            raise ValueError("family member has wrong size")
        mask &= ws.mask
    return Filter(n, mask)


def f_box(fr: Frame, f: Ultrafilter) -> Filter:
    """The necessity projection {Y : the worlds boxed into Y lie in f}.

    For a principal ultrafilter this is the up-set of R[witness]; at an
    R-leaf the projection is improper (the whole powerset).
    """
    return Filter(fr.n, fr.r_succ[f.witness])


class FrameOps:
    """The tabulated operators of one frame, filled on first use.

    ``rinv[m]`` and ``rdual[m]`` are the diamond and box preimages of every
    mask ``m``; ``sinv(y)[x]`` is ``s_inv(x, y)``, one column per ``y``;
    ``assured(fw, lm)`` is the bitmask of witnesses ``g`` that ultrafilter
    ``fw`` assures under the label with minimum ``lm``.  A label's rows cost
    one pass over each witness's successors and cover every ``f`` and ``g``
    at once; ``sinv`` columns serve ``b_set`` and the scoreboard.  The
    int tables live on the frame, shared by every ``FrameOps(fr)`` (the
    public per-call functions' too); a frame never refers to a view, so
    reference counting still frees it.
    """

    def __init__(self, fr: Frame):
        self.fr = fr
        # an attribute, not via ``fr.__dict__``, which would slow the frame's attribute reads
        if (tables := getattr(fr, "_ops", None)) is None:
            object.__setattr__(fr, "_ops", tables := ({}, {}, {}))
        self._sinv, self._assured, self._unary = tables

    def _table(self, op) -> list[int]:
        col = self._unary.get(op)
        if col is None:
            check_label_worlds(self.fr.n)
            col = self._unary[op] = [op(self.fr, m) for m in range(1 << self.fr.n)]
        return col

    rinv = property(lambda self: self._table(r_inv_mask))
    rdual = property(lambda self: self._table(r_inv_dual_mask))

    def sinv(self, y: int) -> list[int]:
        col = self._sinv.get(y)
        if col is None:
            check_label_worlds(self.fr.n)
            col = self._sinv[y] = [s_inv_mask(self.fr, x, y)
                                   for x in range(1 << self.fr.n)]
        return col

    def assured(self, fw: int, lm: int) -> int:
        rows = self._assured.get(lm)
        if rows is None:
            # s_inv is monotone in y, so the label's least member decides
            rows = self._assured[lm] = self._rows(self.fr.full_mask & ~lm)
        return rows[fw]

    def family_rows(self, member_masks) -> list[int]:
        """Assured rows under a raw finite family: every finite choice of
        members, the empty choice (empty union of complements) included.
        D shrinks as the union grows and D & rdual[D] grows with D, so the
        union of all the complements decides alone (empty for the empty
        family)."""
        full, ybar = self.fr.full_mask, 0
        for m in member_masks:
            ybar |= full & ~m
        return self._rows(ybar)

    def _rows(self, ybar: int) -> list[int]:
        """Per witness f, the witnesses g such that every set A whose
        hypothesis fires at f (A-complement successors move into ``ybar``)
        has A and its box-preimage holding g: D & rdual[D], as the module
        docstring argues."""
        fr, rdual = self.fr, self.rdual
        rows = []
        for fw, srow in enumerate(fr.s_succ):
            d = sum(1 << u for u in bits(fr.r_succ[fw]) if not srow[u] & ybar)
            rows.append(d & rdual[d])
        return rows


def assuring(fr: Frame, f: Ultrafilter, l: Filter, g: Ultrafilter) -> bool:
    """The label-indexed successor relation between ultrafilters."""
    if not l.is_proper:
        raise ValueError("label must be a proper filter")
    return bool(FrameOps(fr).assured(f.witness, l.min_mask) >> g.witness & 1)


def assuring_family(fr: Frame, f: Ultrafilter, sets, g: Ultrafilter) -> bool:
    """The same relation indexed by a raw finite family of nonempty sets.

    Quantifies over every finite choice from the family, including the
    empty choice (whose union of complements is the empty set).
    """
    masks = []
    for ws in sets:
        if ws.n != fr.n:
            raise ValueError("family member has wrong size")
        if ws.mask == 0:
            raise ValueError("family members must be nonempty")
        masks.append(ws.mask)
    return bool(FrameOps(fr).family_rows(masks)[f.witness] >> g.witness & 1)


def b_set(fr: Frame, f: Ultrafilter, l: Filter) -> list[WorldSet]:
    """The derived family of sets whose hypothesis fires in ``f``.

    Contains every A such that moving A-complement successors into the
    complement of a member of ``l`` is a set in ``f``; computed through the
    same least-member reduction as ``assuring``.
    """
    if not l.is_proper:
        raise ValueError("label must be a proper filter")
    full = fr.full_mask
    col = FrameOps(fr).sinv(full & ~l.min_mask)
    return [WorldSet(fr.n, amask) for amask in range(1 << fr.n)
            if col[full & ~amask] >> f.witness & 1]


def all_assuring_triples(fr: Frame):
    """Every (f, l, g) with the relation, in witness/label order."""
    ops = FrameOps(fr)
    ufs = all_ultrafilters(fr)
    out = []
    for f in ufs:
        for l in all_proper_filters(fr.n):
            row = ops.assured(f.witness, l.min_mask)
            out.extend((f, l, g) for g in ufs if row >> g.witness & 1)
    return out
