"""Independent reference implementations used to cross-check the library.

Everything here works over plain frozensets and tuple relations, avoids
the bitmask paths entirely, and prefers clarity over speed.  Tests hold
the fast implementations against these at desk scale.  The exceptions are
the labeling-lemma and classical-extension oracles: bitmask sweeps that
check one instance per call, kept as references for the row-at-a-time
tests that replaced them (the labeling one reads the same ``FrameOps``
tables as the scoreboard); and ``assured_rows_naive``, the sweep over
every set that the closed-form assured rows replaced; ``parse_naive``,
the recursive-descent parser that the one-loop ``formula.parse`` replaced;
``truth_theorem_naive``, the per-world loop that the mask comparison of
``extension.check_truth_theorem`` replaced; ``first_disagreement_naive``,
the per-model loop that the disjoint-union translation-agreement check
replaced; and ``postorder_naive``, a recursive walk beside the stack walk
of ``formula.postorder``.
"""

import re
from itertools import chain, combinations, islice, permutations

from ilkit.algebra import (BoxOp, Complement, DiaOp, Empty, Full, Intersection,
                           SOp, Union, Var, eval_term, r_inv_mask, translate)
from ilkit.extension import UEVerdict
from ilkit.filters import (FrameOps, Ultrafilter, all_proper_filters,
                           all_ultrafilters, assuring_family, b_set)
from ilkit.formula import (BOT, NESTING_LIMIT, TOP, Atom, Bottom, Box, Implies,
                           ParseError, Rhd, conj, dia, disj, iff, neg)
from ilkit.frames import CompletionError, Frame, WorldSet, bits
from ilkit.semantics import extension


def r_pairs(fr):
    return {(i, j) for i in range(fr.n) for j in range(fr.n)
            if fr.r_succ[i] >> j & 1}


def s_triples(fr):
    return {(w, i, j) for w in range(fr.n)
            for i in range(fr.n) if fr.s_succ[w][i] for j in range(fr.n)
            if fr.s_succ[w][i] >> j & 1}


def complete_naive(fr):
    """Least legal extension by a pair-set fixpoint: close R under
    transitivity, then give each S_w reflexivity on R[w], the pairs of R
    inside R[w] and transitivity, adding pairs until nothing changes.
    Raises CompletionError ("cycle" or "stray seed") where no legal
    extension exists."""
    n = fr.n
    r = r_pairs(fr)
    while True:
        more = {(i, k) for i, j in r for j2, k in r if j == j2} - r
        if not more:
            break
        r |= more
    if any(i == j for i, j in r):
        raise CompletionError("R closure creates a cycle")
    s = s_triples(fr)
    if any((w, i) not in r or (w, j) not in r for w, i, j in s):
        raise CompletionError("stray seed: an S_w pair leaves R[w] x R[w]")
    while True:
        more = {(w, u, u) for w, u in r}
        more |= {(w, u, v) for w, u in r for u2, v in r
                 if u == u2 and (w, v) in r}
        more |= {(w, u, x) for w, u, v in s for w2, v2, x in s
                 if w == w2 and v == v2}
        more -= s
        if not more:
            break
        s |= more
    return Frame.build(n, r, s)


def validate_naive(fr):
    """Every frame law checked on the pair sets, one cell at a time, with
    the violations in ``frames.validate``'s order: the R laws world by
    world, then the S laws per cell (w, u).  Each witness is the largest
    offending world (v, or x for transitivity, ascending over v).  The
    pairs are indexed by their first worlds once, so an extension of a
    few hundred worlds takes well under a second."""
    worlds = range(fr.n)
    succ = {w: set() for w in worlds}
    for w, u in r_pairs(fr):
        succ[w].add(u)
    s_row = {}
    for w, u, v in s_triples(fr):
        s_row.setdefault((w, u), set()).add(v)
    bad = []
    for w in worlds:
        if w in succ[w]:
            bad.append(("R-irreflexive", (w,)))
        for u in sorted(succ[w]):
            if succ[u] - succ[w]:
                bad.append(("R-transitive", (w, u, max(succ[u] - succ[w]))))
    for w in worlds:
        for u in worlds:
            row = s_row.get((w, u), set())
            if row and u not in succ[w]:
                bad.append(("S-domain", (w, u, max(row))))
            elif row - succ[w]:
                bad.append(("S-domain", (w, u, max(row - succ[w]))))
            if u in succ[w] and u not in row:
                bad.append(("S-reflexive", (w, u)))
            for v in sorted(row):
                out = s_row.get((w, v), set()) - row
                if out:
                    bad.append(("S-transitive", (w, u, v, max(out))))
            missing = (succ[w] & succ[u]) - row
            if u in succ[w] and missing:
                bad.append(("S-contains-R", (w, u, max(missing))))
    return tuple(bad)


def _forces(n, r, s, ev, w, f):
    """Structural recursion over the pair sets ``r``, ``s`` and the
    valuation ``ev`` (atom -> set of worlds)."""

    def go(w, f):
        if isinstance(f, Bottom):
            return False
        if isinstance(f, Atom):
            return w in ev.get(f.name, ())
        if isinstance(f, Implies):
            return not go(w, f.lhs) or go(w, f.rhs)
        if isinstance(f, Box):
            return all(go(u, f.body) for u in range(n) if (w, u) in r)
        assert isinstance(f, Rhd)
        return all(any((w, u, v) in s and go(v, f.rhs) for v in range(n))
                   for u in range(n) if (w, u) in r and go(u, f.lhs))

    return go(w, f)


def force_naive(m, w, f):
    """Forcing by structural recursion over set-of-pairs relations."""
    fr = m.frame
    ev = {a: set(m.ev_set(a)) for a in m.ev}
    return _forces(fr.n, r_pairs(fr), s_triples(fr), ev, w, f)


def _atom_names(f):
    if isinstance(f, (Atom, Var)):
        return {f.name}
    return set().union(*(_atom_names(g) for g in f.kids))


def frame_valid_naive(fr, f):
    """Frame validity one valuation at a time, in valuation-number order,
    by the recursion behind ``force_naive``.

    Valuation ``vid`` gives the i-th sorted atom the worlds ``w`` with bit
    ``i * n + w`` of ``vid`` set.  Returns ``(valid, ev, world)``: the first
    refuting valuation (atom -> frozenset) and its least failing world, or
    ``(True, None, None)``.
    """
    names = sorted(_atom_names(f))
    n = fr.n
    r, s = r_pairs(fr), s_triples(fr)
    for vid in range(1 << len(names) * n):
        ev = {a: frozenset(w for w in range(n) if vid >> i * n + w & 1)
              for i, a in enumerate(names)}
        for w in range(n):
            if not _forces(n, r, s, ev, w, f):
                return False, ev, w
    return True, None, None


def extension_naive(m, f):
    fr = m.frame
    r, s = r_pairs(fr), s_triples(fr)
    ev = {a: set(m.ev_set(a)) for a in m.ev}
    return frozenset(w for w in range(fr.n) if _forces(fr.n, r, s, ev, w, f))


def truth_theorem_naive(m, pool, um):
    """The truth check one extension world at a time: for each pool
    formula in turn, the first world, in index order, whose forcing
    differs from that of its ultrafilter's witness in the base."""
    base_cache, ue_cache = {}, {}
    for f in pool:
        base_ext = extension(m, f, base_cache)
        ue_ext = extension(um.model, f, ue_cache)
        for i, w in enumerate(um.ue.worlds):
            if (i in ue_ext) != (w.uf.witness in base_ext):
                return UEVerdict(False, (w.uf.witness, w, f))
    return UEVerdict(True)


def first_disagreement_naive(models, pool):
    """The first ``(model, formula)``, model by model and then in pool
    order, where ``eval_term`` of the translation differs from the forcing
    extension, or None: the per-model loop that the disjoint-union
    translation-agreement check replaced."""
    for m in models:
        env = {"p": m.ev_set("p"), "q": m.ev_set("q")}
        ext_cache, term_cache = {}, {}
        for f in pool:
            if extension(m, f, ext_cache) != eval_term(m.frame, env, translate(f), term_cache):
                return m, f
    return None


def s_inv_naive(fr, xs, ys):
    """Worlds forced to move their X-successors into Y, as a frozenset."""
    r = r_pairs(fr)
    s = s_triples(fr)
    return frozenset(
        w for w in range(fr.n)
        if all(any((w, u, v) in s and v in ys for v in range(fr.n))
               for u in xs if (w, u) in r))


def r_inv_naive(fr, xs):
    r = r_pairs(fr)
    return frozenset(w for w in range(fr.n)
                     if any((w, u) in r and u in xs for u in range(fr.n)))


def r_inv_dual_naive(fr, ys):
    r = r_pairs(fr)
    return frozenset(w for w in range(fr.n)
                     if all(u in ys for u in range(fr.n) if (w, u) in r))


def term_valid_naive(fr, t):
    """Validity of a set term (it denotes every world) one valuation at a
    time, by structural recursion through ``r_inv_naive``,
    ``r_inv_dual_naive`` and ``s_inv_naive``.

    Valuations are numbered as in ``frame_valid_naive``, over the sorted set
    variables.  Returns ``(valid, ev, world)``: the first refuting valuation
    (variable -> frozenset) and its least missing world, or
    ``(True, None, None)``.  The frame is fixed, so each preimage is
    computed once per argument tuple.
    """
    names = sorted(_atom_names(t))
    n = fr.n
    universe = frozenset(range(n))
    preimages = {}

    def pre(op, *sets):
        if (op, *sets) not in preimages:
            preimages[(op, *sets)] = op(fr, *sets)
        return preimages[(op, *sets)]

    def value(t, ev):
        if isinstance(t, Var):
            return ev[t.name]
        if isinstance(t, Empty):
            return frozenset()
        if isinstance(t, Full):
            return universe
        if isinstance(t, Complement):
            return universe - value(t.arg, ev)
        if isinstance(t, Union):
            return value(t.lhs, ev) | value(t.rhs, ev)
        if isinstance(t, Intersection):
            return value(t.lhs, ev) & value(t.rhs, ev)
        if isinstance(t, BoxOp):
            return pre(r_inv_dual_naive, value(t.arg, ev))
        if isinstance(t, DiaOp):
            return pre(r_inv_naive, value(t.arg, ev))
        assert isinstance(t, SOp)
        return pre(s_inv_naive, value(t.lhs, ev), value(t.rhs, ev))

    for vid in range(1 << len(names) * n):
        ev = {a: frozenset(w for w in range(n) if vid >> i * n + w & 1)
              for i, a in enumerate(names)}
        missing = universe - value(t, ev)
        if missing:
            return False, ev, min(missing)
    return True, None, None


def assuring_naive(fr, fw, member_sets, gw):
    """The raw definition: quantify every finite choice from the family.

    ``member_sets`` is a collection of frozensets (the label's members, or
    any raw family); ``fw``/``gw`` are the witness worlds.  The empty
    choice contributes the empty union.
    """
    members = [frozenset(s) for s in member_sets]
    universe = frozenset(range(fr.n))
    for k in range(len(members) + 1):
        for choice in combinations(members, k):
            union_comp = frozenset().union(*(universe - s for s in choice))
            for abits in range(1 << fr.n):
                a = frozenset(w for w in range(fr.n) if abits >> w & 1)
                if fw in s_inv_naive(fr, universe - a, union_comp):
                    if gw not in a or gw not in r_inv_dual_naive(fr, a):
                        return False
    return True


def assured_rows_naive(ops, ybars):
    """Per witness f, the g assured under the ``ybars`` (unions of member
    complements) by the sweep over every set A: each A whose hypothesis
    fires at f, read off the ``ops.sinv`` columns, ANDs A and its box
    preimage into f's row."""
    fr = ops.fr
    n, full = fr.n, fr.full_mask
    cols = [ops.sinv(y) for y in ybars]
    rdual = ops.rdual
    rows = [full] * n
    for amask in range(1 << n):
        abar = full & ~amask
        fired = 0
        for col in cols:
            fired |= col[abar]
        if fired:
            gate = amask & rdual[amask]
            for fw in bits(fired):
                rows[fw] &= gate
    return rows


def family_tables_naive(ops):
    """Per raw family ``fam`` (bit i = member set i+1), per witness f, the
    mask of g that f assures: every finite choice of members, one set A and
    one f at a time."""
    fr = ops.fr
    n, full = fr.n, fr.full_mask
    nmasks = 1 << n
    sinv = [ops.sinv(y) for y in range(nmasks)]
    rdual = ops.rdual
    famv = []
    for fam in range(1 << nmasks - 1):
        unions = {0}
        for i in range(nmasks - 1):
            if fam >> i & 1:
                comp = full & ~(i + 1)
                unions |= {u | comp for u in unions}
        rows = []
        for fw in range(n):
            ok = full
            for amask in range(nmasks):
                if any(sinv[u][full & ~amask] >> fw & 1 for u in unions):
                    ok &= amask & rdual[amask]
            rows.append(ok)
        famv.append(rows)
    return famv


def label_lemmas_naive(frames):
    """``(name, ok, detail)`` per labeling lemma, in scoreboard order: every
    instance checked by its own call, the first failure per lemma kept.

    Reads the same ``FrameOps`` tables as the scoreboard and the raw-family
    table of ``family_tables_naive``, so a fault planted in either shows in
    both sweeps.
    """
    fails, counts = {}, {}

    def hit(lemma, cond, witness):
        counts[lemma] = counts.get(lemma, 0) + 1
        if not cond and lemma not in fails:
            fails[lemma] = witness

    for fr in frames:
        n, full = fr.n, fr.full_mask
        nmasks = 1 << n
        ops = FrameOps(fr)
        famv = family_tables_naive(ops)
        members = list(range(1, nmasks))
        where = f"n={n} {fr.r_succ}"

        probe = 0
        for fam in range(len(famv)):
            for fw in range(n):
                for gw in range(n):
                    probe += 1
                    if probe % 23:
                        continue
                    sets = [WorldSet(n, members[i]) for i in range(len(members))
                            if fam >> i & 1]
                    real = assuring_family(fr, Ultrafilter(n, fw), sets,
                                           Ultrafilter(n, gw))
                    hit("family-table-probe",
                        real == bool(famv[fam][fw] >> gw & 1),
                        f"{where} fam={fam} f=U{fw} g=U{gw}")

        rinv, rdual, assured = ops.rinv, ops.rdual, ops.assured
        triples = [(fw, lm, gw) for fw in range(n) for lm in range(1, nmasks)
                   for gw in bits(assured(fw, lm))]
        for fw, lm, gw in triples:
            for x in range(nmasks):
                if x >> gw & 1:
                    hit("assuring-pulls-back-membership",
                        rinv[x] >> fw & 1, f"{where} U{fw} up{lm:#x} U{gw} X={x:#x}")
                if x & lm == lm:
                    hit("assuring-pushes-label-forward",
                        x >> gw & 1 and rdual[x] >> gw & 1,
                        f"{where} U{fw} up{lm:#x} U{gw} member={x:#x}")
                    hit("assuring-pulls-back-label",
                        rinv[x] >> fw & 1,
                        f"{where} U{fw} up{lm:#x} U{gw} member={x:#x}")
        for fw, lm, gw in triples:
            for mm in range(1, nmasks):
                for hw in bits(assured(gw, mm)):
                    hit("assuring-transitive",
                        assured(fw, lm) >> hw & 1,
                        f"{where} U{fw} up{lm:#x} U{gw} up{mm:#x} U{hw}")

        for f in all_ultrafilters(fr):
            for l in all_proper_filters(n):
                fired = {ws.mask for ws in b_set(fr, f, l)}
                for c in fired:
                    hit("fired-sets-box-closed", rdual[c] in fired,
                        f"{where} U{f.witness} up{l.min_mask:#x} C={c:#x}")
                    for d in fired:
                        hit("fired-sets-meet-closed", c & d in fired,
                            f"{where} U{f.witness} up{l.min_mask:#x} "
                            f"C={c:#x} D={d:#x}")

        cond = [[all(not (x >> hw & 1) or rinv[x] >> gw & 1
                     for x in range(nmasks)) for hw in range(n)]
                for gw in range(n)]
        for fam in range(len(famv)):
            rows = famv[fam]
            sub = fam
            while True:
                subrows = famv[sub]
                for fw in range(n):
                    hit("family-shrink-monotone",
                        rows[fw] & ~subrows[fw] == 0,
                        f"{where} fam={fam:#x} sub={sub:#x} f=U{fw}")
                if sub == 0:
                    break
                sub = (sub - 1) & fam
            for fw in range(n):
                row = rows[fw]
                for gw in bits(row):
                    for hw in range(n):
                        if cond[gw][hw]:
                            hit("family-successor-transfer",
                                row >> hw & 1,
                                f"{where} fam={fam:#x} U{fw} U{gw} U{hw}")
            for i, x in enumerate(members):
                if not fam >> i & 1:
                    continue
                for y in range(1, nmasks):
                    if y & x == x:
                        ext = fam | 1 << (y - 1)
                        for fw in range(n):
                            hit("family-superset-padding",
                                rows[fw] & ~famv[ext][fw] == 0,
                                f"{where} fam={fam:#x} y={y:#x} f=U{fw}")
            ext = fam
            inter = full
            for i, x in enumerate(members):
                if fam >> i & 1:
                    ext |= 1 << (rdual[x] - 1)
                    inter &= x
            for fw in range(n):
                hit("family-box-padding", rows[fw] & ~famv[ext][fw] == 0,
                    f"{where} fam={fam:#x} f=U{fw}")
            genmin = inter if fam else full
            if genmin:
                for fw in range(n):
                    for gw in bits(rows[fw]):
                        hit("family-generates-filter-label",
                            assured(fw, genmin) >> gw & 1,
                            f"{where} fam={fam:#x} U{fw} U{gw}")

        for lm in range(1, nmasks):
            supfam = 0
            for i, mm in enumerate(members):
                if mm & lm == lm:
                    supfam |= 1 << i
            for fw in range(n):
                for gw in range(n):
                    hit("min-set-reduction-oracle",
                        (assured(fw, lm) >> gw & 1) == (famv[supfam][fw] >> gw & 1),
                        f"{where} U{fw} up{lm:#x} U{gw}")

    order = ["assuring-pulls-back-membership", "assuring-pushes-label-forward",
             "assuring-pulls-back-label", "assuring-transitive",
             "fired-sets-box-closed", "fired-sets-meet-closed",
             "family-shrink-monotone", "family-successor-transfer",
             "family-superset-padding", "family-box-padding",
             "family-generates-filter-label", "family-table-probe",
             "min-set-reduction-oracle"]
    return [(name, name not in fails,
             f"{counts.get(name, 0)} instances" if name not in fails
             else f"first failure at {fails[name]}") for name in order]


def classical_edges_naive(fr):
    """The classical extension's edges (f, g): every subset that holds g
    has its R-preimage holding f, asked of each ultrafilter per subset."""
    ufs = all_ultrafilters(fr)
    return [(f.witness, g.witness) for f in ufs for g in ufs
            if all(not g.contains(x) or f.contains(r_inv_mask(fr, x))
                   for x in range(1 << fr.n))]


def _bisim_failures(ml, mr, z):
    """Each pair of ``z`` that breaks a clause, in sorted order, with the
    first clause it breaks and its witness: atoms by sorted name, then
    forth by ascending left successor, then back by ascending right
    successor.  Relations are pair sets indexed by world."""
    fwd = set(z)
    bwd = {(b, a) for a, b in fwd}
    names = sorted(set(ml.ev) | set(mr.ev))
    sides = []
    for m in (ml, mr):
        r, s = r_pairs(m.frame), s_triples(m.frame)
        succ = {w: sorted(u for x, u in r if x == w) for w in range(m.frame.n)}
        s_succ = {(w, u): {v for x, y, v in s if (x, y) == (w, u)} for w, u in r}
        sides.append((succ, s_succ, {a: set(m.ev_set(a)) for a in names}))
    (succ_l, ss_l, ev_l), (succ_r, ss_r, ev_r) = sides

    def zigzag(w, u, ss, w2, succ2, ss2, rel):
        # some successor u2 of w2 related to u has each of its S-successors
        # related back from an S-successor of u
        return any((u, u2) in rel
                   and all(any((v, v2) in rel for v in ss[w, u]) for v2 in ss2[w2, u2])
                   for u2 in succ2[w2])

    for wl, wr in sorted(fwd):
        broken = chain(
            (("atoms", a) for a in names if (wl in ev_l[a]) != (wr in ev_r[a])),
            (("forth", ul) for ul in succ_l[wl]
             if not zigzag(wl, ul, ss_l, wr, succ_r, ss_r, fwd)),
            (("back", ur) for ur in succ_r[wr]
             if not zigzag(wr, ur, ss_r, wl, succ_l, ss_l, bwd)))
        for clause, witness in islice(broken, 1):
            yield (wl, wr), clause, (witness,)


def bisim_naive(ml, mr, z):
    """``check_bisim`` on pair sets: ``(ok, pair, clause, witness)`` for the
    first failing pair, or ``(True, None, None, None)``."""
    for pair, clause, witness in _bisim_failures(ml, mr, z):
        return False, pair, clause, witness
    return True, None, None, None


def max_bisim_naive(ml, mr):
    """The largest bisimulation: from every pair, drop the pairs that break
    a clause until none does."""
    z = {(i, j) for i in range(ml.frame.n) for j in range(mr.frame.n)}
    while True:
        drop = {pair for pair, _, _ in _bisim_failures(ml, mr, z)}
        if not drop:
            return frozenset(z)
        z -= drop


def pencil_naive(fr):
    """Second implementation of the pencil condition, inverted loop order."""
    r = r_pairs(fr)
    s = s_triples(fr)
    for v in range(fr.n):
        for u in range(fr.n):
            for z in range(fr.n):
                for y in range(fr.n):
                    for x in range(fr.n):
                        if ((x, y) in r and (x, y, z) in s and (z, u) in r
                                and (y, v) in r and (x, v, u) in s
                                and (y, u) not in r):
                            return False
    return True


def count_formulas(n_atoms, depth, size_bound, with_rhd=True):
    """Size of the enumeration pool by dynamic programming, no enumeration.

    table[s][d] = formulas of exact core size s and exact modal depth d.
    """
    table = [[0] * (depth + 1) for _ in range(size_bound + 1)]
    table[0][0] = n_atoms + 1
    for s in range(1, size_bound + 1):
        for d in range(depth + 1):
            total = 0
            # implication: depth is the max of the children's depths
            for ls in range(s):
                rs = s - 1 - ls
                for ld in range(d + 1):
                    for rd in range(d + 1):
                        if max(ld, rd) == d:
                            total += table[ls][ld] * table[rs][rd]
            if d > 0:
                total += table[s - 1][d - 1]  # box
                if with_rhd:
                    for ls in range(s):
                        rs = s - 1 - ls
                        for ld in range(d):
                            for rd in range(d):
                                if max(ld, rd) == d - 1:
                                    total += table[ls][ld] * table[rs][rd]
            table[s][d] = total
    return sum(table[s][d] for s in range(size_bound + 1)
               for d in range(depth + 1))


def count_frames_brute(n):
    """Frames counted by filtering every (R, S) candidate with direct laws."""
    worlds = range(n)
    pairs = [(i, j) for i in worlds for j in worlds if i != j]
    count = 0
    for rbits in range(1 << len(pairs)):
        r = {pairs[i] for i in range(len(pairs)) if rbits >> i & 1}
        if any((i, j) in r and (j, k) in r and (i, k) not in r
               for i in worlds for j in worlds for k in worlds):
            continue
        per_world = []
        for w in worlds:
            succ = [u for u in worlds if (w, u) in r]
            cells = [(i, j) for i in succ for j in succ]
            options = []
            for sbits in range(1 << len(cells)):
                s = {cells[i] for i in range(len(cells)) if sbits >> i & 1}
                if not all((u, u) in s for u in succ):
                    continue
                if any((a, b) in s and (b, c) in s and (a, c) not in s
                       for a in succ for b in succ for c in succ):
                    continue
                if not all((a, b) in s for a in succ for b in succ
                           if (a, b) in r):
                    continue
                options.append(s)
            per_world.append(options)
        total = 1
        for options in per_world:
            total *= len(options)
        count += total
    return count


def relabel_naive(fr, perm):
    """``(r_succ, s_succ)`` of ``fr`` with each world w renamed perm[w]."""
    img = Frame.build(fr.n, [(perm[i], perm[j]) for i, j in r_pairs(fr)],
                      [(perm[w], perm[i], perm[j]) for w, i, j in s_triples(fr)])
    return img.r_succ, img.s_succ


def canonical_naive(fr):
    """The least relabelled ``(r_succ, s_succ)`` over all n! permutations:
    two frames share it exactly when they are isomorphic."""
    return min(relabel_naive(fr, p) for p in permutations(range(fr.n)))


# Fixed tokens (longest first), atoms, or any other character, which is an error.
_TOKEN_RE = re.compile(r"\s*(?:(<->|<>|\[\]|->|\|>|[~&|()FT])|([a-z][a-z0-9_]*)|(\S))")


def _tokenize(text):
    toks = []
    for m in _TOKEN_RE.finditer(text):
        fixed, atom, bad = m.groups()
        if bad:
            raise ParseError(f"unexpected character {bad!r}", m.start(3))
        toks.append((fixed, fixed, m.start(1)) if fixed else ("atom", atom, m.start(2)))
    toks.append(("end", "end of input", len(text)))
    return toks


class _Parser:
    """Recursive descent, with loops for prefix operators and ``->``
    chains, so that only parentheses nest Python calls."""

    def __init__(self, text):
        self.toks = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.toks[self.i][0]

    def take(self):
        t = self.toks[self.i]
        if t[0] == "end":
            raise ParseError("unexpected end of input", t[2])
        self.i += 1
        return t

    def run(self):
        f = self.imp()
        t = self.toks[self.i]
        if t[0] != "end":
            raise ParseError(f"unexpected {t[1]!r}", t[2])
        return f

    def imp(self):
        lefts = []
        f = self.rhd()
        while self.peek() in ("->", "<->"):
            lefts.append((f, self.take()[0]))
            f = self.rhd()
        for left, op in reversed(lefts):
            f = Implies(left, f) if op == "->" else iff(left, f)
        return f

    def rhd(self):
        left = self.junction()
        if self.peek() != "|>":
            return left
        self.take()
        right = self.junction()
        if self.peek() == "|>":
            raise ParseError("|> is non-associative; parenthesize the chain",
                             self.toks[self.i][2])
        return Rhd(left, right)

    def junction(self):
        left = self.unary()
        while self.peek() in ("&", "|"):
            op = self.take()[0]
            right = self.unary()
            left = conj(left, right) if op == "&" else disj(left, right)
        return left

    def unary(self):
        ops = []
        while self.peek() in ("~", "[]", "<>"):
            ops.append(self.take()[0])
        f = self.primary()
        for op in reversed(ops):
            f = neg(f) if op == "~" else Box(f) if op == "[]" else dia(f)
        return f

    def primary(self):
        t = self.take()
        if t[0] == "atom":
            return Atom(t[1])
        if t[0] == "F":
            return BOT
        if t[0] == "T":
            return TOP
        if t[0] == "(":
            if self.depth == NESTING_LIMIT:
                raise ParseError(
                    f"parentheses nested deeper than {NESTING_LIMIT}", t[2])
            self.depth += 1
            f = self.imp()
            self.depth -= 1
            t = self.take()
            if t[0] != ")":
                raise ParseError(f"expected ')', got {t[1]!r}", t[2])
            return f
        raise ParseError(f"unexpected {t[1]!r}", t[2])


def parse_naive(text):
    """Formula text to its core tree by recursive descent, one method per
    grammar level: the parser that ``formula.parse`` replaced, kept
    unchanged with its tokenizer, errors and positions included."""
    return _Parser(text).run()


def postorder_naive(root, enter=None):
    """Each distinct subterm of ``root`` once, after its subterms, by plain
    recursion; nodes failing ``enter(node)`` come unopened."""
    seen, out = set(), []

    def visit(node):
        if node not in seen:
            seen.add(node)
            if enter is None or enter(node):
                for kid in node.kids:
                    visit(kid)
            out.append(node)

    visit(root)
    return tuple(out)
