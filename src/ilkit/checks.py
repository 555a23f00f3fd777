"""Desk-scale verification scoreboard.

Every guarantee the library rests on is re-checked here by exhaustive
sweep at small scale: frame enumeration, axiom soundness, the set
translation, the labeling lemmas behind the assuring relation, the
ultrafilter extension (construction, truth transfer, saturation, witness
search), the pencil non-definability demo, and the classical baseline.
``run_all`` drives them in order; the CLI ``corpus`` subcommand prints
one line per check.

The frame sweeps, but for ``frame-enumeration`` and
``translation-agreement``, check one representative per isomorphism
class (``frames.frame_classes``) and weight their counts by its orbit
size; the laws are first-order, so relabelling keeps them and the counts
are the labelled sweep's.  A failure names the frame the labelled sweep
would: the first failing labelled frame's representative, the first of
its class in ``all_frames`` order, comes no later and fails too.
``translation-agreement`` checks its models as one disjoint-union model:
forcing and ``eval_term`` read a world's own rows only, so component k of
each mask is model k's answer.

The sweeps call the public library functions wherever speed permits.
A pool of formulas or set terms takes one ``frame_refuted`` sweep per
frame.  The labeling-lemma sweeps test whole rows of instances of the
frame's ``FrameOps`` and of a packed raw-family table of their own, which
they cross-check against ``assuring_family`` on a stride sample, so a
divergence between table and implementation still fails the scoreboard.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from functools import cache, reduce, wraps
from itertools import accumulate, product
from operator import and_, or_

from .algebra import (BoxOp, Complement, Intersection, SOp, Union, Var,
                      agreement, eval_term, translate)
from .calculus import _META, SCHEMAS, check_proof, derived_theorems, instantiate
from .corpus import corpus_models
from .extension import (ResourceLimitError, build_ue, build_ue_model,
                        check_label_saturation, check_saturation,
                        check_truth_theorem, classical_ue,
                        find_assured_successor, witness_from_negated)
from .filters import (FrameOps, Ultrafilter, all_proper_filters,
                      all_ultrafilters, assuring_family, b_set)
from .formula import Atom, atoms, enumerate_formulas, parse
from .frames import (Frame, Model, WorldSet, all_frames, bits, chain,
                     disjoint_union, frame_classes, validate)
from .records import Record
from .semantics import extension, frame_refuted, frame_valid

# labelled frames of each size up to MAX_N + 1
EXPECTED_FRAME_COUNTS = {1: 1, 2: 3, 3: 34, 4: 1441}
# the frame sweeps run on every frame of at most MAX_N worlds, the
# classical baseline on one more
MAX_N = 3

# each schema's metavariables are a prefix of _META
_SCHEMA_ARITY = {name: len(atoms(f) & set(_META)) for name, f in SCHEMAS.items()}


class CheckResult(Record):
    _fields = ("name", "ok", "detail", "seconds")

    def __init__(self, name: str, ok: bool, detail: str = "", seconds: float = 0.0):
        self._fill(name, ok, detail, seconds)

    def __bool__(self):
        return self.ok


def _check(name):
    """Turn a function returning ``(ok, detail)`` into a timed check named
    ``name`` that returns a ``CheckResult``."""
    def decorate(body):
        @wraps(body)
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            ok, detail = body(*args, **kwargs)
            return CheckResult(name, ok, detail, time.perf_counter() - t0)
        return timed
    return decorate


@cache
def _frames_for(n: int) -> list[Frame]:
    return list(all_frames(n))


def _frames_up_to(limit: int):
    """Every frame of at most ``limit`` worlds, smallest first."""
    for n in range(1, limit + 1):
        yield from _frames_for(n)


@cache
def _classes_for(n: int) -> list[tuple[Frame, int]]:
    return list(frame_classes(n))


def _classes_up_to(limit: int):
    """``(representative, orbit size)`` for each isomorphism class of
    frames of at most ``limit`` worlds, smallest first."""
    for n in range(1, limit + 1):
        yield from _classes_for(n)


def _pool(depth=2, size=2, modalities=("box", "rhd")):
    return list(enumerate_formulas(("p", "q"), depth, size, modalities))


# ---------------------------------------------------------------- frames


@_check("frame-enumeration")
def frame_enumeration():
    """All small frames generate and pass the law checker; counts frozen,
    and the classes' orbit sizes add up to them, up to MAX_N + 1 worlds."""
    counts, orbits = Counter(), Counter()
    for fr in _frames_up_to(MAX_N):
        counts[fr.n] += 1
        verdict = validate(fr)
        if not verdict:
            return False, f"n={fr.n} frame breaks {verdict.violations[0]}"
    for fr, orbit in _classes_up_to(MAX_N + 1):
        orbits[fr.n] += orbit
    for n, want in EXPECTED_FRAME_COUNTS.items():
        if n <= MAX_N and counts[n] != want:
            return False, f"n={n}: {counts[n]} frames, expected {want}"
        if orbits[n] != want:
            return False, f"n={n}: orbits add up to {orbits[n]}, not {want}"
    summary = "/".join(str(counts[n]) for n in sorted(counts))
    return True, f"counts {summary}, all valid"


# ------------------------------------------------------- axiom soundness


def _instances(picks):
    """(schema, arguments, instance) for each schema and tuple of ``picks``."""
    return [(name, args, instantiate(SCHEMAS[name], dict(zip(_META, args))))
            for name, arity in _SCHEMA_ARITY.items() for args in product(picks, repeat=arity)]


def _first_refuted(fr: Frame, instances):
    """The first ``(name, _, instance)`` refuted on ``fr``, with its
    verdict, or None: one ``frame_refuted`` sweep of all the instances, then
    ``frame_valid`` on the first refuted one for its counterexample."""
    if not (refuted := frame_refuted(fr, [x[2] for x in instances])):
        return None
    x = instances[min(refuted)]
    return x, frame_valid(fr, x[2])


@_check("axiom-soundness")
def axiom_soundness():
    """Every schema instance is valid on every small frame.

    A schema instance's extension only depends on the extensions of the
    formulas plugged in, and an atom alone already takes every possible
    extension as the valuation varies; so the validity sweep of the schema
    itself, over all mask tuples for the metavariables, covers every
    instance over any pool.  A stride of literal depth-1 instances
    additionally goes through the validity sweep.  The schemas and the
    stride are each one ``frame_refuted`` sweep per frame, and one
    ``frame_valid`` only on a frame that refutes a member, to name it.
    """
    schemas = [(name, _META[:arity], SCHEMAS[name]) for name, arity in _SCHEMA_ARITY.items()]
    mask_cases = 0
    for fr, orbit in _classes_up_to(MAX_N):
        mask_cases += sum(orbit << len(metas) * fr.n for _, metas, _ in schemas)
        if found := _first_refuted(fr, schemas):
            (name, metas, _), verdict = found
            masks = tuple(verdict.ev[var].mask for var in metas)
            return False, (f"{name} fails on n={fr.n} frame "
                           f"{fr.r_succ} at masks {masks}")
    # literal instances over 2 atoms at depth <= 1, via frame_valid
    depth1 = _pool(depth=1, size=2)
    picks = depth1[::max(1, len(depth1) // 4)][:4]
    literals = _instances(picks)
    literal_cases = 0
    for fr, orbit in _classes_up_to(MAX_N):
        literal_cases += orbit * len(literals)
        if found := _first_refuted(fr, literals):
            (name, args, _), verdict = found
            return False, (f"{name}{tuple(map(str, args))} refuted "
                           f"on n={fr.n} frame at world {verdict.world}")
    return True, (f"{mask_cases} mask instances + {literal_cases} literal "
                  f"instances, 0 counterexamples")


# ------------------------------------------------------- set translation


_A, _B, _C = Var("a"), Var("b"), Var("c")
# (name, set variables, term): each inclusion X <= Y is the term comp(X) | Y
INCLUSION_LAWS = (
    ("box idempotence", 1, Union(Complement(BoxOp(_A)), BoxOp(BoxOp(_A)))),
    ("union monotonicity", 3, Union(Complement(SOp(_A, _B)), SOp(_A, Union(_B, _C)))),
    ("composition law", 3,
     Union(Complement(Intersection(SOp(_A, _B), SOp(_B, _C))), SOp(_A, _C))),
)


@_check("translation-validity")
def translation_validity():
    """Translated axioms denote W; the inclusion laws hold exhaustively.

    The translated axiom instances over p, q are one ``frame_refuted`` sweep
    per frame (and one ``frame_valid`` where one fails), counted as 2^(2n)
    valuations per instance (even with one atom); ``INCLUSION_LAWS`` are
    one more such sweep per frame, 2^(kn) over a law's k variables.
    """
    terms = [(name, args, translate(f))
             for name, args, f in _instances([Atom("p"), Atom("q")])]
    axiom_cases = 0
    for fr, orbit in _classes_up_to(MAX_N):
        axiom_cases += orbit * len(terms) << 2 * fr.n
        if found := _first_refuted(fr, terms):
            (name, _, term), verdict = found
            got = eval_term(fr, verdict.ev, term).mask
            return False, (f"{name} translation misses "
                           f"{fr.full_mask ^ got:#x} on n={fr.n}")
    incl_cases = 0
    for fr, orbit in _classes_up_to(MAX_N):
        incl_cases += sum(orbit << nvars * fr.n for _, nvars, _ in INCLUSION_LAWS)
        if found := _first_refuted(fr, INCLUSION_LAWS):
            return False, f"{found[0][0]} fails on n={fr.n}"
    return True, f"{axiom_cases} axiom valuations = W, {incl_cases} inclusions"


def _agreement_models() -> list[Model]:
    """Small corpus models, then every small frame under two seeded valuations."""
    rng = random.Random(0)
    return [m for _, m in corpus_models() if m.frame.n <= MAX_N] + [
        Model(fr, {a: WorldSet(fr.n, rng.randrange(1 << fr.n)) for a in ("p", "q")})
        for fr in _frames_up_to(MAX_N) for _ in range(2)]


@_check("translation-agreement")
def translation_agreement():
    """eval_term after translate matches the forcing extension; the first
    failing component, then formula, names the failure."""
    pool = _pool()
    models = _agreement_models()
    starts = list(accumulate((m.frame.n for m in models), initial=0))
    env = {a: WorldSet(starts[-1], sum(m.ev_mask(a) << o for m, o in zip(models, starts)))
           for a in ("p", "q")}
    um, ext_cache, term_cache = Model(disjoint_union([m.frame for m in models]), env), {}, {}
    diffs = [extension(um, f, ext_cache).mask
             ^ eval_term(um.frame, env, translate(f), term_cache).mask for f in pool]
    apart = reduce(or_, diffs)
    for m, o in zip(models, starts):
        if part := (1 << m.frame.n) - 1 << o & apart:
            f = next(f for f, d in zip(pool, diffs) if d & part)
            return False, f"mismatch on {f} over n={m.frame.n}"
    # also exercise the public one-shot wrapper on a stride
    for m in models[:6]:
        for f in pool[::37]:
            if not agreement(m, f):
                return False, f"agreement() refutes {f}"
    return True, f"{len(models)} models x {len(pool)} formulas = {len(models) * len(pool)} cases"


# ------------------------------------------------------- labeling lemmas


def _family_tables(ops) -> list[int]:
    """The raw-family verdict table for the family-indexed assuring sweep.

    One packed int per raw family ``fam`` (bit i = member set i+1): bit
    ``fw*n + gw`` is set when witness fw assures gw under that family.
    Written apart from ``FrameOps.family_rows`` on purpose: the sweep holds
    ``assuring_family`` against this table.  Bit u of a family's union set
    marks each union u of the complements of a subfamily; it comes from the
    family without its top member, and each distinct one gets its row once.
    """
    fr = ops.fr
    n, full = fr.n, fr.full_mask
    nmasks = 1 << n
    # fires[y]: bit fw*nmasks + a is set when U{fw} moves the successors
    # outside the set a into y, so that a's hypothesis fires there
    fires = [sum(1 << fw * nmasks + a for fw in range(n) for a in range(nmasks)
                 if col[full & ~a] >> fw & 1) for col in map(ops.sinv, range(nmasks))]
    # allowed[t]: the g that every set a in the mask t, and a's box preimage, hold
    allowed = _subset_folds([a & ops.rdual[a] for a in range(nmasks)], and_, full)
    usets = [1]   # the empty family: the empty union only
    for fam in range(1, 1 << nmasks - 1):
        top = fam.bit_length() - 1
        rest, comp = usets[fam ^ 1 << top], full & ~(top + 1)
        usets.append(reduce(or_, [1 << (u | comp) for u in bits(rest)], rest))
    rows = {}
    for uset in dict.fromkeys(usets):   # one row per distinct union set
        fired = reduce(or_, [fires[u] for u in bits(uset)])
        rows[uset] = sum(allowed[fired >> fw * nmasks & (1 << nmasks) - 1] << fw * n
                         for fw in range(n))
    return [rows[uset] for uset in usets]


def _subset_folds(values, op, empty) -> list[int]:
    """``out[t]``: ``op`` folded over the ``values[i]`` for the bits i of t."""
    out = [empty]
    for v in values:
        out += [op(o, v) for o in out]
    return out


def _lap(spans, row, t0):
    now = time.perf_counter()
    spans[row] = spans.get(row, 0.0) + now - t0
    return now


LABEL_LEMMAS = """assuring-pulls-back-membership assuring-pushes-label-forward
    assuring-pulls-back-label assuring-transitive fired-sets-box-closed
    fired-sets-meet-closed family-shrink-monotone family-successor-transfer
    family-superset-padding family-box-padding family-generates-filter-label
    family-table-probe min-set-reduction-oracle""".split()


def label_lemma_scoreboard() -> list[CheckResult]:
    """One result per labeling-lemma sweep, all exhaustive at small n.

    Each instance of a lemma is one bit of a row: a mask over subsets, an
    assured row, or the packed rows of a raw family or a label (bit
    ``fw*n + gw``).  A block tests a whole row with one mask operation (an
    AND-NOT per family pair, an XOR per label) and adds the row's instance
    count in bulk; only a failing row is scanned, lowest bit first, for
    the first failing instance in sweep order, which the detail names.

    ``family-shrink-monotone`` compares each family F only with F - {i},
    lowest i first, yet counts all (family, subfamily) pairs and reports
    the descending subfamily walk's first failure: if the least failing F
    fails at S, each smaller F - {i} with i in F - S passes at S, so F
    fails at F - {i}, which the walk meets first when |F - S| > 1.

    Each frame runs six blocks of sweeps, several rows to a block.  A
    block's measured time, summed over frames, goes on the first row it
    checks; its other rows read 0.0.  Building a shared table counts
    toward the first block that uses it: the raw-family table and its
    ``s_inv`` columns toward ``family-table-probe``, the ``FrameOps``
    label rows toward ``assuring-pulls-back-membership``.
    """
    fails, spans, where = {}, {}, ""
    counts = dict.fromkeys(LABEL_LEMMAS, 0)

    def fail(lemma, at):
        fails.setdefault(lemma, f"{where} {at}")

    for fr, orbit in _classes_up_to(MAX_N):
        t = time.perf_counter()
        here = Counter()
        n, full = fr.n, fr.full_mask
        nmasks = 1 << n
        ops = FrameOps(fr)
        tab = _family_tables(ops)
        where = f"n={n} {fr.r_succ}"

        # cross-check every 23rd (fam, f, g) of the table against the public function
        here["family-table-probe"] += len(tab) * n * n // 23
        for k in range(22, len(tab) * n * n, 23):
            fam, fw, gw = k // (n * n), k // n % n, k % n
            sets = [WorldSet(n, i + 1) for i in bits(fam)]
            real = assuring_family(fr, Ultrafilter(n, fw), sets, Ultrafilter(n, gw))
            if real != bool(tab[fam] >> fw * n + gw & 1):
                fail("family-table-probe", f"fam={fam} f=U{fw} g=U{gw}")
        t = _lap(spans, "family-table-probe", t)

        # masks over subsets x: x contains lm (so over[1 << g] holds g);
        # rinv[x] misses f; x or rdual[x] misses g
        rinv, rdual, assured = ops.rinv, ops.rdual, ops.assured
        over = [sum(1 << x for x in range(nmasks) if x & lm == lm) for lm in range(nmasks)]
        unpulled = [sum(1 << x for x in range(nmasks) if not rinv[x] >> f & 1)
                    for f in range(n)]
        unpushed = [sum(1 << x for x in range(nmasks) if not (x & rdual[x]) >> g & 1)
                    for g in range(n)]
        triples = [(fw, lm, gw) for fw in range(n) for lm in range(1, nmasks)
                   for gw in bits(assured(fw, lm))]
        for fw, lm, gw in triples:
            at = f"U{fw} up{lm:#x} U{gw}"
            here["assuring-pulls-back-membership"] += nmasks >> 1
            here["assuring-pushes-label-forward"] += over[lm].bit_count()
            here["assuring-pulls-back-label"] += over[lm].bit_count()
            if bad := over[1 << gw] & unpulled[fw]:
                fail("assuring-pulls-back-membership",
                     f"{at} X={(bad & -bad).bit_length() - 1:#x}")
            if bad := over[lm] & unpushed[gw]:
                fail("assuring-pushes-label-forward",
                     f"{at} member={(bad & -bad).bit_length() - 1:#x}")
            if bad := over[lm] & unpulled[fw]:
                fail("assuring-pulls-back-label",
                     f"{at} member={(bad & -bad).bit_length() - 1:#x}")
        t = _lap(spans, "assuring-pulls-back-membership", t)
        # every successor of g under some label, and how many (g, label, h) there are
        reach = [reduce(or_, (assured(g, mm) for mm in range(1, nmasks))) for g in range(n)]
        nreach = [sum(assured(g, mm).bit_count() for mm in range(1, nmasks)) for g in range(n)]
        for fw, lm, gw in triples:
            here["assuring-transitive"] += nreach[gw]
            if reach[gw] & ~(row := assured(fw, lm)):
                mm = next(mm for mm in range(1, nmasks) if assured(gw, mm) & ~row)
                miss = assured(gw, mm) & ~row
                hw = (miss & -miss).bit_length() - 1
                fail("assuring-transitive", f"U{fw} up{lm:#x} U{gw} up{mm:#x} U{hw}")
        t = _lap(spans, "assuring-transitive", t)

        # a fired family is a mask over subsets, out its complement;
        # boxed_into[t] and meets_into[c][t]: the subsets whose box
        # preimage, or meet with c, lies in the mask t
        boxed_into = _subset_folds([sum(1 << c for c in range(nmasks) if rdual[c] == y)
                                    for y in range(nmasks)], or_, 0)
        meets_into = [_subset_folds([sum(1 << d for d in range(nmasks) if c & d == y)
                                     for y in range(nmasks)], or_, 0) for c in range(nmasks)]
        for f in all_ultrafilters(fr):
            for l in all_proper_filters(n):
                fired = sum(1 << ws.mask for ws in b_set(fr, f, l))
                out, size = (1 << nmasks) - 1 & ~fired, fired.bit_count()
                here["fired-sets-box-closed"] += size
                here["fired-sets-meet-closed"] += size * size
                at = f"U{f.witness} up{l.min_mask:#x}"
                if bad := fired & boxed_into[out]:
                    fail("fired-sets-box-closed", f"{at} C={(bad & -bad).bit_length() - 1:#x}")
                for c in bits(fired):
                    if bad := fired & meets_into[c][out]:
                        fail("fired-sets-meet-closed",
                             f"{at} C={c:#x} D={(bad & -bad).bit_length() - 1:#x}")
                        break
        t = _lap(spans, "fired-sets-box-closed", t)

        # cond[g]: the h that every subset holding h has g in its diamond
        # preimage; need[row] gathers cond over the g of a row, with a count
        cond = [full & ~reduce(or_, bits(unpulled[g]), 0) for g in range(n)]
        need = [reduce(or_, (cond[g] for g in bits(row)), 0) for row in range(nmasks)]
        ntransfer = [sum(cond[g].bit_count() for g in bits(row)) for row in range(nmasks)]
        packed = [sum(assured(fw, lm) << fw * n for fw in range(n)) if lm else 0
                  for lm in range(nmasks)]
        for fam, rows in enumerate(tab):
            for sub in (fam ^ 1 << i for i in bits(fam)):
                if bad := rows & ~tab[sub]:
                    fail("family-shrink-monotone",
                         f"fam={fam:#x} sub={sub:#x} f=U{((bad & -bad).bit_length() - 1) // n}")
                    break
            here["family-shrink-monotone"] += n << fam.bit_count()
            for fw in range(n):
                row = rows >> fw * n & full
                here["family-successor-transfer"] += ntransfer[row]
                if need[row] & ~row:
                    gw = next(g for g in bits(row) if cond[g] & ~row)
                    miss = cond[gw] & ~row
                    hw = (miss & -miss).bit_length() - 1
                    fail("family-successor-transfer", f"fam={fam:#x} U{fw} U{gw} U{hw}")
            ext, inter = fam, full
            for x in (i + 1 for i in bits(fam)):
                here["family-superset-padding"] += n * over[x].bit_count()
                for y in bits(over[x]):
                    if bad := rows & ~tab[fam | 1 << y - 1]:
                        fail("family-superset-padding",
                             f"fam={fam:#x} y={y:#x} f=U{((bad & -bad).bit_length() - 1) // n}")
                ext |= 1 << rdual[x] - 1
                inter &= x
            here["family-box-padding"] += n
            if bad := rows & ~tab[ext]:
                fail("family-box-padding",
                     f"fam={fam:#x} f=U{((bad & -bad).bit_length() - 1) // n}")
            if inter:
                here["family-generates-filter-label"] += rows.bit_count()
                if bad := rows & ~packed[inter]:
                    b = (bad & -bad).bit_length() - 1
                    fail("family-generates-filter-label", f"fam={fam:#x} U{b // n} U{b % n}")
        t = _lap(spans, "family-shrink-monotone", t)

        for lm in range(1, nmasks):
            here["min-set-reduction-oracle"] += n * n
            # over[lm] >> 1 is the raw family of every member of up{lm}
            if bad := packed[lm] ^ tab[over[lm] >> 1]:
                b = (bad & -bad).bit_length() - 1
                fail("min-set-reduction-oracle", f"U{b // n} up{lm:#x} U{b % n}")
        _lap(spans, "min-set-reduction-oracle", t)
        for name, k in here.items():
            counts[name] += orbit * k

    return [CheckResult(name, name not in fails,
                        f"first failure at {fails[name]}" if name in fails
                        else f"{counts[name]} instances", spans.get(name, 0.0))
            for name in LABEL_LEMMAS]


# -------------------------------------------------- ultrafilter extension


@_check("extension-construction")
def extension_construction():
    """Frozen chain(2) structure; corpus extensions validate; caps hold."""
    ue = build_ue(chain(2))
    got = [(w.uf.witness, tuple(l.min_mask for l in w.labels)) for w in ue.worlds]
    want = [(0, ()), (1, ()), (1, (0b10,)), (1, (0b11,))]
    if got != want:
        return False, f"chain(2) worlds {got} != {want}"
    if ue.frame.r_succ != (0b1100, 0, 0, 0):
        return False, f"chain(2) edges {ue.frame.r_succ}"
    if ue.frame.s_succ[0] != (0, 0, 0b0100, 0b1000):
        return False, f"chain(2) root S {ue.frame.s_succ[0]}"
    try:
        build_ue(chain(3), max_worlds=5)
        return False, "cap of 5 not enforced on chain(3)"
    except ResourceLimitError:
        pass
    sizes = []
    for name, m in corpus_models():
        ue = build_ue(m.frame)
        verdict = validate(ue.frame)
        if not verdict:
            return False, f"{name}: extension breaks {verdict.violations[0]}"
        sizes.append(f"{name}:{len(ue)}")
    return True, "chain(2) frozen; " + " ".join(sizes)


@_check("extension-truth")
def extension_truth():
    """Base and extension force the same formulas at paired worlds."""
    pool = _pool()
    models = 0
    for name, m in corpus_models():
        if m.frame.n > MAX_N:
            continue
        models += 1
        verdict = check_truth_theorem(m, pool)
        if not verdict.ok:
            return False, f"{name}: {verdict.detail}"
    return True, f"{models} corpus models x {len(pool)} formulas"


@_check("saturation")
def saturation():
    """Extensions are modally saturated; labels saturate exhaustively."""
    pool = [parse("p"), parse("q"), parse("<>p"), parse("[]q")]
    models = corpus_models()
    for name, m in models:
        verdict = check_saturation(build_ue_model(m), pool)
        if not verdict.ok:
            return False, f"{name}: {verdict.detail}"
    frames = 0
    for fr, orbit in _classes_up_to(MAX_N):
        frames += orbit
        verdict = check_label_saturation(fr)
        if not verdict.ok:
            return False, f"label saturation fails on n={fr.n}: {verdict.detail}"
    return True, (f"{len(models)} corpus extensions, "
                  f"pool of {len(pool)}; {frames} frames label-saturated")


@_check("witness-search")
def witness_search():
    """Both witness searches succeed on every qualifying instance."""
    found_a = found_b = 0
    for fr, orbit in _classes_up_to(MAX_N):
        n, full = fr.n, fr.full_mask
        nmasks = 1 << n
        ops = FrameOps(fr)
        labels = all_proper_filters(n)
        for f in all_ultrafilters(fr):
            for amask in range(nmasks):
                for bmask in range(nmasks):
                    a, b = WorldSet(n, amask), WorldSet(n, bmask)
                    sv = ops.sinv(bmask)[amask]
                    if sv >> f.witness & 1:
                        for l in labels:
                            if ops.assured(f.witness, l.min_mask) & amask:
                                if find_assured_successor(fr, f, l, a, b) is None:
                                    return False, (f"no assured successor n={n} "
                                                   f"U{f.witness} up{l.min_mask:#x} "
                                                   f"A={amask:#x} B={bmask:#x}")
                                found_a += orbit
                    if (full & ~sv) >> f.witness & 1:
                        if witness_from_negated(fr, f, a, b) is None:
                            return False, (f"no negated witness n={n} U{f.witness} "
                                           f"A={amask:#x} B={bmask:#x}")
                        found_b += orbit
    return True, f"{found_a} assured-successor + {found_b} negated instances"


# ------------------------------------------------------------ demo + base


@_check("pencil-demo")
def pencil_demo(fan=3, depth=2):
    """The non-definability demo succeeds end to end."""
    from .pencil import nondefinability_demo
    report = nondefinability_demo(m=fan, depth=depth)
    if not report.ok:
        return False, f"demo failed: {report.failure}"
    return True, (f"fan {fan}, {report.trials} valuations, depth {depth}; "
                  f"violation witness {report.bad_witness}")


@_check("classical-baseline")
def classical_baseline():
    """Classical extensions are isomorphic to their finite bases; the
    box-fragment truth lemma and validity reflection hold on the corpus."""
    frames = 0
    for fr, orbit in _classes_up_to(MAX_N + 1):
        frames += orbit
        cue = classical_ue(fr)
        if cue.frame.r_succ != fr.r_succ:
            return False, f"n={fr.n}: classical edges {cue.frame.r_succ} != {fr.r_succ}"
    pool = _pool(modalities=("box",))
    models = corpus_models()
    for name, m in models:
        cue = classical_ue(m.frame, m)
        base_cache, ue_cache = {}, {}
        lifted_refuted, base_refuted = frame_refuted(cue.frame, pool), frame_refuted(m.frame, pool)
        for k, f in enumerate(pool):
            base = extension(m, f, base_cache).mask
            # world x of the extension is the principal ultrafilter at x
            if diff := base ^ extension(cue.model, f, ue_cache).mask:
                x = (diff & -diff).bit_length() - 1
                return False, f"{name}: truth lemma fails on {f} at U{x}"
            if k not in lifted_refuted and k in base_refuted:
                return False, f"{name}: validity not reflected for {f}"
    return True, (f"{frames} frames isomorphic; box pool of {len(pool)} "
                  f"checked on {len(models)} corpus models")


@_check("proof-checking")
def proof_checking():
    """The stocked derived theorems all check, axioms included."""
    names = []
    for name, (formula, proof) in derived_theorems().items():
        verdict = check_proof(proof)
        if not verdict.valid:
            return False, f"{name}: step {verdict.failed_step}: {verdict.reason}"
        if verdict.conclusion != formula:
            return False, f"{name}: proves {verdict.conclusion}, not {formula}"
        names.append(name)
    return True, f"{len(names)} theorems: " + " ".join(sorted(names))


def run_all(fan=3, depth=2) -> list[CheckResult]:
    """Every scoreboard check, in dependency order."""
    return [
        frame_enumeration(),
        axiom_soundness(),
        proof_checking(),
        translation_validity(),
        translation_agreement(),
        *label_lemma_scoreboard(),
        extension_construction(),
        extension_truth(),
        saturation(),
        witness_search(),
        pencil_demo(fan=fan, depth=depth),
        classical_baseline(),
    ]
