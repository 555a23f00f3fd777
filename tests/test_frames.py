import hashlib
import pickle
import random
from collections import Counter
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, strategies as st

from ilkit.extension import build_ue
from ilkit.frames import (
    CompletionError, Frame, Model, WorldSet, all_frames, bits, chain, complete,
    fan, frame_classes, tree, validate,
)

import oracles
from helpers import longest_chain, random_frame


# ---------------------------------------------------------------- WorldSet

def test_worldset_basics():
    a = WorldSet.from_iter(4, [0, 2])
    assert list(a) == [0, 2]
    assert len(a) == 2
    assert 2 in a and 1 not in a and 7 not in a
    assert a.complement() == WorldSet.from_iter(4, [1, 3])
    assert WorldSet.full(4).mask == 0b1111
    assert WorldSet.empty(4).mask == 0
    assert repr(a) == "{0,2}"


def test_bits_matches_a_scan_of_every_bit():
    # up to 24 set bits one low-bit step per bit, past that a split of the
    # binary text: masks either side of the switch, up to 5,000 bits wide
    rng = random.Random(26)
    masks = [0, 1, 1 << 4999, (1 << 24) - 1, (1 << 25) - 1, ((1 << 24) - 1) << 977,
             (1 << 5000) - 1]
    for width in (25, 64, 300, 5000):
        for k in (1, 23, 24, 25, 26, 200, width - 1, width):
            if k <= width:
                masks += [sum(1 << b for b in rng.sample(range(width), k)) for _ in range(3)]
    for m in masks:
        assert bits(m) == [i for i in range(m.bit_length()) if m >> i & 1], m
    assert next(iter(WorldSet(3, 0b110))) == 1   # iterating a WorldSet gives an iterator


def test_worldset_guards():
    with pytest.raises(ValueError):
        WorldSet(2, 0b100)
    with pytest.raises(ValueError):
        WorldSet.from_iter(2, [5])
    with pytest.raises(ValueError):
        WorldSet(2, 1) | WorldSet(3, 1)


masks = st.integers(min_value=0, max_value=31)


@given(masks, masks, masks)
def test_worldset_algebra(x, y, z):
    a, b, c = (WorldSet(5, m) for m in (x, y, z))
    assert (a | b) & c == (a & c) | (b & c)
    assert a - b == a & b.complement()
    assert a.complement().complement() == a
    assert (a | b).complement() == a.complement() & b.complement()
    assert not a - (a | b)
    assert not (a & b) - a
    assert (not a - b) == all(w in b for w in a)


# ------------------------------------------------------------------ frames

def test_build_collects_pairs():
    fr = Frame.build(3, [(0, 1), (1, 2), (0, 1)], [(0, 1, 1), (0, 1, 2)])
    assert fr.r_succ == (0b010, 0b100, 0)
    assert fr.s_succ[0][1] == 0b110
    assert sorted(fr.r_pairs()) == [(0, 1), (1, 2)]
    assert sorted(fr.s_pairs(0)) == [(1, 1), (1, 2)]
    with pytest.raises(ValueError):
        Frame.build(2, [(0, 5)])


def test_validate_flags_each_law():
    ok = chain(3)
    assert validate(ok).ok
    assert validate(ok).violations == ()

    reflexive = Frame.build(2, [(0, 0), (0, 1)], [(0, 0, 0), (0, 1, 1)])
    assert ("R-irreflexive", (0,)) in validate(reflexive).violations

    not_trans = Frame.build(3, [(0, 1), (1, 2)], [(0, 1, 1), (1, 2, 2)])
    assert ("R-transitive", (0, 1, 2)) in validate(not_trans).violations

    stray_s = Frame.build(3, [(0, 1)], [(0, 1, 1), (0, 1, 2)])
    assert ("S-domain", (0, 1, 2)) in validate(stray_s).violations

    no_refl = Frame.build(2, [(0, 1)])
    assert ("S-reflexive", (0, 1)) in validate(no_refl).violations

    fr = fan(3)
    rows = [list(r) for r in fr.s_succ]
    rows[0][1] |= 1 << 2   # add 1 S_0 2 without 2 S_0 1's consequences
    rows[0][2] |= 1 << 3
    broken = Frame(fr.n, fr.r_succ, tuple(tuple(r) for r in rows))
    kinds = {k for k, _ in validate(broken).violations}
    assert "S-transitive" in kinds

    missing_r = chain(3)
    rows = [list(r) for r in missing_r.s_succ]
    rows[0][1] &= ~(1 << 2)  # drop 1 S_0 2 although 1 R 2 inside R[0]
    broken = Frame(missing_r.n, missing_r.r_succ, tuple(tuple(r) for r in rows))
    assert ("S-contains-R", (0, 1, 2)) in validate(broken).violations


def test_s_pairs_lists_every_nonzero_cell():
    # empty cells are skipped; a stray cell outside R[w] is still listed
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
        triples = [(w, i, j) for w in range(n) for i in range(n)
                   for j in range(n) if rng.random() < 0.1]
        fr = Frame.build(n, pairs, triples)
        for w in range(n):
            assert list(fr.s_pairs(w)) == sorted(
                (i, j) for v, i, j in oracles.s_triples(fr) if v == w)


def test_validate_matches_naive_oracle():
    # seeded random seed relations, most of them illegal
    illegal = 0
    for seed in range(500):
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        pairs = [(i, j) for i in range(n) for j in range(n)
                 if rng.random() < (0.5 if i < j else 0.06)]
        triples = [(w, i, j) for w in range(n) for i in range(n)
                   for j in range(n) if rng.random() < 0.08]
        fr = Frame.build(n, pairs, triples)
        got = validate(fr)
        assert got.violations == oracles.validate_naive(fr)
        illegal += not got.ok
    assert illegal >= 300, illegal
    for n in range(1, 4):
        for fr in all_frames(n):
            assert validate(fr).violations == oracles.validate_naive(fr) == ()
    fr = build_ue(chain(3)).frame
    assert validate(fr).violations == oracles.validate_naive(fr) == ()

    # u = 1 and u = 3 share the S_0 row {1, 2}, which 2 S_0 3 breaks: the
    # witness repeats for each; S_4 holds the same row value legally
    r = [(w, u) for w in (0, 4) for u in (1, 2, 3)]
    s0 = {1: (1, 2), 2: (2, 3), 3: (1, 2)}
    s4 = {1: (1, 2), 2: (1, 2), 3: (1, 2, 3)}
    fr = Frame.build(5, r, [(0, u, v) for u, vs in s0.items() for v in vs]
                     + [(4, u, v) for u, vs in s4.items() for v in vs])
    got = validate(fr).violations
    assert got == oracles.validate_naive(fr)
    assert [c for k, c in got if k == "S-transitive"] == [
        (0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 2, 3)]

    # leaves 0, 1 and 3 share one zero tuple with the non-leaf 2; the last
    # leaf, 4, holds a different, nonzero tuple
    zero = (0,) * 5
    rows = (zero, zero, zero, zero, (0, 0, 0b100, 0, 0))
    fr = Frame(5, (0, 0, 0b1000, 0, 0), rows)
    got = validate(fr).violations
    assert got == oracles.validate_naive(fr)
    assert got == (("S-reflexive", (2, 3)), ("S-domain", (4, 2, 2)))


def test_complete_closes_seeds():
    fr = complete(Frame.build(3, [(0, 1), (1, 2)]))
    assert fr.r_succ == (0b110, 0b100, 0)
    assert validate(fr).ok
    # S_0 must relate 1 to 2 (from R) and be reflexive on {1, 2}
    assert fr.s_succ[0][1] == 0b110
    assert fr.s_succ[0][2] == 0b100


def test_complete_is_idempotent_and_minimal():
    for seed in range(20):
        fr = random_frame(4, seed)
        assert complete(fr) == fr  # already legal, nothing to add
    seeded = Frame.build(4, [(0, 1), (1, 2), (2, 3)], [(0, 1, 3)])
    done = complete(seeded)
    assert validate(done).ok
    assert done.s_succ[0][1] >> 3 & 1
    assert complete(done) == done


def _completion_message(fr):
    try:
        complete(fr)
    except CompletionError as exc:
        return str(exc)
    return "ok"


def test_complete_rejects_cycles():
    cases = [
        (Frame.build(1, [(0, 0)]), "0 -> 0"),                                  # self-loop
        (Frame.build(3, [(0, 1), (1, 2), (2, 0)]), "0 -> 1 -> 2 -> 0"),
        (Frame.build(4, [(0, 1), (1, 2), (2, 3), (3, 1)]), "1 -> 2 -> 3 -> 1"),  # tail 0
        # two cycles through 0: breadth first names the shorter, not 0 -> 1 -> 2 -> 0
        (Frame.build(4, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 0)]), "0 -> 3 -> 0"),
    ]
    for fr, cycle in cases:
        assert _completion_message(fr) == "R closure creates a cycle: " + cycle


def test_completion_messages_frozen():
    # 2,000 seeded seed frames: 926 complete, 433 stray S seeds, 641 cycles
    # of 1 to 4 edges; sha256 of their messages, one a line
    messages = []
    for seed in range(2000):
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        pairs = [(i, j) for i in range(n) for j in range(n)
                 if rng.random() < (0.5 if i < j else 0.12 if i > j else 0.02)]
        triples = [(w, i, j) for w in range(n) for i in range(n)
                   for j in range(n) if rng.random() < 0.015]
        messages.append(_completion_message(Frame.build(n, pairs, triples)))
    assert sum("cycle" in m for m in messages) == 641
    digest = hashlib.sha256("\n".join(messages).encode()).hexdigest()
    assert digest == "cf3317637bf00363378223e2b3d8ef015ba61b6ef8392a3a168b7a419ef7724d"


def test_complete_rejects_stray_s_seed():
    # S_0 pair touching a world outside R[0] cannot be legalized
    with pytest.raises(CompletionError):
        complete(Frame.build(3, [(0, 1)], [(0, 1, 2)]))
    with pytest.raises(CompletionError):
        complete(Frame.build(3, [(0, 1)], [(2, 0, 0)]))


def test_complete_matches_naive_oracle():
    # seeded random seed relations: cyclic R, stray S seeds and legal ones
    outcomes = {"legal": 0, "cycle": 0, "stray": 0}
    for seed in range(400):
        rng = random.Random(seed)
        n = rng.randint(1, 5)
        pairs = [(i, j) for i in range(n) for j in range(n)
                 if i != j and rng.random() < (0.5 if i < j else 0.08)]
        triples = [(w, i, j) for w in range(n) for i in range(w + 1, n)
                   for j in range(w + 1, n) if rng.random() < 0.1]
        if rng.random() < 0.15:
            triples.append((rng.randrange(n), rng.randrange(n),
                            rng.randrange(n)))
        fr = Frame.build(n, pairs, triples)
        try:
            want = oracles.complete_naive(fr)
        except CompletionError as exc:
            kind = "cycle" if "cycle" in str(exc) else "stray"
            with pytest.raises(CompletionError) as err:
                complete(fr)
            assert ("cycle" in str(err.value)) == (kind == "cycle")
            outcomes[kind] += 1
            continue
        assert complete(fr) == want
        outcomes["legal"] += 1
    assert min(outcomes.values()) >= 50, outcomes
    # S seeds as random partitions of R[w], so that several members share
    # one row value; an extra pair in some of them makes the closure grow
    grown = 0
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.5]
        r = oracles.complete_naive(Frame.build(n, pairs)).r_succ
        triples = []
        for w in range(n):
            succ = [u for u in range(n) if r[w] >> u & 1]
            rest = rng.sample(succ, len(succ))
            while rest:
                cut = rng.randint(1, len(rest))
                block, rest = rest[:cut], rest[cut:]
                triples += [(w, u, v) for u in block for v in block]
            if succ and rng.random() < 0.5:
                triples.append((w, rng.choice(succ), rng.choice(succ)))
        fr = Frame.build(n, pairs, triples)
        want = oracles.complete_naive(fr)
        assert complete(fr) == want
        grown += want.s_succ != fr.s_succ
    assert grown >= 100, grown
    for n in range(1, 4):
        for fr in all_frames(n):
            assert complete(fr) == oracles.complete_naive(fr) == fr
    # the R-leaves 0, 1 and 3 share one zero tuple with the non-leaf 2
    zero = (0,) * 4
    fr = Frame(4, (0, 0, 0b1000, 0), (zero,) * 4)
    assert complete(fr) == oracles.complete_naive(fr)
    with pytest.raises(CompletionError, match=r"^S_3 seed at 1 leaves"):
        complete(Frame(4, fr.r_succ, (zero, zero, zero, (0, 0b10, 0, 0))))


def test_shapes():
    assert chain(1).n == 1 and chain(1).r_succ == (0,)
    assert chain(4).r_succ == (0b1110, 0b1100, 0b1000, 0)
    assert fan(3).r_succ == (0b1110, 0, 0, 0)
    t = tree(2, 2)
    assert t.n == 7
    assert validate(t).ok
    # edge count, not world count
    assert longest_chain(chain(4)) == 3
    assert longest_chain(fan(5)) == 1
    assert longest_chain(tree(2, 2)) == 2
    assert longest_chain(chain(1)) == 0


def test_tree_shapes_frozen():
    # a non-positive branching or depth gives the one-world tree
    shapes = {(b, d): (tree(b, d).n, tree(b, d).r_succ)
              for b in range(-1, 4) for d in range(-1, 4)}
    assert {key: n for key, (n, _) in shapes.items() if n > 1} == {
        (1, 1): 2, (1, 2): 3, (1, 3): 4, (2, 1): 3, (2, 2): 7, (2, 3): 15,
        (3, 1): 4, (3, 2): 13, (3, 3): 40}
    assert shapes[2, 2][1] == (0b1111110, 0b0011000, 0b1100000, 0, 0, 0, 0)
    digest = hashlib.sha256(repr(shapes).encode()).hexdigest()
    assert digest == "8e5c6773ec7efd21aebca0dd492dc74e14c9a630d1def7fa1bd6755cb3f4b983"


def test_cached_rows_leave_the_frame_record_alone():
    fresh = tree(2, 2)
    fr = tree(2, 2)
    state = (hash(fr), repr(fr), pickle.dumps(fr))
    rows, succ = fr.r_rows, fr.succ_lists
    assert fr.r_rows is rows and fr.succ_lists is succ
    assert Frame.r_rows.attrname == "r_rows"   # read on the class: the descriptor
    assert rows[0] and succ[0]
    assert fr == fresh and (hash(fr), repr(fr), pickle.dumps(fr)) == state
    assert pickle.loads(pickle.dumps(fr)) == fresh
    with pytest.raises(AttributeError):
        fr.n = 3


def test_model_valuation_guards():
    fr = chain(2)
    m = Model(fr, {"p": [1], "q": WorldSet(2, 0b01)})
    assert m.ev_mask("p") == 0b10
    assert m.ev_set("missing") == WorldSet.empty(2)
    with pytest.raises(ValueError):
        Model(fr, {"p": WorldSet(3, 0b1)})
    with pytest.raises(ValueError):
        Model(fr, {"p": [4]})


# ------------------------------------------------------------- enumeration

def test_all_frames_counts_frozen():
    assert sum(1 for _ in all_frames(1)) == 1
    assert sum(1 for _ in all_frames(2)) == 3
    assert sum(1 for _ in all_frames(3)) == 34
    assert sum(1 for _ in all_frames(4)) == 1441


# sha256 of repr([(r_succ, s_succ), ...]) over all_frames(n): the order is
# pinned, since frame_classes picks each class's first frame as representative
ALL_FRAMES_SHA256 = {
    1: "d4880a45867e3b690fc78c2471796b3a0f18fe1a01a31e2c0cab86305c759911",
    2: "d606a94f7d4fb55420a5fcba97a1ab24b1f9d6ed66dc1cee106e6982c4f74cd2",
    3: "55d1e0d6a758e8316ccd7eb3d1a32cc206cb53c711398b8dde32216fcc7e8a89",
    4: "e0dd8aedee8402d754c9f6fba9aaf4cd3afb1bfe9b0e441c93f91417762f3d16",
}


@pytest.mark.parametrize("n", sorted(ALL_FRAMES_SHA256))
def test_all_frames_sequence_frozen(n):
    seq = repr([(fr.r_succ, fr.s_succ) for fr in all_frames(n)])
    assert hashlib.sha256(seq.encode()).hexdigest() == ALL_FRAMES_SHA256[n]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_all_frames_matches_brute_oracle(n):
    frames = list(all_frames(n))
    assert len(frames) == oracles.count_frames_brute(n)
    assert len(set(frames)) == len(frames)
    assert all(validate(fr).ok for fr in frames)


def test_frame_class_counts_frozen():
    assert [len(list(frame_classes(n))) for n in (1, 2, 3, 4)] == [1, 2, 8, 77]


def test_frame_classes_five_worlds_frozen():
    # sha256 of repr([(r_succ, s_succ, orbit), ...]), as the former walk
    # that relabelled every labelled frame also gave it
    classes = list(frame_classes(5))
    assert len(classes) == 2330
    assert sum(orbit for _, orbit in classes) == 245971
    seq = repr([(fr.r_succ, fr.s_succ, orbit) for fr, orbit in classes])
    assert hashlib.sha256(seq.encode()).hexdigest() == \
        "8a5bf22ff302c9c52340bfbb32bfc8893343c96b172ae5086e97b308c7753559"


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_frame_classes_match_canonical_oracle(n):
    frames = list(all_frames(n))
    forms = [oracles.canonical_naive(fr) for fr in frames]
    classes = list(frame_classes(n))
    # one representative per canonical form, the first frame holding it
    first = {}
    for fr, form in zip(frames, forms):
        first.setdefault(form, fr)
    assert [fr for fr, _ in classes] == list(first.values())
    # a class's members are the frames sharing its form: n!/|Aut| of them
    members = Counter(forms)
    for fr, orbit in classes:
        auts = sum(oracles.relabel_naive(fr, p) == (fr.r_succ, fr.s_succ)
                   for p in permutations(range(n)))
        assert orbit == factorial(n) // auts == members[oracles.canonical_naive(fr)]


def test_random_frame_is_deterministic_and_legal():
    for n in (1, 3, 5, 8):
        for seed in range(10):
            fr = random_frame(n, seed)
            assert fr == random_frame(n, seed)
            assert validate(fr).ok
    assert random_frame(5, 0) != random_frame(5, 1)


def test_random_frame_outputs_frozen():
    # many differential tests draw their inputs here, so a drift would
    # change what they check without failing any of them
    got = repr([(fr.r_succ, fr.s_succ) for n in range(1, 8) for seed in range(20)
                for fr in [random_frame(n, seed)]])
    assert hashlib.sha256(got.encode()).hexdigest() == (
        "abc431520669d80b26d30230de73b86a0a17bb00c6cfad78a4bbb938c2013efb")
