import random
import re
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from ilkit import semantics
from ilkit.algebra import Complement, DiaOp, Full, SOp, Union, Var, translate
from ilkit.calculus import SCHEMAS
from ilkit.corpus import corpus_models, load
from ilkit.formula import TOP, atoms, enumerate_formulas, parse
from ilkit.frames import Frame, Model, WorldSet, all_frames, bits, chain, fan
from ilkit.semantics import (
    SWEEP_BLOCK_BITS, VALUATION_BITS_LIMIT, check_bisim, equiv_up_to,
    extension, force, frame_refuted, frame_valid, max_bisim, sweep_apart,
)

import oracles
from helpers import random_frame


def test_worked_examples():
    m2 = Model(chain(2), {"p": [1]})
    assert extension(m2, parse("<>p")) == WorldSet.from_iter(2, [0])
    assert extension(m2, parse("[]p")) == WorldSet.from_iter(2, [0, 1])
    assert force(m2, 0, parse("p |> p"))

    m3 = Model(chain(3), {"p": [1], "q": [2]})
    # from 0 the only p-successor is 1, and 1 S_0 2 lands in q
    assert extension(m3, parse("p |> q")) == WorldSet.full(3)
    # but no S-move reaches back into p, so q |> p holds only vacuously
    assert extension(m3, parse("q |> p")) == WorldSet.from_iter(3, [2])
    assert extension(m3, parse("<>q")) == WorldSet.from_iter(3, [0, 1])
    assert extension(m3, parse("p -> <>q")) == WorldSet.full(3)
    assert extension(m3, parse("p | q")) != WorldSet.full(3)


def test_formula_pool_against_forcing_oracle():
    pool = list(enumerate_formulas(["p", "q"], 2, 2))[::7]
    for name in ["chain3", "fan2", "fan2-sym", "chain3-square"]:
        m = load(name)
        cache = {}
        for f in pool:
            got = extension(m, f, cache)
            assert frozenset(got) == oracles.extension_naive(m, f), (name, f)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 500), st.integers(0, 255), st.integers(0, 255))
def test_random_models_against_forcing_oracle(seed, pmask, qmask):
    fr = random_frame(4, seed)
    m = Model(fr, {"p": WorldSet(4, pmask & 0xF), "q": WorldSet(4, qmask & 0xF)})
    for text in ["p |> q", "<>p & ~q", "[](p -> q) -> (p |> q)", "p |> p & q"]:
        f = parse(text)
        assert frozenset(extension(m, f)) == oracles.extension_naive(m, f)


def test_frame_valid_reports_least_counterexample():
    v = frame_valid(chain(2), parse("a -> []a"))
    assert not v.valid
    assert v.ev == {"a": WorldSet.from_iter(2, [0])}
    assert v.world == 0
    assert frame_valid(chain(2), parse("[](a -> a)")).valid
    assert frame_valid(chain(2), parse("[]a -> [][]a")).valid
    # GL's frame counterpart holds on every finite transitive frame
    assert frame_valid(fan(2), parse("[]([]a -> a) -> []a")).valid


def _verdict(v):
    ev = v.ev and {a: frozenset(ws) for a, ws in v.ev.items()}
    return v.valid, ev, v.world


def test_frame_valid_matches_naive_oracle_on_small_frames():
    formulas = list(enumerate_formulas(["p", "q"], 2, 2)) + list(SCHEMAS.values())
    for n in (1, 2, 3):
        for fr in all_frames(n):
            for f in formulas:
                assert _verdict(frame_valid(fr, f)) == \
                    oracles.frame_valid_naive(fr, f), (fr, f)


def test_frame_valid_matches_naive_oracle_on_corpus():
    # the oracle sweeps one valuation at a time, so keep it to 2^12 of them
    formulas = list(enumerate_formulas(["p", "q"], 2, 2))[::7] + list(SCHEMAS.values())
    for name, m in corpus_models():
        for f in formulas:
            if len(atoms(f)) * m.frame.n <= 12:
                assert _verdict(frame_valid(m.frame, f)) == \
                    oracles.frame_valid_naive(m.frame, f), (name, f)


def test_frame_valid_dropping_dead_columns_matches_naive_oracle(monkeypatch):
    # under a 2^8-bit cap every sweep here drops each column after its last
    # reader and narrows its blocks; f's checks wait for W, the last node
    monkeypatch.setattr(semantics, "SWEEP_MEMORY_BITS", 8)
    formulas = list(enumerate_formulas(["p", "q"], 2, 2))[::11] + list(SCHEMAS.values())
    for fr in [*all_frames(2), *list(all_frames(3))[::3]]:
        for f in formulas:
            assert _verdict(frame_valid(fr, f)) == oracles.frame_valid_naive(fr, f), (fr, f)


def test_frame_valid_least_countermodel_past_the_first_block():
    # 7 atoms on 2 worlds: g owns valuation bits 12 and 13, so every
    # valuation of the first block leaves g empty and the formula true
    assert SWEEP_BLOCK_BITS == 12
    for text, ev in [
            ("g -> a | b | c | d | e | f | []F", {"g": {0}}),
            ("g -> a | b | c | d | e | ~f | []F", {"f": {0}, "g": {0}})]:
        f = parse(text)
        got = _verdict(frame_valid(chain(2), f))
        assert got == oracles.frame_valid_naive(chain(2), f)
        assert got == (False, {a: frozenset(ev.get(a, ())) for a in "abcdefg"}, 0)


def test_frame_valid_full_bits_limit_budget():
    fr = chain(10)
    assert 2 * fr.n == VALUATION_BITS_LIMIT
    t0 = time.perf_counter()
    assert frame_valid(fr, parse("[](a -> b) -> ([]a -> []b)")).valid
    # refuted only where b holds at the last world: valuation 2^19
    v = frame_valid(fr, parse("[]F & b -> a"))
    seconds = time.perf_counter() - t0
    assert _verdict(v) == (False, {"a": frozenset(), "b": frozenset({9})}, 9)
    assert seconds < 3


def test_frame_valid_refuses_oversized_sweeps():
    f = parse("a -> b -> c")   # 3 atoms x 7 worlds = 21 bits
    with pytest.raises(ValueError):
        frame_valid(random_frame(7, 0), f)
    taut = parse("a & b -> a")
    with pytest.raises(ValueError):
        frame_valid(chain(2), taut, bits_limit=3)
    for limit in (-1, VALUATION_BITS_LIMIT + 1):
        with pytest.raises(ValueError, match="outside"):
            frame_valid(chain(2), taut, bits_limit=limit)
    assert frame_valid(chain(2), taut).valid


def _count_blocks(monkeypatch):
    """Count the blocks every sweep reads from here on."""
    calls, real = [], semantics._sweep_block
    monkeypatch.setattr(semantics, "_sweep_block",
                        lambda *args: calls.append(1) or real(*args))
    return calls


def _refuted_singly(fr, pool, oracle, stride):
    """The pool's refuted indices by per-member ``frame_valid``; every
    ``stride``-th member is also held to the naive ``oracle``."""
    want = {i for i, f in enumerate(pool) if not frame_valid(fr, f).valid}
    for i in range(0, len(pool), stride):
        assert (i in want) == (not oracle(fr, pool[i])[0]), (fr, pool[i])
    return want


# over p and q, 6 valuation bits at n = 3; the schemas add 9 more
PQ_POOL = list(enumerate_formulas(["p", "q"], 2, 2))
FORMULA_POOL = PQ_POOL + list(SCHEMAS.values())
_A, _B = Var("A_p"), Var("A_q")   # the variables of translate(p), translate(q)
TERM_POOL = [translate(f) for f in PQ_POOL[::3]] + [
    Union(Complement(_A), DiaOp(_A)), Union(DiaOp(_A), Complement(DiaOp(DiaOp(_A)))),
    Union(Complement(SOp(_A, _B)), SOp(Full(), DiaOp(_B)))]


@pytest.mark.parametrize("pool, oracle", [(FORMULA_POOL, oracles.frame_valid_naive),
                                          (TERM_POOL, oracles.term_valid_naive)],
                         ids=["formulas", "terms"])
def test_frame_refuted_matches_per_member_validity(pool, oracle):
    for n in (1, 2, 3):
        for fr in all_frames(n):
            assert frame_refuted(fr, pool) == _refuted_singly(fr, pool, oracle, 13), fr


@pytest.mark.parametrize("setting, value", [("SWEEP_MEMORY_BITS", 13), ("SWEEP_BLOCK_BITS", 2)],
                         ids=["memory-plan", "blocks"])
def test_frame_refuted_over_narrow_blocks(monkeypatch, setting, value):
    # a 2^13-bit cap narrows the pool's 6-bit sweep at n = 3 to 3-bit
    # blocks under the plan; 2-bit blocks split it without one
    want = {fr: _refuted_singly(fr, PQ_POOL, oracles.frame_valid_naive, 29)
            for fr in list(all_frames(3))[::4]}
    monkeypatch.setattr(semantics, setting, value)
    blocks = _count_blocks(monkeypatch)
    for fr, refuted in want.items():
        before = len(blocks)
        assert frame_refuted(fr, PQ_POOL) == refuted, fr
        assert len(blocks) - before > 1


def test_frame_refuted_stops_once_every_member_fails(monkeypatch):
    # each member fails under valuation 0, all atoms empty: one block of
    # the 2^6 is read, and frame_valid agrees member by member
    monkeypatch.setattr(semantics, "SWEEP_BLOCK_BITS", 1)
    pool = [parse(text) for text in ("p", "q", "p | q", "[]p -> p", "~(q |> p)")]
    blocks = _count_blocks(monkeypatch)
    assert frame_refuted(chain(3), pool) == {0, 1, 2, 3, 4}
    assert len(blocks) == 1
    assert all(not frame_valid(chain(3), f).valid for f in pool)
    assert frame_refuted(chain(3), []) == set()


def test_frame_refuted_refuses_oversized_pools_before_any_column(monkeypatch):
    # each member alone fits: 7 or 14 of the 20 bits; the pool needs 21
    pool = [parse("a -> a"), parse("b -> c")]
    assert [frame_valid(random_frame(7, 0), f).valid for f in pool] == [True, False]

    def no_columns(*args):
        raise AssertionError("a column was built")

    monkeypatch.setattr(semantics, "truth_columns", no_columns)
    monkeypatch.setattr(semantics, "_sweep_block", no_columns)
    with pytest.raises(ValueError, match="refusing to sweep 2\\^21"):
        frame_refuted(random_frame(7, 0), pool)


def test_frame_valid_closed_formulas():
    assert frame_valid(chain(3), TOP).valid
    assert frame_valid(chain(3), parse("T |> T")).valid
    assert not frame_valid(chain(3), parse("F")).valid


def test_check_bisim_identity_and_defects():
    m = load("chain3")
    ident = [(w, w) for w in range(3)]
    assert check_bisim(m, m, ident).ok

    other = Model(m.frame, {"p": [2], "q": [1]})
    v = check_bisim(m, other, ident)
    assert not v.ok and v.clause == "atoms" and v.pair == (1, 1)

    # relate the chain root to a leaf: the leaf cannot answer the forth move
    bare = Model(chain(3))
    leaf = check_bisim(bare, bare, [(0, 2)])
    assert not leaf.ok and leaf.clause == "forth" and leaf.witness == (1,)
    back = check_bisim(bare, bare, [(2, 0)])
    assert not back.ok and back.clause == "back"


def test_check_bisim_s_matching_matters():
    # fan2 and fan2-sym differ only in S_0; relating the frames pointwise
    # fails because the symmetric frame S-moves where the plain fan cannot,
    # and the clause names the side holding the unmatched move
    plain, sym = load("fan2"), load("fan2-sym")
    z = [(0, 0), (1, 1), (2, 2)]
    v = check_bisim(sym, plain, z)
    assert not v.ok and v.pair == (0, 0) and v.clause == "back"
    mirror = check_bisim(plain, sym, z)
    assert not mirror.ok and mirror.clause == "forth"


def test_max_bisim_is_a_bisimulation_containing_identity():
    for name in ["chain2", "chain3", "fan2", "fan3"]:
        m = load(name)
        z = max_bisim(m, m)
        assert {(w, w) for w in range(m.frame.n)} <= z
        assert check_bisim(m, m, z).ok


def test_max_bisim_collapses_duplicate_branches():
    m = Model(fan(2), {"p": [1, 2]})
    z = max_bisim(m, m)
    assert (1, 2) in z and (2, 1) in z


def test_pencil_pair_bisimulation():
    bad, good = load("pencil-bad1"), load("pencil-good1")
    z = [(0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (4, 5)]
    assert check_bisim(bad, good, z).ok
    assert set(z) <= max_bisim(bad, good)


def _pq(rng, n):
    return {a: WorldSet(n, rng.randrange(1 << n)) for a in ("p", "q")}


def _renamed(m, rng):
    """An isomorphic copy of the model under a random renaming, and the
    renaming as a list."""
    fr, n = m.frame, m.frame.n
    perm = list(range(n))
    rng.shuffle(perm)
    r = [(perm[w], perm[u]) for w in range(n) for u in bits(fr.r_succ[w])]
    s = [(perm[w], perm[u], perm[v]) for w in range(n) for u in bits(fr.r_succ[w])
         for v in bits(fr.s_succ[w][u])]
    ev = {a: [perm[w] for w in ws] for a, ws in m.ev.items()}
    return Model(Frame.build(n, r, s), ev), perm


def test_bisim_matches_naive_oracle():
    rng = random.Random(8)
    failures = Counter()

    def agree(ml, mr, *zs):
        z = max_bisim(ml, mr)
        assert z == oracles.max_bisim_naive(ml, mr)
        every = [(i, j) for i in range(ml.frame.n) for j in range(mr.frame.n)]
        subsets = [rng.sample(every, rng.randrange(len(every) + 1)) for _ in range(2)]
        for pairs in (z, *zs, *subsets):
            v = check_bisim(ml, mr, pairs)
            assert (v.ok, v.pair, v.clause, v.witness) == oracles.bisim_naive(ml, mr, pairs)
            failures[v.clause] += 1

    small = [fr for n in (1, 2, 3) for fr in all_frames(n)]
    for fl in small:
        for fr in small:
            for _ in range(2):
                agree(Model(fl, _pq(rng, fl.n)), Model(fr, _pq(rng, fr.n)))
    for seed in range(40):
        nl, nr = rng.randrange(4, 9), rng.randrange(4, 9)
        agree(Model(random_frame(nl, seed), _pq(rng, nl)),
              Model(random_frame(nr, seed + 100), _pq(rng, nr)))
    for n in range(12, 17):
        ml = Model(random_frame(n, 200 + n), _pq(rng, n))
        mr, perm = _renamed(ml, rng)
        z = [(w, perm[w]) for w in range(n)]
        swapped = [(w, perm[(w + 1) % n]) for w in range(n)]
        agree(ml, mr, z, swapped)
        assert check_bisim(ml, mr, z).ok
    assert min(failures[c] for c in ("atoms", "forth", "back")) >= 20

    m = load("chain3")
    for pair in ((-1, 0), (0, m.frame.n)):
        with pytest.raises(ValueError, match=re.escape(f"pair {pair} is outside")):
            check_bisim(m, m, [(0, 0), pair])


def test_bisim_budget():
    rng = random.Random(64)
    ml = Model(random_frame(64, 1), _pq(rng, 64))
    mr, perm = _renamed(ml, rng)
    t0 = time.perf_counter()
    assert check_bisim(ml, mr, [(w, perm[w]) for w in range(64)]).ok
    assert time.perf_counter() - t0 < 0.5
    ml = Model(random_frame(48, 1), _pq(rng, 48))
    mr, perm = _renamed(ml, rng)
    t0 = time.perf_counter()
    assert {(w, perm[w]) for w in range(48)} <= max_bisim(ml, mr)
    assert time.perf_counter() - t0 < 2
    # without a valuation few pairs fall to atoms, so most rounds run the
    # zigzag clauses: each pair's pulled-back partners are computed once a round
    ml = Model(random_frame(48, 1), {})
    mr, perm = _renamed(ml, rng)
    t0 = time.perf_counter()
    z = max_bisim(ml, mr)
    assert time.perf_counter() - t0 < 5
    assert {(w, perm[w]) for w in range(48)} <= z and len(z) == 82


def test_equiv_up_to_finds_separating_formula():
    m3 = load("chain3")
    f = equiv_up_to(m3, 0, m3, 2, depth=1)
    assert f is not None
    assert force(m3, 0, f) != force(m3, 2, f)

    # worlds 1 and 2 of the duplicated fan agree on everything bounded
    m = Model(fan(2), {"p": [1, 2]})
    assert equiv_up_to(m, 1, m, 2, depth=2) is None


def test_sweep_apart_takes_valuation_then_pair_then_formula(monkeypatch):
    fr = load("chain3").frame
    pool = list(enumerate_formulas(["p", "q"], 1, 2))
    world_map = [0, 2, 1]    # the right model's worlds 1 and 2 trade atoms

    def naive(pairs):
        for vid in range(1 << 6):
            ev = {"p": WorldSet(3, vid & 7), "q": WorldSet(3, vid >> 3)}
            moved = {a: WorldSet.from_iter(3, [w for w in range(3) if world_map[w] in ws])
                     for a, ws in ev.items()}
            ext_l = {f: oracles.extension_naive(Model(fr, ev), f) for f in pool}
            ext_r = {f: oracles.extension_naive(Model(fr, moved), f) for f in pool}
            for wl, wr in pairs:
                for f in pool:
                    if (wl in ext_l[f]) != (wr in ext_r[f]):
                        return ev, (wl, wr), f

    # the least valuation wins over the order of the pairs ...
    late = naive([(0, 0), (1, 1), (2, 2), (1, 2)])
    assert late[1:] == ((1, 2), parse("[]p")) and not late[0]["p"] and not late[0]["q"]
    # ... and the order of the pairs over the order of the pool: (1, 1)
    # differs on p, which comes before the formula telling (0, 0) apart
    early = naive([(0, 0), (1, 1), (2, 2)])
    assert early[0] == {"p": WorldSet(3, 0b010), "q": WorldSet(3, 0)}
    assert early[1] == (0, 0) and early[2] != parse("p")
    assert naive([(1, 1)]) == (early[0], (1, 1), parse("p"))
    for block_bits in (SWEEP_BLOCK_BITS, 1):   # valuation 2 opens the second 1-bit block
        monkeypatch.setattr(semantics, "SWEEP_BLOCK_BITS", block_bits)
        assert sweep_apart(fr, fr, world_map, [(0, 0), (1, 1), (2, 2), (1, 2)], pool) == late
        assert sweep_apart(fr, fr, world_map, [(0, 0), (1, 1), (2, 2)], pool) == early
        assert sweep_apart(fr, fr, [0, 1, 2], [(0, 0), (1, 1), (2, 2)], pool) is None
    with pytest.raises(ValueError):
        sweep_apart(fr, fr, world_map, [(0, 0)], list(enumerate_formulas("pqrstuvw", 0, 0)))

    m3 = load("chain3")
    pool = list(enumerate_formulas(["p", "q"], 1, 3))
    expected = next(f for f in pool if (0 in oracles.extension_naive(m3, f))
                    != (2 in oracles.extension_naive(m3, f)))
    assert equiv_up_to(m3, 0, m3, 2, depth=1) is expected
    assert equiv_up_to(m3, 0, m3, 0, depth=1) is None
    assert equiv_up_to(m3, 1, m3, 1, depth=1) is None

    bad, good = load("pencil-bad1"), load("pencil-good1")
    z = [(0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (4, 5)]
    assert all(equiv_up_to(bad, wl, good, wr, 2, ["p", "q"]) is None for wl, wr in z)
