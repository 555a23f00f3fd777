import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from ilkit.algebra import (
    BoxOp, Complement, DiaOp, Empty, Full, Intersection, SOp, Union, Var,
    agreement, eval_term, r_inv, r_inv_dual, s_inv, term_to_str, translate,
)
from ilkit.calculus import _META, SCHEMAS, instantiate
from ilkit.checks import INCLUSION_LAWS
from ilkit.corpus import corpus_models
from ilkit.extension import build_ue
from ilkit.formula import Atom, atoms, enumerate_formulas, parse
from ilkit.frames import Model, WorldSet, all_frames, chain, fan
from ilkit.semantics import SWEEP_BLOCK_BITS, extension, frame_valid

import oracles
from helpers import random_frame


def ws(n, worlds):
    return WorldSet.from_iter(n, worlds)


def test_preimage_operators():
    fr = chain(3)
    assert r_inv(fr, ws(3, [2])) == ws(3, [0, 1])
    assert r_inv(fr, ws(3, [])) == ws(3, [])
    assert r_inv_dual(fr, ws(3, [1, 2])) == WorldSet.full(3)
    assert r_inv_dual(fr, ws(3, [2])) == ws(3, [1, 2])
    # leaves satisfy every box
    assert 2 in r_inv_dual(fr, ws(3, []))


def test_s_preimage_examples():
    fr = chain(3)
    # moving {1} into {2}: world 0 can (1 S_0 2); 1 and 2 vacuously,
    # since the constraint set is x intersected with each world's R-row
    assert s_inv(fr, ws(3, [1]), ws(3, [2])) == WorldSet.full(3)
    assert s_inv(fr, ws(3, [2]), ws(3, [1])) == ws(3, [2])
    assert s_inv(fr, ws(3, []), ws(3, [])) == WorldSet.full(3)


masks5 = st.integers(min_value=0, max_value=31)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 200), masks5, masks5, masks5)
def test_preimage_laws(seed, xm, ym, zm):
    fr = random_frame(5, seed)
    x, y, z = WorldSet(5, xm), WorldSet(5, ym), WorldSet(5, zm)
    # duality
    assert r_inv_dual(fr, y) == r_inv(fr, y.complement()).complement()
    # monotonicity
    if xm & ~ym == 0:
        assert not r_inv(fr, x) - r_inv(fr, y)
        assert not s_inv(fr, z, x) - s_inv(fr, z, y)
        assert not s_inv(fr, y, z) - s_inv(fr, x, z)
    # union/intersection behaviour
    assert r_inv(fr, x | y) == r_inv(fr, x) | r_inv(fr, y)
    assert r_inv_dual(fr, x & y) == r_inv_dual(fr, x) & r_inv_dual(fr, y)
    assert s_inv(fr, x | y, z) == s_inv(fr, x, z) & s_inv(fr, y, z)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 200), masks5, masks5)
def test_preimages_against_oracle(seed, xm, ym):
    fr = random_frame(5, seed)
    xs = frozenset(w for w in range(5) if xm >> w & 1)
    ys = frozenset(w for w in range(5) if ym >> w & 1)
    assert frozenset(r_inv(fr, WorldSet(5, xm))) == oracles.r_inv_naive(fr, xs)
    assert (frozenset(r_inv_dual(fr, WorldSet(5, ym)))
            == oracles.r_inv_dual_naive(fr, ys))
    assert (frozenset(s_inv(fr, WorldSet(5, xm), WorldSet(5, ym)))
            == oracles.s_inv_naive(fr, xs, ys))


def _worlds(mask):
    return frozenset(w for w in range(mask.bit_length()) if mask >> w & 1)


def test_s_inv_matches_oracle_on_every_pair_n3():
    for n in (1, 2, 3):
        for fr in all_frames(n):
            for xm, ym in product(range(1 << n), repeat=2):
                assert (frozenset(s_inv(fr, WorldSet(n, xm), WorldSet(n, ym)))
                        == oracles.s_inv_naive(fr, _worlds(xm), _worlds(ym))), (fr, xm, ym)


def test_s_inv_matches_oracle_on_wide_masks():
    fr = build_ue(chain(4)).frame
    assert fr.n == 122
    rng = random.Random(14)
    for _ in range(40):
        # sparse y makes some worlds fail, dense x makes long successor walks
        xm = rng.getrandbits(fr.n) | rng.getrandbits(fr.n)
        ym = rng.getrandbits(fr.n) & rng.getrandbits(fr.n)
        got = frozenset(s_inv(fr, WorldSet(fr.n, xm), WorldSet(fr.n, ym)))
        assert got == oracles.s_inv_naive(fr, _worlds(xm), _worlds(ym))
        assert got and got != frozenset(range(fr.n))


def _preimages_match_oracles(fr, xm, ym):
    xs, ys = _worlds(xm), _worlds(ym)
    assert frozenset(r_inv(fr, WorldSet(fr.n, xm))) == oracles.r_inv_naive(fr, xs)
    assert frozenset(r_inv_dual(fr, WorldSet(fr.n, ym))) == oracles.r_inv_dual_naive(fr, ys)
    assert (frozenset(s_inv(fr, WorldSet(fr.n, xm), WorldSet(fr.n, ym)))
            == oracles.s_inv_naive(fr, xs, ys))


def test_leaf_skipping_preimages_match_oracles():
    # the operators walk only worlds with R-successors; R-leaves join
    # r_inv_dual and s_inv as one mask
    for n in range(1, 5):
        for seed in range(4):
            fr = random_frame(n, seed)
            for xm, ym in product(range(1 << n), repeat=2):
                _preimages_match_oracles(fr, xm, ym)
    rng = random.Random(19)
    for base in (chain(3), fan(3)):
        fr = build_ue(base).frame
        full = (1 << fr.n) - 1
        for xm, ym in [(0, 0), (full, full), (full, 0)] + [
                (rng.getrandbits(fr.n), rng.getrandbits(fr.n) | rng.getrandbits(fr.n))
                for _ in range(40)]:
            _preimages_match_oracles(fr, xm, ym)


def test_translate_shapes():
    assert translate(parse("p")) == Var("p")
    assert translate(parse("F")) == Empty()
    assert translate(parse("p -> q")) == Union(Complement(Var("p")), Var("q"))
    assert translate(parse("[]p")) == BoxOp(Var("p"))
    assert translate(parse("p |> q")) is SOp(Var("p"), Var("q"))
    assert (term_to_str(translate(parse("p |> []q")))
            == "S_inv(A_p, Rhat_inv(A_q))")
    assert repr(translate(parse("p |> []q"))) == "S_inv(A_p, Rhat_inv(A_q))"
    assert term_to_str(translate(parse("~p"))) == "(comp(A_p) | empty)"


def test_eval_term_basics():
    fr = chain(2)
    env = {"p": ws(2, [1])}
    assert eval_term(fr, env, Full()) == WorldSet.full(2)
    assert eval_term(fr, env, Intersection(Var("p"), Full())) == ws(2, [1])
    assert eval_term(fr, env, DiaOp(Var("p"))) == ws(2, [0])
    with pytest.raises(ValueError):
        eval_term(fr, env, Var("missing"))


def test_translation_agrees_with_forcing():
    pool = list(enumerate_formulas(["p", "q"], 2, 2))
    for name, m in corpus_models():
        if m.frame.n > 3:
            continue
        for f in pool[::5]:
            assert agreement(m, f), (name, f)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 300), st.integers(0, 15), st.integers(0, 15))
def test_translation_agrees_on_random_models(seed, pm, qm):
    m = Model(random_frame(4, seed), {"p": WorldSet(4, pm), "q": WorldSet(4, qm)})
    for text in ["p |> q", "[]p -> p |> q", "<>(p & q) |> (p | q)"]:
        f = parse(text)
        t = translate(f)
        assert eval_term(m.frame, m.ev, t) == extension(m, f)


def test_eval_caches_repeated_subterms():
    fr = fan(3)
    t = translate(parse("(p |> p) & (p |> p)"))
    cache = {}
    got = eval_term(fr, {"p": ws(4, [1, 2])}, t, cache)
    assert translate(parse("p |> p")) in cache
    assert got == eval_term(fr, {"p": ws(4, [1, 2])}, t)


def _verdict(v):
    ev = v.ev and {a: frozenset(ws) for a, ws in v.ev.items()}
    return v.valid, ev, v.world


def test_term_validity_matches_naive_oracle_on_small_frames():
    pq = [Atom("p"), Atom("q")]
    formulas = list(enumerate_formulas(["p", "q"], 2, 2)) + list(SCHEMAS.values())
    formulas += [instantiate(schema, dict(zip(_META, args)))
                 for schema in SCHEMAS.values()
                 for args in product(pq, repeat=len(atoms(schema)))]
    a, b = Var("a"), Var("b")
    # the operators translations never produce
    extra = [DiaOp(a), Union(Complement(a), Intersection(a, Full())),
             Union(DiaOp(a), BoxOp(Complement(a))),
             Union(Complement(DiaOp(DiaOp(a))), DiaOp(a)),
             Union(Complement(Intersection(DiaOp(a), b)), SOp(Full(), DiaOp(b)))]
    terms = ([translate(f) for f in formulas] + extra
             + [term for _, _, term in INCLUSION_LAWS])
    for n in (1, 2, 3):
        for fr in all_frames(n):
            for t in terms:
                assert _verdict(frame_valid(fr, t)) == \
                    oracles.term_valid_naive(fr, t), (fr, t)


def test_term_validity_least_countermodel_past_the_first_block():
    # 3 variables x 5 worlds = 15 bits; the term fails only where c holds
    # at world 3 or 4, which valuation bits 13 and 14 set
    assert SWEEP_BLOCK_BITS == 12
    a, b, c = Var("a"), Var("b"), Var("c")
    t = Union(Union(Complement(c), DiaOp(DiaOp(Full()))), SOp(a, b))
    got = _verdict(frame_valid(chain(5), t))
    assert got == oracles.term_valid_naive(chain(5), t)
    assert got == (False, {"a": frozenset({4}), "b": frozenset(),
                           "c": frozenset({3})}, 3)
