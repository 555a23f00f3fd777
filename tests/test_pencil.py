import pytest
from hypothesis import given, settings, strategies as st

from ilkit import checks
from ilkit.corpus import load
from ilkit.frames import Frame, Model, WorldSet, chain, fan, random_frame, tree
from ilkit.pencil import (
    PencilWitness, SearchExhausted, build_demo_pair, nondefinability_demo,
    pencil_check, transfer_valuation,
)
from ilkit.semantics import check_bisim

import oracles


def test_pencil_on_corpus():
    bad = load("pencil-bad1").frame
    v = pencil_check(bad)
    assert not v.in_class
    assert v.witness == PencilWitness(x=0, y=1, z=2, u=4, v=3)
    good = load("pencil-good1").frame
    assert pencil_check(good).in_class
    assert pencil_check(good).witness is None


def test_pencil_trivial_frames():
    # chains and fans have no z R u step to break the condition
    for fr in [chain(1), chain(4), fan(3), tree(2, 2)]:
        assert pencil_check(fr).in_class


def test_witness_is_lexicographically_first():
    bad = load("pencil-bad1").frame
    got = pencil_check(bad).witness
    all_witnesses = []
    n, r, s = bad.n, bad.r_succ, bad.s_succ
    for x in range(n):
        for y in range(n):
            for z in range(n):
                for u in range(n):
                    for v in range(n):
                        if (r[x] >> y & 1 and s[x][y] >> z & 1
                                and r[z] >> u & 1 and r[y] >> v & 1
                                and s[x][v] >> u & 1 and not r[y] >> u & 1):
                            all_witnesses.append((x, y, z, u, v))
    assert all_witnesses
    assert (got.x, got.y, got.z, got.u, got.v) == min(all_witnesses)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 1000), st.integers(4, 6))
def test_pencil_agrees_with_loop_order_oracle(seed, n):
    fr = random_frame(n, seed)
    assert pencil_check(fr).in_class == oracles.pencil_naive(fr)


def test_pencil_oracle_on_all_small_frames():
    from ilkit.frames import all_frames
    for n in (1, 2, 3):
        for fr in all_frames(n):
            assert pencil_check(fr).in_class == oracles.pencil_naive(fr)


def test_removing_s_pairs_never_leaves_the_class():
    # S only feeds the antecedent, so pruning S-pairs preserves membership;
    # raw frames are fine here, the condition does not need the frame laws
    for seed in range(30):
        fr = random_frame(5, seed)
        if not pencil_check(fr).in_class:
            continue
        for w in range(fr.n):
            for i in range(fr.n):
                row = fr.s_succ[w][i]
                for j in range(fr.n):
                    if not row >> j & 1:
                        continue
                    rows = [list(r) for r in fr.s_succ]
                    rows[w][i] &= ~(1 << j)
                    pruned = Frame(fr.n, fr.r_succ,
                                   tuple(tuple(r) for r in rows))
                    assert pencil_check(pruned).in_class


def test_demo_pair_certified():
    for m in (1, 2, 3):
        good, bad, z = build_demo_pair(m)
        assert bad.n == 4 + m and good.n == 5 + m
        assert not pencil_check(bad).in_class
        assert pencil_check(good).in_class
        assert z == tuple((w, w) for w in range(5)) + tuple(
            (4 + i, 5 + i) for i in range(m))
    with pytest.raises(ValueError):
        build_demo_pair(0)


def test_transfer_valuation_duplicates_first_fan_world():
    ev = transfer_valuation({"p": WorldSet(5, 0b10011)}, 1)
    # world 4 is duplicated onto 4 and 5; lower worlds copy over
    assert ev["p"] == WorldSet(6, 0b110011)
    # later fan worlds shift up by one without duplication
    ev = transfer_valuation({"p": WorldSet(6, 0b100000)}, 2)
    assert ev["p"] == WorldSet(7, 0b1000000)


def test_transferred_models_are_bisimilar():
    good, bad, z = build_demo_pair(2)
    for mask in [0, 0b111111, 0b010101, 0b101010]:
        mb = Model(bad, {"p": WorldSet(bad.n, mask)})
        mg = Model(good, transfer_valuation({"p": WorldSet(bad.n, mask)}, 2))
        assert check_bisim(mb, mg, z).ok


def test_nondefinability_demo_runs_clean():
    report = nondefinability_demo(m=1, trials=8, depth=1, seed=7)
    assert report.ok
    assert report.bad_witness == PencilWitness(x=0, y=1, z=2, u=4, v=3)
    assert report.good_in_class and report.bisim_ok and report.equiv_ok
    assert report.failure is None
    assert report.fan == 1 and report.trials == 8 and report.depth == 1


def test_nondefinability_demo_is_deterministic():
    a = nondefinability_demo(m=1, trials=5, depth=1, seed=3)
    b = nondefinability_demo(m=1, trials=5, depth=1, seed=3)
    assert (a.ok, a.bad_witness) == (b.ok, b.bad_witness)


def test_nondefinability_demo_refuses_empty_runs():
    for kwargs in [dict(m=1, trials=0), dict(m=1, trials=-3),
                   dict(m=1, trials=5, depth=-1), dict(m=0, trials=5)]:
        with pytest.raises(ValueError):
            nondefinability_demo(**kwargs)
    with pytest.raises(ValueError):
        checks.pencil_demo(fan=1, trials=0)
    with pytest.raises(ValueError):
        checks.pencil_demo(fan=1, trials=5, depth=-1)
