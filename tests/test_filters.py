import gc
import random
import weakref
from functools import reduce
from operator import or_

import pytest
from hypothesis import given, settings, strategies as st

from ilkit import algebra, extension, filters
from ilkit.corpus import load
from ilkit.extension import build_ue
from ilkit.filters import (
    Filter, FrameOps, Ultrafilter, all_assuring_triples, all_proper_filters,
    all_ultrafilters, assuring, assuring_family, b_set, f_box,
    generate_filter, has_fip,
)
from ilkit.frames import (Frame, WorldSet, all_frames, bits, chain, fan,
                          frame_classes, tree)

import oracles
from helpers import random_frame


def up(n, worlds):
    return Filter(n, sum(1 << w for w in worlds))


def test_ultrafilter_basics():
    u = Ultrafilter(3, 1)
    assert u.contains(WorldSet(3, 0b010))
    assert not u.contains(WorldSet(3, 0b101))
    assert repr(u) == "U1"
    with pytest.raises(ValueError):
        Ultrafilter(3, 3)


def test_filter_is_upset_of_minimum():
    f = up(3, [0, 2])
    assert f.is_proper
    assert f.min_set() == WorldSet(3, 0b101)
    members = f.members()
    assert members == [WorldSet(3, 0b101), WorldSet(3, 0b111)]
    assert all(f.contains(m) for m in members)
    assert not f.contains(WorldSet(3, 0b001))
    assert repr(f) == "up{0,2}"
    improper = Filter(3, 0)
    assert not improper.is_proper
    assert len(improper.members()) == 8


def test_filter_enumerations():
    assert len(all_proper_filters(3)) == 7
    assert len(all_ultrafilters(chain(3))) == 3
    # ultrafilters are exactly the filters with singleton minimum
    singles = [f for f in all_proper_filters(3) if len(f.min_set()) == 1]
    assert len(singles) == 3


@given(st.integers(1, 31), st.integers(0, 31))
def test_filter_membership_law(minm, m):
    f = Filter(5, minm)
    assert f.contains(WorldSet(5, m)) == (minm & ~m == 0)


def test_fip_and_generation():
    sets = [WorldSet(3, 0b011), WorldSet(3, 0b110)]
    assert has_fip(sets)
    assert generate_filter(3, sets) == up(3, [1])
    assert not has_fip(sets + [WorldSet(3, 0b101)])
    assert not generate_filter(3, sets + [WorldSet(3, 0b101)]).is_proper
    # the empty family generates the up-set of W
    assert has_fip([])
    assert generate_filter(3, []) == Filter(3, 0b111)
    with pytest.raises(ValueError):
        has_fip([WorldSet(3, 1), WorldSet(2, 1)])
    with pytest.raises(ValueError):
        generate_filter(3, [WorldSet(2, 1)])


def test_f_box():
    fr = chain(3)
    assert f_box(fr, Ultrafilter(3, 0)) == up(3, [1, 2])
    assert f_box(fr, Ultrafilter(3, 1)) == up(3, [2])
    # a leaf boxes everything: the projection is improper
    assert not f_box(fr, Ultrafilter(3, 2)).is_proper


def test_assuring_chain2_exhaustive():
    fr = chain(2)
    u0, u1 = all_ultrafilters(fr)
    triples = all_assuring_triples(fr)
    assert triples == [
        (u0, up(2, [1]), u1),
        (u0, up(2, [0, 1]), u1),
    ]
    # a leaf assures nothing at all
    assert not any(f == u1 for f, _, _ in triples)


def test_assuring_rejects_improper_label():
    fr = chain(2)
    u0 = Ultrafilter(2, 0)
    with pytest.raises(ValueError):
        assuring(fr, u0, Filter(2, 0), u0)
    with pytest.raises(ValueError):
        b_set(fr, u0, Filter(2, 0))


def test_b_set_chain2():
    fr = chain(2)
    u0, u1 = all_ultrafilters(fr)
    # the hypothesis fires exactly on the sets containing world 1
    assert b_set(fr, u0, up(2, [1])) == [WorldSet(2, 0b10), WorldSet(2, 0b11)]
    # with label up{0} nothing can move 1's successors into {1}... the
    # complement test fires on every set, so the b-set is the whole powerset
    assert len(b_set(fr, u0, up(2, [0]))) == 4


def test_assuring_family_guards():
    fr = chain(2)
    u0 = Ultrafilter(2, 0)
    with pytest.raises(ValueError):
        assuring_family(fr, u0, [WorldSet(2, 0)], u0)
    with pytest.raises(ValueError):
        assuring_family(fr, u0, [WorldSet(3, 1)], u0)


def test_assuring_family_matches_label_on_members():
    for fr in all_frames(2):
        for l in all_proper_filters(2):
            for f in all_ultrafilters(fr):
                for g in all_ultrafilters(fr):
                    want = assuring(fr, f, l, g)
                    assert assuring_family(fr, f, l.members(), g) == want
                    assert assuring_family(fr, f, [l.min_set()], g) == want


def test_assuring_matches_naive_oracle_exhaustively():
    for n in (1, 2):
        for fr in all_frames(n):
            for l in all_proper_filters(n):
                members = [frozenset(m) for m in l.members()]
                for f in all_ultrafilters(fr):
                    for g in all_ultrafilters(fr):
                        assert (assuring(fr, f, l, g)
                                == oracles.assuring_naive(
                                    fr, f.witness, members, g.witness))


@pytest.mark.parametrize("stride", [1])
def test_assuring_matches_naive_oracle_n3(stride):
    frames = list(all_frames(3))[::stride]
    for fr in frames:
        for l in all_proper_filters(3):
            members = [frozenset(m) for m in l.members()]
            for f in all_ultrafilters(fr):
                for g in all_ultrafilters(fr):
                    assert (assuring(fr, f, l, g)
                            == oracles.assuring_naive(
                                fr, f.witness, members, g.witness))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 100), st.lists(st.integers(1, 15), min_size=0,
                                     max_size=3))
def test_assuring_family_against_oracle_random(seed, masks):
    fr = random_frame(4, seed)
    sets = [WorldSet(4, m) for m in masks]
    members = [frozenset(s) for s in sets]
    for fw in range(4):
        for gw in range(4):
            got = assuring_family(fr, Ultrafilter(4, fw), sets,
                                  Ultrafilter(4, gw))
            assert got == oracles.assuring_naive(fr, fw, members, gw)


def test_assuring_on_fan():
    fr = fan(2)
    u0, u1, u2 = all_ultrafilters(fr)
    # without symmetric S-moves each spoke only assures itself
    assert assuring(fr, u0, up(3, [1]), u1)
    assert not assuring(fr, u0, up(3, [1]), u2)
    assert assuring(fr, u0, up(3, [1, 2]), u1)
    assert assuring(fr, u0, up(3, [1, 2]), u2)


def test_frame_ops_tables_are_built_once_per_frame(monkeypatch):
    calls = []
    real_sinv, real_rows = filters.s_inv_mask, FrameOps._rows
    monkeypatch.setattr(filters, "s_inv_mask",
                        lambda *a: calls.append("s_inv") or real_sinv(*a))
    monkeypatch.setattr(FrameOps, "_rows",
                        lambda self, ybar: calls.append("rows") or real_rows(self, ybar))
    fr = random_frame(4, 7)
    u, l = Ultrafilter(4, 0), Filter(4, 0b0100)
    ops = FrameOps(fr)
    rows = [ops.assured(w, lm) for w in range(4) for lm in range(1, 16)]
    fired = b_set(fr, u, l)
    built = len(calls)
    assert calls.count("rows") == 15 and "s_inv" in calls
    again = FrameOps(fr)
    assert [again.assured(w, lm) for w in range(4) for lm in range(1, 16)] == rows
    assert again.rinv is ops.rinv and again.rdual is ops.rdual
    # the public per-call functions read the same tables
    assuring(fr, u, l, Ultrafilter(4, 2))
    assert b_set(fr, u, l) == fired
    all_assuring_triples(fr)
    assert len(calls) == built
    # raw families are not tabulated: one closed-form pass per call, no s_inv
    family = ops.family_rows([0b0011, 0b0110])
    assert again.family_rows([0b0011, 0b0110]) == family
    assuring_family(fr, u, [WorldSet(4, 0b0011)], u)
    assert calls[built:] == ["rows"] * 3


def test_assured_table_and_extension_make_no_s_inv_calls(monkeypatch):
    calls = []
    for module in (algebra, filters, extension):
        real = module.s_inv_mask
        monkeypatch.setattr(module, "s_inv_mask",
                            lambda *a, real=real: calls.append(a) or real(*a))
    fr = tree(2, 2)
    ops = FrameOps(fr)
    table = [ops.assured(w, lm) for w in range(fr.n) for lm in range(1, 1 << fr.n)]
    assert any(table)
    assert len(build_ue(tree(2, 2))) == 4391
    assert calls == []


def _label_tables_match_sweep(fr):
    ops, full = FrameOps(fr), fr.full_mask
    for lm in range(1, 1 << fr.n):
        want = oracles.assured_rows_naive(ops, (full & ~lm,))
        assert [ops.assured(fw, lm) for fw in range(fr.n)] == want, (fr, lm)


def test_assured_rows_match_sweep_on_every_label_and_family_n3():
    for n in (1, 2, 3):
        members = range(1, 1 << n)
        for fr in all_frames(n):
            _label_tables_match_sweep(fr)
            ops, full = FrameOps(fr), fr.full_mask
            for fam in range(1 << len(members)):
                picked = [members[i] for i in bits(fam)]
                # every finite choice of members, the empty one included
                ybars = {reduce(or_, (full & ~picked[i] for i in bits(choice)), 0)
                         for choice in range(1 << len(picked))}
                assert (ops.family_rows(picked)
                        == oracles.assured_rows_naive(ops, ybars)), (fr, fam)


def test_assured_rows_match_sweep_on_law_breaking_frames():
    # the closed form needs no frame law: on a legal frame D is box-closed,
    # so only an illegal one tells the box-preimage gate apart
    rng = random.Random(14)
    for _ in range(30):
        fr = Frame(4, tuple(rng.getrandbits(4) for _ in range(4)),
                   tuple(tuple(rng.getrandbits(4) for _ in range(4)) for _ in range(4)))
        _label_tables_match_sweep(fr)


def test_assured_rows_match_sweep_on_class_representatives_n4():
    for fr, _ in frame_classes(4):
        _label_tables_match_sweep(fr)


LARGER_BASES = {
    "chain4": lambda: chain(4), "chain5": lambda: chain(5), "fan5": lambda: fan(5),
    "tree22": lambda: tree(2, 2), "pencil-bad1": lambda: load("pencil-bad1").frame,
    "pencil-good1": lambda: load("pencil-good1").frame,
}


@pytest.mark.parametrize("name", list(LARGER_BASES))
def test_assured_rows_match_sweep_on_larger_bases(name):
    _label_tables_match_sweep(LARGER_BASES[name]())


def test_frame_with_filled_tables_dies_by_reference_counting():
    fr = random_frame(4, 7)
    ops = FrameOps(fr)
    assert ops.assured(0, 0b0001) is not None and ops.rinv and ops.sinv(0b0110)
    ref = weakref.ref(fr)
    gc.disable()   # the tables must form no cycle with the frame
    try:
        del fr, ops
        assert ref() is None
    finally:
        gc.enable()
