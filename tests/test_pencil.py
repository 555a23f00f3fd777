import random

import pytest
from hypothesis import given, settings, strategies as st

from ilkit import checks, pencil, semantics
from ilkit.corpus import load
from ilkit.formula import Atom, enumerate_formulas
from ilkit.frames import Frame, Model, WorldSet, chain, fan, tree
from ilkit.pencil import (
    FAN_LIMIT, PencilWitness, SearchExhausted, build_demo_pair,
    nondefinability_demo, pencil_check, transfer_valuation,
)
from ilkit.semantics import check_bisim

import oracles
from helpers import random_frame


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


def test_demo_pair_failing_certification_is_refused(monkeypatch):
    monkeypatch.setattr(pencil, "check_bisim", lambda *args: semantics.BisimVerdict(False))
    with pytest.raises(SearchExhausted, match="^the frame pair with fan size 2 fails"):
        build_demo_pair(2)


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
    report = nondefinability_demo(m=1, depth=1)
    assert report.ok
    assert report.bad_witness == PencilWitness(x=0, y=1, z=2, u=4, v=3)
    assert report.good_in_class and report.bisim_ok and report.equiv_ok
    assert report.failure is None
    assert report.fan == 1 and report.trials == 1024 and report.depth == 1


def test_nondefinability_demo_sweeps_every_valuation():
    # two atoms on the 4 + m worlds of ``bad``
    for m in range(1, FAN_LIMIT + 1):
        report = nondefinability_demo(m)
        assert report.ok, (m, report.failure)
        assert report.trials == 1 << 2 * (4 + m)


def test_nondefinability_demo_refuses_empty_runs(monkeypatch):
    assert FAN_LIMIT == 6
    built = []
    monkeypatch.setattr(pencil, "build_demo_pair",
                        lambda m: built.append(m) or build_demo_pair(m))
    for kwargs in [dict(m=0), dict(m=-3), dict(m=FAN_LIMIT + 1), dict(m=100_000),
                   dict(m=1, depth=-1)]:
        with pytest.raises(ValueError):
            nondefinability_demo(**kwargs)
    for kwargs in [dict(fan=FAN_LIMIT + 1), dict(fan=1, depth=-1)]:
        with pytest.raises(ValueError):
            checks.pencil_demo(**kwargs)
    # the fan and depth bounds are checked before any frame is built
    assert built == [0, -3]
    with pytest.raises(ValueError):
        build_demo_pair(0)


def _valuation(n, vid):
    return {"p": WorldSet(n, vid & (1 << n) - 1), "q": WorldSet(n, vid >> n)}


def _naive_first_failure(m, depth, size_bound, vids, transfer=transfer_valuation):
    """The first valuation in ``vids`` under which a pool formula tells a
    pair of the pairing apart, with the first such pair and formula and
    ``bisim_naive``'s verdict, or None; one valuation at a time, through
    the oracles.  On the way, ``bisim_naive`` must fail exactly where an
    atom tells a pair apart, as forth and back ignore the valuation."""
    good, bad, z = build_demo_pair(m)
    pool = list(enumerate_formulas(("p", "q"), depth, size_bound))
    for vid in vids:
        ev = _valuation(bad.n, vid)
        mb, mg = Model(bad, ev), Model(good, transfer(ev, m))
        ext_b = {f: oracles.extension_naive(mb, f) for f in pool}
        ext_g = {f: oracles.extension_naive(mg, f) for f in pool}
        apart = [((wb, wg), f) for wb, wg in z for f in pool
                 if (wb in ext_b[f]) != (wg in ext_g[f])]
        bisim = oracles.bisim_naive(mb, mg, z)
        assert bisim[0] == all(type(f) is not Atom for _, f in apart)
        if apart:
            return ev, *apart[0], bisim
    return None


def test_sweep_agrees_with_per_valuation_oracles():
    # every valuation at fan 1, a seeded sample at fan 3
    assert nondefinability_demo(m=1, depth=1).ok
    assert _naive_first_failure(1, 1, 1, range(1 << 10)) is None
    r = checks.pencil_demo(fan=3, depth=2)
    assert (r.name, r.ok, r.detail) == (
        "pencil-demo", True, "fan 3, 16384 valuations, depth 2; "
        "violation witness PencilWitness(x=0, y=1, z=2, u=4, v=3)")
    rng = random.Random(3)
    assert _naive_first_failure(3, 2, 2, rng.sample(range(1 << 14), 64)) is None


def test_swapped_transfer_is_caught_at_its_least_valuation(monkeypatch):
    def swapped(ev, m):
        # good's fan worlds 6 and 7 trade their atoms
        out = {}
        for name, ws in transfer_valuation(ev, m).items():
            mask = ws.mask & ~0b11000000 | (ws.mask >> 6 & 1) << 7 | (ws.mask >> 7 & 1) << 6
            out[name] = WorldSet(ws.n, mask)
        return out

    ev, pair, f, bisim = _naive_first_failure(3, 2, 2, range(1 << 14), swapped)
    assert (ev, pair, f) == (_valuation(7, 1 << 5), (5, 6), Atom("p"))
    assert bisim == (False, (5, 6), "atoms", ("p",))
    monkeypatch.setattr(pencil, "transfer_valuation", swapped)
    report = nondefinability_demo(m=3, depth=2)
    assert not report.ok and not report.bisim_ok and report.equiv_ok
    assert report.failure == ("bisim", ev, pair, f)


def _count_blocks(monkeypatch):
    """Record the width of every block the sweeps run, in valuations."""
    widths, real = [], semantics._sweep_block
    monkeypatch.setattr(semantics, "_sweep_block", lambda steps, v, succ, ones: (
        widths.append(ones.bit_length()) or real(steps, v, succ, ones)))
    return widths


def test_demo_sweeps_full_blocks_of_live_columns(monkeypatch):
    # the columns of all 297 pool formulas at once would cut fan 3's blocks
    # to 2^10 valuations; dropping each after its last reader keeps 2^12
    widths = _count_blocks(monkeypatch)
    assert nondefinability_demo(m=3, depth=2).ok
    assert widths == [1 << 12] * 4


def _swap_good_worlds(a, b):
    """``transfer_valuation``, then good's worlds a and b trade their atoms."""
    def swapped(ev, m):
        out = {}
        for name, ws in transfer_valuation(ev, m).items():
            bit_a, bit_b = ws.mask >> a & 1, ws.mask >> b & 1
            out[name] = WorldSet(ws.n, ws.mask & ~(1 << a | 1 << b) | bit_a << b | bit_b << a)
        return out
    return swapped


def test_failure_past_the_first_block_is_the_oracles(monkeypatch):
    # good's worlds 5 and 6 take bad's 4 and 5, so the trade first shows at
    # valuation 16 (p at bad's world 4); under a 2^12-bit cap the sweep drops
    # dead columns and runs blocks of 8, so it lands in the third block
    swapped = _swap_good_worlds(5, 6)
    ev, pair, f, _ = _naive_first_failure(3, 2, 2, range(1 << 14), swapped)
    assert ev == _valuation(7, 1 << 4)
    widths = _count_blocks(monkeypatch)
    monkeypatch.setattr(semantics, "SWEEP_MEMORY_BITS", 12)
    monkeypatch.setattr(pencil, "transfer_valuation", swapped)
    report = nondefinability_demo(m=3, depth=2)
    assert widths == [1 << 3] * 3
    assert report.failure == ("bisim" if type(f) is Atom else "equiv", ev, pair, f)
