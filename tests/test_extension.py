import hashlib
import json
import time

import pytest

from ilkit.corpus import load
from ilkit.extension import (
    ResourceLimitError, UEWorld, build_ue, build_ue_model, check_label_saturation,
    check_saturation, check_truth_theorem, classical_ue, find_assured_successor,
    ue_force, ue_to_dict, ue_to_dot, witness_from_negated,
)
from ilkit.filters import Filter, Ultrafilter
from ilkit.formula import parse
from ilkit.frames import (Frame, Model, WorldSet, all_frames, chain, complete, fan,
                          random_frame, tree, validate)
from ilkit.semantics import extension

import oracles


def up(n, worlds):
    return Filter(n, sum(1 << w for w in worlds))


def test_chain2_extension_frozen():
    ue = build_ue(chain(2))
    assert len(ue) == 4
    u0, u1 = Ultrafilter(2, 0), Ultrafilter(2, 1)
    assert ue.worlds == [
        UEWorld(u0, ()),
        UEWorld(u1, ()),
        UEWorld(u1, (up(2, [1]),)),
        UEWorld(u1, (up(2, [0, 1]),)),
    ]
    assert ue.frame.r_succ == (0b1100, 0, 0, 0)
    assert ue.frame.s_succ[0] == (0, 0, 0b0100, 0b1000)
    assert ue.one_step == ((0, 2), (0, 3))
    assert ue.index[UEWorld(u1, (up(2, [1]),))] == 2
    assert validate(ue.frame).ok


def test_chain1_extension_trivial():
    ue = build_ue(chain(1))
    assert len(ue) == 1
    assert ue.frame.r_succ == (0,)
    assert ue.one_step == ()


def test_chain3_extension_size_and_levels():
    ue = build_ue(chain(3))
    assert len(ue) == 17
    by_depth = {}
    for w in ue.worlds:
        by_depth[len(w.labels)] = by_depth.get(len(w.labels), 0) + 1
    # children are shared between parents, hence 8 at depth two, not more
    assert by_depth == {0: 3, 1: 6, 2: 8}
    assert validate(ue.frame).ok
    # extension worlds strictly outnumber the base ones past chain(1)
    assert len(ue) > 3


def test_extension_grows_with_s_freedom():
    # the extra S-moves of fan2-sym merge labels and shrink the extension
    assert len(build_ue(load("fan2").frame)) == 11
    assert len(build_ue(load("fan2-sym").frame)) == 7
    assert len(build_ue(load("chain3-square").frame)) == 17


def test_build_ue_label_restriction_and_guards():
    only = build_ue(chain(2), labels=[up(2, [1])])
    assert len(only) == 3
    with pytest.raises(ValueError):
        build_ue(chain(2), labels=[Filter(2, 0)])
    with pytest.raises(ResourceLimitError):
        build_ue(chain(3), max_worlds=5)


def test_build_ue_model_lifts_valuation():
    um = build_ue_model(load("chain2"))
    assert um.model.ev["p"] == WorldSet(4, 0b1110)
    assert ue_force(um, 0, parse("<>p"))
    assert ue_force(um, UEWorld(Ultrafilter(2, 1), ()), parse("p"))
    assert not ue_force(um, 0, parse("p"))


def test_truth_theorem_on_corpus_samples():
    pool = [parse(t) for t in ["p", "<>p", "p |> q", "[](p -> q)", "<>p |> q"]]
    for name in ["chain2", "chain3", "fan2", "fan2-sym", "chain3-square"]:
        m = load(name)
        assert check_truth_theorem(m, pool).ok, name


def test_truth_theorem_detects_tampered_valuation():
    m = load("chain2")
    um = build_ue_model(m)
    bad = Model(um.model.frame,
                {"p": um.model.ev["p"] | WorldSet(4, 0b0001)})
    from ilkit.extension import UEModel
    v = check_truth_theorem(m, [parse("p")], UEModel(um.ue, bad))
    assert not v.ok
    witness_world, ue_world, f = v.detail
    assert f == parse("p") and witness_world == 0


def test_saturation_examples():
    um = build_ue_model(load("chain3"))
    pool = [parse(t) for t in ["p", "q", "<>p"]]
    assert check_saturation(um, pool).ok
    with pytest.raises(ValueError):
        check_saturation(um, [parse("p")] * 13)


def test_label_saturation_small_frames():
    assert check_label_saturation(chain(2)).ok
    assert check_label_saturation(fan(2)).ok
    assert check_label_saturation(chain(1)).ok
    assert check_label_saturation(fan(3)).ok
    with pytest.raises(ValueError):
        check_label_saturation(chain(5))


def test_label_saturation_refuses_before_building_filters(monkeypatch):
    def refuse(n):
        raise AssertionError("filters built before the member limit was checked")

    # ``ilkit.extension`` names the forcing function, so patch the module's globals
    monkeypatch.setitem(check_label_saturation.__globals__, "all_proper_filters", refuse)
    with pytest.raises(ValueError):
        check_label_saturation(chain(6))


def test_find_assured_successor_example():
    fr = chain(3)
    h = find_assured_successor(fr, Ultrafilter(3, 0), up(3, [1, 2]),
                               WorldSet.from_iter(3, [1]),
                               WorldSet.from_iter(3, [2]))
    assert h == Ultrafilter(3, 2)


def test_find_assured_successor_preconditions():
    fr = chain(3)
    with pytest.raises(ValueError) as err:
        find_assured_successor(fr, Ultrafilter(3, 1), up(3, [2]),
                               WorldSet.from_iter(3, [2]),
                               WorldSet.from_iter(3, [1]))
    assert "transfer set" in str(err.value)
    with pytest.raises(ValueError) as err:
        find_assured_successor(fr, Ultrafilter(3, 2), up(3, [1]),
                               WorldSet.from_iter(3, [1]),
                               WorldSet.from_iter(3, [2]))
    assert "no assured successor" in str(err.value)


def test_witness_from_negated_example():
    fr = chain(2)
    got = witness_from_negated(fr, Ultrafilter(2, 0),
                               WorldSet.from_iter(2, [1]), WorldSet.empty(2))
    assert got == (Ultrafilter(2, 1), up(2, [1]))
    with pytest.raises(ValueError):
        witness_from_negated(fr, Ultrafilter(2, 0),
                             WorldSet.from_iter(2, [1]),
                             WorldSet.from_iter(2, [1]))


def test_classical_ue_is_isomorphic_to_base():
    for base in [chain(3), fan(2), load("pencil-bad1").frame]:
        cue = classical_ue(base)
        assert cue.witnesses == tuple(range(base.n))
        assert cue.frame.r_succ == base.r_succ
        assert validate(cue.frame).ok
    cue = classical_ue(chain(2), load("chain2"))
    assert cue.model.ev["p"] == WorldSet.from_iter(2, [1])


def test_classical_ue_edges_match_oracle():
    frames = [fr for n in range(1, 4) for fr in all_frames(n)]
    frames += [random_frame(5, seed) for seed in range(5)]
    for fr in frames:
        want = complete(Frame.build(fr.n, oracles.classical_edges_naive(fr)))
        assert classical_ue(fr).frame == want


def test_ue_json_digests_frozen():
    # any change to world order, edges or S families moves these digests
    want = {
        "chain4": (chain(4), 122, "b199eb501146f2b5e9737e1c68b9ad39"
                                  "c06afe5557d29e033fa8aaa1275d68a7"),
        "pencil-good1": (load("pencil-good1").frame, 696,
                         "0284eb5e3f9ce3c935416f5c44b41efa"
                         "ed23f7a76f904b65acb3fabfdab4a361"),
    }
    for name, (base, size, digest) in want.items():
        ue = build_ue(base)
        assert len(ue) == size, name
        text = json.dumps(ue_to_dict(ue), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, name
    # too large for JSON here: pin sha256 of (r_succ, s_succ), with an
    # S_w that is empty everywhere written as "-"
    fr = build_ue(tree(2, 2)).frame
    assert fr.n == 4391
    h = hashlib.sha256(repr(fr.r_succ).encode())
    for rows in fr.s_succ:
        h.update(repr(rows).encode() if any(rows) else b"-")
    assert h.hexdigest() == ("17bbf60b60ff75bad6608ed78312adc2"
                             "b2f5471a8def90087f37e6069755796d")


def test_validate_extensions_budget():
    # equal S rows close and check once, and R-leaves share one zero tuple
    t0 = time.perf_counter()
    assert validate(build_ue(tree(2, 2)).frame).ok
    assert validate(build_ue(chain(5)).frame).ok
    assert time.perf_counter() - t0 < 2


def test_ue_serialization():
    ue = build_ue(chain(2))
    d = ue_to_dict(ue)
    assert d["base_worlds"] == 2
    assert d["edges"] == [[0, 2], [0, 3]]
    assert d["worlds"][2] == {"ultrafilter_witness": 1,
                              "label_min_sets": [[1]]}
    assert d["s_families"] == {"0": [[2, 2], [3, 3]]}
    dot = ue_to_dot(ue, name="two")
    assert dot.startswith("digraph two {")
    assert 'label="U1 [{1}]"' in dot
    assert "0 -> 2;" in dot
