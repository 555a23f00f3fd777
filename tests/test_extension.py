import hashlib
import json
import sys
import time

import pytest

import ilkit.extension
from ilkit.corpus import corpus_models, load
from ilkit.extension import (
    ResourceLimitError, UEModel, UEVerdict, UEWorld, build_ue, build_ue_model,
    check_label_saturation, check_saturation, check_truth_theorem, classical_ue,
    find_assured_successor, ue_force, ue_to_dict, ue_to_dot, ue_to_json,
    witness_from_negated,
)
from ilkit.filters import Filter, FrameOps, Ultrafilter
from ilkit.formula import parse
from ilkit.frames import (Frame, Model, WorldSet, all_frames, bits, chain, complete,
                          fan, frame_classes, tree, validate)
from ilkit.semantics import extension

import oracles
from helpers import longest_chain, random_frame


def up(n, worlds):
    return Filter(n, sum(1 << w for w in worlds))


def test_ilkit_extension_is_the_submodule():
    import ilkit.extension as ext
    assert ext is sys.modules["ilkit.extension"] and ext.build_ue is build_ue


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


def test_label_paths_reach_the_longest_base_chain():
    # a label path never outgrows the longest R-chain of the base (the
    # module docstring's argument); every extension here also reaches it
    bases = [fr for n in range(1, 5) for fr, _ in frame_classes(n)]
    bases += [m.frame for _, m in corpus_models()] + [chain(5), tree(2, 2), fan(5)]
    bases += [random_frame(5, seed) for seed in range(20)]
    assert len(bases) == 120
    for base in bases:
        ue = build_ue(base)
        assert max(len(ue.path_labels[p]) for p in ue.paths) == longest_chain(base), base


def test_extension_grows_with_s_freedom():
    # the extra S-moves of fan2-sym merge labels and shrink the extension
    assert len(build_ue(load("fan2").frame)) == 11
    assert len(build_ue(load("fan2-sym").frame)) == 7
    assert len(build_ue(load("chain3-square").frame)) == 17


def test_build_ue_stops_at_its_world_cap():
    with pytest.raises(ResourceLimitError, match="^extension exceeds 5 worlds; raise the cap$"):
        build_ue(chain(3), max_worlds=5)


def test_build_ue_caps_the_root_worlds(monkeypatch):
    base = complete(Frame.build(3))
    assert len(build_ue(base, max_worlds=3)) == 3

    def refuse(fr):
        raise AssertionError("worlds built before the cap was checked")

    monkeypatch.setattr("ilkit.extension.all_ultrafilters", refuse)
    with pytest.raises(ResourceLimitError, match="exceeds 2 worlds; the base alone has 3"):
        build_ue(base, max_worlds=2)


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


def _benchmark_model(fr):
    return Model(fr, {"p": [w for w in range(fr.n) if w % 2 == 0],
                      "q": [w for w in range(fr.n) if w % 3 == 1]})


UE_POOL = [parse(t) for t in ["[]p", "<>q", "p |> q", "[]q -> (~p |> q)"]]


def test_truth_check_matches_per_world_oracle():
    for name, corpus_model in corpus_models():
        m = _benchmark_model(corpus_model.frame)
        um = build_ue_model(m)
        assert (check_truth_theorem(m, UE_POOL, um)
                == oracles.truth_theorem_naive(m, UE_POOL, um) == UEVerdict(True)), name
    # tampered extension valuations: the first failure's detail must agree
    m = _benchmark_model(load("pencil-bad1").frame)
    um = build_ue_model(m)
    n = len(um.ue)
    failures = set()
    for atom in ("p", "q"):
        for k in (0, 5, n // 2, n - 1):
            ev = dict(um.model.ev)
            ev[atom] = WorldSet(n, ev[atom].mask ^ (1 << k | 1 << n - 1 - k // 3))
            bad = UEModel(um.ue, Model(um.model.frame, ev))
            got = check_truth_theorem(m, UE_POOL, bad)
            assert got == oracles.truth_theorem_naive(m, UE_POOL, bad), (atom, k)
            failures.add(got)
    assert UEVerdict(True) not in failures and len(failures) > 4


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

    monkeypatch.setattr("ilkit.extension.all_proper_filters", refuse)
    with pytest.raises(ValueError):
        check_label_saturation(chain(6))


def test_check_saturation_names_the_first_unsaturated_world(monkeypatch):
    um = build_ue_model(load("chain2"))
    p = parse("p")
    real = ilkit.extension.forcing_extension

    def planted(model, f, cache):
        # p holds nowhere, while <>p keeps its real extension
        ext = real(model, f, cache)
        return WorldSet(ext.n, 0) if f == p else ext

    monkeypatch.setattr("ilkit.extension.forcing_extension", planted)
    verdict = check_saturation(um, [p])
    assert verdict == UEVerdict(False, (UEWorld(Ultrafilter(2, 0), ()), (p,)))


def test_check_label_saturation_names_the_first_unassured_label(monkeypatch):
    class Planted(FrameOps):
        # U0 assures nothing under up{1}; the raw-family rows stay true
        def assured(self, fw, lm):
            return 0 if (fw, lm) == (0, 0b10) else super().assured(fw, lm)

    monkeypatch.setattr("ilkit.extension.FrameOps", Planted)
    assert check_label_saturation(chain(2)) == UEVerdict(False, (Ultrafilter(2, 0), up(2, [1])))


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
    # S_0 is not reflexive at 1, so no label assures 1 from 0: no witness
    fr = Frame.build(2, [(0, 1)], [])
    assert witness_from_negated(fr, Ultrafilter(2, 0), WorldSet.from_iter(2, [1]),
                                WorldSet.full(2)) is None


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
        for text in (json.dumps(ue_to_dict(ue), sort_keys=True), ue_to_json(ue)):
            assert hashlib.sha256(text.encode()).hexdigest() == digest, name
    # too large for ue_to_dict here: pin ue_to_json and the one-step moves
    # (their repr); tree(2, 2) also pins sha256 of (r_succ, s_succ), with
    # an S_w that is empty everywhere written as "-"
    want = {
        "chain5": (chain(5), 2106,
                   "1a1a4548c80c020e665696ce2991b7f0"
                   "7ba5be1f1b856412610bd9a4770d23d0",
                   "82ed1ca9b9864a4c93a500de0047f5fe"
                   "7c20be3f6593aa933938874c82f50c35"),
        "tree22": (tree(2, 2), 4640,
                   "093fe58e3335ca5698b292716dd69e6d"
                   "622ef32668e233af548a5c469198c918",
                   "848e482d1dcfd962a832b0063c758062"
                   "968713f495094b598c1e10f8789588d6"),
    }
    for name, (base, moves, json_digest, moves_digest) in want.items():
        ue = build_ue(base)
        assert hashlib.sha256(ue_to_json(ue).encode()).hexdigest() == json_digest, name
        assert len(ue.one_step) == moves, name
        assert hashlib.sha256(repr(ue.one_step).encode()).hexdigest() == moves_digest, name
    fr = build_ue(tree(2, 2)).frame
    assert fr.n == 4391
    h = hashlib.sha256(repr(fr.r_succ).encode())
    for rows in fr.s_succ:
        h.update(repr(rows).encode() if any(rows) else b"-")
    assert h.hexdigest() == ("17bbf60b60ff75bad6608ed78312adc2"
                             "b2f5471a8def90087f37e6069755796d")


def test_ue_to_json_is_json_dumps_of_ue_to_dict():
    bases = [fr for n in range(1, 4) for fr, _ in frame_classes(n)]
    bases += [m.frame for _, m in corpus_models()]
    bases += [random_frame(5, seed) for seed in range(3)]
    bases.append(chain(2))   # S family empty except at the root
    for base in bases:
        ue = build_ue(base)
        assert ue_to_json(ue) == json.dumps(ue_to_dict(ue), sort_keys=True), base
    # world keys go in string order: pencil-good1 has S families at 21 worlds
    keys = list(json.loads(ue_to_json(build_ue(load("pencil-good1").frame)))["s_families"])
    assert len(keys) == 21 and keys == sorted(keys) != sorted(keys, key=int)


def test_ue_to_json_budget():
    # one join per S cell: json.dumps of ue_to_dict takes over a second here
    t0 = time.perf_counter()
    text = ue_to_json(build_ue(chain(5)))
    assert time.perf_counter() - t0 < 0.5
    assert text.startswith('{"base_worlds": 5, "edges": [[0, ')


def test_built_on_matches_per_world_membership():
    # on the classes at n <= 3 every set of base worlds is some atom's valuation
    models = [Model(fr, {f"p{mask}": list(bits(mask)) for mask in range(1 << n)})
              for n in range(1, 4) for fr, _ in frame_classes(n)]
    models += [m for _, m in corpus_models()]
    for m in models:
        um = build_ue_model(m)
        worlds = um.ue.worlds
        assert um.ue.built_on == [sum(1 << i for i, w in enumerate(worlds) if w.uf.witness == x)
                                  for x in range(m.frame.n)], m.frame
        for atom, ws in m.ev.items():
            want = sum(1 << i for i, w in enumerate(worlds) if w.uf.contains(ws))
            assert um.model.ev[atom].mask == want, (m.frame, atom)


def test_extensions_come_out_closed():
    # build_ue hands its cliques to no closure: closing again changes
    # nothing, and both validators find the frame legal
    bases = [fr for n in range(1, 4) for fr, _ in frame_classes(n)]
    bases += [m.frame for _, m in corpus_models()] + [chain(4)]
    for base in bases:
        fr = build_ue(base).frame
        assert complete(fr) == fr, base
        assert validate(fr).violations == oracles.validate_naive(fr) == (), base


def _with_s_cell(fr, w, u, row):
    rows = list(fr.s_succ[w])
    rows[u] = row
    return Frame(fr.n, fr.r_succ, fr.s_succ[:w] + (tuple(rows),) + fr.s_succ[w + 1:])


def _planted_faults(fr):
    """Five single-cell faults in a legal extension frame, by name."""
    n, r, s = fr.n, fr.r_succ, fr.s_succ
    w = next(w for w in range(n) if r[w])
    u = bits(r[w])[0]
    leaf = max(x for x in range(n) if not r[x])   # after leaves sharing the zero tuple
    # u S_w v for v in R[w], where v's clique holds a world outside u's
    cw, cu, cv = next((w, u, v) for w in range(n) for u in bits(r[w])
                      for v in bits(r[w] & ~s[w][u]) if s[w][v] & ~s[w][u] & ~(1 << v))
    dw, du, dv = next((w, u, v) for w in range(n) for u in bits(r[w])
                      for v in bits(r[u] & r[w]))
    return {
        "stray S pair outside R[w]": _with_s_cell(fr, w, u, s[w][u] | 1 << w),
        "nonzero S row at a leaf": _with_s_cell(fr, leaf, u, 1 << u),
        "cleared reflexive bit": _with_s_cell(fr, w, u, s[w][u] & ~(1 << u)),
        "clique row widened": _with_s_cell(fr, cw, cu, s[cw][cu] | 1 << cv),
        "dropped pair inside R[u] and R[w]": _with_s_cell(fr, dw, du, s[dw][du] & ~(1 << dv)),
    }


def test_validate_matches_naive_oracle_on_planted_extension_faults():
    for base in (chain(3), chain(4), load("pencil-bad1").frame):
        for fault, fr in _planted_faults(build_ue(base).frame).items():
            got = validate(fr).violations
            assert got and got == oracles.validate_naive(fr), fault


def test_validate_extensions_budget():
    # build_ue builds its rows closed, and validate screens each world at C
    # level, walking no cell of a legal frame and the leaves' shared tuple once
    t0 = time.perf_counter()
    assert validate(build_ue(tree(2, 2)).frame).ok
    assert validate(build_ue(chain(5)).frame).ok
    assert time.perf_counter() - t0 < 0.5


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


def test_ue_to_dot_draws_each_s_pair_off_the_diagonal():
    ue = build_ue(chain(3))
    want = [f'  {i} -> {j} [style=dashed, label="S({w})"];'
            for w in range(len(ue)) for i, j in ue.frame.s_pairs(w) if i != j]
    assert len(want) == 60
    dashed = [line for line in ue_to_dot(ue).splitlines() if "style=dashed" in line]
    assert dashed == want
