import json
import random
from functools import reduce
from itertools import accumulate

import pytest

from ilkit import algebra, checks, pencil
from ilkit.algebra import (BoxOp, Complement, DiaOp, Intersection, Union, Var,
                           eval_term, translate)
from ilkit.calculus import ProofVerdict
from ilkit.extension import ClassicalUE, UEVerdict
from ilkit.filters import FrameOps
from ilkit.formula import Box, conj, parse, to_str
from ilkit.frames import Frame, Model, Verdict, WorldSet, disjoint_union, validate
from ilkit.limits import UE_WORLDS_CAP
from ilkit.pencil import DemoReport, PencilWitness
from ilkit.semantics import extension, frame_valid

import oracles

# Appended after the schema instances, in this order.  On the first frame
# refuting them, X1 fails only under a larger valuation than X2, so the
# least counter-valuation of the whole batch refutes X2 alone, while the
# first instance refuted is X1.
X1 = ("X1", ("p",), parse("p -> []p"))
X2 = ("X2", ("q",), parse("<>T -> <>q"))


def _append(monkeypatch, bad):
    """Append ``bad`` to every instance list the checks build; return the
    lists in the order they are built."""
    real, built = checks._instances, []

    def instances(picks):
        built.append(real(picks) + bad)
        return built[-1]

    monkeypatch.setattr(checks, "_instances", instances)
    return built


def _first_refuted_singly(instances):
    """The first (frame, instance, verdict) refuted, instance by instance."""
    for fr in checks._frames_up_to(3):
        for inst in instances:
            verdict = frame_valid(fr, inst[2])
            if not verdict.valid:
                return fr, inst, verdict
    return None


@pytest.mark.parametrize("bad", [[X1], [X1, X2]], ids=["one", "two"])
def test_batched_checks_name_the_instance_a_single_sweep_names(monkeypatch, bad):
    built = _append(monkeypatch, bad)
    r = checks.axiom_soundness()
    assert not r.ok
    fr, (name, args, _), verdict = _first_refuted_singly(built[0])
    assert name == "X1"
    assert r.detail == (f"{name}{tuple(map(str, args))} refuted on n={fr.n} "
                        f"frame at world {verdict.world}")
    # X1 holds everywhere under the batch's least counter-valuation
    least = frame_valid(fr, reduce(conj, [f for _, _, f in built[0]]))
    assert not least.valid
    assert (extension(Model(fr, least.ev), X1[2]).mask == fr.full_mask) == (len(bad) == 2)

    r = checks.translation_validity()
    assert not r.ok
    terms = [(name, args, translate(f)) for name, args, f in built[1]]
    fr, (name, _, term), verdict = _first_refuted_singly(terms)
    assert name == "X1"
    got = eval_term(fr, verdict.ev, term).mask
    assert r.detail == f"{name} translation misses {fr.full_mask ^ got:#x} on n={fr.n}"
    least = frame_valid(fr, reduce(Intersection, [t for _, _, t in terms]))
    assert not least.valid
    x1 = translate(X1[2])
    assert (eval_term(fr, least.ev, x1).mask == fr.full_mask) == (len(bad) == 2)


# ------------------------------------------- translation agreement, one union


def _flip_s_inv_at_two_successors(monkeypatch):
    """``S_inv`` in ``eval_term`` only, flipped at the worlds with exactly two
    R-successors: a fault that reads each world's own row only."""
    real = algebra.s_inv_mask
    monkeypatch.setattr(algebra, "s_inv_mask", lambda fr, x, y: real(fr, x, y) ^ sum(
        1 << w for w, row in fr.r_rows[0] if row.bit_count() == 2))


AGREEMENT_FAULTS = {
    "clean": (lambda monkeypatch: None, None),
    "box-as-diamond": (lambda monkeypatch: monkeypatch.setitem(algebra._TERM_OF, Box, DiaOp),
                       "mismatch on []p over n=1"),
    "s-inv-flipped": (_flip_s_inv_at_two_successors, "mismatch on p |> p over n=3"),
}


@pytest.mark.parametrize("fault", AGREEMENT_FAULTS)
def test_translation_agreement_matches_per_model_oracle(monkeypatch, fault):
    plant, detail = AGREEMENT_FAULTS[fault]
    plant(monkeypatch)
    r = checks.translation_agreement()
    found = oracles.first_disagreement_naive(checks._agreement_models(), checks._pool())
    if detail is None:
        assert found is None
        assert (r.ok, r.detail) == (True, "82 models x 297 formulas = 24354 cases")
    else:
        m, f = found
        assert f"mismatch on {f} over n={m.frame.n}" == detail
        assert (r.ok, r.detail) == (False, detail)


def test_agreement_union_components_are_the_models():
    models, pool = checks._agreement_models(), checks._pool()
    union = disjoint_union([m.frame for m in models])
    assert validate(union).ok
    assert len({id(union.s_succ[w]) for w in range(union.n) if not union.r_succ[w]}) == 1
    starts = list(accumulate((m.frame.n for m in models), initial=0))
    assert union.n == starts[-1]
    um = Model(union, {a: WorldSet(union.n, sum(m.ev_mask(a) << o for m, o in zip(models, starts)))
                       for a in ("p", "q")})
    caches = [{} for _ in models]
    for f in pool:
        got = extension(um, f).mask
        for m, o, cache in zip(models, starts, caches):
            assert got >> o & m.frame.full_mask == extension(m, f, cache).mask, (f, o)


# ------------------------------------------------ labeling lemmas, baseline

LABEL_COUNTS = {
    "assuring-pulls-back-membership": 920,
    "assuring-pushes-label-forward": 474,
    "assuring-pulls-back-label": 474,
    "assuring-transitive": 96,
    "fired-sets-box-closed": 4962,
    "fired-sets-meet-closed": 36724,
    "family-shrink-monotone": 223239,
    "family-successor-transfer": 48,
    "family-superset-padding": 124153,
    "family-box-padding": 13106,
    "family-generates-filter-label": 800,
    "family-table-probe": 1703,
    "min-set-reduction-oracle": 2179,
}


@pytest.fixture(scope="module")
def lemma_rows():
    return [(r.name, r.ok, r.detail) for r in checks.label_lemma_scoreboard()]


def test_label_lemma_and_classical_details_frozen(lemma_rows):
    assert lemma_rows == [(name, True, f"{k} instances") for name, k in LABEL_COUNTS.items()]
    r = checks.classical_baseline()
    assert (r.ok, r.detail) == (
        True, "1479 frames isomorphic; box pool of 99 checked on 9 corpus models")


def test_label_lemmas_match_per_instance_oracle(monkeypatch, lemma_rows):
    naive, seen = oracles.family_tables_naive, []

    def recorded(ops):
        seen.append((ops.fr, naive(ops)))
        return seen[-1][1]

    monkeypatch.setattr(oracles, "family_tables_naive", recorded)
    assert oracles.label_lemmas_naive(list(checks._frames_up_to(3))) == lemma_rows
    assert len(seen) == 38
    for fr, want in seen:
        packed = checks._family_tables(FrameOps(fr))
        assert [[p >> fw * fr.n & fr.full_mask for fw in range(fr.n)] for p in packed] == want


def _flip_family_bit(fam, fw, gw):
    """A fault in the raw-family table, planted in both sweeps' copies."""
    def plant(monkeypatch, frames):
        packed, naive = checks._family_tables, oracles.family_tables_naive

        def flipped_packed(ops):
            tables = packed(ops)
            tables[fam] ^= 1 << fw * ops.fr.n + gw
            return tables

        def flipped_naive(ops):
            tables = naive(ops)
            tables[fam][fw] ^= 1 << gw
            return tables

        monkeypatch.setattr(checks, "_family_tables", flipped_packed)
        monkeypatch.setattr(oracles, "family_tables_naive", flipped_naive)
    return plant


def _flip_ops(frame, table, i, mask):
    """A fault XORed into entry i of one of a frame's FrameOps tables,
    which both sweeps read."""
    def plant(monkeypatch, frames):
        table(FrameOps(frames[frame]))[i] ^= mask
    return plant


def _label_rows(lm):
    def rows(ops):
        ops.assured(0, lm)   # fill the label's rows
        return ops._assured[lm]
    return rows


FAULTS = {
    "family-table-68": _flip_family_bit(68, 0, 1),
    "family-table-85": _flip_family_bit(85, 1, 1),
    "assured-bit": _flip_ops(1, _label_rows(0b11), 2, 0b10),
    "assured-row": _flip_ops(2, _label_rows(0b101), 1, 0b101),
    "rinv": _flip_ops(0, lambda ops: ops.rinv, 0b10, 0b1),
    "rdual": _flip_ops(2, lambda ops: ops.rdual, 0b101, 0b1),
    "sinv": _flip_ops(2, lambda ops: ops.sinv(0b110), 0b110, 0b1),
    # U0 U1 leaves tab[0x2], two members below 0x26 on the first frame,
    # (2, 0, 0); the least family failing there is 0x6
    "family-table-sub-2": _flip_family_bit(0x2, 0, 1),
    # U0 U1 joins tab[0x7], which then fails at 0x5 and 0x3: the lowest
    # member removed comes first
    "family-table-7": _flip_family_bit(0x7, 0, 1),
}

SHRINK_DETAILS = {
    "family-table-sub-2": "n=3 (2, 0, 0) fam=0x6 sub=0x2 f=U0",
    "family-table-7": "n=3 (2, 0, 0) fam=0x7 sub=0x5 f=U0",
}


@pytest.mark.parametrize("fault", FAULTS)
def test_label_lemma_faults_match_per_instance_oracle(monkeypatch, fault):
    # fresh copies of four n=3 frames, so the planted fault stays in their tables
    base = checks._frames_for(3)
    frames = [Frame(3, base[i].r_succ, base[i].s_succ) for i in (1, 14, 20, 32)]
    FAULTS[fault](monkeypatch, frames)
    monkeypatch.setattr(checks, "_classes_up_to", lambda max_n: [(fr, 1) for fr in frames])
    got = [(r.name, r.ok, r.detail) for r in checks.label_lemma_scoreboard()]
    assert got == oracles.label_lemmas_naive(frames)
    assert sum(not ok for _, ok, _ in got) >= 2
    if fault in SHRINK_DETAILS:
        shrink = got[checks.LABEL_LEMMAS.index("family-shrink-monotone")]
        assert shrink[1:] == (False, f"first failure at {SHRINK_DETAILS[fault]}")


def _shrink_walk(fr, tab):
    """``family-shrink-monotone``'s ``(ok, detail)`` from the walk over
    every subfamily of each family, in descending order."""
    n = fr.n
    for fam, rows in enumerate(tab):
        sub = fam
        while True:
            if bad := rows & ~tab[sub]:
                f = ((bad & -bad).bit_length() - 1) // n
                return False, f"first failure at n={n} {fr.r_succ} fam={fam:#x} sub={sub:#x} f=U{f}"
            if sub == 0:
                break
            sub = (sub - 1) & fam
    return True, f"{sum(n << fam.bit_count() for fam in range(len(tab)))} instances"


def test_single_step_shrink_matches_the_subfamily_walk(monkeypatch):
    # the probe and fired-set blocks never read the raw-family table: stub them
    monkeypatch.setattr(checks, "assuring_family", lambda *args: False)
    monkeypatch.setattr(checks, "all_ultrafilters", lambda fr: [])
    rng, row, failed = random.Random(29), checks.LABEL_LEMMAS.index("family-shrink-monotone"), 0
    for fr, clean in [(fr, checks._family_tables(FrameOps(fr)))
                      for fr, _ in checks._classes_up_to(3)]:
        monkeypatch.setattr(checks, "_classes_up_to", lambda max_n, fr=fr: [(fr, 1)])
        for _ in range(200):
            tab = list(clean)
            for _ in range(rng.randint(2, 6)):
                tab[rng.randrange(len(tab))] ^= 1 << rng.randrange(fr.n * fr.n)
            monkeypatch.setattr(checks, "_family_tables", lambda ops, tab=tab: tab)
            got = checks.label_lemma_scoreboard()[row]
            assert (got.ok, got.detail) == _shrink_walk(fr, tab)
            failed += not got.ok
    assert failed > 1500


# ------------------------------------------ class sweeps, labelled sweeps

CLASS_SWEEPS = ["axiom_soundness", "translation_validity", "label_lemma_scoreboard",
                "saturation", "witness_search", "classical_baseline"]


def _outcome(fn):
    got = getattr(checks, fn)()
    return [(r.ok, r.detail) for r in got] if isinstance(got, list) else (got.ok, got.detail)


@pytest.mark.parametrize("fn", CLASS_SWEEPS)
def test_class_sweeps_match_the_labelled_sweep(monkeypatch, fn):
    want = _outcome(fn)
    monkeypatch.setattr(checks, "_classes_up_to",
                        lambda limit: ((fr, 1) for fr in checks._frames_up_to(limit)))
    assert _outcome(fn) == want


# ------------------------------------------------- run_all and the printers

SCOREBOARD = [
    "frame_enumeration", "axiom_soundness", "proof_checking", "translation_validity",
    "translation_agreement", "label_lemma_scoreboard", "extension_construction",
    "extension_truth", "saturation", "witness_search", "pencil_demo", "classical_baseline",
]


def _stub_scoreboard(monkeypatch, failing=()):
    """Replace every check with a stub recording its arguments; the
    label-lemma stub returns two rows, every other stub one row named after it."""
    calls = []

    def stub_for(i, fn):
        def stub(*args, **kwargs):
            calls.append((fn, (args, kwargs)))
            name = fn.replace("_", "-")
            if fn == "label_lemma_scoreboard":
                return [checks.CheckResult(f"lemma-{k}", True, f"{k} instances", 0.5)
                        for k in (1, 2)]
            return checks.CheckResult(name, name not in failing, f"detail {i}", i / 8)
        return stub

    for i, fn in enumerate(SCOREBOARD):
        monkeypatch.setattr(checks, fn, stub_for(i, fn))
    return calls


def test_run_all_runs_every_check_in_order(monkeypatch):
    calls = _stub_scoreboard(monkeypatch)
    results = checks.run_all(fan=2, depth=1)
    assert [fn for fn, _ in calls] == SCOREBOARD
    assert dict(calls)["pencil_demo"] == ((), {"fan": 2, "depth": 1})
    assert [r.name for r in results] == [
        "frame-enumeration", "axiom-soundness", "proof-checking", "translation-validity",
        "translation-agreement", "lemma-1", "lemma-2", "extension-construction",
        "extension-truth", "saturation", "witness-search", "pencil-demo",
        "classical-baseline"]


def test_corpus_prints_text_and_json(monkeypatch, capsys):
    from ilkit.cli import main

    _stub_scoreboard(monkeypatch)
    assert main(["corpus"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 13
    assert lines[0] == "PASS frame-enumeration         0.00s  detail 0"
    assert lines[5] == "PASS lemma-1                   0.50s  1 instances"
    assert lines[12] == "PASS classical-baseline        1.38s  detail 11"

    _stub_scoreboard(monkeypatch, failing=("saturation",))
    assert main(["corpus", "--json", "--fan", "2"]) == 1
    rows = json.loads(out := capsys.readouterr().out)
    assert out.startswith('[{"detail": "detail 0", "name": "frame-enumeration", '
                          '"ok": true, "seconds": 0.0}, ')
    assert [(r["name"], r["ok"]) for r in rows if not r["ok"]] == [("saturation", False)]
    assert rows[-2] == {"name": "pencil-demo", "ok": True, "detail": "detail 10",
                        "seconds": 1.25}

    assert main(["corpus", "--fan", "2"]) == 1
    assert "FAIL saturation                1.00s  detail 8" in capsys.readouterr().out


# ---------------------------------------------- planted faults, one per path

BROKEN = Verdict(False, (("R-irreflexive", (0,)),))


def _set(name, value):
    return lambda monkeypatch: monkeypatch.setattr(checks, name, value)


def _wrap(name, change):
    """Replace ``checks.<name>`` by ``change(real, *args, **kwargs)``."""
    def plant(monkeypatch):
        real = getattr(checks, name)
        monkeypatch.setattr(checks, name, lambda *args, **kwargs: change(real, *args, **kwargs))
    return plant


def _demo_fails(monkeypatch):
    witness = PencilWitness(0, 1, 2, 4, 3)
    monkeypatch.setattr(pencil, "nondefinability_demo", lambda m, depth: DemoReport(
        m, 16384, depth, witness, True, False, True, failure=("bisim", (0, 1))))


def _cue(change):
    """``classical_ue`` with its result passed through ``change(cue, m)``."""
    return _wrap("classical_ue", lambda real, fr, m=None: change(real(fr, m), m))


def _ue_frame(change):
    """``build_ue`` with the frame of its result passed through ``change``."""
    def patched(real, fr, max_worlds=UE_WORLDS_CAP):
        ue = real(fr, max_worlds)
        ue.frame = change(ue.frame)
        return ue
    return _wrap("build_ue", patched)


def _r_empty(fr):
    return Frame(fr.n, (0,) * fr.n, ((0,) * fr.n,) * fr.n)


BOX_EXPANSION = ("box expansion", 1, Union(Complement(Var("a")), BoxOp(Var("a"))))

# check, plant, the failure detail it must report
PLANTED_FAULTS = {
    "frame-enumeration-validate": (
        "frame_enumeration", _set("validate", lambda fr: BROKEN),
        "n=1 frame breaks ('R-irreflexive', (0,))"),
    "frame-enumeration-count": (
        "frame_enumeration",
        lambda monkeypatch: monkeypatch.setitem(checks.EXPECTED_FRAME_COUNTS, 2, 4),
        "n=2: 3 frames, expected 4"),
    "frame-enumeration-orbits": (
        "frame_enumeration",
        lambda monkeypatch: monkeypatch.setitem(checks.EXPECTED_FRAME_COUNTS, 4, 1440),
        "n=4: orbits add up to 1441, not 1440"),
    "axiom-soundness-mask": (
        "axiom_soundness",
        lambda monkeypatch: monkeypatch.setitem(checks.SCHEMAS, "J5", parse("alpha |> <>alpha")),
        "J5 fails on n=2 frame (2, 0) at masks (2,)"),
    "translation-validity-inclusion": (
        "translation_validity", _set("INCLUSION_LAWS", checks.INCLUSION_LAWS + (BOX_EXPANSION,)),
        "box expansion fails on n=2"),
    "translation-agreement-stride": (
        "translation_agreement", _set("agreement", lambda m, f: "[]" not in to_str(f)),
        "agreement() refutes F |> []p"),
    "extension-construction-chain2": (
        "extension_construction", _wrap("chain", lambda real, n: real(1 if n == 2 else n)),
        "chain(2) worlds [(0, ())] != [(0, ()), (1, ()), (1, (2,)), (1, (3,))]"),
    "extension-construction-edges": (
        "extension_construction",
        _ue_frame(lambda fr: Frame(fr.n, (0b0100,) + fr.r_succ[1:], fr.s_succ)),
        "chain(2) edges (4, 0, 0, 0)"),
    "extension-construction-root-s": (
        "extension_construction",
        _ue_frame(lambda fr: Frame(fr.n, fr.r_succ, ((0, 0, 0b1100, 0b1000),) + fr.s_succ[1:])),
        "chain(2) root S (0, 0, 12, 8)"),
    "extension-construction-validate": (
        "extension_construction", _set("validate", lambda fr: BROKEN),
        "chain1: extension breaks ('R-irreflexive', (0,))"),
    "extension-construction-cap": (
        "extension_construction", _wrap("build_ue", lambda real, fr, max_worlds=None: real(fr)),
        "cap of 5 not enforced on chain(3)"),
    "extension-truth": (
        "extension_truth", _set("check_truth_theorem", lambda m, pool: UEVerdict(False, (0, "p"))),
        "chain1: (0, 'p')"),
    "saturation-corpus": (
        "saturation", _set("check_saturation", lambda um, pool: UEVerdict(False, (0, "p"))),
        "chain1: (0, 'p')"),
    "saturation-label": (
        "saturation", _set("check_label_saturation", lambda fr: UEVerdict(fr.n < 3, (0, "p"))),
        "label saturation fails on n=3: (0, 'p')"),
    "witness-search-assured": (
        "witness_search", _set("find_assured_successor", lambda *args: None),
        "no assured successor n=2 U0 up0x2 A=0x2 B=0x2"),
    "witness-search-negated": (
        "witness_search", _set("witness_from_negated", lambda *args: None),
        "no negated witness n=2 U0 A=0x2 B=0x0"),
    "pencil-demo": ("pencil_demo", _demo_fails, "demo failed: ('bisim', (0, 1))"),
    "classical-baseline-edges": (
        "classical_baseline",
        _cue(lambda cue, m: ClassicalUE(_r_empty(cue.frame), cue.model)),
        "n=2: classical edges (0, 0) != (2, 0)"),
    "classical-baseline-truth": (
        "classical_baseline",
        _cue(lambda cue, m: ClassicalUE(cue.frame, m and Model(cue.frame, {}))),
        "chain2: truth lemma fails on p at U1"),
    "classical-baseline-reflection": (
        "classical_baseline",
        _cue(lambda cue, m: ClassicalUE(_r_empty(cue.frame) if m else cue.frame, cue.model)),
        "chain2: validity not reflected for []p"),
    "proof-checking-step": (
        "proof_checking",
        _set("check_proof", lambda p: ProofVerdict(False, None, 3, "modus ponens mismatch")),
        "four: step 3: modus ponens mismatch"),
    "proof-checking-conclusion": (
        "proof_checking", _set("check_proof", lambda p: ProofVerdict(True, parse("p"))),
        "four: proves p, not []p -> [][]p"),
}


@pytest.mark.parametrize("fn, plant, detail", PLANTED_FAULTS.values(), ids=PLANTED_FAULTS.keys())
def test_planted_fault_fails_its_check_with_its_detail(monkeypatch, fn, plant, detail):
    plant(monkeypatch)
    r = getattr(checks, fn)()
    assert (r.ok, r.detail) == (False, detail)
