from functools import reduce

import pytest

from ilkit import checks
from ilkit.algebra import Intersection, eval_term, translate
from ilkit.filters import FrameOps
from ilkit.formula import conj, parse
from ilkit.frames import Frame, Model
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
}


@pytest.mark.parametrize("plant", FAULTS.values(), ids=FAULTS.keys())
def test_label_lemma_faults_match_per_instance_oracle(monkeypatch, plant):
    # fresh copies of four n=3 frames, so the planted fault stays in their tables
    base = checks._frames_for(3)
    frames = [Frame(3, base[i].r_succ, base[i].s_succ) for i in (1, 14, 20, 32)]
    plant(monkeypatch, frames)
    monkeypatch.setattr(checks, "_frames_up_to", lambda max_n: frames)
    got = [(r.name, r.ok, r.detail) for r in checks.label_lemma_scoreboard()]
    assert got == oracles.label_lemmas_naive(frames)
    assert sum(not ok for _, ok, _ in got) >= 2
