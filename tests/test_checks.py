from functools import reduce

import pytest

from ilkit import checks
from ilkit.algebra import Intersection, eval_term, translate
from ilkit.formula import conj, parse
from ilkit.frames import Model
from ilkit.semantics import extension, frame_valid

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
