"""The contract of ilkit's record classes: construction, equality and
hashing, ordering, immutability, pickling and copying, and default reprs."""

import copy
import inspect
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from ilkit.calculus import (MP, AxiomInstance, Hyp, Nec, Proof, ProofStep,
                            ProofVerdict, Taut)
from ilkit.checks import CheckResult
from ilkit.cli import main
from ilkit.extension import (ClassicalUE, UEModel, UEVerdict, UEWorld,
                             build_ue_model)
from ilkit.filters import Filter, Ultrafilter
from ilkit.formula import parse
from ilkit.frames import Frame, Model, Verdict, WorldSet, chain
from ilkit.pencil import DemoReport, PencilVerdict, PencilWitness
from ilkit.semantics import BisimVerdict, FrameVerdict

P = parse("p -> p")
CHAIN2 = chain(2)
WITNESS = PencilWitness(0, 1, 2, 3, 4)

# (class, constructor arguments, frozen, pinned repr or None for a custom one)
RECORDS = [
    (Taut, (), True, "Taut()"),
    (AxiomInstance, ("K",), True, "AxiomInstance(schema='K')"),
    (MP, (0, 1), True, "MP(premise=0, implication=1)"),
    (Nec, (0,), True, "Nec(premise=0)"),
    (Hyp, (0,), True, "Hyp(index=0)"),
    (ProofStep, (P, Nec(0)), True,
     "ProofStep(conclusion=p -> p, rule=Nec(premise=0))"),
    (Proof, ((P,), (ProofStep(P, Hyp(0)),)), True,
     "Proof(hypotheses=(p -> p,), steps=(ProofStep(conclusion=p -> p, "
     "rule=Hyp(index=0)),))"),
    (ProofVerdict, (False, None, 3, "bad"), True,
     "ProofVerdict(valid=False, conclusion=None, failed_step=3, reason='bad')"),
    (CheckResult, ("pencil-demo", True, "ok", 0.25), False,
     "CheckResult(name='pencil-demo', ok=True, detail='ok', seconds=0.25)"),
    (UEWorld, (Ultrafilter(2, 1), (Filter(2, 3), Filter(2, 2))), True, None),
    (UEVerdict, (False, (0, "p")), True, "UEVerdict(ok=False, detail=(0, 'p'))"),
    (ClassicalUE, (CHAIN2,), False,
     "ClassicalUE(frame=Frame(n=2, r_succ=(2, 0), s_succ=((0, 2), (0, 0))), "
     "model=None)"),
    (Ultrafilter, (3, 1), True, None),
    (Filter, (3, 5), True, None),
    (WorldSet, (3, 5), True, None),
    (Frame, (CHAIN2.n, CHAIN2.r_succ, CHAIN2.s_succ), True,
     "Frame(n=2, r_succ=(2, 0), s_succ=((0, 2), (0, 0)))"),
    (Verdict, (False, (("R-irreflexive", (0,)),)), True,
     "Verdict(ok=False, violations=(('R-irreflexive', (0,)),))"),
    (PencilWitness, (0, 1, 2, 3, 4), True, "PencilWitness(x=0, y=1, z=2, u=3, v=4)"),
    (PencilVerdict, (False, WITNESS), True,
     "PencilVerdict(in_class=False, witness=PencilWitness(x=0, y=1, z=2, u=3, v=4))"),
    (DemoReport, (1, 1024, 1, WITNESS, True, True, True), False,
     "DemoReport(fan=1, trials=1024, depth=1, bad_witness=PencilWitness(x=0, y=1, "
     "z=2, u=3, v=4), good_in_class=True, bisim_ok=True, equiv_ok=True, failure=None)"),
    (FrameVerdict, (False, {"p": WorldSet(2, 1)}, 0), True,
     "FrameVerdict(valid=False, ev={'p': {0}}, world=0)"),
    (BisimVerdict, (False, (0, 1), "forth", (1, 2)), True,
     "BisimVerdict(ok=False, pair=(0, 1), clause='forth', witness=(1, 2))"),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


@pytest.mark.parametrize("cls, args, frozen, text", RECORDS, ids=IDS)
def test_record_equality_and_hashing(cls, args, frozen, text):
    a, b = cls(*args), cls(*args)
    assert a == b and not a != b and a is not b
    if frozen and any(isinstance(v, dict) for v in args):
        with pytest.raises(TypeError):   # as a tuple holding a dict would
            hash(a)
    elif frozen:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    else:
        assert cls.__hash__ is None
        with pytest.raises(TypeError):
            hash(a)
    assert a != args and a != None   # noqa: E711
    # a record never equals a record of another class, whatever its fields
    for other, other_args, *_ in RECORDS:
        if other is not cls:
            assert a != other(*other_args)
            try:
                twin = other(*args)
            except (TypeError, ValueError):   # the fields fail its checks
                continue
            assert a != twin


@pytest.mark.parametrize("cls, args, frozen, text", RECORDS, ids=IDS)
def test_record_repr_pickle_and_copy(cls, args, frozen, text):
    a = cls(*args)
    if text is not None:
        assert repr(a) == text
    for again in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a), copy.copy(a)):
        assert type(again) is cls and again == a
        assert repr(again) == repr(a)


@pytest.mark.parametrize("cls, args, frozen, text", RECORDS, ids=IDS)
def test_only_mutable_records_take_assignment(cls, args, frozen, text):
    a = cls(*args)
    for name in inspect.signature(cls).parameters:
        if frozen:
            with pytest.raises(AttributeError):
                setattr(a, name, None)
            with pytest.raises(AttributeError):
                delattr(a, name)
        else:
            setattr(a, name, None)
            assert getattr(a, name) is None
    assert (a == cls(*args)) is frozen


# (class, true arguments, false arguments, the field or property __bool__ returns)
VERDICTS = [
    (CheckResult, ("pencil-demo", True), ("pencil-demo", False, "demo failed"), "ok"),
    (ProofVerdict, (True, P), (False, None, 0, "empty proof"), "valid"),
    (UEVerdict, (True,), (False, (0, "p")), "ok"),
    (PencilVerdict, (True,), (False, WITNESS), "in_class"),
    (DemoReport, (1, 1024, 1, WITNESS, True, True, True),
     (1, 1024, 1, WITNESS, True, False, True, ("bisim",)), "ok"),
    (BisimVerdict, (True,), (False, (0, 1), "forth", (1, 2)), "ok"),
    (FrameVerdict, (True,), (False, {"p": WorldSet(2, 1)}, 0), "valid"),
    (Verdict, (True,), (False, (("R-irreflexive", (0,)),)), "ok"),
]


@pytest.mark.parametrize("cls, yes, no, field", VERDICTS,
                         ids=[cls.__name__ for cls, *_ in VERDICTS])
def test_verdict_truth_is_its_field(cls, yes, no, field):
    for args, want in ((yes, True), (no, False)):
        r = cls(*args)
        assert bool(r) is getattr(r, field) is want


def test_records_take_keywords_and_defaults():
    assert ProofVerdict(valid=True) == ProofVerdict(True, None, None, None)
    assert ProofVerdict(False, reason="r").reason == "r"
    assert CheckResult(name="c", ok=True) == CheckResult("c", True, "", 0.0)
    assert UEVerdict(True).detail is None and Verdict(True).violations == ()
    assert PencilVerdict(True).witness is None
    assert FrameVerdict(True) == FrameVerdict(True, None, None)
    assert BisimVerdict(False, clause="atoms").pair is None
    assert WorldSet(mask=3, n=2) == WorldSet(2, 3)
    assert PencilWitness(v=4, u=3, z=2, y=1, x=0) == WITNESS
    assert DemoReport(1, 1024, 1, WITNESS, True, True, False, failure=("q",)).failure == ("q",)
    with pytest.raises(TypeError):
        WorldSet(2)
    with pytest.raises(TypeError):
        MP(0, 1, 2)
    with pytest.raises(TypeError):
        Taut(0)
    with pytest.raises(TypeError):
        Hyp(number=0)


def test_record_range_checks():
    for build, message in ((lambda: WorldSet(2, 4), "mask 0x4 out of range for n=2"),
                           (lambda: WorldSet(2, -1), "mask -0x1 out of range for n=2"),
                           (lambda: Filter(2, 4), "min mask 0x4 out of range"),
                           (lambda: Ultrafilter(2, 2), "witness 2 out of range for n=2"),
                           (lambda: Ultrafilter(2, -1), "witness -1 out of range for n=2")):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message


def test_custom_reprs():
    assert repr(WorldSet(3, 5)) == "{0,2}"
    assert repr(Ultrafilter(3, 1)) == "U1"
    assert repr(Filter(3, 5)) == "up{0,2}"
    assert repr(UEWorld(Ultrafilter(2, 1), (Filter(2, 3), Filter(2, 2)))) == "(U1,[up{0,1},up{1}])"


@pytest.mark.parametrize("cls", [WorldSet, Filter, Ultrafilter])
def test_ordering_by_fields(cls):
    items = [cls(2, 1), cls(3, 0), cls(2, 0), cls(3, 2)]
    assert sorted(items) == [cls(2, 0), cls(2, 1), cls(3, 0), cls(3, 2)]
    a, b = cls(2, 0), cls(2, 1)
    assert a < b and a <= b and b > a and b >= a and a <= cls(2, 0) and a >= cls(2, 0)
    assert not (b < a or b <= a or a > b or a >= b)
    other = WorldSet if cls is not WorldSet else Filter
    for op in ("__lt__", "__le__", "__gt__", "__ge__"):
        assert getattr(a, op)(other(2, 1)) is NotImplemented
        assert getattr(a, op)((2, 1)) is NotImplemented
    with pytest.raises(TypeError):
        a < other(2, 1)   # noqa: B015
    with pytest.raises(TypeError):
        PencilWitness(0, 0, 0, 0, 0) < WITNESS   # noqa: B015


def test_frame_caches_survive_copies():
    fr = Frame(CHAIN2.n, CHAIN2.r_succ, CHAIN2.s_succ)
    rows = fr.r_rows
    assert fr.r_rows is rows and fr == CHAIN2
    for again in (pickle.loads(pickle.dumps(fr)), copy.deepcopy(fr)):
        assert again == fr and again.r_rows == rows and again.succ_lists == fr.succ_lists


def test_ue_model_round_trips():
    um = build_ue_model(Model(CHAIN2, {"p": [1]}))
    assert um == UEModel(um.ue, um.model)
    assert um != UEModel(um.ue, Model(um.model.frame, um.model.ev))   # models compare by identity
    for again in (pickle.loads(pickle.dumps(um)), copy.deepcopy(um)):
        assert type(again) is UEModel
        assert again.ue.worlds == um.ue.worlds and again.ue.frame == um.ue.frame
        assert again.model.ev == um.model.ev


def test_pencil_demo_prints_the_default_witness_repr(capsys):
    assert main(["pencil-demo", "--fan", "1", "--depth", "1"]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first == "bad frame violation witness: PencilWitness(x=0, y=1, z=2, u=4, v=3)"


def test_importing_ilkit_loads_no_dataclasses_or_inspect():
    """Records are plain classes, so start-up skips ``dataclasses`` and the
    ``inspect``, ``ast`` and ``dis`` it pulls in."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import ilkit, ilkit.checks, ilkit.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-S", "-c", code, str(src)],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"
