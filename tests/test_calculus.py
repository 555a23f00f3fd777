import pytest

from ilkit import calculus
from ilkit.calculus import (
    AxiomInstance, Hyp, MP, Nec, Proof, ProofBuilder, ProofStep, SCHEMAS,
    Taut, axiom_instance, check_proof, derived_theorems, instantiate,
    is_tautology, match_schema, proof_from_dict, proof_to_dict,
    theorem_rhd_mono,
)
from ilkit.formula import Atom, Box, Implies, Rhd, TOP, parse, to_str
from ilkit.frames import all_frames
from ilkit.semantics import frame_valid


def test_match_and_instantiate():
    inst = axiom_instance("K", alpha=parse("p"), beta=parse("q |> r"))
    assert inst == parse("[](p -> (q |> r)) -> ([]p -> [](q |> r))")
    binding = match_schema(SCHEMAS["K"], inst)
    assert binding == {"alpha": parse("p"), "beta": parse("q |> r")}
    # repeated metavariables must agree
    assert match_schema(SCHEMAS["GL"], parse("[]([]p -> q) -> []q")) is None
    assert match_schema(SCHEMAS["GL"], parse("[]([]p -> p) -> []p")) is not None
    assert instantiate(SCHEMAS["J5"], {"alpha": parse("p & q")}) \
        == parse("<>(p & q) |> (p & q)")


def test_schema_instances_recognized_for_all_schemas():
    a, b, c = parse("p"), parse("[]q"), parse("r -> r")
    for name in SCHEMAS:
        binding = {"alpha": a, "beta": b, "gamma": c}
        needed = {m for m in ("alpha", "beta", "gamma")
                  if Atom(m) in _subterms(SCHEMAS[name])}
        inst = instantiate(SCHEMAS[name], {k: binding[k] for k in needed})
        assert match_schema(SCHEMAS[name], inst) is not None, name


def _subterms(f):
    out = {f}
    if isinstance(f, (Implies, Rhd)):
        out |= _subterms(f.lhs) | _subterms(f.rhs)
    elif isinstance(f, Box):
        out |= _subterms(f.body)
    return out


# 17 distinct opaque components exceed the truth-table cap
WIDE = parse(" | ".join(f"a{i}" for i in range(17)))


def test_is_tautology():
    assert is_tautology(parse("p -> p"))
    assert is_tautology(parse("((p -> q) -> p) -> p"))
    assert is_tautology(parse("[]p -> []p"))
    assert not is_tautology(parse("[]p"))
    assert not is_tautology(parse("[](p -> p)"))  # box is opaque
    assert not is_tautology(parse("p -> q"))
    assert is_tautology(WIDE) is None


def test_check_proof_happy_path():
    p = Proof((), (
        ProofStep(axiom_instance("GL", alpha=parse("p")), AxiomInstance("GL")),
    ))
    v = check_proof(p)
    assert v.valid and v.conclusion == parse("[]([]p -> p) -> []p")


def test_check_proof_rejections():
    gl = axiom_instance("GL", alpha=parse("p"))
    cases = [
        (Proof((), ()), None, "empty proof"),
        (Proof((), (ProofStep(parse("[]p"), Taut()),)), 0,
         "not a tautology over opaque components"),
        (Proof((), (ProofStep(gl, AxiomInstance("XX")),)), 0,
         "unknown schema 'XX'"),
        (Proof((), (ProofStep(parse("[]q -> q"), AxiomInstance("GL")),)), 0,
         "does not match schema GL"),
        (Proof((), (
            ProofStep(parse("p -> p"), Taut()),
            ProofStep(parse("p"), MP(0, 0)),
        )), 1, "modus ponens mismatch"),
        (Proof((), (ProofStep(parse("p"), MP(0, 1)),)), 0,
         "modus ponens references a step out of range"),
        (Proof((parse("p"),), (
            ProofStep(parse("p"), Hyp(0)),
            ProofStep(parse("[]p"), Nec(0)),
        )), 1, "necessitation not allowed under hypotheses"),
        (Proof((), (
            ProofStep(parse("p -> p"), Taut()),
            ProofStep(parse("[]p"), Nec(0)),
        )), 1, "necessitation mismatch"),
        (Proof((parse("p"),), (ProofStep(parse("q"), Hyp(0)),)), 0,
         "hypothesis mismatch"),
        (Proof((), (ProofStep(parse("q"), Hyp(0)),)), 0,
         "hypothesis index out of range"),
        (Proof((), (ProofStep(WIDE, Taut()),)), 0, "tautology check overflow"),
        (Proof((), (ProofStep(parse("[]p"), Nec(0)),)), 0,
         "necessitation references a step out of range"),
        (Proof((), (
            ProofStep(parse("p -> p"), Taut()),
            ProofStep(parse("p"), "junk"),
        )), 1, "unknown justification 'junk'"),
    ]
    for proof, step, reason in cases:
        v = check_proof(proof)
        assert not v.valid
        assert v.failed_step == step
        assert v.reason == reason


def test_proof_under_hypotheses():
    hyp = parse("p & q")
    b = ProofBuilder([hyp])
    s0 = b.hyp(0)
    s1 = b.taut(Implies(hyp, parse("p")))
    b.mp(s0, s1)
    v = check_proof(b.build())
    assert v.valid and v.conclusion == parse("p")


def test_builder_rejects_and_recovers():
    b = ProofBuilder()
    with pytest.raises(ValueError):
        b.taut(parse("[]p"))
    with pytest.raises(IndexError):
        b.nec(0)   # no step 0 yet
    assert b.steps == []
    b.taut(parse("p -> p"))
    b.nec(0)
    assert check_proof(b.build()).valid


def _raises(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_builder_errors_name_the_reason_and_roll_back():
    b = ProofBuilder()
    _raises(lambda: b.taut(parse("[]p")), "not a tautology over opaque components: []p")
    assert b.steps == []
    b.taut(parse("p -> p"))
    b.taut(parse("q -> q"))
    _raises(lambda: b.mp(0, 1), "modus ponens does not apply to these steps")
    _raises(lambda: b.mp(1, 0), "modus ponens does not apply to these steps")
    assert len(b.steps) == 2

    h = ProofBuilder([parse("p")])
    h.hyp(0)
    _raises(lambda: h.nec(0), "necessitation not allowed under hypotheses: []p")
    assert h.steps == [ProofStep(parse("p"), Hyp(0))]


def test_building_the_stock_proofs_checks_each_tautology_once(monkeypatch):
    real, calls = calculus.is_tautology, []

    def counted(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(calculus, "is_tautology", counted)
    proofs = [proof for _, proof in derived_theorems().values()]
    taut_steps = [st.conclusion for p in proofs for st in p.steps if isinstance(st.rule, Taut)]
    assert len(calls) == len(taut_steps) == 14
    assert calls == taut_steps


def test_top_rhd_top():
    b = ProofBuilder()
    s1 = b.taut(Implies(TOP, TOP))
    s2 = b.nec(s1)
    s3 = b.axiom("J1", alpha=TOP, beta=TOP)
    b.mp(s2, s3)
    v = check_proof(b.build())
    assert v.valid
    assert v.conclusion == parse("T |> T")


def test_derived_theorems_check_and_roundtrip():
    thms = derived_theorems()
    assert set(thms) == {"four", "box-iff-rhd", "rhd-refl", "dia-rhd",
                         "rhd-mono"}
    for name, (conclusion, proof) in thms.items():
        v = check_proof(proof)
        assert v.valid, name
        assert v.conclusion == conclusion
        again = proof_from_dict(proof_to_dict(proof))
        assert again == proof
    assert thms["four"][0] == parse("[]p -> [][]p")
    assert thms["box-iff-rhd"][0] == parse("[]p <-> (~p |> F)")


def test_derived_theorems_are_frame_valid():
    for name, (conclusion, _) in derived_theorems().items():
        for fr in all_frames(3):
            assert frame_valid(fr, conclusion).valid, (name, fr)


def test_rhd_mono_needs_tautologous_antecedent():
    # the provable shape
    good = theorem_rhd_mono(parse("p"), parse("q & r"), parse("q | r"))
    assert check_proof(good).valid
    # the unrestricted schema is refuted on a small frame, so no proof
    # of it can exist; exhibit a concrete countermodel
    schema = parse("(q -> r) -> ((p |> q) -> (p |> r))")
    refuted = [fr for fr in all_frames(3) if not frame_valid(fr, schema)]
    assert refuted
    # and the builder refuses the non-tautologous antecedent outright
    with pytest.raises(ValueError):
        theorem_rhd_mono(parse("p"), parse("q"), parse("r"))


def test_proof_dict_errors():
    with pytest.raises(ValueError):
        proof_from_dict({"steps": [{"rule": "guess", "formula": "p"}]})
    for doc in ([1, 2], {"hypotheses": "p"}, {"steps": "p"}, {"steps": [1]}):
        with pytest.raises(ValueError):
            proof_from_dict(doc)
    d = proof_to_dict(derived_theorems()["rhd-refl"][1])
    assert d["steps"][-1]["rule"] == "mp"
    assert all(isinstance(s["formula"], str) for s in d["steps"])
    with pytest.raises(TypeError) as exc:
        proof_to_dict(Proof((), (ProofStep(parse("p"), "junk"),)))
    assert str(exc.value) == "unknown justification 'junk'"


def test_proof_dict_field_errors_name_the_step_and_field():
    for doc, message in (
            ({"steps": [{"rule": "hyp", "formula": "p"}]}, "step 0: missing 'index'"),
            ({"steps": [{"rule": "nec", "formula": "[]p"}]}, "step 0: missing 'premise'"),
            ({"steps": [{"rule": "mp", "premise": 0, "formula": "p"}]},
             "step 0: missing 'implication'"),
            ({"steps": [{"rule": "axiom", "formula": "p"}]}, "step 0: missing 'schema'"),
            ({"steps": [{"rule": "taut", "formula": "p -> p"}, {"rule": "taut"}]},
             "step 1: missing 'formula'"),
            ({"steps": [{"rule": "taut", "formula": 5}]}, "step 0: 'formula' must be of type str"),
            ({"steps": [{"rule": "taut", "formula": ["p"]}]},
             "step 0: 'formula' must be of type str"),
            ({"hypotheses": ["p", 3], "steps": []}, "hypothesis 1 must be of type str"),
            ({"hypotheses": [None]}, "hypothesis 0 must be of type str"),
            ({"steps": [{"rule": ["taut"], "formula": "p"}]}, "unknown rule ['taut']"),
            ({"steps": [{"formula": "p"}]}, "unknown rule None"),
            # a field's type is checked before the formula is looked for
            ({"steps": [{"rule": "nec", "premise": "0"}]},
             "step 0: 'premise' must be of type int")):
        with pytest.raises(ValueError) as exc:
            proof_from_dict(doc)
        assert type(exc.value) is ValueError and str(exc.value) == message


def test_proof_dict_fields_in_rule_order():
    order = {"taut": [], "axiom": ["schema"], "mp": ["premise", "implication"],
             "nec": ["premise"]}
    for _, proof in derived_theorems().values():
        for step in proof_to_dict(proof)["steps"]:
            assert list(step) == ["formula", "rule", *order[step["rule"]]]
    hyps = Proof((parse("p"),), (ProofStep(parse("p"), Hyp(0)),
                                 ProofStep(parse("[]p"), Nec(0))))
    assert proof_to_dict(hyps) == {"hypotheses": ["p"], "steps": [
        {"formula": "p", "rule": "hyp", "index": 0},
        {"formula": "[]p", "rule": "nec", "premise": 0}]}
    assert proof_from_dict(proof_to_dict(hyps)) == hyps
