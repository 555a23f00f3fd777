"""Hilbert-style proof checking.

A proof is a list of steps, each carrying its conclusion and one of five
justifications: a propositional tautology, an instance of a named axiom
schema (K, GL, J1..J5), modus ponens from two earlier steps, necessitation
of an earlier step (disallowed once hypotheses are present), or a copy of a
hypothesis.  Tautology steps are verified semantically — truth tables over
the step's maximal box/``|>``/atom subterms treated as opaque components —
so no particular propositional axiom basis is baked in; steps with more
than 16 distinct components are rejected rather than guessed at.
``check_proof`` applies one rule, ``step_error``, to each step in turn;
``ProofBuilder`` applies it once to each step it adds.
"""

from __future__ import annotations

from .formula import (BOT, Atom, Bottom, Box, Formula, Implies, Rhd, conj, dia,
                      disj, iff, neg, parse, postorder, to_str, truth_columns)
from .limits import TAUT_COMPONENT_LIMIT
from .records import Frozen


class Taut(Frozen):
    __slots__ = ()


class AxiomInstance(Frozen):
    __slots__ = _fields = ("schema",)

    def __init__(self, schema: str):
        self._fill(schema)


class MP(Frozen):
    __slots__ = _fields = ("premise", "implication")

    def __init__(self, premise: int, implication: int):
        self._fill(premise, implication)


class Nec(Frozen):
    __slots__ = _fields = ("premise",)

    def __init__(self, premise: int):
        self._fill(premise)


class Hyp(Frozen):
    __slots__ = _fields = ("index",)

    def __init__(self, index: int):
        self._fill(index)


class ProofStep(Frozen):
    __slots__ = _fields = ("conclusion", "rule")

    def __init__(self, conclusion: Formula, rule):
        self._fill(conclusion, rule)


class Proof(Frozen):
    _fields = ("hypotheses", "steps")

    def __init__(self, hypotheses: tuple, steps: tuple):
        self._fill(hypotheses, steps)


class ProofVerdict(Frozen):
    _fields = ("valid", "conclusion", "failed_step", "reason")

    def __init__(self, valid: bool, conclusion: Formula | None = None,
                 failed_step: int | None = None, reason: str | None = None):
        self._fill(valid, conclusion, failed_step, reason)

    def __bool__(self):
        return self.valid


_A, _B, _C = Atom("alpha"), Atom("beta"), Atom("gamma")
_META = ("alpha", "beta", "gamma")

SCHEMAS = {
    "K": Implies(Box(Implies(_A, _B)), Implies(Box(_A), Box(_B))),
    "GL": Implies(Box(Implies(Box(_A), _A)), Box(_A)),
    "J1": Implies(Box(Implies(_A, _B)), Rhd(_A, _B)),
    "J2": Implies(conj(Rhd(_A, _B), Rhd(_B, _C)), Rhd(_A, _C)),
    "J3": Implies(conj(Rhd(_A, _C), Rhd(_B, _C)), Rhd(disj(_A, _B), _C)),
    "J4": Implies(Rhd(_A, _B), Implies(dia(_A), dia(_B))),
    "J5": Rhd(dia(_A), _A),
}


def match_schema(pattern: Formula, candidate: Formula, binding=None):
    """Substitution sending the schema to the candidate, or None.

    Metavariables are the pattern atoms named alpha/beta/gamma; repeated
    occurrences must bind the same subformula.
    """
    if binding is None:
        binding = {}
    pairs = [(pattern, candidate)]
    while pairs:
        p, c = pairs.pop()
        if isinstance(p, Atom) and p.name in _META:
            if binding.setdefault(p.name, c) is not c:
                return None
        elif type(p) is not type(c) or (not p.kids and p is not c):
            return None
        else:
            pairs.extend(zip(reversed(p.kids), reversed(c.kids)))
    return binding


def instantiate(pattern: Formula, binding: dict) -> Formula:
    out = {}
    for g in postorder(pattern):
        if isinstance(g, Atom) and g.name in _META:
            out[g] = binding[g.name]
        else:
            out[g] = type(g)(*(out[k] for k in g.kids)) if g.kids else g
    return out[pattern]


def axiom_instance(schema: str, **binding) -> Formula:
    return instantiate(SCHEMAS[schema], binding)


def is_tautology(f: Formula):
    """True/False, or None when the component cap is exceeded.

    The walk opens implications only; the other nodes but falsum are the
    components.  Bit b of a node's truth table is its value when component
    i is true exactly if bit i of b is set, so one pass covers all rows.
    """
    nodes = list(postorder(f, lambda g: isinstance(g, Implies)))
    comps = [g for g in nodes if not isinstance(g, (Implies, Bottom))]
    if len(comps) > TAUT_COMPONENT_LIMIT:
        return None
    full = (1 << (1 << len(comps))) - 1
    table = {BOT: 0, **dict(zip(comps, truth_columns(len(comps))))}
    for g in nodes:
        if isinstance(g, Implies):
            table[g] = (full & ~table[g.lhs]) | table[g.rhs]
    return table[f] == full


def step_error(hyps: tuple, steps, idx: int) -> str | None:
    """Why step ``idx`` does not follow from ``hyps`` and earlier steps, or None."""
    rule, c = steps[idx].rule, steps[idx].conclusion
    if isinstance(rule, Taut):
        t = is_tautology(c)
        if t is None:
            return "tautology check overflow"
        if not t:
            return "not a tautology over opaque components"
    elif isinstance(rule, AxiomInstance):
        pattern = SCHEMAS.get(rule.schema)
        if pattern is None:
            return f"unknown schema {rule.schema!r}"
        if match_schema(pattern, c) is None:
            return f"does not match schema {rule.schema}"
    elif isinstance(rule, MP):
        i, j = rule.premise, rule.implication
        if not (0 <= i < idx and 0 <= j < idx):
            return "modus ponens references a step out of range"
        if steps[j].conclusion != Implies(steps[i].conclusion, c):
            return "modus ponens mismatch"
    elif isinstance(rule, Nec):
        if hyps:
            return "necessitation not allowed under hypotheses"
        if not 0 <= rule.premise < idx:
            return "necessitation references a step out of range"
        if c != Box(steps[rule.premise].conclusion):
            return "necessitation mismatch"
    elif isinstance(rule, Hyp):
        if not 0 <= rule.index < len(hyps):
            return "hypothesis index out of range"
        if c != hyps[rule.index]:
            return "hypothesis mismatch"
    else:
        return f"unknown justification {rule!r}"


def check_proof(p: Proof) -> ProofVerdict:
    """Check every step by ``step_error``; the verdict has the first failure."""
    if not p.steps:
        return ProofVerdict(False, None, None, "empty proof")
    for idx in range(len(p.steps)):
        if reason := step_error(p.hypotheses, p.steps, idx):
            return ProofVerdict(False, None, idx, reason)
    return ProofVerdict(True, p.steps[-1].conclusion)


class ProofBuilder:
    """Grow a proof step by step, failing fast on any illegal move."""

    def __init__(self, hypotheses=()):
        self.hypotheses = tuple(hypotheses)
        self.steps = []

    def _add(self, conclusion, rule):
        self.steps.append(ProofStep(conclusion, rule))
        if reason := step_error(self.hypotheses, self.steps, len(self.steps) - 1):
            self.steps.pop()
            raise ValueError(f"{reason}: {to_str(conclusion)}")
        return len(self.steps) - 1

    def taut(self, f):
        return self._add(f, Taut())

    def axiom(self, schema, **binding):
        return self._add(axiom_instance(schema, **binding), AxiomInstance(schema))

    def mp(self, premise, implication):
        imp = self.steps[implication].conclusion
        if not isinstance(imp, Implies) or imp.lhs != self.steps[premise].conclusion:
            raise ValueError("modus ponens does not apply to these steps")
        return self._add(imp.rhs, MP(premise, implication))

    def nec(self, premise):
        return self._add(Box(self.steps[premise].conclusion), Nec(premise))

    def hyp(self, k):
        return self._add(self.hypotheses[k], Hyp(k))

    def taut_mp(self, premises, conclusion):
        """Glue step: assert the implication chain from the given earlier
        steps to ``conclusion`` as one tautology, then discharge each
        premise by modus ponens."""
        f = conclusion
        for i in reversed(premises):
            f = Implies(self.steps[i].conclusion, f)
        idx = self.taut(f)
        for i in premises:
            idx = self.mp(i, idx)
        return idx

    def formula(self, idx):
        return self.steps[idx].conclusion

    def build(self):
        return Proof(self.hypotheses, tuple(self.steps))


def theorem_four(a: Formula) -> Proof:
    """Box is idempotent upward: a proof of ``[]a -> [][]a``.

    Runs the fixed-point trick through chi = a & []a: the schema GL applied
    at chi needs ``[](box chi -> chi)``, which follows from ``a`` once
    ``box chi -> box a`` is available.
    """
    chi = conj(a, Box(a))
    b = ProofBuilder()
    s1 = b.taut(Implies(chi, a))
    s2 = b.nec(s1)
    s3 = b.axiom("K", alpha=chi, beta=a)
    s4 = b.mp(s2, s3)                          # box chi -> box a
    s5 = b.taut(Implies(b.formula(s4), Implies(a, Implies(Box(chi), chi))))
    s6 = b.mp(s4, s5)                          # a -> (box chi -> chi)
    s7 = b.nec(s6)
    s8 = b.axiom("K", alpha=a, beta=Implies(Box(chi), chi))
    s9 = b.mp(s7, s8)                          # box a -> box(box chi -> chi)
    s10 = b.axiom("GL", alpha=chi)
    s11 = b.taut_mp([s9, s10], Implies(Box(a), Box(chi)))
    s12 = b.taut(Implies(chi, Box(a)))
    s13 = b.nec(s12)
    s14 = b.axiom("K", alpha=chi, beta=Box(a))
    s15 = b.mp(s13, s14)                       # box chi -> box box a
    b.taut_mp([s11, s15], Implies(Box(a), Box(Box(a))))
    return b.build()


def theorem_box_iff_rhd(a: Formula) -> Proof:
    """Box through the binary modality: ``[]a <-> (~a |> F)``."""
    na = neg(a)
    nna = neg(na)
    b = ProofBuilder()
    s1 = b.taut(Implies(a, nna))
    s2 = b.nec(s1)
    s3 = b.axiom("K", alpha=a, beta=nna)
    s4 = b.mp(s2, s3)                          # box a -> box ~~a
    s5 = b.axiom("J1", alpha=na, beta=BOT)     # box(~a -> F) -> (~a |> F)
    fwd = b.taut_mp([s4, s5], Implies(Box(a), Rhd(na, BOT)))
    s6 = b.axiom("J4", alpha=na, beta=BOT)     # (~a |> F) -> (<>~a -> <>F)
    s7 = b.taut(neg(BOT))
    s8 = b.nec(s7)                             # box ~F
    s9 = b.taut(Implies(nna, a))
    s10 = b.nec(s9)
    s11 = b.axiom("K", alpha=nna, beta=a)
    s12 = b.mp(s10, s11)                       # box ~~a -> box a
    bwd = b.taut_mp([s6, s8, s12], Implies(Rhd(na, BOT), Box(a)))
    b.taut_mp([fwd, bwd], iff(Box(a), Rhd(na, BOT)))
    return b.build()


def theorem_rhd_refl(a: Formula) -> Proof:
    """``~a |> ~a`` from a tautology, necessitation and J1."""
    na = neg(a)
    b = ProofBuilder()
    s1 = b.taut(Implies(na, na))
    s2 = b.nec(s1)
    s3 = b.axiom("J1", alpha=na, beta=na)
    b.mp(s2, s3)
    return b.build()


def theorem_dia_rhd(a: Formula) -> Proof:
    """``<>a |> a`` is the J5 axiom itself."""
    b = ProofBuilder()
    b.axiom("J5", alpha=a)
    return b.build()


def theorem_rhd_mono(a: Formula, b: Formula, c: Formula) -> Proof:
    """``(b -> c) -> (a |> b -> a |> c)`` for tautologous ``b -> c``.

    The antecedent must be a propositional tautology over opaque
    components — the fully general monotonicity schema is not a theorem
    here (small frames refute it; see the calculus tests), and these
    provable instances are the ones anything downstream relies on.
    """
    pb = ProofBuilder()
    s1 = pb.taut(Implies(b, c))
    s2 = pb.nec(s1)
    s3 = pb.axiom("J1", alpha=b, beta=c)
    s4 = pb.mp(s2, s3)                         # b |> c
    s5 = pb.axiom("J2", alpha=a, beta=b, gamma=c)
    pb.taut_mp([s4, s5], Implies(Implies(b, c), Implies(Rhd(a, b), Rhd(a, c))))
    return pb.build()


def derived_theorems() -> dict:
    """Stock derived laws as name -> (formula, checked proof)."""
    p, q, r = Atom("p"), Atom("q"), Atom("r")
    proofs = {
        "four": theorem_four(p),
        "box-iff-rhd": theorem_box_iff_rhd(p),
        "rhd-refl": theorem_rhd_refl(p),
        "dia-rhd": theorem_dia_rhd(p),
        "rhd-mono": theorem_rhd_mono(p, conj(q, r), disj(q, r)),
    }
    return {name: (proof.steps[-1].conclusion, proof)
            for name, proof in proofs.items()}


_RULES = {"taut": Taut, "axiom": AxiomInstance, "mp": MP, "nec": Nec, "hyp": Hyp}
_RULE_NAMES = {cls: name for name, cls in _RULES.items()}


def proof_to_dict(p: Proof) -> dict:
    steps = []
    for st in p.steps:
        if type(st.rule) not in _RULE_NAMES:
            raise TypeError(f"unknown justification {st.rule!r}")
        steps.append({"formula": to_str(st.conclusion), "rule": _RULE_NAMES[type(st.rule)],
                      **{name: getattr(st.rule, name) for name in st.rule._fields}})
    return {"hypotheses": [to_str(h) for h in p.hypotheses], "steps": steps}


def proof_from_dict(d: dict) -> Proof:
    """Rebuild a proof from ``proof_to_dict``'s form.  Raises ValueError,
    naming the step and the field, unless ``d`` is an object whose
    ``hypotheses`` are a list of strings and whose ``steps`` are a list of
    objects, each with a known ``rule``, its fields (a string ``schema``,
    integer ``premise``, ``implication`` and ``index``) and a string
    ``formula``; or if a formula does not parse."""
    if not isinstance(d, dict):
        raise ValueError("a proof must be an object")
    for key in ("hypotheses", "steps"):
        if not isinstance(d.get(key, []), list):
            raise ValueError(f"{key!r} must be a list")
    hyps = []
    for i, h in enumerate(d.get("hypotheses", [])):
        if type(h) is not str:
            raise ValueError(f"hypothesis {i} must be of type str")
        hyps.append(parse(h))
    steps = []
    for i, sd in enumerate(d.get("steps", [])):
        if not isinstance(sd, dict):
            raise ValueError(f"step {i} must be an object")
        rule = sd.get("rule")
        cls = _RULES.get(rule) if type(rule) is str else None
        if cls is None:
            raise ValueError(f"unknown rule {rule!r}")
        if missing := [name for name in cls._fields if name not in sd]:
            raise ValueError(f"step {i}: missing {missing[0]!r}")
        args = [sd[name] for name in cls._fields]
        want = str if cls is AxiomInstance else int
        if bad := [name for name, arg in zip(cls._fields, args) if type(arg) is not want]:
            raise ValueError(f"step {i}: {bad[0]!r} must be of type {want.__name__}")
        if "formula" not in sd:
            raise ValueError(f"step {i}: missing 'formula'")
        if type(sd["formula"]) is not str:
            raise ValueError(f"step {i}: 'formula' must be of type str")
        steps.append(ProofStep(parse(sd["formula"]), cls(*args)))
    return Proof(tuple(hyps), tuple(steps))
