"""
The set-algebra reading of the modalities
=========================================

Every formula denotes a set term: box becomes the dual R-preimage and
``|>`` the binary S-preimage operator.  Evaluating the term under a
valuation lands on exactly the forcing extension — checked here side by
side, then in bulk.
"""

from ilkit import (
    Model, agreement, chain, enumerate_formulas, eval_term, fan, parse,
    term_to_str, translate,
)
from ilkit.frames import WorldSet
from ilkit.semantics import extension

for text in ["p -> q", "[]p", "p |> q", "<>p |> (p | q)"]:
    print(f"{text:>18}  ~>  {term_to_str(translate(parse(text)))}")

# Evaluate on a fan: root 0 under spokes 1..3.
fr = fan(3)
m = Model(fr, {"p": [1, 2], "q": [3]})
f = parse("p |> q")
t = translate(f)
print()
print("term value :", eval_term(fr, m.ev, t))
print("forcing    :", extension(m, f))

# The agreement holds for every formula; sweep a whole enumerated pool.
pool = list(enumerate_formulas(["p", "q"], depth=2, size_bound=2))
bad = [f for f in pool if not agreement(m, f)]
print(f"agreement over {len(pool)} formulas:", "ok" if not bad else bad[:3])

# Axioms translate to terms denoting the whole frame under any valuation.
j5 = parse("<>a |> a")
print("J5 denotes W:",
      eval_term(fr, {"a": WorldSet(fr.n, 0b0110)}, translate(j5)))
