"""
Model checking interpretability-logic formulas
==============================================

Build a small Veltman model, evaluate some formulas world by world, and
hunt for counterexamples to frame validity.
"""

from ilkit import Model, WorldSet, chain, force, frame_valid, parse, to_str
from ilkit.semantics import extension

# A three-world chain 0 R 1 R 2.  complete() has already filled in the
# forced S structure: inside R[0], world 1 can move to 2.
fr = chain(3)
m = Model(fr, {"p": [1], "q": [2]})

print("frame:", fr.n, "worlds, R-pairs", sorted(fr.r_pairs()))
for text in ["p", "<>p", "[]q", "p |> q", "q |> p", "<>p |> <>q"]:
    f = parse(text)
    print(f"  [[{to_str(f):>12}]] = {extension(m, f)}")

# Forcing at a single world is just membership in the extension.
print("world 0 forces p |> q:", force(m, 0, parse("p |> q")))

# Frame validity quantifies over every valuation.  The definability of
# transitivity shows up as the validity of the 4 axiom...
print()
print("[]a -> [][]a valid on chain(3):",
      frame_valid(fr, parse("[]a -> [][]a")).valid)

# ...while a -> []a is no law: the verdict carries the least countermodel.
v = frame_valid(fr, parse("a -> []a"))
print("a -> []a refuted with ev(a) =", v.ev["a"], "at world", v.world)

# The interpretability axioms hold on every legal frame, not just chains.
for schema in ["[](a -> b) -> (a |> b)", "(<>a) |> a",
               "(a |> b) -> (<>a -> <>b)"]:
    print(f"{schema:>28} valid:", frame_valid(fr, parse(schema)).valid)
