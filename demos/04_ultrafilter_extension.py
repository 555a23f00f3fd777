"""
Ultrafilter extensions of Veltman frames
========================================

Extension worlds pair an ultrafilter with the path of filter labels that
discovered it; edges follow the label-indexed assuring relation.  Over a
finite frame the ultrafilters are principal, so everything is checkable
by brute force — including the truth and saturation theorems.
"""

from ilkit import (
    Ultrafilter, all_assuring_triples, build_ue, build_ue_model, chain,
    check_saturation, check_truth_theorem, force, load, parse,
)

fr = chain(2)
print("assuring triples of chain(2):")
for f, l, g in all_assuring_triples(fr):
    print("   ", f, l, g)

ue = build_ue(fr)
print(f"\nextension has {len(ue)} worlds over {fr.n}:")
for i, w in enumerate(ue.worlds):
    succ = [j for j in range(len(ue)) if ue.frame.r_succ[i] >> j & 1]
    print(f"  {i}: {w!r}  ->  {succ}")

# The valuation lifts through ultrafilter membership, and forcing
# transfers: an extension world agrees with its base witness everywhere.
m = load("chain2")                      # chain(2) with p true at world 1
um = build_ue_model(m)
print("\np holds at:", m.ev["p"], "lifting to", um.model.ev["p"])
print("truth transfer:",
      check_truth_theorem(m, [parse(t) for t in ["p", "<>p", "p |> p"]]).ok)
print("(U0,[]) forces <>p:", force(um.model, 0, parse("<>p")))

# Extensions are modally saturated; the finite-pool check makes that
# concrete on a corpus model whose extension has hundreds of worlds.
big = load("pencil-good1")
um_big = build_ue_model(big)
print(f"\npencil-good1 extension: {len(um_big.ue)} worlds; saturation:",
      check_saturation(um_big, [parse(t) for t in ["p", "q", "<>p"]]).ok)
