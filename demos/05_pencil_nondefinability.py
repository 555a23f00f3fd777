"""
A frame class no modal formula can define
=========================================

The pencil condition — x R y, y S_x z, z R u, y R v, v S_x u imply
y R u — carves a class of frames.  The demo pair puts one frame inside
the class and one outside, yet every valuation on the one transfers to
the other so that paired worlds are bisimilar.  A defining formula would
have to disagree somewhere on the pair; a bounded search under every
valuation finds none.
"""

from ilkit import (
    Model, WorldSet, build_demo_pair, check_bisim, equiv_up_to,
    nondefinability_demo, pencil_check, transfer_valuation,
)

good, bad, z = build_demo_pair(2)
print("bad frame :", bad.n, "worlds; witness", pencil_check(bad).witness)
print("good frame:", good.n, "worlds; in class:", pencil_check(good).in_class)
print("pairing   :", z)

# One concrete valuation, moved across the pairing by duplicating the
# first fan world; the pairing is then a full bisimulation.
ev = {"p": WorldSet(bad.n, 0b001010)}
mb = Model(bad, ev)
mg = Model(good, transfer_valuation(ev, 2))
print("\nbisimulation on the pairing:", check_bisim(mb, mg, z).ok)

# No bounded formula tells any paired pair of points apart.
for wb, wg in z[:4]:
    f = equiv_up_to(mb, wb, mg, wg, depth=2, pool=["p"])
    print(f"  worlds {wb}/{wg}: separating formula up to depth 2 ->", f)

# The packaged demo repeats this under every valuation of two atoms.
report = nondefinability_demo(m=2, depth=1)
print("\nfull demo ok:", report.ok,
      f"({report.trials} valuations, fan {report.fan}, depth {report.depth})")
