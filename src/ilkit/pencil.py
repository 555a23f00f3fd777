"""The pencil condition and the non-definability demo pair.

The pencil condition is the first-order frame property

    x R y  &  y S_x z  &  z R u  &  y R v  &  v S_x u   implies   y R u.

``build_demo_pair`` constructs two frames that witness why no modal formula
can pin the condition down: ``bad`` violates it, ``good`` (one extra fan
world and one fewer S-pair) satisfies it vacuously, yet for every valuation
on ``bad`` the transferred valuation on ``good`` makes the paired points
bisimilar — so the two frames force exactly the same formulas where it
matters while sitting on opposite sides of the class boundary.

Frame layout (m = fan size): world 0 = x, 1 = y, 2 = z, 3 = u, and fan
worlds 4..4+m-1 (``good`` appends one more).  R sends x below everything,
y below u, z below the first fan world; S_x relates y to z and u to each
fan world — ``good`` drops the pair into the first fan world, which is
what rescues the condition there.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .formula import enumerate_formulas
from .frames import Frame, Model, WorldSet, bits, complete
from .semantics import check_bisim, first_apart


@dataclass(frozen=True, slots=True)
class PencilWitness:
    x: int
    y: int
    z: int
    u: int
    v: int


@dataclass(frozen=True)
class PencilVerdict:
    in_class: bool
    witness: PencilWitness | None = None

    def __bool__(self):
        return self.in_class


def pencil_check(fr: Frame) -> PencilVerdict:
    """Exhaustive sweep; worlds may coincide.  The witness, if any, is the
    lexicographically first assignment (x, y, z, u, v)."""
    n, r, s = fr.n, fr.r_succ, fr.s_succ
    for x in range(n):
        sx = s[x]
        for y in bits(r[x]):
            for z in bits(sx[y]):
                for u in bits(r[z] & ~r[y]):
                    for v in bits(r[y]):
                        if sx[v] >> u & 1:
                            return PencilVerdict(False, PencilWitness(x, y, z, u, v))
    return PencilVerdict(True)


class SearchExhausted(RuntimeError):
    pass


def build_demo_pair(m: int):
    """Returns (good, bad, z_template) for fan size m >= 1.

    The pair is certified before being handed out: ``bad`` must yield a
    pencil witness, ``good`` must be in the class, and the shift pairing
    must pass a bisimulation spot-check on a handful of valuations; a pair
    failing certification raises SearchExhausted.
    """
    if m < 1:
        raise ValueError("fan size must be at least 1")
    r_pairs = [(0, 1), (0, 2), (1, 3), (2, 4), (0, 3)] + [(0, 4 + i) for i in range(m)]
    bad = complete(Frame.build(4 + m, r_pairs,
                               [(0, 1, 2)] + [(0, 3, 4 + i) for i in range(m)]))
    # good: one more fan world, and no S_x pair from u into the first one
    good = complete(Frame.build(5 + m, r_pairs + [(0, 4 + m)],
                                [(0, 1, 2)] + [(0, 3, 5 + i) for i in range(m)]))
    z_template = tuple((w, w) for w in range(5)) + tuple((4 + i, 5 + i) for i in range(m))
    rng = random.Random(m)
    spot = [0, (1 << bad.n) - 1] + [rng.randrange(1 << bad.n) for _ in range(6)]
    spot_evs = [{"p": WorldSet(bad.n, mask)} for mask in spot]
    if (pencil_check(bad).in_class or not pencil_check(good).in_class
            or not all(check_bisim(Model(bad, ev), Model(good, transfer_valuation(ev, m)),
                                   z_template).ok for ev in spot_evs)):
        raise SearchExhausted(f"the frame pair with fan size {m} fails certification")
    return good, bad, z_template


def transfer_valuation(ev: dict, m: int) -> dict:
    """Move a valuation across the pairing: shared worlds copy over, the
    first fan world is duplicated onto its shifted image, and every other
    fan world shifts up by one."""
    out = {}
    for name, ws in ev.items():
        bad_mask = ws.mask if isinstance(ws, WorldSet) else int(ws)
        good_mask = bad_mask & 0b11111 | (bad_mask >> 4) << 5
        out[name] = WorldSet(5 + m, good_mask)
    return out


@dataclass
class DemoReport:
    fan: int
    trials: int
    depth: int
    bad_witness: PencilWitness
    good_in_class: bool
    bisim_ok: bool
    equiv_ok: bool
    failure: tuple | None = None

    @property
    def ok(self):
        return self.good_in_class and self.bisim_ok and self.equiv_ok

    def __bool__(self):
        return self.ok


def nondefinability_demo(m: int = 3, trials: int = 100, depth: int = 2,
                         seed: int = 0, size_bound: int = 2) -> DemoReport:
    """Run the whole argument at desk scale.

    Builds the certified pair and, for ``trials`` seeded random valuations
    of two atoms on ``bad``, verifies that the transferred models pass the
    bisimulation check on the pairing and that every paired point forces
    the same formulas up to the given depth and size.  Any failure is
    recorded with its witness and stops the run.  Raises ValueError unless
    ``m >= 1``, ``trials >= 1`` and ``depth >= 0``.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if depth < 0:
        raise ValueError("depth must be at least 0")
    good, bad, z_template = build_demo_pair(m)
    bad_verdict = pencil_check(bad)
    good_verdict = pencil_check(good)
    report = DemoReport(m, trials, depth, bad_verdict.witness,
                        good_verdict.in_class, True, True)
    if not report.good_in_class:
        report.failure = ("pencil", good_verdict.witness)
        return report
    rng = random.Random(seed)
    atoms = ("p", "q")
    # one pool for every trial: the intern table would free it in between
    formulas = list(enumerate_formulas(atoms, depth, size_bound))
    for trial in range(trials):
        ev_bad = {a: WorldSet(bad.n, rng.randrange(1 << bad.n)) for a in atoms}
        ev_good = transfer_valuation(ev_bad, m)
        mb = Model(bad, ev_bad)
        mg = Model(good, ev_good)
        verdict = check_bisim(mb, mg, z_template)
        if not verdict.ok:
            report.bisim_ok = False
            report.failure = ("bisim", trial, ev_bad, verdict)
            return report
        apart = first_apart(mb, mg, z_template, formulas)
        if apart is not None:
            report.equiv_ok = False
            report.failure = ("equiv", trial, ev_bad, *apart)
            return report
    return report
