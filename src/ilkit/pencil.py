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

from .formula import Atom, enumerate_formulas
from .frames import Frame, Model, WorldSet, bits, complete
from .limits import FAN_LIMIT
from .records import Frozen, Record
from .semantics import check_bisim, sweep_apart


class PencilWitness(Frozen):
    __slots__ = _fields = ("x", "y", "z", "u", "v")

    def __init__(self, x: int, y: int, z: int, u: int, v: int):
        self._fill(x, y, z, u, v)


class PencilVerdict(Frozen):
    _fields = ("in_class", "witness")

    def __init__(self, in_class: bool, witness: PencilWitness | None = None):
        self._fill(in_class, witness)

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
    must pass the forth and back clauses of a bisimulation (which ignore
    the valuation); a pair failing certification raises SearchExhausted.
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
    if (pencil_check(bad).in_class or not pencil_check(good).in_class
            or not check_bisim(Model(bad), Model(good), z_template).ok):
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


class DemoReport(Record):
    _fields = ("fan", "trials", "depth", "bad_witness", "good_in_class",
               "bisim_ok", "equiv_ok", "failure")

    def __init__(self, fan: int, trials: int, depth: int, bad_witness: PencilWitness,
                 good_in_class: bool, bisim_ok: bool, equiv_ok: bool,
                 failure: tuple | None = None):
        # trials: the valuations swept
        self._fill(fan, trials, depth, bad_witness, good_in_class, bisim_ok,
                   equiv_ok, failure)

    @property
    def ok(self):
        return self.good_in_class and self.bisim_ok and self.equiv_ok

    def __bool__(self):
        return self.ok


def nondefinability_demo(m: int = 3, depth: int = 2, size_bound: int = 2) -> DemoReport:
    """Run the whole argument at desk scale, under every valuation.

    ``build_demo_pair`` has certified the pencil verdicts and the forth and
    back clauses, which ignore the valuation.  The demo sweeps every
    valuation of p and q on ``bad``, moved to ``good`` by
    ``transfer_valuation``, comparing the formulas within the bounds (atoms
    first, so the atoms clause too) at every pair.  A failure ``(kind,
    valuation, pair, formula)`` names the least valuation, then pair, then
    formula; its kind is ``"bisim"`` on an atom, else ``"equiv"``.  Raises
    ValueError, before building a frame, unless ``1 <= m <= FAN_LIMIT`` and
    ``depth >= 0``."""
    if m > FAN_LIMIT:
        raise ValueError(f"fan size must be at most {FAN_LIMIT}, got {m}")
    if depth < 0:
        raise ValueError("depth must be at least 0")
    good, bad, z_template = build_demo_pair(m)
    atoms = ("p", "q")
    report = DemoReport(m, 1 << len(atoms) * bad.n, depth, pencil_check(bad).witness,
                        pencil_check(good).in_class, True, True)
    # world g of good takes the atoms of world src[g] of bad
    moved = transfer_valuation({w: WorldSet(bad.n, 1 << w) for w in range(bad.n)}, m)
    src = [next(w for w, ws in moved.items() if g in ws) for g in range(good.n)]
    found = sweep_apart(bad, good, src, z_template,
                        list(enumerate_formulas(atoms, depth, size_bound)))
    if found is not None:
        atom = isinstance(found[2], Atom)   # the atoms clause
        report.bisim_ok, report.equiv_ok = not atom, atom
        report.failure = ("bisim" if atom else "equiv", *found)
    return report
