"""Scaffolding the tests share: seeded frames, model text, chain length and
modal depth.

None of these is part of ilkit's program; the tests alone call them.
``random_frame`` draws the inputs of many differential tests, so its
output for each ``(n, seed)`` is frozen in ``tests/test_frames.py``;
``model_to_text`` writes a model back out in the frame-file format that
``frameio.parse_frame_text`` reads; ``longest_chain`` is the bound that
the label paths of an ultrafilter extension meet; ``modal_depth`` counts
the nesting of the enumerated and deeply nested formulas.
"""

import random

from ilkit.formula import Box, Formula, Rhd, postorder
from ilkit.frames import Frame, Model, bits, complete


def random_frame(n: int, seed: int) -> Frame:
    """A random legal frame: random strict order, random extra S pairs."""
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                pairs.append((order[i], order[j]))
    base = complete(Frame.build(n, pairs))
    triples = []
    for w in range(n):
        rw = base.r_succ[w]
        members = bits(rw)
        for u in members:
            for v in members:
                if u != v and rng.random() < 0.25:
                    triples.append((w, u, v))
    return complete(Frame.build(n, pairs, triples))


def model_to_text(m: Model) -> str:
    """Write a model back out; loading the result rebuilds it exactly."""
    fr = m.frame
    lines = [f"worlds {fr.n}", "option closure off"]
    for i, j in fr.r_pairs():
        lines.append(f"R {i} {j}")
    for w in range(fr.n):
        for i, j in fr.s_pairs(w):
            lines.append(f"S {w} {i} {j}")
    for atom in sorted(m.ev):
        worlds = " ".join(str(w) for w in m.ev[atom])
        lines.append(f"val {atom} {worlds}".rstrip())
    return "\n".join(lines) + "\n"


def longest_chain(fr: Frame) -> int:
    """Length (edge count) of the longest R-path; bounds label sequences."""
    best = {}

    def depth(w):
        if w not in best:
            best[w] = 0
            for u in bits(fr.r_succ[w]):
                best[w] = max(best[w], 1 + depth(u))
        return best[w]

    return max((depth(w) for w in range(fr.n)), default=0)


def modal_depth(f: Formula) -> int:
    """Maximum nesting of box/``|>`` (each ``|>`` counts one level)."""
    depth = {}
    for g in postorder(f):
        d = max((depth[k] for k in g.kids), default=0)
        depth[g] = d + 1 if isinstance(g, (Box, Rhd)) else d
    return depth[f]
