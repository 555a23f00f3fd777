"""Plain-text frame files and DOT export.

File format, one directive per line (``#`` starts a comment)::

    worlds 3
    option closure on       # default; "off" loads the relations verbatim
    R 0 1
    R 1 2
    S 0 1 2
    val p 1 2

With closure on, the loader runs ``complete`` on the seed relations; with
closure off it validates the file as given and rejects law violations.
A ``val`` line names an atom as formulas do (``formula.ATOM_NAME``).
At most ``WORLDS_LIMIT`` worlds, checked before any relation is allocated.
It bounds time as well as memory: completing a dense chain is cubic (its S
relations hold about n^3/6 pairs), and a full-size one loads in about 1 s.
"""

from __future__ import annotations

from .formula import ATOM_NAME
from .frames import Frame, Model, WorldSet, complete, validate
from .limits import WORLDS_LIMIT


class FrameFormatError(ValueError):
    pass


def parse_frame_text(text: str) -> Model:
    n = None
    closure = True
    r_pairs = []
    s_triples = []
    vals = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        key = parts[0]
        try:   # the relation lines first: they are nearly all of a file
            if key == "R":
                _, i, j = parts
                r_pairs.append((int(i), int(j)))
            elif key == "S":
                _, w, i, j = parts
                s_triples.append((int(w), int(i), int(j)))
            elif key == "worlds":
                _, count = parts
                n = int(count)
                if n <= 0:
                    raise ValueError
            elif key == "option":
                _, opt, value = parts
                if opt != "closure" or value not in ("on", "off"):
                    raise ValueError
                closure = value == "on"
            elif key == "val" and ATOM_NAME.fullmatch(parts[1]):
                vals.setdefault(parts[1], []).extend(int(p) for p in parts[2:])
            else:
                raise ValueError
        except (ValueError, IndexError):
            raise FrameFormatError(f"line {lineno}: cannot read {raw!r}") from None
    if n is None:
        raise FrameFormatError("missing 'worlds' directive")
    if n > WORLDS_LIMIT:
        raise FrameFormatError(f"{n} worlds exceeds the limit of {WORLDS_LIMIT}")
    try:
        fr = Frame.build(n, r_pairs, s_triples)
        if closure:
            fr = complete(fr)
        else:
            verdict = validate(fr)
            if not verdict:
                law, witness = verdict.violations[0]
                raise FrameFormatError(
                    f"closure off but frame breaks {law} at {witness}")
        ev = {a: WorldSet.from_iter(n, ws) for a, ws in vals.items()}
    except ValueError as exc:
        raise FrameFormatError(str(exc)) from None
    return Model(fr, ev)


def load_model(path) -> Model:
    with open(path, encoding="utf-8") as fh:
        return parse_frame_text(fh.read())


def to_dot(m: Model, name="frame") -> str:
    """DOT digraph: worlds as nodes, R solid, each S_w dashed labeled S(w)."""
    fr = m.frame
    lines = [f"digraph {name} {{"]
    for w in range(fr.n):
        true_atoms = sorted(a for a in m.ev if w in m.ev[a])
        label = str(w) if not true_atoms else f"{w}: " + ",".join(true_atoms)
        lines.append(f'  {w} [label="{label}"];')
    for i, j in fr.r_pairs():
        lines.append(f"  {i} -> {j};")
    for w in range(fr.n):
        for i, j in fr.s_pairs(w):
            lines.append(f'  {i} -> {j} [style=dashed, label="S({w})"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
