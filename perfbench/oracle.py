"""Reference answers by routes that do not run the code under test.

* Shallow forcing (``eval``, ``frame-valid``) goes through the naive
  oracles in ``tests/oracles.py``, on frames closed here rather than by
  the program's loader.
* Deep ``mc`` goes through ``translate``/``eval_term``: the set algebra,
  not the forcing code that ``mc`` runs.
* ``parse`` round trips are checked against this package's own printer.
* ``bisim`` uses a set-based greatest fixpoint written from the
  definition in the semantics module's docstring.
* Ultrafilter extensions are rebuilt from their definition, with the
  assuring relation decided by its least-member reduction; the self-check
  holds that table against the naive ``assuring_naive`` oracle.
* The rest are known facts: every scoreboard check passes, the stock
  proofs check, axiom instances are valid, a malformed request exits 2.

Answers are JSON values; ``[exit code, stdout digest]`` for a CLI request.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from gen import read_frame_text  # noqa: E402


def naive_oracles():
    spec = importlib.util.spec_from_file_location(
        "ilkit_naive_oracles", ROOT / "tests" / "oracles.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def cli_answer(code: int, stdout: str):
    return [code, digest(stdout)]


# ------------------------------------------------------------------ frames


def _warshall(rows):
    n = len(rows)
    for k in range(n):
        for i in range(n):
            if rows[i] >> k & 1:
                rows[i] |= rows[k]
    return rows


def closed_relations(n, r_pairs, s_triples):
    """The least legal frame over the seed relations, as bitmask rows:
    R transitively closed; each S_w reflexive on R[w], containing R inside
    R[w], and transitively closed."""
    r = [0] * n
    for i, j in r_pairs:
        r[i] |= 1 << j
    _warshall(r)
    s = [[0] * n for _ in range(n)]
    for w, i, j in s_triples:
        s[w][i] |= 1 << j
    for w in range(n):
        for u in range(n):
            if r[w] >> u & 1:
                s[w][u] |= 1 << u | (r[u] & r[w])
        _warshall(s[w])
    return r, s


def model_from_text(text, override=None):
    """An ilkit Model built directly from closed relations (the Frame and
    Model classes are used as plain containers)."""
    from ilkit.frames import Frame, Model
    n, r_pairs, s_triples, val = read_frame_text(text)
    r, s = closed_relations(n, r_pairs, s_triples)
    if override:
        val = dict(val, **{override[0]: override[1]})
    return Model(Frame(n, tuple(r), tuple(tuple(row) for row in s)), val)


def to_formula(tree):
    from ilkit.formula import BOT, Atom, Box, Implies, Rhd
    tag = tree[0]
    if tag == "atom":
        return Atom(tree[1])
    if tag == "bot":
        return BOT
    if tag == "box":
        return Box(to_formula(tree[1]))
    if tag == "imp":
        return Implies(to_formula(tree[1]), to_formula(tree[2]))
    return Rhd(to_formula(tree[1]), to_formula(tree[2]))


def tree_atoms(tree):
    out, stack = set(), [tree]
    while stack:
        g = stack.pop()
        if g[0] == "atom":
            out.add(g[1])
        stack.extend(c for c in g[1:] if isinstance(c, tuple))
    return sorted(out)


def _worlds_text(mask, n):
    return "{" + ",".join(str(w) for w in range(n) if mask >> w & 1) + "}"


# --------------------------------------------------------- query requests


def _mc(task, workdir):
    from ilkit.algebra import eval_term, translate
    m = model_from_text((workdir / task["path"]).read_text())
    n = m.frame.n
    env = {a: m.ev_set(a) for a in tree_atoms(task["formula"])}
    ext = eval_term(m.frame, env, translate(to_formula(task["formula"]))).mask
    out = "".join(f"{w}: {'true' if ext >> w & 1 else 'false'}\n" for w in range(n))
    if ext == (1 << n) - 1:
        return cli_answer(0, out)
    missing = min(w for w in range(n) if not ext >> w & 1)
    return cli_answer(1, out + f"fails at world {missing}\n")


def _eval(task, workdir, naive):
    m = model_from_text((workdir / task["path"]).read_text(), task["override"])
    ext = naive.extension_naive(m, to_formula(task["formula"]))
    n = m.frame.n
    mask = sum(1 << w for w in ext)
    whole = "whole frame" if mask == (1 << n) - 1 else "proper subset"
    return cli_answer(0, f"{_worlds_text(mask, n)}\n{whole}\n")


def _frame_valid(task, workdir, naive):
    """Sweep valuations in the documented order: atom masks laid out
    atom-major, world-minor over the sorted atoms; the first failing
    valuation and its least failing world are reported."""
    from ilkit.frames import Model, WorldSet
    fr = model_from_text((workdir / task["path"]).read_text()).frame
    f = to_formula(task["formula"])
    names = tree_atoms(task["formula"])
    n, full = fr.n, (1 << fr.n) - 1
    for vid in range(1 << len(names) * n):
        ev = {a: WorldSet(n, vid >> i * n & full) for i, a in enumerate(names)}
        ext = naive.extension_naive(Model(fr, ev), f)
        if len(ext) != n:
            world = min(set(range(n)) - ext)
            vals = {a: sorted(ws) for a, ws in ev.items()}
            return cli_answer(1, f"refuted at world {world} under {vals}\n")
    return cli_answer(0, "frame-valid\n")


def _parse(task):
    from gen import to_text
    text = to_text(task["formula"], unicode="--unicode" in task["flags"])
    lines = text + "\n"
    if "--core" in task["flags"]:
        lines += text + "\n"
    return cli_answer(0, lines)


def _relations(text):
    n, r_pairs, s_triples, val = read_frame_text(text)
    r, s = closed_relations(n, r_pairs, s_triples)
    succ = [frozenset(u for u in range(n) if r[w] >> u & 1) for w in range(n)]
    ssucc = [[frozenset(v for v in range(n) if s[w][u] >> v & 1)
              for u in range(n)] for w in range(n)]
    return n, succ, ssucc, {a: set(ws) for a, ws in val.items()}


def _zigzag(wl, wr, maps, left, right):
    """Forth and back at the pair (wl, wr): every successor on one side is
    matched by a Z-related successor on the other whose S-successors are
    all matched back by S-successors of the first."""
    _, rl, sl, _ = left
    _, rr, sr, _ = right
    fwd_of, back_of = maps
    for ul in rl[wl]:
        if not any(ur in fwd_of.get(ul, ())
                   and all(not sl[wl][ul].isdisjoint(back_of.get(vr, ()))
                           for vr in sr[wr][ur])
                   for ur in rr[wr]):
            return False
    for ur in rr[wr]:
        if not any(ul in back_of.get(ur, ())
                   and all(not sr[wr][ur].isdisjoint(fwd_of.get(vl, ()))
                           for vl in sl[wl][ul])
                   for ul in rl[wl]):
            return False
    return True


def _maps(z):
    fwd_of, back_of = {}, {}
    for a, b in z:
        fwd_of.setdefault(a, set()).add(b)
        back_of.setdefault(b, set()).add(a)
    return fwd_of, back_of


def _bisim(task, workdir):
    argv = task["argv"]
    left = _relations((workdir / argv[1]).read_text())
    right = _relations((workdir / argv[2]).read_text())
    names = sorted(set(left[3]) | set(right[3]))

    def atoms_agree(a, b):
        return all((a in left[3].get(x, ())) == (b in right[3].get(x, ()))
                   for x in names)

    if "--z" in argv:
        z = set()
        for line in (workdir / argv[argv.index("--z") + 1]).read_text().splitlines():
            a, b = map(int, line.split())
            z.add((a, b))
        ok = all(atoms_agree(a, b) and _zigzag(a, b, _maps(z), left, right)
                 for a, b in z)
        if not ok:
            raise AssertionError(f"{task['name']}: the renaming is no bisimulation")
        return cli_answer(0, f"bisimulation of {len(z)} pairs\n")
    z = {(a, b) for a in range(left[0]) for b in range(right[0]) if atoms_agree(a, b)}
    while True:
        maps = _maps(z)
        keep = {(a, b) for a, b in z if _zigzag(a, b, maps, left, right)}
        if keep == z:
            break
        z = keep
    out = "".join(f"{a} {b}\n" for a, b in sorted(z))
    total = ({a for a, _ in z} == set(range(left[0]))
             and {b for _, b in z} == set(range(right[0])))
    if total:
        return cli_answer(0, out + f"total: {len(z)} pairs\n")
    return cli_answer(1, out + "not total\n")


# The corrupted proof's modus ponens at step 3 cites step 0, whose formula
# is not the antecedent of step 2.
CORRUPT_PROOFS = {"four-corrupt": "invalid at step 3: modus ponens mismatch\n"}


def _prove(task, workdir):
    stem = Path(task["argv"][1]).stem
    if stem in CORRUPT_PROOFS:
        return cli_answer(1, CORRUPT_PROOFS[stem])
    steps = json.loads((workdir / task["argv"][1]).read_text())["steps"]
    return cli_answer(0, f"valid: {steps[-1]['formula']}\n")


def query_answer(task, workdir, naive):
    kind = task["argv"][0] if task["argv"] else ""
    if task["name"].startswith("bad-"):
        return cli_answer(2, "")
    if kind == "mc":
        return _mc(task, workdir)
    if kind == "eval":
        return _eval(task, workdir, naive)
    if kind == "frame-valid":
        return _frame_valid(task, workdir, naive)
    if kind == "parse":
        return _parse(task)
    if kind == "bisim":
        return _bisim(task, workdir)
    if kind == "prove-check":
        return _prove(task, workdir)
    raise ValueError(f"no oracle for {task['name']}")


# -------------------------------------------------- ultrafilter extension


def assured_table(n, r, s):
    """table[fw][B] = mask of witnesses g with U_fw assuring U_g under the
    label up(B).  A filter over a finite set is the up-set of its least
    member B, and the transfer operator is monotone in its second argument,
    so the quantifier over finite choices of members reduces to {B}."""
    full = (1 << n) - 1

    def s_inv(x, y):
        out = 0
        for w in range(n):
            if all(s[w][u] & y for u in range(n) if r[w] >> u & 1 and x >> u & 1):
                out |= 1 << w
        return out

    boxed = [sum(1 << w for w in range(n) if r[w] & ~a == 0) for a in range(1 << n)]
    table = [[0] * (1 << n) for _ in range(n)]
    for b in range(1, 1 << n):
        ybar = full & ~b
        hyps = [(a, s_inv(full & ~a, ybar)) for a in range(1 << n)]
        for fw in range(n):
            ok = full
            for a, sv in hyps:
                if sv >> fw & 1:
                    ok &= a & boxed[a]
            table[fw][b] = ok
    return table


def ue_worlds(n, table):
    """Worlds (witness, label path) in discovery order, and one-step moves.

    Level by level; per parent, labels by least member, targets by
    witness; a (witness, path) pair reached twice is one world.
    """
    worlds = [(w, ()) for w in range(n)]
    index = {w: i for i, w in enumerate(worlds)}
    one_step = []
    frontier = list(range(n))
    while frontier:
        fresh = []
        for wi in frontier:
            fw, path = worlds[wi]
            for b in range(1, 1 << n):
                targets = table[fw][b]
                for g in range(n):
                    if targets >> g & 1:
                        child = (g, path + (b,))
                        ci = index.get(child)
                        if ci is None:
                            ci = index[child] = len(worlds)
                            worlds.append(child)
                            fresh.append(ci)
                        one_step.append((wi, ci))
        frontier = fresh
    return worlds, one_step


def _ue_of_text(text):
    n, r_pairs, s_triples, _ = read_frame_text(text)
    r, s = closed_relations(n, r_pairs, s_triples)
    return n, ue_worlds(n, assured_table(n, r, s))


def ue_world_count(text):
    return len(_ue_of_text(text)[1][0])


def ue_json(text):
    """The extension's ``--json`` text.  A child sits one level below its
    parent, so R is the closure of the one-step moves taken in reverse
    discovery order.  Inside the successor set of a world with path length
    k, S relates two worlds exactly when their labels at position k agree:
    that relation is already reflexive and transitive and contains R
    there, because a descendant keeps its ancestors' label prefix."""
    n, (worlds, one_step) = _ue_of_text(text)
    size = len(worlds)
    children = [[] for _ in range(size)]
    for i, j in one_step:
        children[i].append(j)
    r = [0] * size
    for i in range(size - 1, -1, -1):
        for j in children[i]:
            r[i] |= 1 << j | r[j]
    edges = [[i, j] for i in range(size) for j in range(size) if r[i] >> j & 1]
    families = {}
    for i in range(size):
        if not r[i]:
            continue
        k = len(worlds[i][1])
        succ = [j for j in range(size) if r[i] >> j & 1]
        classes = {}
        for j in succ:
            classes.setdefault(worlds[j][1][k], []).append(j)
        families[str(i)] = [[u, v] for u in succ for v in classes[worlds[u][1][k]]]
    payload = {"base_worlds": n,
               "worlds": [{"ultrafilter_witness": w,
                           "label_min_sets": [[x for x in range(n) if b >> x & 1]
                                              for b in path]}
                          for w, path in worlds],
               "edges": edges, "s_families": families}
    return json.dumps(payload, sort_keys=True) + "\n"


def ue_answer(task, workdir):
    kind = task["kind"]
    if kind in ("truth", "validate"):
        return True          # the truth theorem; extensions are legal frames
    if kind == "build":
        return ue_world_count((workdir / task["path"]).read_text())
    return cli_answer(0, ue_json((workdir / task["argv"][1]).read_text()))


# -------------------------------------------------------------- scoreboard

LABEL_LEMMAS = [
    "assuring-pulls-back-membership", "assuring-pushes-label-forward",
    "assuring-pulls-back-label", "assuring-transitive",
    "fired-sets-box-closed", "fired-sets-meet-closed",
    "family-shrink-monotone", "family-successor-transfer",
    "family-superset-padding", "family-box-padding",
    "family-generates-filter-label", "family-table-probe",
    "min-set-reduction-oracle",
]


def scoreboard_answer(task):
    """Every scoreboard row passes, under its published name."""
    fn = task["fn"]
    if fn == "label_lemma_scoreboard":
        return [[name, True] for name in LABEL_LEMMAS]
    return [[fn.replace("_", "-"), True]]


# ------------------------------------------------------------------- entry


def references(spec, workdir, known=None):
    """Answers for every task of ``spec`` whose name ``known`` lacks."""
    known = known or {}
    naive = None
    out = {}
    for task in spec["tasks"]:
        name = task["name"]
        if name in known:
            out[name] = known[name]
            continue
        if spec["workload"] == "scoreboard":
            out[name] = scoreboard_answer(task)
        elif spec["workload"] == "ue":
            out[name] = ue_answer(task, workdir)
        else:
            if naive is None:
                naive = naive_oracles()
            out[name] = query_answer(task, workdir, naive)
    return out
