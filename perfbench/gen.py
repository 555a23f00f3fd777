"""Seeded input generation for the three workloads.

Everything the program under test receives is made here, from the seed
alone: frame files (seed relations, closed by the program on load),
formula text and argv lists.  Formulas are built as small tuple trees
(``("atom", name)``, ``("bot",)``, ``("imp", a, b)``, ``("box", a)``,
``("rhd", a, b)``) so that the oracles can evaluate them without going
through the program's parser.

``make(workload, seed, workdir)`` writes the input files into ``workdir``
and returns the task spec; ``run.py`` strips the formula trees from it
before the pass runner sees it.
"""

from __future__ import annotations

import random
import shutil
from pathlib import Path

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"

# ---------------------------------------------------------------- formulas

BOT = ("bot",)


def atom(name):
    return ("atom", name)


def imp(a, b):
    return ("imp", a, b)


def box(a):
    return ("box", a)


def rhd(a, b):
    return ("rhd", a, b)


# The derived connectives expand exactly as the formula module documents.
def neg(a):
    return imp(a, BOT)


def conj(a, b):
    return neg(imp(a, neg(b)))


def disj(a, b):
    return imp(neg(a), b)


def dia(a):
    return neg(box(neg(a)))


_LEVEL = {"imp": 1, "rhd": 2, "box": 4, "atom": 5, "bot": 5}
_ASCII = {"bot": "F", "box": "[]", "rhd": "|>", "imp": "->"}
_UNICODE = {"bot": "⊥", "box": "□", "rhd": "▷", "imp": "→"}


def to_text(f, unicode=False):
    """Core-syntax text with the fewest parentheses the grammar allows.

    For a formula without falsum this is also the program's canonical
    printing, sugared or not, because no derived-connective pattern
    applies to it.
    """
    syms = _UNICODE if unicode else _ASCII

    def emit(g, need):
        tag = g[0]
        if tag == "atom":
            return g[1]
        if tag == "bot":
            return syms["bot"]
        if tag == "box":
            s = syms["box"] + emit(g[1], 4)
        elif tag == "rhd":
            s = emit(g[1], 3) + " " + syms["rhd"] + " " + emit(g[2], 3)
        else:
            s = emit(g[1], 2) + " " + syms["imp"] + " " + emit(g[2], 1)
        return "(" + s + ")" if _LEVEL[tag] < need else s

    return emit(f, 1)


def to_noisy_text(f, rng):
    """Same formula, with redundant parentheses and spacing sprinkled in."""

    def emit(g, need, budget):
        tag = g[0]
        if tag == "atom":
            s = g[1]
        elif tag == "bot":
            s = "F"
        elif tag == "box":
            s = "[]" + " " * rng.randrange(2) + emit(g[1], 4, budget)
        elif tag == "rhd":
            s = emit(g[1], 3, budget) + " |> " + emit(g[2], 3, budget)
        else:
            s = emit(g[1], 2, budget) + "  ->" + " " * rng.randrange(1, 3) + emit(g[2], 1, budget)
        paren = _LEVEL[tag] < need or (budget[0] > 0 and rng.random() < 0.1)
        if paren and _LEVEL[tag] >= need:
            budget[0] -= 1
        return "(" + s + ")" if paren else s

    return emit(f, 1, [8])


def rand_formula(rng, size, atoms, use_bot=True):
    """A random formula with ``size`` connectives over ``atoms``."""
    if size == 0:
        if use_bot and rng.random() < 0.1:
            return BOT
        return atom(rng.choice(atoms))
    kind = rng.choice(["imp", "imp", "box", "rhd"])
    if kind == "box":
        return box(rand_formula(rng, size - 1, atoms, use_bot))
    left = rng.randrange(size)
    a = rand_formula(rng, left, atoms, use_bot)
    b = rand_formula(rng, size - 1 - left, atoms, use_bot)
    return imp(a, b) if kind == "imp" else rhd(a, b)


def deep_formula(rng, depth, atoms):
    """A formula whose core nesting is exactly ``depth`` plus a small leaf.

    The spine is grown outward one connective at a time.  Steps that need
    parentheses cost the recursive parser about five frames instead of
    one, so they are capped to keep every formula well inside the
    interpreter's default recursion limit.
    """
    f = rand_formula(rng, rng.randrange(3), atoms)
    parens = 0
    max_parens = min(60, depth // 4)
    for _ in range(depth):
        leaf = rand_formula(rng, rng.randrange(2), atoms)
        top = f[0]
        options = ["leaf->S"]
        free = top in ("atom", "bot", "box")
        if free or parens < max_parens:
            options += ["box", "leaf|>S", "neg"]
        if top != "imp" or parens < max_parens:
            options += ["S->leaf"]
        step = rng.choice(options)
        if step == "box":
            needs = not free
            f = box(f)
        elif step == "leaf|>S":
            needs = top in ("imp", "rhd")
            f = rhd(leaf, f)
        elif step == "neg":
            needs = top == "imp"
            f = neg(f)
        elif step == "S->leaf":
            needs = top == "imp"
            f = imp(f, leaf)
        else:
            needs = False
            f = imp(leaf, f)
        parens += needs
    return f


# ------------------------------------------------------------------ frames


def rand_frame(rng, n, p_r=0.5, p_s=0.25):
    """Seed relations of a random legal frame: a random strict order (before
    transitive closure) and extra S pairs inside each closed R[w]."""
    order = list(range(n))
    rng.shuffle(order)
    r_pairs = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)
               if rng.random() < p_r]
    succ = [0] * n
    for i, j in r_pairs:
        succ[i] |= 1 << j
    changed = True
    while changed:
        changed = False
        for w in range(n):
            grown = succ[w]
            for u in range(n):
                if succ[w] >> u & 1:
                    grown |= succ[u]
            if grown != succ[w]:
                succ[w], changed = grown, True
    s_triples = []
    for w in range(n):
        members = [u for u in range(n) if succ[w] >> u & 1]
        for u in members:
            for v in members:
                if u != v and rng.random() < p_s:
                    s_triples.append((w, u, v))
    return r_pairs, s_triples


def rand_val(rng, n, atoms):
    return {a: sorted(w for w in range(n) if rng.random() < 0.5) for a in atoms}


def frame_text(n, r_pairs, s_triples=(), val=None):
    lines = [f"worlds {n}"]
    lines += [f"R {i} {j}" for i, j in r_pairs]
    lines += [f"S {w} {i} {j}" for w, i, j in s_triples]
    for a, ws in sorted((val or {}).items()):
        lines.append(f"val {a} " + " ".join(map(str, ws)))
    return "\n".join(lines) + "\n"


def read_frame_text(text):
    """(n, R seed pairs, S seed triples, valuation) from frame-file text."""
    n, r_pairs, s_triples, val = None, [], [], {}
    for raw in text.splitlines():
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] == "worlds":
            n = int(parts[1])
        elif parts[0] == "R":
            r_pairs.append((int(parts[1]), int(parts[2])))
        elif parts[0] == "S":
            s_triples.append(tuple(int(p) for p in parts[1:]))
        elif parts[0] == "val":
            val.setdefault(parts[1], []).extend(int(p) for p in parts[2:])
    return n, r_pairs, s_triples, val


def _write(workdir, name, text):
    (workdir / name).write_text(text, encoding="utf-8")
    return name


# --------------------------------------------------------------- workloads

# run_all's defaults: fan 3, 100 trials, depth 2.  The scoreboard takes no
# seeded input; the label-lemma sweeps return 13 rows from one call and are
# timed as one task.
SCOREBOARD_TASKS = [
    "frame_enumeration", "axiom_soundness", "proof_checking",
    "translation_validity", "translation_agreement", "label_lemma_scoreboard",
    "extension_construction", "extension_truth", "saturation",
    "witness_search", "pencil_demo", "classical_baseline",
]


def make_scoreboard(seed, workdir):
    return {"workload": "scoreboard", "seed": seed,
            "tasks": [{"name": f"check:{fn}", "kind": "check", "fn": fn,
                       "fixed": True} for fn in SCOREBOARD_TASKS]}


UE_POOL = [box(atom("p")), dia(atom("q")), rhd(atom("p"), atom("q")),
           imp(box(atom("q")), rhd(neg(atom("p")), atom("q")))]
UE_VALIDATE_MAX = 2000   # validate costs about 1.3 s at 1,803 worlds
UE_JSON_MAX = 700        # ue_to_dict takes 0.56 s at 696 worlds, 16 s at 1,803
UE_RANDOM = 3
# The band holds the random bases' share of a pass steady across seeds:
# 5-world extensions range from 37 to 1,803 worlds.
UE_RANDOM_BAND = (150, 180)
# Frozen extension sizes of the fixed bases.
UE_FIXED_SIZES = {"chain4": 122, "chain5": 1803, "tree22": 4391, "fan5": 166,
                  "pencil-bad1": 207, "pencil-good1": 696}


def _fixed_ue_bases():
    """(name, frame text) of the fixed bases; valuations are fixed too."""
    out = []

    def val(n):
        return {"p": [w for w in range(n) if w % 2 == 0],
                "q": [w for w in range(n) if w % 3 == 1]}

    for k in (4, 5):
        out.append((f"chain{k}", frame_text(k, [(i, i + 1) for i in range(k - 1)],
                                            val=val(k))))
    tree_pairs = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]
    out.append(("tree22", frame_text(7, tree_pairs, val=val(7))))
    out.append(("fan5", frame_text(6, [(0, i) for i in range(1, 6)], val=val(6))))
    for name in ("pencil-bad1", "pencil-good1"):
        out.append((name, (DATA / f"{name}.vf").read_text(encoding="utf-8")))
    return out


def make_ue(seed, workdir):
    # the oracle's world count picks the random bases, never the program
    from oracle import ue_world_count
    rng = random.Random(f"ue-{seed}")
    bases = _fixed_ue_bases()
    sizes = dict(UE_FIXED_SIZES)
    picked = 0
    while picked < UE_RANDOM:
        r_pairs, s_triples = rand_frame(rng, 5)
        text = frame_text(5, r_pairs, s_triples, rand_val(rng, 5, ("p", "q")))
        size = ue_world_count(text)
        if UE_RANDOM_BAND[0] <= size <= UE_RANDOM_BAND[1]:
            name = f"rand{seed}-{picked}"
            bases.append((name, text))
            sizes[name] = size
            picked += 1
    tasks = []
    for name, text in bases:
        path = _write(workdir, f"{name}.vf", text)
        fixed = name in UE_FIXED_SIZES
        tasks.append({"name": f"build:{name}", "kind": "build", "base": name,
                      "path": path, "fixed": fixed})
        tasks.append({"name": f"truth:{name}", "kind": "truth", "base": name,
                      "fixed": fixed})
        if sizes[name] <= UE_VALIDATE_MAX:
            tasks.append({"name": f"validate:{name}", "kind": "validate",
                          "base": name, "fixed": fixed})
        if sizes[name] <= UE_JSON_MAX:
            tasks.append({"name": f"json:{name}", "kind": "cli",
                          "argv": ["ue", path, "--json"], "fixed": fixed})
    return {"workload": "ue", "seed": seed,
            "pool": [to_text(f) for f in UE_POOL], "tasks": tasks}


# Seeded requests of one query pass; with the 13 fixed ones below, 141
# requests, so p90 has 14 samples beyond it.
QUERY_MIX = {"mc": 40, "eval": 24, "parse": 24, "frame-valid": 24, "bisim": 16}

VALID_SCHEMAS = {
    "K": lambda a, b, c: imp(box(imp(a, b)), imp(box(a), box(b))),
    "GL": lambda a, b, c: imp(box(imp(box(a), a)), box(a)),
    "J1": lambda a, b, c: imp(box(imp(a, b)), rhd(a, b)),
    "J2": lambda a, b, c: imp(conj(rhd(a, b), rhd(b, c)), rhd(a, c)),
    "J3": lambda a, b, c: imp(conj(rhd(a, c), rhd(b, c)), rhd(disj(a, b), c)),
    "J4": lambda a, b, c: imp(rhd(a, b), imp(dia(a), dia(b))),
    "J5": lambda a, b, c: rhd(dia(a), a),
}
# Non-theorems: refutable on most small frames, valid on some.
OPEN_SCHEMAS = [
    lambda a, b: imp(box(a), a),
    lambda a, b: imp(a, box(a)),
    lambda a, b: dia(a),
    lambda a, b: rhd(a, b),
    lambda a, b: imp(rhd(a, b), rhd(b, a)),
    lambda a, b: imp(dia(a), box(a)),
    lambda a, b: imp(rhd(a, b), box(imp(a, b))),
]

# Requests the CLI must refuse with exit 2: a parse error, a missing file,
# 21 valuation bits over the limit of 20, a bad --val, unreadable proof
# JSON, an unreadable frame file, and missing arguments.
MALFORMED = [
    ["mc", "chain3.vf", "p ->"],
    ["mc", "no-such-model.vf", "p"],
    ["frame-valid", "chain3.vf", "a -> b -> c -> d -> e -> f -> g"],
    ["eval", "chain3.vf", "p", "--val", "p"],
    ["prove-check", "broken.json"],
    ["bisim", "zero-worlds.vf", "chain3.vf"],
    ["mc"],
]


def _model_file(rng, workdir, name, n, atoms=("p", "q", "r")):
    r_pairs, s_triples = rand_frame(rng, n)
    return _write(workdir, name,
                  frame_text(n, r_pairs, s_triples, rand_val(rng, n, atoms)))


def _spread(lo, hi, k):
    """k sizes evenly spaced from lo to hi: every seed gets the same sizes,
    so the mix's cost does not drift with the seed, only its content."""
    return [lo + (hi - lo) * i // max(1, k - 1) for i in range(k)]


def _permuted_copy(text, rng):
    """An isomorphic copy: same seed relations under a random renaming."""
    n, r_pairs, s_triples, val = read_frame_text(text)
    perm = list(range(n))
    rng.shuffle(perm)
    return (frame_text(n, [(perm[i], perm[j]) for i, j in r_pairs],
                       [(perm[w], perm[i], perm[j]) for w, i, j in s_triples],
                       {a: sorted(perm[w] for w in ws) for a, ws in val.items()}),
            perm)


def make_query(seed, workdir):
    rng = random.Random(f"query-{seed}")
    atoms3 = ("p", "q", "r")
    reqs = []
    count = QUERY_MIX["mc"]
    for i, (depth, n) in enumerate(zip(_spread(50, 300, count), _spread(3, 8, count))):
        path = _model_file(rng, workdir, f"mc{i}.vf", n)
        f = deep_formula(rng, depth, atoms3)
        reqs.append({"name": f"mc-{i}", "argv": ["mc", path, to_text(f)],
                     "formula": f, "path": path})
    count = QUERY_MIX["eval"]
    for i, (size, n) in enumerate(zip(_spread(2, 7, count), _spread(3, 8, count))):
        path = _model_file(rng, workdir, f"ev{i}.vf", n)
        f = rand_formula(rng, size, atoms3)
        argv = ["eval", path, to_text(f)]
        override = None
        if i % 3 == 0:
            override = ("q", sorted(w for w in range(n) if rng.random() < 0.5))
            argv += ["--val", f"q={','.join(map(str, override[1]))}"]
        reqs.append({"name": f"eval-{i}", "argv": argv, "formula": f,
                     "path": path, "override": override})
    count = QUERY_MIX["parse"]
    for i, size in enumerate(_spread(5, 60, count)):
        f = rand_formula(rng, size, atoms3, use_bot=False)
        flags = [[], ["--core"], [], ["--unicode"]][i % 4]
        reqs.append({"name": f"parse-{i}",
                     "argv": ["parse", to_noisy_text(f, rng)] + flags,
                     "formula": f, "flags": flags})
    valid = sorted(VALID_SCHEMAS)
    for i in range(QUERY_MIX["frame-valid"]):
        # even i: an axiom instance (valid); odd i: a non-theorem
        n = 2 + i // 2 % 3
        r_pairs, s_triples = rand_frame(rng, n, p_r=0.7, p_s=0.3)
        path = _write(workdir, f"fv{i}.vf", frame_text(n, r_pairs, s_triples))
        names = ["p", "q", "r"][:min(3, 9 // n)]
        subs = [rng.choice([lambda x: x, box, neg])(atom(names[j % len(names)]))
                for j in range(3)]
        if i % 2 == 0:
            f = VALID_SCHEMAS[valid[i // 2 % len(valid)]](*subs)
        else:
            f = OPEN_SCHEMAS[i // 2 % len(OPEN_SCHEMAS)](*subs[:2])
        reqs.append({"name": f"frame-valid-{i}",
                     "argv": ["frame-valid", path, to_text(f)],
                     "formula": f, "path": path})
    count = QUERY_MIX["bisim"]
    for i, n in enumerate(_spread(6, 16, count)):
        # a renamed copy (max bisimulation, then --z with the renaming)
        # or an unrelated model of the same size
        left = _model_file(rng, workdir, f"bl{i}.vf", n, ("p", "q"))
        left_text = (workdir / left).read_text()
        kind = i % 4
        if kind in (0, 1):
            right_text, perm = _permuted_copy(left_text, rng)
        else:
            r_pairs, s_triples = rand_frame(rng, n)
            right_text = frame_text(n, r_pairs, s_triples,
                                    rand_val(rng, n, ("p", "q")))
        right = _write(workdir, f"br{i}.vf", right_text)
        argv = ["bisim", left, right]
        if kind == 1:
            z = _write(workdir, f"bz{i}.txt",
                       "".join(f"{w} {perm[w]}\n" for w in range(len(perm))))
            argv += ["--z", z]
        reqs.append({"name": f"bisim-{i}", "argv": argv})
    rng.shuffle(reqs)
    fixed = []
    for src in sorted((DATA / "proofs").glob("*.json")):
        shutil.copy(src, workdir / src.name)
        fixed.append({"name": f"prove:{src.stem}", "fixed": True,
                      "argv": ["prove-check", src.name]})
    _write(workdir, "broken.json", '{"steps": [{"rule": "taut", "formula": ')
    _write(workdir, "zero-worlds.vf", "worlds 0\n")
    _write(workdir, "chain3.vf", frame_text(3, [(0, 1), (1, 2)]))
    for i, argv in enumerate(MALFORMED):
        fixed.append({"name": f"bad-{i}", "argv": argv, "fixed": True})
    # the fixed requests join the seeded stream at seeded positions
    for r in fixed:
        reqs.insert(rng.randrange(len(reqs) + 1), r)
    return {"workload": "query", "seed": seed,
            "tasks": [dict(r, kind="cli") for r in reqs]}


def make(workload, seed, workdir):
    workdir = Path(workdir)
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    return {"scoreboard": make_scoreboard, "ue": make_ue,
            "query": make_query}[workload](seed, workdir)
