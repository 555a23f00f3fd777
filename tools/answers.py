"""Print one sha256 per layer of ilkit's answers, to show that a change keeps them.

    python tools/answers.py [--diff OTHER_TREE]

Each layer is a fixed, seeded set of questions, and its digest covers
every answer:

- ``corpus``: exit code and ``[name, ok, detail]`` rows of
  ``ilkit corpus --json``, without the ``seconds`` column;
- ``frame-valid``: the ``frame_valid`` verdict (valid, valuation masks,
  world) of every frame of ``all_frames(n)``, n <= 3, on every formula of
  the depth-2 pool over p, q and on every axiom schema;
- ``ue-json``: ``ue_to_json`` of the extensions of the corpus frames,
  ``chain(5)`` and ``tree(2, 2)``;
- ``query``: exit code, stdout and stderr of each CLI request of the
  benchmark's query workload, seeds 0 and 1, as ``perfbench/gen.py``'s
  ``make_query`` writes them, run in a temporary directory;
- ``dot``: exit code and output of ``ilkit ue NAME --dot`` for every corpus
  model, and of ``ilkit pencil-demo --fan 2 --depth 1 --dot-prefix`` with
  the two DOT files it writes;
- ``parse``: for 600 seeded texts (random formulas printed by ``to_str``,
  then random token strings, most of them malformed), ``to_str`` of the
  parse in all four print modes, or the ParseError and its position;
- ``bisim``: ``max_bisim``, and ``check_bisim`` on that relation and on a
  random subset of the pairs, for 200 seeded pairs of models over frames
  of ``all_frames(n)``, n <= 3, with random valuations of p and q;
- ``validate``: ``validate`` and ``complete`` (the frame or the
  CompletionError text) of 600 seeded random seed relations, n <= 4, most
  with upward pairs only.

The answers of a tree come from a fresh interpreter that imports ilkit
from that tree's ``src``.  With ``--diff OTHER_TREE`` both trees answer
the same questions (the requests always come from this tree's
``perfbench/gen.py``, which is read, never written); the digests are
printed side by side with the first layer that differs, and the exit code
is 1 if any layer differs.  Nothing writes bytecode, and every input file
lives in a temporary directory that is removed afterwards.
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("corpus", "frame-valid", "ue-json", "query", "dot", "parse", "bisim", "validate")
QUERY_SEEDS = (0, 1)
TOKENS = ("p", "q", "r1", "F", "T", "~", "[]", "<>", "&", "|", "->", "<->", "|>",
          "(", ")", " ", "#", "P")

# run in the fresh interpreter: argv[1] is the tree, argv[2] this tool's tree
WORKER = """
import json, sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[2] + "/tools"]
import answers
print(json.dumps(answers.digests(sys.argv[1])))
"""


def _run_cli(cli, argv):
    """Exit code, stdout and stderr of one in-process ``ilkit`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:   # argparse refuses a request this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _corpus(cli):
    code, out, err = _run_cli(cli, ["corpus", "--json"])
    return code, [[r["name"], r["ok"], r["detail"]] for r in json.loads(out)], err


def _frame_valid():
    from ilkit.calculus import SCHEMAS
    from ilkit.formula import enumerate_formulas
    from ilkit.frames import all_frames
    from ilkit.semantics import frame_valid

    pool = list(enumerate_formulas(["p", "q"], 2, 2)) + list(SCHEMAS.values())
    verdicts = []
    for n in range(1, 4):
        for fr in all_frames(n):
            for f in pool:
                v = frame_valid(fr, f)
                masks = sorted((a, ws.mask) for a, ws in (v.ev or {}).items())
                verdicts.append((v.valid, masks, v.world))
    return verdicts


def _ue_json():
    from ilkit.corpus import corpus_models
    from ilkit.extension import build_ue, ue_to_json
    from ilkit.frames import chain, tree

    bases = [m.frame for _, m in corpus_models()] + [chain(5), tree(2, 2)]
    return [ue_to_json(build_ue(fr)) for fr in bases]


def _query(cli):
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    answers, home = [], os.getcwd()
    for seed in QUERY_SEEDS:
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp) / "work"
            tasks = gen.make("query", seed, work)["tasks"]
            os.chdir(work)
            try:
                for task in tasks:
                    code, out, err = _run_cli(cli, task["argv"])
                    answers.append([task["name"], code, out.replace(str(work), "WORK"),
                                    err.replace(str(work), "WORK")])
            finally:
                os.chdir(home)
    return answers


def _dot(cli):
    from ilkit.corpus import corpus_models

    answers = [_run_cli(cli, ["ue", name, "--dot"]) for name, _ in corpus_models()]
    with tempfile.TemporaryDirectory() as tmp:
        prefix = Path(tmp) / "demo"
        code, out, err = _run_cli(cli, ["pencil-demo", "--fan", "2", "--depth", "1",
                                        "--dot-prefix", str(prefix)])
        files = [Path(f"{prefix}-{tag}.dot").read_text() for tag in ("bad", "good")]
        answers.append([code, out.replace(tmp, "TMP"), err.replace(tmp, "TMP"), files])
    return answers


def _random_formula(rng, depth):
    from ilkit.formula import BOT, Atom, Box, Implies, Rhd, conj, dia, disj, neg

    if depth == 0 or rng.random() < 0.3:
        return rng.choice([Atom("p"), Atom("q"), Atom("r1"), BOT])
    pick = rng.randrange(7)
    if pick < 3:
        return (neg, Box, dia)[pick](_random_formula(rng, depth - 1))
    return (Implies, Rhd, conj, disj)[pick - 3](
        _random_formula(rng, depth - 1), _random_formula(rng, depth - 1))


def _parse():
    from ilkit.formula import ParseError, parse, to_str

    rng = random.Random(0)
    texts = [to_str(_random_formula(rng, 5), unicode=False, sugar=rng.random() < 0.5)
             for _ in range(300)]
    texts += ["".join(rng.choice(TOKENS) for _ in range(rng.randrange(1, 12)))
              for _ in range(300)]
    answers = []
    for text in texts:
        try:
            f = parse(text)
        except ParseError as exc:
            answers.append([text, str(exc), exc.position])
            continue
        answers.append([text] + [to_str(f, unicode=u, sugar=s)
                                 for u in (False, True) for s in (False, True)])
    return answers


def _bisim():
    from ilkit.frames import Model, WorldSet, all_frames
    from ilkit.semantics import check_bisim, max_bisim

    rng = random.Random(0)
    frames = [fr for n in range(1, 4) for fr in all_frames(n)]

    def model():
        fr = rng.choice(frames)
        return Model(fr, {a: WorldSet(fr.n, rng.randrange(1 << fr.n)) for a in ("p", "q")})

    answers = []
    for _ in range(200):
        ml, mr = model(), model()
        z = sorted(max_bisim(ml, mr))
        some = sorted((i, j) for i in range(ml.frame.n) for j in range(mr.frame.n)
                      if rng.random() < 0.5)
        answers.append([z, repr(check_bisim(ml, mr, z)), repr(check_bisim(ml, mr, some))])
    return answers


def _validate():
    from ilkit.frames import CompletionError, Frame, complete, validate

    rng = random.Random(0)
    answers = []
    for _ in range(600):
        n, loose = rng.randrange(1, 5), rng.random() < 0.2
        # upward R pairs close without a cycle; a loose draw may hold any pair
        r = [(i, j) for i in range(n) for j in range(n)
             if (loose or i < j) and rng.random() < 0.4]
        s = [(w, i, j) for w in range(n) for i in range(n) for j in range(n)
             if (loose or w < min(i, j)) and rng.random() < 0.15]
        fr = Frame.build(n, r, s)
        try:
            done = repr(complete(fr))
        except CompletionError as exc:
            done = f"CompletionError: {exc}"
        answers.append([repr(validate(fr)), done])
    return answers


def digests(tree):
    """Each layer's sha256, from the ilkit this interpreter imported, which
    must be ``tree``'s."""
    import ilkit
    from ilkit import cli

    src = Path(tree).resolve() / "src" / "ilkit"
    if Path(ilkit.__file__).resolve().parent != src:
        raise RuntimeError(f"imported ilkit from {ilkit.__file__}, not {src}")
    answers = {"corpus": _corpus(cli), "frame-valid": _frame_valid(),
               "ue-json": _ue_json(), "query": _query(cli), "dot": _dot(cli),
               "parse": _parse(), "bisim": _bisim(), "validate": _validate()}
    return {layer: hashlib.sha256(repr(answers[layer]).encode()).hexdigest()
            for layer in LAYERS}


def tree_digests(tree):
    """``digests(tree)``, computed in a fresh interpreter."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    with tempfile.TemporaryDirectory() as tmp:
        done = subprocess.run([sys.executable, "-c", WORKER, str(Path(tree).resolve()), str(ROOT)],
                              cwd=tmp, env=env, capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"answers of {tree} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--diff", metavar="OTHER_TREE",
                        help="compare with the tree at OTHER_TREE, layer by layer")
    args = parser.parse_args(argv)
    here = tree_digests(ROOT)
    if args.diff is None:
        for layer in LAYERS:
            print(f"{layer:12} {here[layer]}")
        return 0
    other = tree_digests(args.diff)
    for layer in LAYERS:
        mark = "" if here[layer] == other[layer] else "  differs"
        print(f"{layer:12} {other[layer]} {here[layer]}{mark}")
    differing = [layer for layer in LAYERS if here[layer] != other[layer]]
    if differing:
        print(f"first differing layer: {differing[0]}")
        return 1
    print(f"all {len(LAYERS)} layers equal ({args.diff} first, {ROOT} second)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
