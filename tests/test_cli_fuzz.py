"""Fuzzing the CLI's exit-code contract.

Requests are drawn from the subcommand grammar: corpus names, small frame,
pair and proof files with garbled lines, formulas and formula fragments,
and numbers out of range.  Whatever the request, ``main`` returns 0, 1 or 2, a refused
request (an ``ilkit:`` message) exits 2, and the only exception is
argparse's ``SystemExit(2)``.  ``corpus`` and fans above 2 stay out, so the
run stays short.  The argparse tree is built once per process, so a
request, ``-h`` included, answers the same whether the tree is fresh or has
served other requests before.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from ilkit.calculus import derived_theorems, proof_to_dict
from ilkit.cli import _build_parser, main
from ilkit.corpus import corpus_models

FRAMES = {
    "two.vf": "worlds 2\nR 0 1\nval p 1\n",
    "bare.vf": "worlds 3\n",
    "fan.vf": "worlds 4\nR 0 1\nR 0 2\nR 0 3\nS 0 1 2\nval q 2 3\n",
    "bad-token.vf": "worlds 2\nR 0 x\n",
    "no-worlds.vf": "R 0 1\n",
    "zero.vf": "worlds 0\n",
    "huge.vf": "worlds 100000\n",
    "cycle.vf": "worlds 2\nR 0 1\nR 1 0\n",
    "stray.vf": "worlds 3\nS 0 1 2\n",
    "open.vf": "worlds 2\noption closure off\nR 0 1\nR 1 1\n",
    "range.vf": "worlds 2\nR 0 5\nval p 9\n",
    "unknown.vf": "worlds 2\nedge 0 1\n",
}
PAIRS = {"ok.z": "0 0\n1 1\n", "short.z": "0\n", "word.z": "0 x\n",
         "far.z": "99 99\n", "negative.z": "-1 0\n", "empty.z": "# none\n"}
PROOFS = {
    "four.json": json.dumps(proof_to_dict(derived_theorems()["four"][1])),
    "garbled.json": "{not json",
    "list.json": "[1, 2]",
    "bad-step.json": json.dumps({"hypotheses": [], "steps": [{"rule": "mp", "from": [5, 9]}]}),
    "empty.json": "",
}
FORMULAS = ["p", "q", "T", "<>p", "[]q", "p |> q", "p -> []p", "~(p & q)",
            "<>T |> q", "[](p <-> q) | F"]
FRAGMENTS = ["p", "q", "T", "F", "~", "[]", "<>", "&", "|", "->", "<->", "|>",
             "(", ")", "@", "A", "p1"]
NUMBERS = ["-1", "0", "1", "2", "3", "7", "21", "99", "100001", "x", ""]
WORLD_LISTS = ["0", "1", "0,1", "", ",", "0,,2", "99", "-1", "a"]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "latin1.vf").write_bytes(b"worlds 1 \xff\n")
    for table in (FRAMES, PAIRS, PROOFS):
        for name, text in table.items():
            (root / name).write_text(text)
    paths = lambda names: [str(root / name) for name in names]
    return {"models": [name for name, _ in corpus_models()] + ["no-such-model", str(root)]
                      + paths([*FRAMES, "latin1.vf"]),
            "pairs": paths(PAIRS) + [str(root / "missing.z"), str(root)],
            "proofs": paths(PROOFS) + [str(root / "missing.json"), str(root)],
            "prefixes": [str(root / "demo"), str(root / "no-such-dir" / "demo")]}


def _argv(draw, files):
    """One request: a subcommand and arguments from its grammar."""
    pick = lambda xs: draw(st.sampled_from(xs))
    flag = lambda name: [name] if draw(st.booleans()) else []
    option = lambda name, xs: [name, pick(xs)] if draw(st.booleans()) else []
    formula = lambda: (pick(FORMULAS) if draw(st.booleans()) else
                       " ".join(draw(st.lists(st.sampled_from(FRAGMENTS), max_size=5))))
    model = lambda: pick(files["models"])
    grammar = {
        "parse": lambda: [formula(), *flag("--unicode"), *flag("--core")],
        "translate": lambda: [formula()],
        "mc": lambda: [model(), formula()],
        "frame-valid": lambda: [model(), formula(), *option("--bits-limit", NUMBERS)],
        "eval": lambda: [model(), formula(), *option(
            "--val", [f"{atom}={ws}" for atom in ("p", "", "q1") for ws in WORLD_LISTS]
            + ["p"])],
        "bisim": lambda: [model(), model(), *option("--z", files["pairs"])],
        "assuring": lambda: [model(), *option("--f", NUMBERS), *option("--label", WORLD_LISTS),
                             *option("--g", NUMBERS), *flag("--json")],
        "ue": lambda: [model(), *option("--cap", NUMBERS), *flag("--dot"), *flag("--json")],
        "pencil-demo": lambda: ["--fan", pick(["-1", "0", "1", "2", "7", "x"]),
                                *option("--depth", ["-1", "0", "1", "2", "x"]),
                                *option("--dot-prefix", files["prefixes"])],
        "prove-check": lambda: [pick(files["proofs"])],
    }
    command = pick(sorted(grammar))
    return [command, *grammar[command]()]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_cli_exit_codes_hold_for_any_request(files, data):
    argv = _argv(data.draw, files)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse refusing the argv
            assert exc.code == 2 and err.getvalue().startswith("usage: "), argv
            return
    assert code in (0, 1, 2), argv
    assert (code == 2) == err.getvalue().startswith("ilkit: "), (argv, err.getvalue())


def _answer(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
    return out.getvalue(), err.getvalue(), code


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_reused_parser_answers_like_a_fresh_one(files, data):
    model = next(m for m in files["models"] if m.endswith("two.vf"))
    requests = [["-h"], ["eval", "-h"], ["mc"], ["no-such-command"],
                ["parse", "p", "--no-such-flag"], ["ue", model, "--cap", "x"],
                ["eval", model, "p & q", "--val", "p=0", "--val", "q=0,1"],
                ["eval", model, "p & q"]]
    requests += [_argv(data.draw, files) for _ in range(8)]
    fresh = []
    for argv in requests:
        _build_parser.cache_clear()   # a new tree for each request
        fresh.append(_answer(argv))
    assert _build_parser() is _build_parser()
    for _ in range(2):
        assert [_answer(argv) for argv in requests] == fresh
    assert fresh[7][0] != fresh[6][0]   # so a --val kept for the next call would show
