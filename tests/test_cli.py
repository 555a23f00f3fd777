import builtins
import io
import json
import shutil
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import pytest

from ilkit import cli, pencil
from ilkit.calculus import derived_theorems, proof_to_dict
from ilkit.cli import _build_parser, main
from ilkit.corpus import corpus_models, load
from ilkit.extension import build_ue, ue_to_json
from ilkit.formula import NESTING_LIMIT, parse
from ilkit.frameio import WORLDS_LIMIT
from ilkit.frames import Model, tree
from ilkit.limits import LABEL_WORLDS_LIMIT
from ilkit.semantics import VALUATION_BITS_LIMIT

from helpers import model_to_text


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_command(capsys):
    code, out, _ = run(capsys, "parse", "p -> q & []r")
    assert code == 0
    assert out.splitlines() == ["p -> q & []r"]
    # a conjunction antecedent re-sugars through its core expansion
    code, out, _ = run(capsys, "parse", "p & q -> r")
    assert code == 0
    assert out.splitlines() == ["(p -> ~q) | r"]
    code, out, _ = run(capsys, "parse", "--unicode", "--core", "~p")
    assert code == 0
    assert out.splitlines() == ["¬p", "p → ⊥"]


def test_parse_command_rejects_garbage(capsys):
    code, _, err = run(capsys, "parse", "p |> q |> r")
    assert code == 2
    assert "non-associative" in err


def test_mc_command(capsys):
    code, out, _ = run(capsys, "mc", "chain3", "p |> q")
    assert code == 0
    assert out.splitlines() == ["0: true", "1: true", "2: true"]
    code, out, _ = run(capsys, "mc", "chain3", "q |> p")
    assert code == 1
    assert out.splitlines()[-1] == "fails at world 0"


def test_mc_command_from_file(tmp_path, capsys):
    path = tmp_path / "m.vf"
    path.write_text("worlds 2\nR 0 1\nval p 1\n")
    code, out, _ = run(capsys, "mc", str(path), "<>p | p")
    assert code == 0
    code, _, err = run(capsys, "mc", str(tmp_path / "missing.vf"), "p")
    assert code == 2 and "no such file or corpus model" in err
    bad = tmp_path / "bad.vf"
    bad.write_text("worlds 2\nR 0 x\n")
    code, _, err = run(capsys, "mc", str(bad), "p")
    assert code == 2 and "line 2" in err
    # an S triple whose middle world is one past the end is refused, not indexed
    stray = tmp_path / "stray.vf"
    stray.write_text("worlds 2\nS 0 2 0\n")
    code, out, err = run(capsys, "mc", str(stray), "p")
    assert (code, out, err) == (2, "", f"ilkit: {stray}: S triple (0,2,0) out of range\n")
    # a valuation no formula could name is refused, as ``eval --val`` refuses it
    upper = tmp_path / "upper.vf"
    upper.write_text("worlds 2\nval P 0 1\n")
    code, out, err = run(capsys, "mc", str(upper), "p")
    assert (code, out, err) == (2, "", f"ilkit: {upper}: line 2: cannot read 'val P 0 1'\n")
    huge = tmp_path / "huge.vf"
    huge.write_text(f"worlds {WORLDS_LIMIT + 1}\nR 0 1\n")
    code, _, err = run(capsys, "mc", str(huge), "p")
    assert code == 2 and "exceeds the limit" in err


def test_mc_command_full_size_chain_file(tmp_path, capsys):
    # completing a chain is cubic; at the limit it takes about 0.9 s on a
    # 2-CPU desk machine, so 10 s leaves room for slow hosts
    budget_s = 10.0
    path = tmp_path / "chain.vf"
    path.write_text(f"worlds {WORLDS_LIMIT}\n"
                    + "".join(f"R {i} {i + 1}\n" for i in range(WORLDS_LIMIT - 1))
                    + f"val p {WORLDS_LIMIT - 1}\n")
    start = time.perf_counter()
    code, out, _ = run(capsys, "mc", str(path), "<>p | p")
    elapsed = time.perf_counter() - start
    assert code == 0 and len(out.splitlines()) == WORLDS_LIMIT
    assert elapsed < budget_s, f"{elapsed:.1f} s"


def test_mc_command_deep_formula(capsys):
    code, out, _ = run(capsys, "mc", "chain3", "~" * 500 + "p")
    assert (code, out) == (1, "0: false\n1: true\n2: false\nfails at world 0\n")
    code, out, _ = run(capsys, "mc", "chain3", "~" * 501 + "p")
    assert (code, out) == (1, "0: true\n1: false\n2: true\nfails at world 1\n")


def test_nesting_limit(tmp_path, capsys):
    deepest = "[](p -> " * NESTING_LIMIT + "p" + ")" * NESTING_LIMIT
    code, out, _ = run(capsys, "parse", deepest)
    assert code == 0 and out.count("[]") == NESTING_LIMIT
    code, out, _ = run(capsys, "translate", deepest)
    assert code == 0 and out.count("Rhat_inv(") == NESTING_LIMIT
    chain = "(p -> " * NESTING_LIMIT + "p" + ")" * NESTING_LIMIT
    proof = tmp_path / "deep.json"
    proof.write_text(json.dumps(
        {"hypotheses": [], "steps": [{"rule": "taut", "formula": chain}]}))
    code, out, _ = run(capsys, "prove-check", str(proof))
    assert code == 0 and out.startswith("valid: p -> p -> ")
    code, out, err = run(capsys, "parse", "(" + deepest + ")")
    assert code == 2 and out == ""
    assert err.startswith("ilkit: cannot parse") and "nested deeper" in err


def test_unreadable_model_files(tmp_path, capsys):
    raw = tmp_path / "raw.vf"
    raw.write_bytes(b"worlds 2\nR 0 1\n\xff\n")
    for path, reason in ((tmp_path, "Is a directory"),
                         (raw, "can't decode byte 0xff")):
        code, out, err = run(capsys, "mc", str(path), "p")
        assert code == 2 and out == ""
        assert err.startswith(f"ilkit: {path}: ") and reason in err
        assert err.count("\n") == 1


def test_unreadable_corpus(tmp_path, monkeypatch, capsys):
    missing = tmp_path / "missing"
    monkeypatch.setenv("ILKIT_CORPUS", str(missing))
    for argv in (["mc", "chain3", "p"], ["corpus"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"ilkit: {missing}: ") and err.count("\n") == 1
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "broken.vf").write_text("worlds 2\nR 0 x\n")
    (corpus / "chain2.vf").write_text("worlds 2\nR 0 1\n")
    monkeypatch.setenv("ILKIT_CORPUS", str(corpus))
    for argv in (["mc", "broken", "p"], ["corpus"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"ilkit: {corpus / 'broken.vf'}: line 2: cannot read 'R 0 x'\n"
    code, out, _ = run(capsys, "mc", "chain2", "p")
    assert code == 1 and out.startswith("0: false")
    (corpus / "broken.vf").write_bytes(b"\xfe\n")
    code, out, err = run(capsys, "corpus")
    assert code == 2 and out == ""
    assert err.startswith(f"ilkit: {corpus / 'broken.vf'}: 'utf-8' codec")
    # a model request reads its own file alone
    code, out, _ = run(capsys, "mc", "chain2", "p")
    assert code == 1 and out.startswith("0: false")


def test_corpus_override_matches_the_bundled_corpus(tmp_path, monkeypatch, capsys):
    def answers():
        code, out, _ = run(capsys, "corpus", "--json")
        names = [name for name, _ in corpus_models()]
        return code, names, [(r["name"], r["ok"], r["detail"]) for r in json.loads(out)]

    bundled = answers()
    copy = tmp_path / "data"
    shutil.copytree(resources.files("ilkit") / "data", copy)
    monkeypatch.setenv("ILKIT_CORPUS", str(copy))
    assert answers() == bundled


def test_load_reads_one_file(monkeypatch):
    opened = []

    def spy(file, *args, **kwargs):
        opened.append(Path(file).name)
        return real(file, *args, **kwargs)

    real = io.open
    monkeypatch.setattr(io, "open", spy)
    monkeypatch.setattr(builtins, "open", spy)
    assert load("chain2").frame.n == 2
    assert opened == ["chain2.vf"]
    for name in ("no-such-model", "../data/chain2"):
        with pytest.raises(KeyError):
            load(name)


def test_frame_valid_command(capsys):
    code, out, _ = run(capsys, "frame-valid", "chain2", "[]a -> [][]a")
    assert code == 0 and out.strip() == "frame-valid"
    code, out, _ = run(capsys, "frame-valid", "chain2", "a -> []a")
    assert code == 1
    assert out.strip() == "refuted at world 0 under {'a': [0]}"


def test_frame_valid_bits_limit(tmp_path, capsys):
    # 4 atoms x 6 worlds = 24 bits: over the default cap, surfaced as usage
    code, _, err = run(capsys, "frame-valid", "pencil-good1",
                       "a -> b -> c -> d -> a")
    assert code == 2 and "refusing" in err
    code, _, _ = run(capsys, "frame-valid", "chain2", "a -> b -> a",
                     "--bits-limit", "4")
    assert code == 0
    # 2 atoms x 16 worlds = 32 bits: no flag value may lift the cap, and
    # a value outside 0..VALUATION_BITS_LIMIT is refused before any sweep
    path = tmp_path / "wide.vf"
    path.write_text("worlds 16\nR 0 1\n")
    t0 = time.perf_counter()
    for flags in ([], ["--bits-limit", "32"], ["--bits-limit", "21"],
                  ["--bits-limit", "-1"]):
        code, out, err = run(capsys, "frame-valid", str(path), "p -> p | q", *flags)
        assert code == 2 and out == "" and err.startswith("ilkit: "), flags
    assert time.perf_counter() - t0 < 1
    code, out, _ = run(capsys, "frame-valid", "chain2", "a -> b -> a",
                       "--bits-limit", str(VALUATION_BITS_LIMIT))
    assert code == 0 and out == "frame-valid\n"


def test_bisim_command(tmp_path, capsys):
    pairs = tmp_path / "z.txt"
    pairs.write_text("0 0\n1 1\n2 2\n3 3\n4 4\n4 5\n")
    code, out, _ = run(capsys, "bisim", "pencil-bad1", "pencil-good1",
                       "--z", str(pairs))
    assert code == 0
    assert out.strip() == "bisimulation of 6 pairs"
    pairs.write_text("0 1\n")
    code, out, _ = run(capsys, "bisim", "pencil-bad1", "pencil-good1",
                       "--z", str(pairs))
    assert code == 1 and "clause fails" in out
    for pair in ("0 99", "-1 1"):
        pairs.write_text(f"0 0\n{pair}\n")
        code, out, err = run(capsys, "bisim", "pencil-bad1", "pencil-good1",
                             "--z", str(pairs))
        i, j = pair.split()
        assert code == 2 and out == ""
        assert err == (f"ilkit: {pairs}: pair ({i}, {j}) is outside "
                       "the models\n")
    # an unreadable or malformed pair file is a usage error naming it
    pairs.write_text("0 0 0\n")
    missing = tmp_path / "missing.z"
    for path, reason in ((pairs, "too many values to unpack (expected 2)"),
                         (missing, f"[Errno 2] No such file or directory: '{missing}'")):
        code, out, err = run(capsys, "bisim", "pencil-bad1", "pencil-good1",
                             "--z", str(path))
        assert code == 2 and out == ""
        assert err == f"ilkit: {path}: {reason}\n"


def test_bisim_command_max(capsys):
    code, out, _ = run(capsys, "bisim", "chain2", "chain2")
    assert code == 0
    lines = out.splitlines()
    assert "0 0" in lines and "1 1" in lines
    assert lines[-1] == "total: 2 pairs"
    # chain2 against chain3 leaves chain3's middle world unmatched
    code, out, _ = run(capsys, "bisim", "chain2", "chain3")
    assert code == 1 and out.splitlines()[-1] == "not total"


def test_translate_command(capsys):
    code, out, _ = run(capsys, "translate", "p |> []q")
    assert code == 0
    assert out.strip() == "S_inv(A_p, Rhat_inv(A_q))"


def test_eval_command(capsys):
    code, out, _ = run(capsys, "eval", "chain3", "p |> q")
    assert code == 0
    assert out.splitlines() == ["{0,1,2}", "whole frame"]
    code, out, _ = run(capsys, "eval", "chain3", "p |> q",
                       "--val", "q=")
    assert code == 0
    assert out.splitlines() == ["{1,2}", "proper subset"]
    code, _, err = run(capsys, "eval", "chain3", "p", "--val", "p=9")
    assert code == 2 and "bad world list" in err
    code, out, _ = run(capsys, "eval", "chain3", "p_2 | q1", "--val", "p_2=0", "--val", "q1=2")
    assert code == 0 and out.splitlines() == ["{0,2}", "proper subset"]
    # two bindings for one atom are refused as ambiguous, whatever their worlds
    for second in ("p=2", "p=1"):
        code, out, err = run(capsys, "eval", "chain3", "p", "--val", "p=1", "--val", second)
        assert (code, out, err) == (2, "", "ilkit: --val binds p more than once\n")
    # a binding whose name is no atom is refused, not dropped
    for binding in ("p:1", "=1", "P=1", "p q=1", "1p=0", " p=1", "p-=1", "T=1"):
        code, out, err = run(capsys, "eval", "chain3", "p", "--val", binding)
        assert (code, out, err) == (2, "", f"ilkit: --val wants atom=worlds, got {binding!r}\n")


def test_assuring_command_listing(capsys):
    code, out, _ = run(capsys, "assuring", "chain2")
    assert code == 0
    assert out.splitlines() == [
        "U0 up{1} U1",
        "U0 up{0,1} U1",
        "2 triples",
    ]
    code, out, _ = run(capsys, "assuring", "chain2", "--json")
    assert code == 0
    assert json.loads(out) == [
        {"f": 0, "label_min": [1], "g": 1},
        {"f": 0, "label_min": [0, 1], "g": 1},
    ]


def test_assuring_command_query(capsys):
    code, out, _ = run(capsys, "assuring", "chain2",
                       "--f", "0", "--label", "1", "--g", "1")
    assert code == 0 and out.strip() == "assuring"
    code, out, _ = run(capsys, "assuring", "chain2",
                       "--f", "1", "--label", "1", "--g", "0")
    assert code == 1 and out.strip() == "not assuring"
    code, _, err = run(capsys, "assuring", "chain2", "--f", "0", "--g", "1")
    assert code == 2 and "all of --f/--label/--g" in err
    code, _, err = run(capsys, "assuring", "chain2",
                       "--f", "0", "--label", "", "--g", "1")
    assert code == 2 and "nonempty" in err
    code, out, err = run(capsys, "assuring", "chain2",
                         "--f", "9", "--label", "1", "--g", "0")
    assert code == 2 and out == ""
    assert err == "ilkit: witness 9 out of range for n=2\n"


def test_ue_command_caps_the_root_worlds(tmp_path, capsys):
    path = tmp_path / "three.vf"
    path.write_text("worlds 3\n")
    code, out, _ = run(capsys, "ue", str(path), "--cap", "3")
    assert code == 0 and out.splitlines()[0] == "worlds 3 (base 3)"
    code, out, err = run(capsys, "ue", str(path), "--cap", "2")
    assert code == 1 and out == ""
    assert err == "extension exceeds 2 worlds; the base alone has 3\n"


def test_ue_json_command_prints_ue_to_json(capsys):
    for name, m in corpus_models():
        code, out, _ = run(capsys, "ue", name, "--json")
        assert code == 0 and out == ue_to_json(build_ue(m.frame)) + "\n", name


def test_label_worlds_limit(tmp_path, capsys):
    # every corpus model is within the limit
    assert max(m.frame.n for _, m in corpus_models()) <= LABEL_WORLDS_LIMIT
    # one world over it is refused before any label filter is listed
    path = tmp_path / "wide.vf"
    n = LABEL_WORLDS_LIMIT + 1
    path.write_text(f"worlds {n}\n")
    for argv in (["ue"], ["ue", "--json"], ["assuring"], ["assuring", "--json"],
                 ["assuring", "--f", "0", "--label", "0", "--g", "1"]):
        t0 = time.perf_counter()
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert code == 2 and out == ""
        assert err == (f"ilkit: {path}: {n} worlds have 2^{n} - 1 label filters; "
                       f"limit is {LABEL_WORLDS_LIMIT} worlds\n")
        assert time.perf_counter() - t0 < 0.5


def test_ue_command(capsys):
    code, out, _ = run(capsys, "ue", "chain2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "worlds 4 (base 2)"
    assert len(lines) == 5
    code, out, _ = run(capsys, "ue", "chain2", "--json")
    payload = json.loads(out)
    assert payload["base_worlds"] == 2
    assert payload["edges"] == [[0, 2], [0, 3]]
    code, out, _ = run(capsys, "ue", "chain2", "--dot")
    assert out.startswith("digraph ue {")
    code, _, err = run(capsys, "ue", "chain3", "--cap", "5")
    assert code == 1 and "exceeds 5 worlds" in err
    for cap in ("0", "-4"):
        code, out, err = run(capsys, "ue", "chain3", "--cap", cap)
        assert code == 2 and out == ""
        assert err == f"ilkit: --cap must be at least 1, got {cap}\n"


def test_ue_text_builds_only_the_worlds_it_prints(tmp_path, monkeypatch, capsys):
    path = tmp_path / "tree22.vf"
    path.write_text(model_to_text(Model(tree(2, 2))))
    built = []
    monkeypatch.setattr("ilkit.cli.build_ue",
                        lambda fr, max_worlds: built.append(build_ue(fr, max_worlds)) or built[0])
    code, out, _ = run(capsys, "ue", str(path))
    (ue,) = built
    assert code == 0 and len(ue) == 4391
    assert "worlds" not in vars(ue)   # the cached UEWorld list was never filled
    shown = [f"{i}: {w!r}" for i, w in enumerate(ue.worlds[:40])]
    assert out == "\n".join(["worlds 4391 (base 7)", *shown, "... 4351 more"]) + "\n"


def test_prove_check_command(tmp_path, capsys):
    good = tmp_path / "four.json"
    good.write_text(json.dumps(proof_to_dict(derived_theorems()["four"][1])))
    code, out, _ = run(capsys, "prove-check", str(good))
    assert code == 0
    assert out.strip() == "valid: []p -> [][]p"

    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(
        {"hypotheses": [], "steps": [{"rule": "taut", "formula": "[]p"}]}))
    code, out, _ = run(capsys, "prove-check", str(broken))
    assert code == 1
    assert out.strip() == "invalid at step 0: not a tautology over opaque components"

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    code, _, err = run(capsys, "prove-check", str(garbled))
    assert code == 2

    for doc, reason in (([1, 2], "a proof must be an object"),
                        ({"hypotheses": "p", "steps": []}, "'hypotheses' must be a list"),
                        ({"steps": {"rule": "taut"}}, "'steps' must be a list"),
                        ({"steps": [["taut"]]}, "step 0 must be an object"),
                        ({"steps": [{"rule": "axiom", "schema": ["K"], "formula": "p -> p"}]},
                         "step 0: 'schema' must be of type str"),
                        ({"steps": [{"rule": "axiom", "schema": {"K": 1}, "formula": "p"}]},
                         "step 0: 'schema' must be of type str"),
                        ({"steps": [{"rule": "nec", "premise": 1.7, "formula": "[]p"}]},
                         "step 0: 'premise' must be of type int"),
                        ({"steps": [{"rule": "nec", "premise": True, "formula": "[]p"}]},
                         "step 0: 'premise' must be of type int"),
                        ({"steps": [{"rule": "mp", "premise": 0, "implication": "1",
                                     "formula": "p"}]},
                         "step 0: 'implication' must be of type int"),
                        ({"hypotheses": ["p"],
                          "steps": [{"rule": "hyp", "index": 0.0, "formula": "p"}]},
                         "step 0: 'index' must be of type int"),
                        ({"hypotheses": ["p"], "steps": [{"rule": "hyp", "formula": "p"}]},
                         "step 0: missing 'index'"),
                        ({"steps": [{"rule": "taut"}]}, "step 0: missing 'formula'"),
                        ({"steps": [{"rule": "taut", "formula": 7}]},
                         "step 0: 'formula' must be of type str"),
                        ({"hypotheses": [["p"]], "steps": []},
                         "hypothesis 0 must be of type str"),
                        ({"steps": [{"rule": {"taut": 1}, "formula": "p"}]},
                         "unknown rule {'taut': 1}")):
        garbled.write_text(json.dumps(doc))
        code, out, err = run(capsys, "prove-check", str(garbled))
        assert code == 2 and out == ""
        assert err == f"ilkit: {garbled}: {reason}\n"

    # JSON nested past the decoder's recursion limit is a bad request too
    garbled.write_text('{"steps": ' + "[" * 100_000 + "]" * 100_000 + "}")
    code, out, err = run(capsys, "prove-check", str(garbled))
    assert code == 2 and out == ""
    assert err.startswith(f"ilkit: {garbled}: maximum recursion depth exceeded")


def test_pencil_demo_command_reports_a_failed_demo(monkeypatch, capsys):
    def failing_demo(m, depth):
        report = pencil.nondefinability_demo(m, depth)
        report.bisim_ok, report.failure = False, ("bisim", 0, (0, 0), parse("p"))
        return report

    monkeypatch.setattr(cli, "nondefinability_demo", failing_demo)
    code, out, _ = run(capsys, "pencil-demo", "--fan", "1", "--depth", "1")
    assert code == 1
    lines = out.splitlines()
    assert lines[2] == "bisimulation under all 1024 valuations: False"
    assert lines[-1] == "demo failed: ('bisim', 0, (0, 0), p)"


def test_pencil_demo_command(capsys):
    code, out, _ = run(capsys, "pencil-demo", "--fan", "1", "--depth", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("bad frame violation witness:")
    assert lines[2:4] == ["bisimulation under all 1024 valuations: True",
                          "formula agreement to depth 1 under all valuations: True"]
    assert lines[-1] == ("demo: the pencil class has no modal definition "
                         "at this depth")
    for command in ("pencil-demo", "corpus"):
        for flag, value, least in (("--fan", "0", 1), ("--fan", "-3", 1),
                                   ("--depth", "-1", 0)):
            code, out, err = run(capsys, command, flag, value)
            assert code == 2 and out == ""
            assert err == f"ilkit: {flag} must be at least {least}, got {value}\n"
        # past the fan bound the sweep would exceed its valuation limit;
        # corpus refuses before the scoreboard starts
        code, out, err = run(capsys, command, "--fan", "7")
        assert code == 2 and out == ""
        assert err == "ilkit: --fan must be at most 6, got 7\n"


def test_pencil_demo_writes_dot(tmp_path, capsys):
    prefix = str(tmp_path / "pair")
    code, out, _ = run(capsys, "pencil-demo", "--fan", "1", "--depth", "1",
                       "--dot-prefix", prefix)
    assert code == 0
    bad = (tmp_path / "pair-bad.dot").read_text()
    good = (tmp_path / "pair-good.dot").read_text()
    assert bad.startswith("digraph bad {")
    assert good.startswith("digraph good {")
    assert f"wrote {prefix}-bad.dot" in out
    missing = str(tmp_path / "no-such-dir" / "pair")
    code, _, err = run(capsys, "pencil-demo", "--fan", "1", "--depth", "1",
                       "--dot-prefix", missing)
    assert code == 2 and err.startswith(f"ilkit: {missing}-bad.dot: ")


def test_requests_pay_no_fixed_parser_cost(tmp_path, capsys):
    # 200 in-process parse/mc requests took 0.03-0.04 s on a 2-CPU desk
    # machine with the argparse tree built once, and 0.40-0.53 s when every
    # call built it again; the budget sits between, best of three rounds
    budget_s = 0.15
    path = tmp_path / "chain.vf"
    path.write_text("worlds 3\nR 0 1\nR 1 2\nval p 1\nval q 2\n")
    formula = "[]p -> (q |> <>p)"
    requests = [["parse", formula], ["mc", str(path), formula]] * 100
    _build_parser.cache_clear()   # the first round pays for the one build
    rounds = []
    for _ in range(3):
        start = time.perf_counter()
        codes = {main(argv) for argv in requests}
        rounds.append(time.perf_counter() - start)
        assert codes == {0} and capsys.readouterr().err == ""
    assert min(rounds) < budget_s, f"{min(rounds):.3f} s"


def test_entry_point_runs_in_subprocess():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from ilkit.cli import main; sys.exit(main(sys.argv[1:]))",
         "parse", "p -> q"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "p -> q"
