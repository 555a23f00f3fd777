"""Command-line entry point.

One subcommand per capability: parsing, model checking, frame validity,
bisimulation, the set translation, term evaluation, the assuring
relation, ultrafilter extensions, the pencil demo, proof checking, and
the corpus scoreboard.  Exit status 0 means every requested check
passed, 1 means a check failed (the first witness is printed), 2 means
the request itself was unusable.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from functools import cache

from . import corpus
from .algebra import eval_term, term_to_str, translate
from .calculus import check_proof, proof_from_dict
from .extension import ResourceLimitError, build_ue, ue_to_dot, ue_to_json
from .filters import Filter, Ultrafilter, all_assuring_triples, assuring
from .formula import ParseError, atoms, parse, to_str
from .frameio import FrameFormatError, load_model, to_dot
from .frames import Model, WorldSet
from .limits import FAN_LIMIT, UE_WORLDS_CAP, VALUATION_BITS_LIMIT, check_label_worlds
from .pencil import build_demo_pair, nondefinability_demo
from .semantics import check_bisim, extension, frame_valid, max_bisim

USAGE_ERROR = 2


class UsageError(Exception):
    pass


def _load_model_arg(arg: str) -> Model:
    """A model argument is a file path or the name of a corpus model."""
    if os.path.exists(arg):
        try:
            return load_model(arg)
        except (OSError, ValueError) as exc:   # a directory, bad UTF-8, bad frame
            raise UsageError(f"{arg}: {exc}") from None
    try:
        return corpus.load(arg)
    except KeyError:
        raise UsageError(f"{arg}: no such file or corpus model") from None


def _parse_formula(text: str):
    try:
        return parse(text)
    except ParseError as exc:
        raise UsageError(f"cannot parse {text!r}: {exc}") from None


def _parse_worlds(n: int, text: str) -> WorldSet:
    try:
        worlds = [int(part) for part in text.split(",") if part != ""]
        return WorldSet.from_iter(n, worlds)
    except ValueError as exc:
        raise UsageError(f"bad world list {text!r}: {exc}") from None


def _cmd_parse(args) -> int:
    f = _parse_formula(args.formula)
    print(to_str(f, unicode=args.unicode))
    if args.core:
        print(to_str(f, unicode=args.unicode, sugar=False))
    return 0


def _cmd_mc(args) -> int:
    m = _load_model_arg(args.model)
    f = _parse_formula(args.formula)
    ext = extension(m, f)
    for w in range(m.frame.n):
        print(f"{w}: {'true' if w in ext else 'false'}")
    if len(ext) == m.frame.n:
        return 0
    witness = min(w for w in range(m.frame.n) if w not in ext)
    print(f"fails at world {witness}")
    return 1


def _cmd_frame_valid(args) -> int:
    m = _load_model_arg(args.model)
    f = _parse_formula(args.formula)
    try:
        verdict = frame_valid(m.frame, f, bits_limit=args.bits_limit)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if verdict.valid:
        print("frame-valid")
        return 0
    vals = {a: sorted(ws) for a, ws in verdict.ev.items()}
    print(f"refuted at world {verdict.world} under {vals}")
    return 1


def _read_pairs(path):
    pairs = []
    try:
        with open(path, encoding="utf-8") as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if line:
                    i, j = line.split()
                    pairs.append((int(i), int(j)))
    except (OSError, ValueError) as exc:
        raise UsageError(f"{path}: {exc}") from None
    return pairs


def _cmd_bisim(args) -> int:
    ml = _load_model_arg(args.left)
    mr = _load_model_arg(args.right)
    if args.z:
        z = _read_pairs(args.z)
        try:
            verdict = check_bisim(ml, mr, z)
        except ValueError as exc:
            raise UsageError(f"{args.z}: {exc}") from None
        if verdict.ok:
            print(f"bisimulation of {len(set(z))} pairs")
            return 0
        print(f"{verdict.clause} clause fails at {verdict.pair}: "
              f"{verdict.witness}")
        return 1
    z = max_bisim(ml, mr)
    for i, j in sorted(z):
        print(f"{i} {j}")
    left = {i for i, _ in z}
    right = {j for _, j in z}
    if len(left) == ml.frame.n and len(right) == mr.frame.n:
        print(f"total: {len(z)} pairs")
        return 0
    print("not total")
    return 1


def _cmd_translate(args) -> int:
    f = _parse_formula(args.formula)
    print(term_to_str(translate(f)))
    return 0


def _cmd_eval(args) -> int:
    m = _load_model_arg(args.model)
    f = _parse_formula(args.formula)
    n = m.frame.n
    env = {}
    for binding in args.val or []:
        atom, eq, worlds = binding.partition("=")
        if not eq or not re.fullmatch(r"[a-z][a-z0-9_]*", atom):
            raise UsageError(f"--val wants atom=worlds, got {binding!r}")
        if atom in env:   # two bindings would leave the request ambiguous
            raise UsageError(f"--val binds {atom} more than once")
        env[atom] = _parse_worlds(n, worlds)
    for a in atoms(f):
        env.setdefault(a, m.ev_set(a))
    got = eval_term(m.frame, env, translate(f))
    print(got)
    print("whole frame" if got.mask == m.frame.full_mask else "proper subset")
    return 0


def _load_label_base(arg: str) -> Model:
    """A model whose frame is small enough to list its label filters."""
    m = _load_model_arg(arg)
    try:
        check_label_worlds(m.frame.n)
    except ValueError as exc:
        raise UsageError(f"{arg}: {exc}") from None
    return m


def _cmd_assuring(args) -> int:
    fr = _load_label_base(args.model).frame
    if args.f is None and args.g is None and args.label is None:
        triples = all_assuring_triples(fr)
        if args.json:
            payload = [{"f": f.witness,
                        "label_min": sorted(l.min_set()),
                        "g": g.witness} for f, l, g in triples]
            print(json.dumps(payload, sort_keys=True))
        else:
            for f, l, g in triples:
                print(f"U{f.witness} {l!r} U{g.witness}")
            print(f"{len(triples)} triples")
        return 0
    if args.f is None or args.g is None or args.label is None:
        raise UsageError("give all of --f/--label/--g, or none to list")
    try:
        f = Ultrafilter(fr.n, args.f)
        g = Ultrafilter(fr.n, args.g)
        label = Filter(fr.n, _parse_worlds(fr.n, args.label).mask)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if not label.is_proper:
        raise UsageError("label min-set must be nonempty")
    if assuring(fr, f, label, g):
        print("assuring")
        return 0
    print("not assuring")
    return 1


def _cmd_ue(args) -> int:
    if args.cap < 1:
        raise UsageError(f"--cap must be at least 1, got {args.cap}")
    m = _load_label_base(args.model)
    try:
        ue = build_ue(m.frame, max_worlds=args.cap)
    except ResourceLimitError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if args.json:
        print(ue_to_json(ue))
        return 0
    if args.dot:
        print(ue_to_dot(ue), end="")
        return 0
    print(f"worlds {len(ue)} (base {m.frame.n})")
    for i, w in enumerate(ue.first_worlds(40)):
        print(f"{i}: {w!r}")
    if len(ue) > 40:
        print(f"... {len(ue) - 40} more")
    return 0


def _check_demo_args(args):
    for name, value, least in (("fan", args.fan, 1), ("depth", args.depth, 0)):
        if value < least:
            raise UsageError(f"--{name} must be at least {least}, got {value}")
    if args.fan > FAN_LIMIT:
        raise UsageError(f"--fan must be at most {FAN_LIMIT}, got {args.fan}")


def _cmd_pencil_demo(args) -> int:
    _check_demo_args(args)
    report = nondefinability_demo(m=args.fan, depth=args.depth)
    print(f"bad frame violation witness: {report.bad_witness}")
    print(f"good frame in class: {report.good_in_class}")
    print(f"bisimulation under all {report.trials} valuations: {report.bisim_ok}")
    print(f"formula agreement to depth {report.depth} under all valuations: "
          f"{report.equiv_ok}")
    if args.dot_prefix:
        good, bad, _ = build_demo_pair(args.fan)
        for tag, fr in (("bad", bad), ("good", good)):
            path = f"{args.dot_prefix}-{tag}.dot"
            try:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(to_dot(Model(fr), name=tag))
            except OSError as exc:
                raise UsageError(f"{path}: {exc}") from None
            print(f"wrote {path}")
    if report.ok:
        print("demo: the pencil class has no modal definition at this depth")
        return 0
    print(f"demo failed: {report.failure}")
    return 1


def _cmd_prove_check(args) -> int:
    try:
        with open(args.proof, encoding="utf-8") as fh:
            payload = json.load(fh)
        proof = proof_from_dict(payload)
    except (OSError, ValueError, RecursionError) as exc:   # json.load recurses per level
        raise UsageError(f"{args.proof}: {exc}") from None
    verdict = check_proof(proof)
    if verdict.valid:
        print(f"valid: {verdict.conclusion}")
        return 0
    print(f"invalid at step {verdict.failed_step}: {verdict.reason}")
    return 1


def _cmd_corpus(args) -> int:
    _check_demo_args(args)
    from .checks import run_all
    corpus.corpus_models()   # a bad corpus fails before the scoreboard starts
    results = run_all(fan=args.fan, depth=args.depth)
    if args.json:
        payload = [{"name": r.name, "ok": r.ok, "detail": r.detail,
                    "seconds": r.seconds} for r in results]
        print(json.dumps(payload, sort_keys=True))
    else:
        width = max(len(r.name) for r in results)
        for r in results:
            mark = "PASS" if r.ok else "FAIL"
            print(f"{mark} {r.name:<{width}}  {r.seconds:6.2f}s  {r.detail}")
    return 0 if all(r.ok for r in results) else 1


@cache
def _build_parser():
    """The argparse tree, built on the first ``main`` call and reused: it is
    never changed once built, and ``parse_args`` reads it into a fresh
    namespace each call (``--val`` appends to a copy of its list)."""
    top = argparse.ArgumentParser(
        prog="ilkit",
        description="Interpretability-logic toolkit over finite Veltman frames")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a formula and print it back")
    p.add_argument("formula")
    p.add_argument("--unicode", action="store_true")
    p.add_argument("--core", action="store_true",
                   help="also print the desugared core form")
    p.set_defaults(fn=_cmd_parse)

    p = sub.add_parser("mc", help="evaluate a formula at every world")
    p.add_argument("model", help="frame file or corpus model name")
    p.add_argument("formula")
    p.set_defaults(fn=_cmd_mc)

    p = sub.add_parser("frame-valid", help="search valuations for a countermodel")
    p.add_argument("model")
    p.add_argument("formula")
    p.add_argument("--bits-limit", type=int, default=VALUATION_BITS_LIMIT)
    p.set_defaults(fn=_cmd_frame_valid)

    p = sub.add_parser("bisim", help="check or compute a bisimulation")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--z", help="file of candidate pairs, one 'i j' per line")
    p.set_defaults(fn=_cmd_bisim)

    p = sub.add_parser("translate", help="print a formula's set-term translation")
    p.add_argument("formula")
    p.set_defaults(fn=_cmd_translate)

    p = sub.add_parser("eval", help="evaluate the translation on a frame")
    p.add_argument("model")
    p.add_argument("formula")
    p.add_argument("--val", action="append", metavar="atom=w1,w2,...",
                   help="override an atom's world set")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("assuring", help="query the assuring relation")
    p.add_argument("model")
    p.add_argument("--f", type=int, help="witness world of the source ultrafilter")
    p.add_argument("--label", metavar="w1,w2,...", help="label filter min-set")
    p.add_argument("--g", type=int, help="witness world of the target ultrafilter")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_assuring)

    p = sub.add_parser("ue", help="build the ultrafilter extension")
    p.add_argument("model")
    p.add_argument("--cap", type=int, default=UE_WORLDS_CAP)
    p.add_argument("--dot", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_ue)

    p = sub.add_parser("pencil-demo",
                       help="show the pencil class escaping modal definability")
    p.add_argument("--fan", type=int, default=3)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--dot-prefix", help="write <prefix>-bad.dot and <prefix>-good.dot")
    p.set_defaults(fn=_cmd_pencil_demo)

    p = sub.add_parser("prove-check", help="check a Hilbert proof from JSON")
    p.add_argument("proof", help="proof file")
    p.set_defaults(fn=_cmd_prove_check)

    p = sub.add_parser("corpus", help="run the scoreboard over the bundled corpus")
    p.add_argument("--fan", type=int, default=3)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_corpus)

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, FrameFormatError) as exc:
        print(f"ilkit: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
