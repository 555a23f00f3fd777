import copy
import gc
import importlib.util
import pickle
import random
import sys
import threading
import weakref
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from ilkit import algebra, formula
from ilkit.algebra import SetTerm, Var, eval_term, term_to_str, translate
from ilkit.calculus import SCHEMAS, is_tautology
from ilkit.formula import (
    Atom, Bottom, Box, Formula, Implies, Node, Rhd, BOT, NESTING_LIMIT, TOP,
    atoms, conj, dia, disj, enumerate_formulas, iff, neg,
    parse, ParseError, postorder, size, to_str,
)
from ilkit.frames import Model, chain
from ilkit.semantics import extension, frame_valid

import oracles
from helpers import modal_depth


def test_parse_basics():
    assert parse("p") == Atom("p")
    assert parse("F") == Bottom()
    assert parse("p -> q") == Implies(Atom("p"), Atom("q"))
    assert parse("[]p") == Box(Atom("p"))
    assert parse("p |> q") == Rhd(Atom("p"), Atom("q"))
    assert parse("long_name2") == Atom("long_name2")


def test_parse_precedence():
    # implication is right-associative and loosest
    assert parse("a -> b -> c") == parse("a -> (b -> c)")
    # & and | sit at one level, left-associative
    assert parse("a & b | c") == parse("(a & b) | c")
    assert parse("a | b & c") == parse("(a | b) & c")
    # unary binds tightest
    assert parse("~[]a") == neg(Box(Atom("a")))
    assert parse("<>a & b") == conj(dia(Atom("a")), Atom("b"))
    # |> binds looser than & but tighter than ->
    assert parse("a & b |> c") == Rhd(conj(Atom("a"), Atom("b")), Atom("c"))
    assert parse("a |> b -> c") == Implies(Rhd(Atom("a"), Atom("b")), Atom("c"))


def test_rhd_chain_is_an_error():
    with pytest.raises(ParseError):
        parse("a |> b |> c")
    # parenthesised chains are fine
    assert parse("(a |> b) |> c") == Rhd(Rhd(Atom("a"), Atom("b")), Atom("c"))
    assert parse("a |> (b |> c)") == Rhd(Atom("a"), Rhd(Atom("b"), Atom("c")))


def test_parse_errors_carry_positions():
    for text, pos in [("", 0), ("a &", 3), ("(a -> b", 7), ("a @ b", 2),
                      ("A", 0), ("p q", 2), ("(p q", 3), ("->p", 0)]:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.position == pos


def test_sugar_expands_eagerly():
    assert parse("T") == Implies(BOT, BOT)
    assert parse("~a") == Implies(Atom("a"), BOT)
    assert parse("a & b") == neg(Implies(Atom("a"), neg(Atom("b"))))
    assert parse("a | b") == Implies(neg(Atom("a")), Atom("b"))
    assert parse("a <-> b") == conj(Implies(Atom("a"), Atom("b")),
                                    Implies(Atom("b"), Atom("a")))
    assert parse("<>a") == neg(Box(neg(Atom("a"))))
    assert TOP == parse("T")


def test_print_resugars():
    assert to_str(parse("a & b")) == "a & b"
    assert to_str(parse("<>~a")) == "<>~a"
    assert to_str(parse("a |> b -> c")) == "a |> b -> c"
    assert to_str(parse("a |> (b -> c)")) == "a |> (b -> c)"
    assert to_str(parse("T |> a")) == "T |> a"
    assert to_str(parse("p -> q -> r")) == "p -> q -> r"
    assert to_str(parse("(p -> q) -> r")) == "(p -> q) -> r"


def test_unicode_rendering():
    # eager expansion stores (x & y) -> z as ~(x -> ~y) -> z, which the
    # printer re-sugars as an or-chain; the output still re-parses equal
    f = parse("~a & []b -> (c |> <>d)")
    assert to_str(f, unicode=True) == "a ∨ ¬□b ∨ (c ▷ ◊d)"
    assert to_str(parse("(a -> b) & ~c"), unicode=True) == "(a → b) ∧ ¬c"
    assert parse(to_str(f)) == f


def test_core_printing_skips_sugar():
    f = parse("a & b")
    assert to_str(f, sugar=False) == "(a -> b -> F) -> F"
    assert parse(to_str(f, sugar=False)) == f


def test_measures():
    f = parse("[]p -> (q |> []r)")
    assert atoms(f) == frozenset({"p", "q", "r"})
    assert modal_depth(f) == 2
    assert size(f) == 4
    assert size(parse("p")) == 0
    assert modal_depth(parse("p -> q")) == 0


def _formula_trees(pool):
    leaves = st.sampled_from([Atom(a) for a in pool] + [BOT])
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.builds(Implies, sub, sub),
            st.builds(Box, sub),
            st.builds(Rhd, sub, sub),
        ),
        max_leaves=14)


@given(_formula_trees(["p", "q", "r_2"]))
def test_roundtrip_ascii(f):
    assert parse(to_str(f)) is f


@given(_formula_trees(["p", "q"]))
def test_roundtrip_core(f):
    assert parse(to_str(f, sugar=False)) is f


def test_nodes_are_hash_consed():
    assert Atom("p") is Atom("p")
    assert parse("p & q -> []p") is Implies(conj(Atom("p"), Atom("q")),
                                            Box(Atom("p")))
    assert Rhd(Atom("p"), BOT) is not Rhd(BOT, Atom("p"))
    f = parse("p |> q")
    with pytest.raises(AttributeError):
        f.lhs = Atom("q")
    assert repr(f) == str(f) == "p |> q"
    assert pickle.loads(pickle.dumps(f)) is f
    assert copy.deepcopy(f) is f


def test_interning_is_thread_safe():
    texts = [f"[]x{i} -> (x{i} |> y{i})" for i in range(300)]
    results = []

    def build():
        results.append([parse(t) for t in texts])

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=build) for _ in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(w.is_alive() for w in workers)
    assert len(results) == 8
    assert all(r[i] is results[0][i] for r in results for i in range(len(texts)))


def test_interned_node_is_freed_with_its_last_user():
    f = Box(Atom("only_here"))
    ref = weakref.ref(f)
    del f
    gc.collect()
    assert ref() is None


def test_intern_table_drops_dead_nodes():
    gc.collect()
    before = len(formula._NODES)
    fresh = [Implies(Atom(f"dropped{i}"), BOT) for i in range(5_000)]
    assert len(formula._NODES) == before + 10_000
    del fresh
    assert len(formula._NODES) == before   # reference counting alone empties it


def _racing_table(monkeypatch, key, race):
    """An empty intern table in place of the real one whose first
    ``setdefault`` under ``key`` runs ``race()`` before publishing, as
    another thread could between a miss and its publish; the references
    offered under ``key`` are kept in the returned list."""
    offered = []

    class Racing(dict):
        def setdefault(self, k, default):
            if k == key:
                offered.append(default)
                if len(offered) == 1:
                    race()
            return dict.setdefault(self, k, default)

    table = Racing()
    monkeypatch.setattr(formula, "_NODES", table)
    return table, offered


def test_a_lost_intern_race_returns_the_winners_node(monkeypatch):
    a = Atom("raced")
    key = (Implies, a, BOT)
    winner = []
    gc.collect()
    gc.disable()   # nothing but this test may drop an entry meanwhile
    try:
        table, offered = _racing_table(monkeypatch, key,
                                       lambda: winner.append(Implies(a, BOT)))
        got = Implies(a, BOT)
        assert got is winner[0]
        ours, theirs = offered   # ours was offered first, the winner's inside the race
        assert ours() is None   # our node was dropped ...
        assert len(table) == 1 and table[key] is theirs and theirs() is got   # ... and left theirs
        assert Implies(a, BOT) is got   # a hit now
    finally:
        gc.enable()


def test_an_intern_miss_replaces_a_dead_entry():
    class Gone:
        pass

    gc.collect()
    a = Atom("revived")
    key = (Box, a)
    gone = Gone()
    dead = formula._Ref(gone)   # no callback: the entry stays until replaced
    dead.key = key
    formula._NODES[key] = dead
    del gone
    assert dead() is None
    before = len(formula._NODES)
    got = Box(a)
    assert formula._NODES[key]() is got
    assert len(formula._NODES) == before   # replaced, not added beside
    assert Box(a) is got
    del got
    assert key not in formula._NODES and len(formula._NODES) == before - 1


def test_wrong_arity_is_refused_and_not_interned():
    before = len(formula._NODES)
    for cls, args in ((Implies, (BOT,)), (Implies, (BOT, BOT, BOT)), (Box, ()),
                      (Atom, ("p", "q")), (Bottom, (BOT,))):
        with pytest.raises(ValueError):
            cls(*args)
    assert len(formula._NODES) == before


def _concrete_node_classes():
    classes = [c for m in (formula, algebra) for c in vars(m).values()
               if isinstance(c, type) and issubclass(c, Node) and c.__module__ == m.__name__]
    return [c for c in classes if not any(d is not c and issubclass(d, c) for d in classes)]


def test_kids_are_the_node_arguments_in_order():
    classes = _concrete_node_classes()
    assert {Atom, Bottom, Implies, Box, Rhd, Var} <= set(classes) and len(classes) == 14
    for cls in classes:
        leaf = Atom if issubclass(cls, Formula) else Var
        assert issubclass(cls, (Formula, SetTerm))
        if cls.__slots__ == ("name",):
            arg_lists = [("kid_a",)]
        else:
            arity = len(cls.__slots__)
            arg_lists = [tuple(leaf(f"kid_{i}") for i in range(arity)),
                         (leaf("kid_a"),) * arity]
        for args in arg_lists:
            node = cls(*args)
            assert node.kids == tuple([a for a in args if isinstance(a, Node)]), cls
            assert tuple(getattr(node, name) for name in cls.__slots__) == args


def test_a_node_class_with_three_nodes_is_refused():
    with pytest.raises(TypeError, match="more than two nodes"):
        type("Triple", (Formula,), {"__slots__": ("a", "b", "c")})


def test_a_class_mixing_a_name_with_nodes_is_refused():
    for slots in (("name", "body"), ("lhs", "name")):
        with pytest.raises(TypeError, match="mixes a name"):
            type("Labelled", (Formula,), {"__slots__": slots})


def _fresh_walk(root):
    """``postorder`` without its cache: an ``enter`` that opens every node."""
    return postorder(root, lambda g: True)


def test_cached_walk_matches_a_fresh_walk():
    roots = [*enumerate_formulas(["p", "q"], 2, 2), *SCHEMAS.values(),
             *map(translate, SCHEMAS.values()), _deep_formula()]
    for root in roots:
        fresh = _fresh_walk(root)
        assert fresh[-1] is root and len(set(fresh)) == len(fresh)
        assert postorder(root) == fresh   # fills the cache, or reads it
        assert root._walk == fresh[:-1]   # strict subterms: no self-reference
        assert postorder(root) == fresh
    # only the roots walked hold a cache: the deep formula's subterms do not
    deep = roots[-1]
    assert getattr(deep.kids[-1], "_walk", None) is None


def test_cached_walk_leaves_pickling_and_freeing_alone():
    f = Rhd(Box(Atom("walked_once")), neg(Atom("walked_once")))
    before = pickle.dumps(f)
    postorder(f)
    assert f._walk
    assert pickle.dumps(f) == before
    assert pickle.loads(before) is f
    ref = weakref.ref(f)
    gc.disable()   # reference counting alone must free it: the cache is no cycle
    try:
        del f
        assert ref() is None
    finally:
        gc.enable()


def _mc_style_texts(monkeypatch, depths):
    """Deep formula texts as the benchmark's ``mc`` requests send them, one
    per depth; the generator is read from source, writing no bytecode."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    rng = random.Random(23)
    return [gen.to_text(gen.deep_formula(rng, depth, ("p", "q", "r"))) for depth in depths]


def _mc_style_formulas(monkeypatch, count, depth):
    """Deep formulas as the benchmark's ``mc`` requests build them, parsed
    from their text."""
    return [parse(text) for text in _mc_style_texts(monkeypatch, [depth] * count)]


def test_postorder_matches_a_recursive_walk(monkeypatch):
    roots = [*enumerate_formulas(["p", "q"], 2, 3), *SCHEMAS.values(),
             *map(translate, SCHEMAS.values()), *_mc_style_formulas(monkeypatch, 6, 300)]
    enters = [None, lambda g: True, lambda g: not isinstance(g, Box)]
    for root in roots:
        for enter in enters:
            assert postorder(root, enter) == oracles.postorder_naive(root, enter), root
        assert postorder(root) == oracles.postorder_naive(root)   # the cached walk
    # the deep formulas hold boxes, so the last ``enter`` leaves some subterms out
    assert all(any(isinstance(g, Box) for g in postorder(r)) for r in roots[-6:])


def test_parser_nesting_limit():
    deepest = "(" * NESTING_LIMIT + "p" + ")" * NESTING_LIMIT
    assert parse(deepest) is Atom("p")
    with pytest.raises(ParseError) as err:
        parse("(" + deepest + ")")
    assert err.value.position == NESTING_LIMIT
    # prefix operators and -> chains are read by loops, at any length
    assert modal_depth(parse("[]" * 5000 + "p")) == 5000
    assert size(parse(" -> ".join(["p"] * 5000))) == 4999


def _deep_formula():
    """10,000 connectives deep, cycling through box, negation, ``q |>`` and ``q ->``."""
    p, q = Atom("p"), Atom("q")
    wrap = [Box, neg, lambda g: Rhd(q, g), lambda g: Implies(q, g)]
    f = p
    for i in range(10_000):
        f = wrap[i % 4](f)
    return f


def test_deep_formulas_walk_without_recursion():
    f = _deep_formula()
    assert size(f) == 10_000
    assert modal_depth(f) == 5_000
    assert atoms(f) == {"p", "q"}
    assert to_str(f, sugar=False).count("[]") == 2_500
    assert to_str(f).count("|>") == 2_500
    m = Model(chain(3), {"p": [1], "q": [2]})
    t = translate(f)
    assert term_to_str(t).count("S_inv(") == 2_500
    assert eval_term(m.frame, m.ev, t) == extension(m, f)
    verdict = frame_valid(chain(2), f)
    if not verdict.valid:
        assert verdict.world not in extension(Model(chain(2), verdict.ev), f)
    assert is_tautology(Implies(f, f))
    assert not is_tautology(f)


def test_enumeration_counts_frozen():
    assert sum(1 for _ in enumerate_formulas(["p"], 1, 3)) == 508
    assert sum(1 for _ in enumerate_formulas(["p", "q"], 2, 2)) == 297
    assert sum(1 for _ in enumerate_formulas(["p", "q"], 1, 2)) == 213
    assert sum(1 for _ in enumerate_formulas(["p", "q"], 2, 2,
                                             modalities=("box",))) == 99


@pytest.mark.parametrize("pool,depth,bound,with_rhd", [
    (["p"], 1, 3, True),
    (["p", "q"], 2, 2, True),
    (["p", "q"], 1, 2, True),
    (["p", "q"], 2, 2, False),
    (["p", "q", "r"], 1, 2, True),
    (["p"], 3, 4, False),
])
def test_enumeration_matches_counting_oracle(pool, depth, bound, with_rhd):
    mods = ("box", "rhd") if with_rhd else ("box",)
    got = list(enumerate_formulas(pool, depth, bound, modalities=mods))
    assert len(got) == len(set(got))
    assert all(modal_depth(f) <= depth and size(f) <= bound for f in got)
    assert len(got) == oracles.count_formulas(len(pool), depth, bound,
                                              with_rhd=with_rhd)


def test_enumeration_respects_modalities():
    seen = list(enumerate_formulas(["p"], 2, 2, modalities=("box",)))
    assert not any(isinstance(f, Rhd) for f in seen)
    assert any(isinstance(f, Box) for f in seen)
    rhd_only = list(enumerate_formulas(["p"], 2, 2, modalities=("rhd",)))
    assert not any(isinstance(f, Box) for f in rhd_only)


def _same_parse(text):
    """``parse`` builds the oracle's node, or raises its error at its position."""
    try:
        want = oracles.parse_naive(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (str(err.value), err.value.position) == (str(exc), exc.position), text
        return False
    assert parse(text) is want, text
    return True


_UNARY = [neg, dia, Box, lambda a: a]
_BINARY = [Implies, Rhd, conj, disj, iff]


def _random_formula(rng, size):
    if size == 0:
        return rng.choice([Atom("p"), Atom("q"), Atom("r_1"), BOT, TOP])
    if rng.random() < 0.3:
        return rng.choice(_UNARY)(_random_formula(rng, size - 1))
    left = rng.randrange(size)
    return rng.choice(_BINARY)(_random_formula(rng, left),
                               _random_formula(rng, size - 1 - left))


def _noisy(f, rng):
    """Core text with every compound parenthesized, some twice, and random
    spacing."""
    gap = lambda: rng.choice(["", " ", "  ", "\t"])
    if isinstance(f, Atom):
        text = f.name
    elif isinstance(f, Bottom):
        text = "F"
    elif isinstance(f, Box):
        text = f"[]{gap()}{_noisy(f.body, rng)}"
    else:
        op = "->" if isinstance(f, Implies) else "|>"
        text = f"({_noisy(f.lhs, rng)}{gap()}{op}{gap()}{_noisy(f.rhs, rng)})"
    while rng.random() < 0.2:
        text = f"({gap()}{text}{gap()})"
    return text


def test_parse_matches_recursive_descent_on_printed_formulas():
    rng = random.Random(15)
    for _ in range(400):
        f = _random_formula(rng, rng.randrange(12))
        for text in (to_str(f), to_str(f, sugar=False), _noisy(f, rng)):
            assert _same_parse(text)


_STRAY = ["(", ")", "|>", "->", "<->", "&", "|", "~", "[]", "<>", "p", "F",
          "T", "@", "A", "-", "<", "é", "0", "_x"]


def test_parse_matches_recursive_descent_on_malformed_text():
    rng = random.Random(16)
    fixed = ["", " ", "a |> b |> c", "a -> b |> c |> d", "a |> b & c |> d",
             "(a |> b) |> c |> d", ")", "(", "()", "p q", "(p q", "(p", "p)",
             "~", "[]", "p ->", "-> p", "p &", "& p", "p @ q", "(p |> q", "A"]
    texts = list(fixed)
    for _ in range(400):
        good = to_str(_random_formula(rng, rng.randrange(1, 10)))
        cut = rng.randrange(len(good) + 1)
        texts.append(good[:cut])   # truncation
        at = rng.randrange(len(good) + 1)
        texts.append(f"{good[:at]} {rng.choice(_STRAY)} {good[at:]}")   # stray token
        texts.append(" ".join(rng.choice(_STRAY) for _ in range(rng.randrange(1, 8))))
    failed = sum(not _same_parse(text) for text in texts)
    assert failed > len(texts) // 2   # most of these are errors


def test_parse_matches_recursive_descent_on_nesting_and_prefix_chains():
    texts = []
    for depth in (NESTING_LIMIT - 1, NESTING_LIMIT, NESTING_LIMIT + 1):
        texts += ["(" * depth + "p" + ")" * depth,
                  "(" * depth + "p",
                  "(" * depth + "p" + ")" * (depth + 1),
                  "[](p -> " * depth + "p" + ")" * depth,
                  "~(" * depth + "p |> q" + ")" * depth,
                  "(" * depth + "p" + ")" * depth + " |> q |> r"]
    for length in (0, 1, 2, 3, 7, 100, 1_000, 5_000):
        texts += ["~" * length + "p", "[]" * length + "q", "<>" * length + "(p & q)",
                  "~[]<>" * length + "p -> q", "[]~" * length, "p |> " + "<>~" * length + "q"]
    for text in texts:
        _same_parse(text)


def test_parse_matches_recursive_descent_on_deep_formulas(monkeypatch):
    rng = random.Random(27)
    texts = _mc_style_texts(monkeypatch, range(50, 301, 10))
    cuts = [text[:rng.randrange(len(text))] for text in texts for _ in range(4)]
    assert all(_same_parse(text) for text in texts)
    assert sum(not _same_parse(text) for text in cuts) > len(cuts) // 2   # most are errors
