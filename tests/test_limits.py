"""Every resource limit lives in ``ilkit.limits``, and the library refuses a
frame too wide for its label filters before it builds any of them."""

import ast
import re
import time
from pathlib import Path

import pytest

import ilkit
from ilkit.extension import (build_ue, build_ue_model, classical_ue,
                             find_assured_successor, witness_from_negated)
from ilkit.filters import (Filter, Ultrafilter, all_assuring_triples, assuring,
                           assuring_family, b_set)
from ilkit.frames import Model, WorldSet, chain
from ilkit.limits import LABEL_WORLDS_LIMIT

SRC = Path(ilkit.__file__).resolve().parent
README = SRC.parent.parent / "README.md"
LIMITS = ("NESTING_LIMIT", "WORLDS_LIMIT", "VALUATION_BITS_LIMIT", "FAN_LIMIT",
          "TAUT_COMPONENT_LIMIT", "SATURATION_POOL_LIMIT", "LABEL_MEMBER_LIMIT",
          "LABEL_WORLDS_LIMIT", "UE_WORLDS_CAP")

N = LABEL_WORLDS_LIMIT + 1
FR = chain(N)
U0, U1 = Ultrafilter(N, 0), Ultrafilter(N, 1)
LABEL = Filter(N, 0b10)
NONE, ONE = WorldSet(N, 0), WorldSet(N, 0b10)
# each call meets its own preconditions, so only the limit can refuse it
CALLS = {
    "build_ue": lambda: build_ue(FR),
    "build_ue_model": lambda: build_ue_model(Model(FR)),
    "all_assuring_triples": lambda: all_assuring_triples(FR),
    "assuring": lambda: assuring(FR, U0, LABEL, U1),
    "assuring_family": lambda: assuring_family(FR, U0, [ONE], U1),
    "b_set": lambda: b_set(FR, U0, LABEL),
    # an empty source set: every world is in the transfer set
    "find_assured_successor": lambda: find_assured_successor(FR, U0, LABEL, NONE, ONE),
    # world 1, an R-successor of 0, has no S_0-successor in the empty set
    "witness_from_negated": lambda: witness_from_negated(FR, U0, ONE, NONE),
    "classical_ue": lambda: classical_ue(FR),
}


@pytest.mark.parametrize("name", CALLS)
def test_library_refuses_a_wide_frame_before_building(name, monkeypatch):
    def refuse(*args):
        raise AssertionError("2^n objects built before the limit was checked")

    for builder in ("Filter", "r_inv_mask", "r_inv_dual_mask", "s_inv_mask"):
        monkeypatch.setattr(f"ilkit.filters.{builder}", refuse)
    message = (f"{N} worlds have 2^{N} - 1 label filters; "
               f"limit is {LABEL_WORLDS_LIMIT} worlds")
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        CALLS[name]()
    assert time.perf_counter() - t0 < 0.5


def _assigned(tree):
    return [node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
            and node.id.endswith(("_LIMIT", "_CAP"))]


def _has_cap_literal(tree):
    return any(isinstance(node, ast.Constant) and type(node.value) is int
               and node.value == 100_000 for node in ast.walk(tree))


def test_every_limit_is_assigned_once_in_limits():
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name == "limits.py":
            assert sorted(_assigned(tree)) == sorted(LIMITS)
            assert _has_cap_literal(tree)
        else:
            assert _assigned(tree) == [], path.name
            assert not _has_cap_literal(tree), path.name
    readme = README.read_text(encoding="utf-8")
    assert [name for name in LIMITS if name not in readme] == []
