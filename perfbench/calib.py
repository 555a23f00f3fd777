"""A fixed reference loop that measures how fast the machine runs Python now.

On a shared host the interpreter's speed drifts by 20-60% over minutes
(other tenants' load on shared cores and caches), which is wider than the
benchmark's bounds and no longer run can average away.  Each pass
therefore times this loop between its tasks, and ``run.py`` divides every
time metric of a run by the run's median loop time over ``REF_S``: the
reported times are seconds at the speed at which the loop takes ``REF_S``.

The loop never touches ``ilkit`` and runs with the garbage collector off,
so no change to the program can change its work, and it keeps little
memory, so it does not raise a pass's peak.  Its work is of the kinds the
program does, so that it slows down as the program does: parsing formula
text into tuple trees, evaluating them recursively with memo dicts over
integer world sets, and a JSON round trip.  Its first sample in an
interpreter runs cold, as the program's first calls do.
"""

from __future__ import annotations

import gc
import json
import random
import re
import time

# Close to the loop's median time on a 2-vCPU 2.0 GHz x86-64 host under
# Python 3.11.7; it only sets the scale of the reported times.
REF_S = 0.040

_N = 8
_MASK = (1 << _N) - 1
# node tags are ints, whose hashes do not vary between interpreters
_ATOM, _NEG, _IMP, _RHD = range(4)
_TOKEN = re.compile(r"\s*(->|\|>|[()~]|[a-z])")


def _text(rng, depth):
    if depth == 0:
        return rng.choice("pqrs")
    kind = rng.randrange(3)
    if kind == 0:
        return "~" + _text(rng, depth - 1)
    return ("(" + _text(rng, depth - 1) + (" -> " if kind == 1 else " |> ")
            + _text(rng, rng.randrange(depth)) + ")")


def _parse(tokens, i):
    tok = tokens[i]
    if tok == "~":
        f, i = _parse(tokens, i + 1)
        return (_NEG, f), i
    if tok == "(":
        a, i = _parse(tokens, i + 1)
        op = tokens[i]
        b, i = _parse(tokens, i + 1)
        return (_IMP if op == "->" else _RHD, a, b), i + 1
    return (_ATOM, "pqrs".index(tok)), i + 1


def _eval(f, val, succ, memo):
    got = memo.get(f)
    if got is not None:
        return got
    kind = f[0]
    if kind == _ATOM:
        out = val[f[1]]
    elif kind == _NEG:
        a = _eval(f[1], val, succ, memo)
        out = 0
        for w in range(_N):
            if succ[w] & a == 0:
                out |= 1 << w
    else:
        a = _eval(f[1], val, succ, memo)
        b = _eval(f[2], val, succ, memo)
        out = (~a | b) & _MASK
        if kind == _RHD:
            out ^= out >> 1
    memo[f] = out
    return out


_RNG = random.Random(1)
_SUCC = [_RNG.getrandbits(_N) for _ in range(_N)]
_TEXTS = [_text(_RNG, 11) for _ in range(80)]
_CHECK = None


def sample():
    """Seconds one fixed batch of the loop's work takes now."""
    global _CHECK
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = 0
        for text in _TEXTS:
            tokens = _TOKEN.findall(text)
            f, _ = _parse(tokens, 0)
            for v in range(6):
                val = [(v * 2654435761 >> (8 * i)) & _MASK for i in range(4)]
                acc ^= _eval(f, val, _SUCC, {})
            acc ^= len(json.loads(json.dumps({"text": text, "tokens": tokens}))["tokens"])
        elapsed = time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()
    if _CHECK is None:
        _CHECK = acc
    elif acc != _CHECK:   # the loop must do the same work every time
        raise RuntimeError("calibration loop gave a different result")
    return elapsed
