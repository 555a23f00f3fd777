"""Self-check of the benchmark's gate; standard library only.

    python3 perfbench/selfcheck.py

Runs one short ``query`` pass three times -- untouched, with one reference
answer corrupted, and with a task that raises -- and requires
``failed_share`` to be 0 for the first and above 0 for the other two.
Then holds the ultrafilter-extension oracle's assuring table against the
raw definition (``assuring_naive`` over every member of the label) on
every frame with at most 2 worlds and on seeded random 3-world frames.
Exits 1 on the first failed expectation.
"""

from __future__ import annotations

import random
import sys

import gen
import oracle
import run


def share(tamper):
    result = run.run_workload("query", 0, 0, False, tamper, log=lambda *_: None)
    return result["failed"] / result["attempted"]


def corrupt_answer(spec, refs):
    name = spec["tasks"][0]["name"]
    refs[name] = [refs[name][0], "0" * 16]


def add_raising_task(spec, refs):
    spec["tasks"].append({"name": "raises", "kind": "check", "fn": "no_such_check"})
    refs["raises"] = [["no-such-check", True]]


def assuring_agrees():
    from ilkit.frames import Frame, all_frames
    naive = oracle.naive_oracles()
    rng = random.Random("selfcheck")
    frames = [fr for n in (1, 2) for fr in all_frames(n)]
    for _ in range(8):
        r, s = oracle.closed_relations(3, *gen.rand_frame(rng, 3))
        frames.append(Frame(3, tuple(r), tuple(tuple(row) for row in s)))
    for fr in frames:
        n = fr.n
        table = oracle.assured_table(n, fr.r_succ, fr.s_succ)
        for b in range(1, 1 << n):
            members = [frozenset(x for x in range(n) if m >> x & 1)
                       for m in range(1 << n) if m & b == b]
            for fw in range(n):
                for gw in range(n):
                    want = naive.assuring_naive(fr, fw, members, gw)
                    if want != bool(table[fw][b] >> gw & 1):
                        return False
    return True


def main():
    sys.path.insert(0, str(run.SRC))
    checks = [
        ("untouched run passes", lambda: share(None) == 0),
        ("corrupted reference fails", lambda: share(corrupt_answer) > 0),
        ("raising task fails", lambda: share(add_raising_task) > 0),
        ("assuring table matches the raw definition", assuring_agrees),
    ]
    for label, check in checks:
        ok = check()
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
        if not ok:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
