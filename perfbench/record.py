"""Freeze the seed-0 reference answers in ``refs/``.

    python3 perfbench/record.py [WORKLOAD ...]

For each workload (all three by default): generate the seed-0 inputs,
compute every answer by the oracle routes alone, run one untraced pass of
the program, and write ``refs/<workload>.json`` only if the two agree on
every task and the known facts hold: 1/3/34 legal frames on 1/2/3 worlds
(by the brute-force count in ``tests/oracles.py``) and the frozen
extension sizes of the fixed bases.
"""

from __future__ import annotations

import json
import shutil
import sys

import gen
import oracle
import run

FRAME_COUNTS = {1: 1, 2: 3, 3: 34}


def confirm_facts(workload, answers):
    if workload == "scoreboard":
        naive = oracle.naive_oracles()
        for n, want in FRAME_COUNTS.items():
            got = naive.count_frames_brute(n)
            if got != want:
                raise SystemExit(f"{n}-world frames: brute force counts {got}, not {want}")
    if workload == "ue":
        for base, want in gen.UE_FIXED_SIZES.items():
            if answers[f"build:{base}"] != want:
                raise SystemExit(f"{base}: oracle builds {answers[f'build:{base}']} "
                                 f"worlds, not {want}")


def dump_refs(answers):
    """Seed-0 answers, one task to a line."""
    lines = ",\n".join(f" {json.dumps(name)}: {json.dumps(answers[name])}"
                        for name in sorted(answers))
    return '{"seed": 0, "answers": {\n' + lines + "\n}}\n"


def record(workload):
    workdir = run.WORK / workload
    spec = gen.make(workload, 0, workdir)
    answers = json.loads(json.dumps(oracle.references(spec, workdir)))
    confirm_facts(workload, answers)
    run.write_spec(spec, workdir)
    report = run.run_child(workdir, "pass")
    bad = run.check_pass(report, answers)
    if bad:
        raise SystemExit(f"{workload}: program and oracle disagree on {bad}")
    run.REFS.mkdir(exist_ok=True)
    path = run.REFS / f"{workload}.json"
    path.write_text(dump_refs(answers))
    shutil.rmtree(workdir)
    print(f"{workload}: {len(answers)} answers agree; wrote {path.name}")


def main(argv):
    sys.path.insert(0, str(run.SRC))
    for workload in argv or run.WORKLOADS:
        record(workload)


if __name__ == "__main__":
    main(sys.argv[1:])
