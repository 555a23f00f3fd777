"""One pass of a workload in a fresh interpreter.

    python3 perfbench/child.py WORKDIR MODE OUT

MODE is ``setup`` (stop once ready), ``pass`` (untraced) or ``trace``
(wrappers installed before the inputs load).  The pass reads
``WORKDIR/spec.json``, loads its inputs, runs every task in order and
writes to OUT: the clock reading when it became ready, the pass's wall
time from the first task to the last answer, its peak resident memory,
each task's latency and answer (or the exception it raised), and the
times of the ``calib`` reference loop, run once when ready, between tasks
about every ``CALIB_EVERY_S`` seconds and once at the end, none of it
inside the timed tasks or the pass's wall time.  A
fresh interpreter per pass means nothing the program caches carries over
from one pass to the next, as for a user's separate ``ilkit`` calls.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CALIB_EVERY_S = 0.5


def _import_program():
    sys.path.insert(0, str(SRC))
    import ilkit
    import ilkit.checks
    import ilkit.cli
    if Path(ilkit.__file__).resolve().parent != SRC / "ilkit":
        raise RuntimeError(f"imported ilkit from {ilkit.__file__}, not {SRC}")


def _run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:   # argparse refuses a request this way
            code = exc.code if isinstance(exc.code, int) else 2
    return out.getvalue(), code


def main(workdir, mode, out_path):
    workdir = Path(workdir)
    _import_program()
    import calib
    from oracle import cli_answer

    tracer = None
    if mode == "trace":
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    spec = json.loads((workdir / "spec.json").read_text(encoding="utf-8"))
    os.chdir(workdir)
    models, pool, built = {}, [], {}
    if spec["workload"] == "ue":
        from ilkit.frameio import load_model
        from ilkit.formula import parse
        models = {t["base"]: load_model(t["path"])
                  for t in spec["tasks"] if t["kind"] == "build"}
        pool = [parse(text) for text in spec["pool"]]
    ready = time.perf_counter()
    calib_s = [calib.sample()]
    if mode == "setup":
        Path(out_path).write_text(json.dumps({"ready": ready, "calib": calib_s}))
        return

    # ``ilkit.extension`` the attribute is the forcing function; take modules
    checks, cli, extension, frames = (
        importlib.import_module(f"ilkit.{name}")
        for name in ("checks", "cli", "extension", "frames"))

    def run(task):
        kind = task["kind"]
        if kind == "check":
            got = getattr(checks, task["fn"])()
            rows = got if isinstance(got, list) else [got]
            return [[r.name, r.ok] for r in rows]
        if kind == "cli":
            stdout, code = _run_cli(cli, task["argv"])
            return cli_answer(code, stdout)
        base = task["base"]
        if kind == "build":
            built.clear()   # one extension in memory at a time
            um = built[base] = extension.build_ue_model(models[base])
            return len(um.ue)
        if kind == "truth":
            return extension.check_truth_theorem(models[base], pool, built[base]).ok
        if kind == "validate":
            return frames.validate(built[base].ue.frame).ok
        raise ValueError(f"unknown task kind {kind!r}")

    results = []
    paused = 0.0
    start = last_calib = time.perf_counter()
    for task in spec["tasks"]:
        t0 = time.perf_counter()
        answer, error = None, None
        try:
            if tracer is not None:
                answer = tracer.run_task(task["name"], lambda: run(task))
            else:
                answer = run(task)
        except Exception as exc:  # a raising task is a failed task, not a crash
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        results.append([task["name"], t1 - t0, answer, error])
        if t1 - last_calib >= CALIB_EVERY_S:
            calib_s.append(calib.sample())
            last_calib = time.perf_counter()
            paused += last_calib - t1
    end = time.perf_counter()
    calib_s.append(calib.sample())
    built.clear()
    report = {
        "ready": ready,
        "wall_s": end - start - paused,
        "calib": calib_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "results": results,
    }
    if tracer is not None:
        report["stats"] = tracer.rows()
        report["spans"] = tracer.spans
    Path(out_path).write_text(json.dumps(report))


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    main(*sys.argv[1:4])
