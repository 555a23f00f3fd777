"""The names the benchmark harness under ``perfbench/`` calls or traces.

The harness wraps library functions by name and runs the scoreboard
checks by name, so deleting or renaming one breaks ``--trace 1`` runs.
The harness modules are imported from their source without writing
bytecode next to them.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _harness_module(name, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module, name):
    return getattr(importlib.import_module(f"ilkit.{module}"), name)


def test_traced_layers_resolve(monkeypatch):
    tracing = _harness_module("tracing", monkeypatch)
    assert tracing.LAYERS
    for module, name, *_ in tracing.LAYERS:
        assert callable(_resolve(module, name)), f"ilkit.{module}.{name}"


def test_scoreboard_tasks_resolve(monkeypatch):
    gen = _harness_module("gen", monkeypatch)
    assert gen.SCOREBOARD_TASKS
    for name in gen.SCOREBOARD_TASKS:
        assert callable(_resolve("checks", name)), f"ilkit.checks.{name}"


def test_pass_runner_names_resolve():
    for module, name in (("extension", "build_ue_model"),
                         ("extension", "check_truth_theorem"),
                         ("frames", "validate")):
        assert callable(_resolve(module, name)), f"ilkit.{module}.{name}"


def test_traced_work_counts(monkeypatch):
    """Each layer's work count, read off a real call's positional
    arguments and result as the tracer reads it."""
    from ilkit.calculus import check_proof, derived_theorems
    from ilkit.extension import build_ue
    from ilkit.frames import chain
    from ilkit.pencil import nondefinability_demo

    proof = derived_theorems()["four"][1]
    expected = {
        "pencil.nondefinability_demo": ((), nondefinability_demo(m=1, depth=0), 1024),
        "extension.build_ue": ((chain(2),), build_ue(chain(2)), 4),
        "calculus.check_proof": ((proof,), check_proof(proof), len(proof.steps)),
    }
    tracing = _harness_module("tracing", monkeypatch)
    counted = {layer: work for _, _, layer, work in tracing.LAYERS if callable(work)}
    assert set(counted) == set(expected)
    for layer, (args, result, count) in expected.items():
        assert counted[layer](args, result) == count, layer
