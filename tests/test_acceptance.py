"""End-to-end acceptance gate.

Each test exercises one headline capability at full advertised scale,
asserts its runtime budget where one is promised, and prints a single
PASS/FAIL line (visible under ``pytest -s`` or on failure) so the whole
gate reads as a scoreboard.
"""

import subprocess
import sys
import time

from ilkit import checks


def report(label, result):
    mark = "PASS" if result.ok else "FAIL"
    print(f"{mark} {label}: {result.detail} ({result.seconds:.2f}s)")
    assert result.ok, f"{label}: {result.detail}"


def test_frame_enumeration_exhaustive():
    r = checks.frame_enumeration()
    report("frame enumeration and validation", r)
    assert r.detail == "counts 1/3/34, all valid"
    assert r.seconds < 10


def test_axiom_schemas_frame_valid_everywhere():
    r = checks.axiom_soundness()
    report("axiom schemas frame-valid on all small frames", r)
    assert r.detail == "42472 mask instances + 6992 literal instances, 0 counterexamples"
    assert r.seconds < 1


def test_translated_axioms_denote_the_whole_frame():
    r = checks.translation_validity()
    report("translated axioms denote W + inclusion laws", r)
    assert r.detail == "71296 axiom valuations = W, 35502 inclusions"
    assert r.seconds < 0.5


def test_translation_matches_forcing():
    r = checks.translation_agreement()
    report("translation agrees with forcing", r)
    assert r.detail == "82 models x 297 formulas = 24354 cases"


def test_labeling_lemma_scoreboard():
    results = checks.label_lemma_scoreboard()
    assert len(results) == 13
    for r in results:
        report(f"labeling law [{r.name}]", r)
    names = [r.name for r in results]
    assert "min-set-reduction-oracle" in names
    assert "family-table-probe" in names
    # one measured span per block, on the first row the block checks
    spans = {r.name: r.seconds for r in results}
    assert spans["family-table-probe"] > 0
    assert spans["assuring-pushes-label-forward"] == 0.0


def test_extension_frozen_structure_and_caps():
    r = checks.extension_construction()
    report("extension construction", r)
    assert r.detail == ("chain(2) frozen; chain1:1 chain2:4 chain3:17 chain3-square:17 "
                        "fan2:11 fan2-sym:7 fan3:28 pencil-bad1:207 pencil-good1:696")


def test_extension_truth_transfer():
    r = checks.extension_truth()
    report("truth transfer between base and extension", r)
    assert r.detail == "6 corpus models x 297 formulas"
    assert r.seconds < 300


def test_extension_saturation():
    r = checks.saturation()
    report("extension saturation", r)
    assert r.detail == "9 corpus extensions, pool of 4; 38 frames label-saturated"


def test_witness_searches_complete():
    r = checks.witness_search()
    report("witness searches over all qualifying instances", r)
    assert r.detail == "3520 assured-successor + 824 negated instances"
    assert r.seconds < 1


def test_pencil_demo_cli():
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from ilkit.cli import main; sys.exit(main(sys.argv[1:]))",
         "pencil-demo", "--fan", "3", "--depth", "2"],
        capture_output=True, text=True)
    seconds = time.perf_counter() - t0
    ok = proc.returncode == 0
    mark = "PASS" if ok else "FAIL"
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    print(f"{mark} pencil demo CLI: {last} ({seconds:.2f}s)")
    assert ok, proc.stderr
    assert seconds < 120


def test_classical_baseline():
    r = checks.classical_baseline()
    report("classical extension baseline", r)


def test_proof_checking_stock_theorems():
    r = checks.proof_checking()
    report("stock derived proofs check", r)
    assert r.detail == "5 theorems: box-iff-rhd dia-rhd four rhd-mono rhd-refl"
