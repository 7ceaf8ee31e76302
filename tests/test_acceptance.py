"""The acceptance gate: one test per criterion, each printing a
pass/fail line with its runtime (visible with pytest -s / on failure).

Every tolerance is exact (0 mismatches / 0 hard failures); the suites
behind the criteria live in hopad.harness and are seeded, so the whole
gate is reproducible byte for byte.  Criteria 1-9 run their suite at the
seed and bounds of `hopad verify --seed 20260808` and must reproduce its
committed report line, `checked=` and `verified=` counts included.
"""

import pathlib
import time

import hopad.harness as harness
from hopad.harness import SUITE_NAMES, run_suites

SEED = 20260808
GOLDEN_REPORT = pathlib.Path(__file__).parent / "golden" / f"verify-{SEED}.txt"
GOLDEN_LINES = {
    line.split()[0].removeprefix("suite="): line
    for line in GOLDEN_REPORT.read_text().splitlines()
}


def _criterion(number, name, budget_seconds, suites, check=None):
    start = time.time()
    report = run_suites(suites, seed=SEED)
    elapsed = time.time() - start
    status = "PASS" if report.ok else "FAIL"
    extra_failures = []
    if check is not None:
        extra_failures = check(report)
        if extra_failures:
            status = "FAIL"
    print(f"criterion {number} ({name}): {status} in {elapsed:.1f}s")
    for line in report.lines:
        print(f"    {line}")
    assert report.ok, report.text()
    assert report.lines == [GOLDEN_LINES[s] for s in suites]
    assert not extra_failures, extra_failures
    assert elapsed < budget_seconds, f"{elapsed:.1f}s exceeds the {budget_seconds}s budget"


def test_criterion_01_classification_grid_reproduction():
    _criterion(1, "classification grid reproduction, exact", 1.0, ["table1"])


def test_criterion_02_u_differential():
    _criterion(2, "recognizer/oracle differential", 30.0, ["u-differential"])


def test_criterion_03_classifier_equivalence():
    _criterion(3, "classifier equivalence", 2.0, ["classifier-equivalence"])


def test_criterion_04_run_descriptor_soundness():
    # the suite itself escalates unwitnessed single-pop items to hard,
    # so the fully-witnessed requirement on that machine rides on `ok`
    _criterion(4, "run/descriptor correspondence at bound 6", 5.0, ["run2type"])


def test_criterion_05_important_value_soundness():
    _criterion(5, "important-value correspondence, normalized runs", 5.0, ["idv"])


def test_criterion_06_origin_transfer():
    def soft_counted(report):
        line = report.lines[0]
        if "soft=" not in line:
            return ["missing soft count"]
        return []

    _criterion(6, "origin transfer at bound 5", 5.0, ["origin"], check=soft_counted)


def test_criterion_07_indistinguishability_transfer():
    _criterion(7, "indistinguishability transfer at bound 5", 5.0, ["idv-upper"])


def test_criterion_08_monoid_laws():
    _criterion(8, "monoid laws and homomorphism to length 4", 30.0, ["monoid-laws"])


def test_criterion_09_word_family_recurrence():
    _criterion(9, "recognizer/oracle agreement on the word family w_k", 30.0, ["w-recurrence"])


def test_criterion_10_deterministic_reports(monkeypatch):
    start = time.time()
    for name, value in (("SRC_BOUND", 4), ("WORD_LENGTH", 4), ("RANDOM_WORDS", 1000),
                        ("TYPED_MACHINES", 8), ("CORPUS_MACHINES", 8)):
        monkeypatch.setattr(harness, name, value)
    first = run_suites(list(SUITE_NAMES), seed=SEED, max_steps=5)
    second = run_suites(list(SUITE_NAMES), seed=SEED, max_steps=5)
    elapsed = time.time() - start
    identical = first.text() == second.text()
    status = "PASS" if identical and first.ok else "FAIL"
    print(f"criterion 10 (byte-identical reports under a fixed seed): {status} in {elapsed:.1f}s")
    assert first.ok, first.text()
    assert identical
