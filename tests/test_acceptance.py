"""Acceptance suite: one test per criterion, each printing its pass/fail line.

All arithmetic is exact rational, so every criterion is checked with
zero-tolerance equality.  Criterion 10 runs the installed command twice in
separate processes and compares the reports byte for byte, with each other
and with ``tests/golden/selfcheck.txt``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from microsympl import acceptance

SEED = 42
_SRC = str(Path(__file__).resolve().parents[1] / "src")
_GOLDEN = Path(__file__).resolve().parent / "golden" / "selfcheck.txt"


def _assert_criterion(result):
    print(result.line())
    assert result.passed, result.line()


@pytest.fixture(scope="module")
def category_fixture():
    return acceptance._category_fixture(SEED)


def test_criterion_01_category_laws(category_fixture):
    _assert_criterion(acceptance.criterion_category_laws(category_fixture))


def test_criterion_02_closure(category_fixture):
    _assert_criterion(acceptance.criterion_closure(category_fixture))


def test_criterion_03_lift_functoriality():
    _assert_criterion(acceptance.criterion_lift_functoriality(SEED))


def test_criterion_04_transversality():
    _assert_criterion(acceptance.criterion_transversality(SEED))


def test_criterion_05_linear_layer():
    _assert_criterion(acceptance.criterion_linear_layer(SEED))


def test_criterion_06_monoidal_axioms():
    _assert_criterion(acceptance.criterion_monoidal(SEED))


def test_criterion_07_operad_axioms():
    _assert_criterion(acceptance.criterion_operad(SEED))


def test_criterion_08_germ_roundtrip():
    _assert_criterion(acceptance.criterion_germ_roundtrip(SEED))


def test_criterion_09_pointwise_composition():
    _assert_criterion(acceptance.criterion_pointwise_composition(SEED))


def test_criterion_10_determinism():
    cmd = [sys.executable, "-m", "microsympl.cli", "selfcheck", "--seed", str(SEED)]
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    first = subprocess.run(cmd, capture_output=True, timeout=600, env=env)
    second = subprocess.run(cmd, capture_output=True, timeout=600, env=env)
    assert first.returncode == 0, first.stdout.decode() + first.stderr.decode()
    assert second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout == _GOLDEN.read_bytes()
    line = ("criterion 10 determinism: pass (byte-identical selfcheck reports "
            "across two runs)")
    print(line)
    assert b"criterion 10 determinism: pass" in first.stdout
