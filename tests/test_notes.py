"""The scripts under notes/ that back notes/decisions.md, run as they are
documented and compared byte for byte with their recorded output."""

import re
import subprocess
import sys
from pathlib import Path

from helpers import src_env

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).parent / "fixtures"


def test_per_prime_table_output():
    """notes/per_prime_table.py: 640 admissible pairs with d2 <= 100, 156
    nonzero; 942 fully decomposed odd primes, each contributing 3 through
    eps; 1 198 other primes of S; criterion 9 fails on (33, 42), (42, 57)
    and (57, 66)."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "notes" / "per_prime_table.py")],
        capture_output=True, text=True, timeout=120, env=src_env(), cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (FIXTURES / "per_prime_table.txt").read_text()


OUTPUT_HASH = ("3277 command lines, sha256 "
               "6efcb712edaff82a98b8dac036a15efdebc06fd93227ccf81df44b6c455fb709")


def test_output_hash_is_pinned():
    """notes/output_hash.py: the stdout, stderr and exit code of its 3277
    command lines hash to the pinned value: a change to `src` that keeps
    every output byte-identical keeps it.  It was re-pinned once, when the
    half-range log-sine sum moved the |ratio^2 - 4/f| figures that
    `lemma38 --conductor-max 300` prints, and no other line's output."""
    proc = subprocess.run([sys.executable, str(ROOT / "notes" / "output_hash.py")],
                          capture_output=True, text=True, timeout=120, env=src_env(),
                          cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == OUTPUT_HASH + "\n"


def test_line_coverage_runs():
    """notes/line_coverage.py on the example and group-law tests of
    tests/test_relk0.py, none of them a Hypothesis test: every stdout line
    names a statement of `src/tq`; a `relk0` statement that the tests run is
    not listed, and the first statement of `invariant.sweep`, which they
    never call, is."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "notes" / "line_coverage.py"), "-q",
         "-p", "no:cacheprovider", "tests/test_relk0.py",
         "-k", "examples or group_law"],
        capture_output=True, text=True, timeout=120, env=src_env(), cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines and all(re.fullmatch(r"src/tq/\w+\.py:[1-9]\d*: \S.*", line)
                         for line in lines), lines[:5]
    shown = {line.split(": ", 1)[1] for line in lines}
    assert "return odd_unit(q.numerator) * odd_unit(q.denominator) % 4" not in shown
    assert 'raise InputError("dmax must be at least 3")' in shown
    assert "statements inside functions in src/tq ran" in proc.stderr


def run_startup_times(*flags):
    return subprocess.run(
        [sys.executable, str(ROOT / "notes" / "startup_times.py"), *flags, "-n", "1",
         str(ROOT / "src")],
        capture_output=True, text=True, timeout=120, cwd=ROOT)


def test_startup_times_runs():
    """notes/startup_times.py with one timed round on this repository's
    `src`, printing the gap of `sweep` and of `compute` above its floor;
    its timings are not checked."""
    proc = run_startup_times()
    assert proc.returncode == 0, proc.stderr
    gaps = [line.split()[:3] for line in proc.stdout.splitlines() if " - " in line]
    assert gaps == [["sweep", "-", "import"], ["compute", "-", "import"]]


def test_startup_times_runs_under_no_site():
    """notes/startup_times.py -S, every interpreter under `python3 -S`."""
    proc = run_startup_times("-S")
    assert proc.returncode == 0, proc.stderr


def test_cap_times_runs():
    """notes/cap_times.py with one timed round at low caps on this
    repository's `src`; its timings are not checked."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "notes" / "cap_times.py"), "-n", "1",
         "--sweep-max", "30", "--conductor-max", "60", str(ROOT / "src")],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "1 rounds; min / median s"
    assert [line.split()[:3] for line in lines[1:]] == [
        ["sweep", "--max", "30"], ["lemma38", "--conductor-max", "60"]]
