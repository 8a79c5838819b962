"""The scripts under notes/ that back notes/decisions.md, run as they are
documented and compared byte for byte with their recorded output."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).parent / "fixtures"


def test_per_prime_table_output():
    """notes/per_prime_table.py: 640 admissible pairs with d2 <= 100, 156
    nonzero; 942 fully decomposed odd primes, each contributing 3 through
    eps; 1 198 other primes of S; criterion 9 fails on (33, 42), (42, 57)
    and (57, 66)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "notes" / "per_prime_table.py")],
        capture_output=True, text=True, timeout=120, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (FIXTURES / "per_prime_table.txt").read_text()


OUTPUT_HASH = ("3277 command lines, sha256 "
               "b819e6a89597f8401136db2912bc2875ce8d9cc0cbf0f1711ccc1eaa85a9c94f")


def test_output_hash_is_pinned():
    """notes/output_hash.py: the stdout, stderr and exit code of its 3277
    command lines hash to the value pinned when the script was added: a
    change to `src` that keeps every output byte-identical keeps it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(ROOT / "notes" / "output_hash.py")],
                          capture_output=True, text=True, timeout=120, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == OUTPUT_HASH + "\n"


def test_line_coverage_runs():
    """notes/line_coverage.py on the example and group-law tests of
    tests/test_relk0.py, none of them a Hypothesis test: every stdout line
    names a statement of `src/tq`; a `relk0` statement that the tests run is
    not listed, and the first statement of `invariant.sweep`, which they
    never call, is."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "notes" / "line_coverage.py"), "-q",
         "-p", "no:cacheprovider", "tests/test_relk0.py",
         "-k", "examples or group_law"],
        capture_output=True, text=True, timeout=120, env=env, cwd=ROOT)
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
