"""`src/tq` holds what a `tq` command runs: every function and method that
none of notes/reach.py's command lines reaches is kept here, with the
reason it stays.  A new unreached function fails this test until it is
deleted, reached by a command, or given a reason below."""

import ast
import subprocess
import sys
from pathlib import Path

from helpers import src_env

ROOT = Path(__file__).resolve().parents[1]

TRACED = "wrapped by perfbench/spans.py's TRACED, which names it until its dead spans go"
SHOWN = "shows the value in the message of a failing test"

KEPT = {
    "arith.prime_factors": TRACED,
    "arith.squarefree_kernel": TRACED,
    "biquadratic.euler_factor": TRACED,
    "biquadratic.frob_det_quotient": TRACED,
    "biquadratic.ramified_set": TRACED,
    "invariant.delta1_term": TRACED,
    "invariant.ts_representative": TRACED,
    "relk0.HomRep.inverse": TRACED,
    "lseries.l_prime_zero_lgamma": TRACED + ", and tests/fixtures/lseries_floats.json "
                                   "pins its floats",
    "relk0.v2": "the rank vector of a class, which acceptance criterion 7 reads on "
                "induced classes and ROADMAP item 5 puts in the per-prime report",
    "grouprings.GroupRingElem.__repr__": SHOWN,
    "relk0.HomRep.__repr__": SHOWN,
    "relk0.HomRep.__eq__": "tests compare representatives: criterion 2, ts_representative",
}


def test_unreached_functions_are_the_kept_ones():
    proc = subprocess.run([sys.executable, str(ROOT / "notes" / "reach.py")],
                          capture_output=True, text=True, timeout=120, env=src_env(),
                          cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == sorted(KEPT)


def test_no_notes_script_imports_a_traced_only_function():
    """No script under notes/ imports from `tq` a function that stays only
    for TRACED: each of those goes when perfbench's spans do, and a script
    that reads one would go stale with it."""
    traced = {name for name, reason in KEPT.items() if reason.startswith(TRACED)}
    found = []
    for path in sorted((ROOT / "notes").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("tq."):
                module = node.module.removeprefix("tq.")
                found += [f"{path.name}: {module}.{alias.name}" for alias in node.names
                          if f"{module}.{alias.name}" in traced]
    assert not found
