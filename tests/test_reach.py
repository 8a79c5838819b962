"""`src/tq` holds what a `tq` command runs: every function and method that
none of notes/reach.py's command lines reaches is kept here, with the
reason it stays.  A new unreached function fails this test until it is
deleted, reached by a command, or given a reason below."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TRACED = "wrapped by perfbench/spans.py's TRACED, which names it until its dead spans go"
CRITERION_7 = "acceptance criterion 7: induction from a subgroup of order <= 2"
CRITERION_2 = "acceptance criterion 2: a seeded splitting of a perfect complex"
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
    "relk0.induce_from_subgroup": CRITERION_7,
    "relk0._validate_subgroup": CRITERION_7,
    "relk0.v2": CRITERION_7,
    "perfectcomplex._random_fraction": CRITERION_2,
    "perfectcomplex._shift": CRITERION_2,
    "grouprings.GroupRingElem.__repr__": SHOWN,
    "relk0.HomRep.__repr__": SHOWN,
    "relk0.HomRep.__eq__": "tests compare representatives: criterion 2, ts_representative",
}


def test_unreached_functions_are_the_kept_ones():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(ROOT / "notes" / "reach.py")],
                          capture_output=True, text=True, timeout=120, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == sorted(KEPT)
