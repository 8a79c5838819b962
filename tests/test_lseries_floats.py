"""Bit-exact floats of the two closed-form L-series evaluators, pinned in
fixtures/lseries_floats.json as `float.hex` strings.

The pinned characters are every real fundamental discriminant up to 400
and the ten largest up to 16000.  A change meant to leave the evaluators'
arithmetic alone (say, to how the character table is built) must keep every
value bit-identical.  When a change to the floats is intended, regenerate
the fixture with

    PYTHONPATH=src python tests/test_lseries_floats.py

and review its diff.
"""

import json
from pathlib import Path

import pytest

from tq.arith import is_squarefree
from tq.biquadratic import quad_field_disc
from tq.lseries import l_one_logsin, l_prime_zero_lgamma

FIXTURE = Path(__file__).parent / "fixtures" / "lseries_floats.json"


def real_fundamental_discs(bound: int) -> list[int]:
    return sorted({quad_field_disc(d) for d in range(2, bound + 1)
                   if is_squarefree(d) and quad_field_disc(d) <= bound})


DISCS = real_fundamental_discs(400) + real_fundamental_discs(16000)[-10:]


def current_floats(disc: int) -> dict:
    return {"l_one_logsin": l_one_logsin(disc).hex(),
            "l_prime_zero_lgamma": l_prime_zero_lgamma(disc).hex()}


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_disc(pinned):
    assert sorted(pinned, key=int) == [str(d) for d in DISCS]


@pytest.mark.parametrize("disc", DISCS)
def test_evaluators_are_bit_identical(pinned, disc):
    assert current_floats(disc) == pinned[str(disc)]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps({str(d): current_floats(d) for d in DISCS},
                                  indent=1) + "\n")
