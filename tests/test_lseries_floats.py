"""Bit-exact floats of the two closed-form L-series evaluators, pinned in
fixtures/lseries_floats.json as `float.hex` strings.

The pinned characters are every real fundamental discriminant up to 400
and the ten largest up to 16000.  A change meant to leave the evaluators'
arithmetic alone (say, to how the character table is built) must keep every
value bit-identical.  When a change to the floats is intended, regenerate
the fixture with

    PYTHONPATH=src python tests/test_lseries_floats.py

and review its diff.

The pinned log-Gamma floats also check h+ R+ / 2 from the reduced forms,
the L'(0, chi) that `leading_ratio_check` reads, over the same discs.
"""

import json
from pathlib import Path

import pytest

from helpers import real_fundamental_discs
from tq.lseries import l_one_logsin, l_prime_zero_lgamma, narrow_class_number_and_regulator

FIXTURE = Path(__file__).parent / "fixtures" / "lseries_floats.json"


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



def test_class_number_formula_matches_the_pinned_log_gamma_floats(pinned):
    # L'(0, chi) = h+ R+ / 2 from the reduced forms, which
    # leading_ratio_check reads, against the pinned log-Gamma sum of every
    # pinned disc, up to 15997, the top of the lseries benchmark's range,
    # within the relative bound of test_evaluators_match_class_number_formula
    assert len(pinned) == 130 and max(map(int, pinned)) == 15997
    for disc, floats in pinned.items():
        h, reg = narrow_class_number_and_regulator(int(disc))
        l_prime = float.fromhex(floats["l_prime_zero_lgamma"])
        assert abs(h * reg / 2 - l_prime) / l_prime <= 4 * int(disc) * 2.0 ** -52, disc


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps({str(d): current_floats(d) for d in DISCS},
                                  indent=1) + "\n")
