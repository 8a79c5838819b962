import math

import pytest
from hypothesis import given, settings, strategies as st

from helpers import l_one_series
from tq.arith import is_squarefree, kronecker_symbol
from tq.biquadratic import field_data, quad_field_disc
from tq.errors import InputError
from tq.invariant import leading_ratio_check
from tq.lseries import (_char_table, l_one_logsin, l_prime_zero_lgamma,
                        quad_char_values)


def even_discs_up_to(bound):
    """Fundamental discriminants of real quadratic fields up to bound."""
    out = []
    for d in range(2, bound + 1):
        if is_squarefree(d):
            disc = quad_field_disc(d)
            if disc <= bound:
                out.append(disc)
    return sorted(set(out))


def test_quad_char_basics():
    chi = quad_char_values(5)
    assert chi[1:5] == [1, -1, -1, 1]
    chi8 = quad_char_values(8)
    assert [chi8[n % 8] for n in (1, 3, 5, 7)] == [1, -1, -1, 1]


@pytest.mark.parametrize("discs", [
    range(-600, 601),
    # the ten largest real fundamental discriminants up to 16000
    [15973, 15976, 15977, 15980, 15981, 15985, 15989, 15992, 15996, 15997],
    # conductors near 7000, each with a different set of primes of D
    [*range(-7010, -6999), *range(7000, 7011)],
])
def test_quad_char_values_equals_kronecker_table(discs):
    # every integer, not only fundamental discriminants: negative ones,
    # non-fundamental ones such as 12 and 48, 0 and +-1
    for disc in discs:
        assert quad_char_values(disc) == [kronecker_symbol(disc, n)
                                          for n in range(abs(disc))], disc


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_quad_char_values_equals_kronecker_at_drawn_indices(data):
    # disc = +-2^e s^2 m with m odd and |disc| <= 10^5: both signs, every
    # power of two up to 2^5, odd square factors, and in m primes both 1
    # and 3 mod 4, so that every factor of the table's build is drawn
    e = data.draw(st.integers(0, 5), label="e")
    s = data.draw(st.sampled_from([1, 3, 5, 7]), label="s")
    scale = 2 ** e * s * s
    m = 2 * data.draw(st.integers(0, (10 ** 5 // scale - 1) // 2), label="m") + 1
    disc = data.draw(st.sampled_from([1, -1]), label="sign") * scale * m
    chi = quad_char_values(disc)
    assert len(chi) == abs(disc)
    ns = data.draw(st.lists(st.integers(0, abs(disc) - 1), min_size=1, max_size=40),
                   label="n")
    # and n = 3 * 2^k, where (-1/n) = -1 at every power of two
    for n in ns + [3 << k for k in range(abs(disc).bit_length()) if 3 << k < abs(disc)]:
        assert chi[n] == kronecker_symbol(disc, n), (disc, n)


def test_quad_char_values_gives_a_fresh_list():
    # mutating one result leaves the memoised table alone
    chi = quad_char_values(13)
    chi[1:] = [0] * 12
    assert quad_char_values(13) == [kronecker_symbol(13, n) for n in range(13)]


def test_leading_ratio_check_builds_one_table():
    _char_table.cache_clear()
    check = leading_ratio_check("chi1", field_data(8005, 3))
    assert check.ok
    assert _char_table.cache_info().misses == 1


def test_character_even_and_periodic():
    for disc in even_discs_up_to(40):
        chi = quad_char_values(disc)
        f = disc
        assert sum(chi) == 0
        for a in range(1, f):
            assert chi[a] == chi[f - a], (disc, a)  # even character


def test_series_validates_logsin_oracle():
    # the direct series (with analytic tail) and the log-sine closed form
    # must agree to well below the downstream tolerance
    for disc in even_discs_up_to(60):
        series = l_one_series(disc)
        closed = l_one_logsin(disc)
        assert abs(series - closed) < 1e-10, (disc, series, closed)


def test_l_one_chi5_class_number_value():
    # independent closed form: (2/sqrt 5) log((1+sqrt 5)/2)
    golden = (1 + math.sqrt(5)) / 2
    assert abs(l_one_logsin(5) - 2 * math.log(golden) / math.sqrt(5)) < 1e-13


def test_l_prime_zero_chi5_value():
    # L'(0, chi_5) = log((1+sqrt 5)/2)
    golden = (1 + math.sqrt(5)) / 2
    assert abs(l_prime_zero_lgamma(5) - math.log(golden)) < 1e-13


def test_ratio_squared_matches_four_over_conductor():
    for disc in even_discs_up_to(60):
        ratio = l_one_logsin(disc) / l_prime_zero_lgamma(disc)
        assert abs(ratio * ratio - 4.0 / disc) < 1e-12, disc


def test_rejects_trivial_or_odd():
    with pytest.raises(InputError):
        l_one_logsin(1)
    with pytest.raises(InputError):
        l_prime_zero_lgamma(-3)


@pytest.mark.parametrize("disc", [9, 16, 20, 25, 32, 45, 48])
@pytest.mark.parametrize("evaluator", [l_one_logsin, l_prime_zero_lgamma, l_one_series])
def test_rejects_non_fundamental_discriminants(evaluator, disc):
    # their characters are not primitive: 9 gives the principal character
    # mod 3, 20 the character of 5 lifted to modulus 20
    with pytest.raises(InputError, match="fundamental"):
        evaluator(disc)


def test_accepts_fundamental_discriminant_twelve():
    # 12 = 4 * 3 is the discriminant of Q(sqrt 3), with class number 1 and
    # fundamental unit 2 + sqrt 3: L(1, chi_12) = log(2 + sqrt 3) / sqrt 3
    assert abs(l_one_logsin(12) - math.log(2 + math.sqrt(3)) / math.sqrt(3)) < 1e-13
