import math

import pytest
from hypothesis import assume, given, settings, strategies as st
from sympy.external.ntheory import kronecker

import tq.lseries
from helpers import (even_table_that_is_no_character, l_one_series, odd_primes_up_to,
                     real_fundamental_discs)
from tq.arith import is_squarefree
from tq.biquadratic import field_data
from tq.errors import InputError, TqError
from tq.invariant import leading_ratio_check
from tq.lseries import (l_one_logsin, l_prime_zero_lgamma,
                        narrow_class_number_and_regulator, quad_char_values)


def is_fundamental(disc):
    """The definition of a fundamental discriminant, written out: disc = 1
    mod 4 squarefree, or disc = 4m with m = 2 or 3 mod 4 squarefree."""
    m = disc // 4
    return (disc % 4 == 1 and is_squarefree(disc)
            or disc % 4 == 0 and m % 4 in (2, 3) and is_squarefree(m))


def test_quad_char_basics():
    chi = quad_char_values(5)
    assert list(chi[1:5]) == [1, -1, -1, 1]
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
    # the fundamental discriminants > 1 of each range, every 2-part among
    # them, against sympy's Kronecker symbol at every n
    for disc in [d for d in discs if d > 1 and is_fundamental(d)]:
        assert list(quad_char_values(disc)) == [kronecker(disc, n)
                                                for n in range(abs(disc))], disc


ODD_PRIMES = odd_primes_up_to(10 ** 5 // 8)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_quad_char_values_equals_kronecker_at_drawn_indices(data):
    # disc <= 10^5 drawn as a product of distinct prime discriminants:
    # p* = (-1)^((p-1)/2) p at odd primes p, both 1 and 3 mod 4, and the
    # 2-part 1, -4, 8 or -8 whose sign makes disc positive, so that every
    # factor of the table's build is drawn
    star, room = 1, 10 ** 5 // 8
    for _ in range(data.draw(st.integers(0, 4), label="k")):
        primes = [p for p in ODD_PRIMES if p <= room and star % p]
        if not primes:
            break
        p = data.draw(st.sampled_from(primes), label="p")
        star *= p if p % 4 == 1 else -p
        room //= p
    disc = star * data.draw(st.sampled_from([1, 8] if star > 0 else [-4, -8]), label="two")
    assume(disc > 1)
    chi = quad_char_values(disc)
    assert len(chi) == disc
    ns = data.draw(st.lists(st.integers(0, disc - 1), min_size=1, max_size=40), label="n")
    for n in ns:
        assert chi[n] == kronecker(disc, n), (disc, n)


def test_quad_char_values_is_immutable():
    # the table is a tuple, which no caller can change
    chi = quad_char_values(13)
    with pytest.raises(TypeError):
        chi[1:] = [0] * 12
    assert list(quad_char_values(13)) == [kronecker(13, n) for n in range(13)]


def test_leading_ratio_check_builds_one_table(monkeypatch):
    # and factors D once in each of its two evaluators
    builds, factored = [], []
    table, factorization = tq.lseries.quad_char_values, tq.lseries.factorization
    monkeypatch.setattr(tq.lseries, "quad_char_values",
                        lambda disc: builds.append(disc) or table(disc))
    monkeypatch.setattr(tq.lseries, "factorization",
                        lambda n: factored.append(n) or factorization(n))
    check = leading_ratio_check("chi1", field_data(8005, 3))
    assert check.ok
    assert builds == [8005] and factored == [8005, 8005]


def test_character_even_and_periodic():
    for disc in real_fundamental_discs(40):
        chi = quad_char_values(disc)
        f = disc
        assert sum(chi) == 0
        for a in range(1, f):
            assert chi[a] == chi[f - a], (disc, a)  # even character


def test_series_validates_logsin_oracle():
    # the direct series (with analytic tail) and the log-sine closed form
    # must agree to well below the downstream tolerance
    for disc in real_fundamental_discs(60):
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
    for disc in real_fundamental_discs(60):
        ratio = l_one_logsin(disc) / l_prime_zero_lgamma(disc)
        assert abs(ratio * ratio - 4.0 / disc) < 1e-12, disc


def test_rejects_trivial_or_odd():
    with pytest.raises(InputError):
        l_one_logsin(1)
    with pytest.raises(InputError):
        l_prime_zero_lgamma(-3)


@pytest.mark.parametrize("disc", [9, 16, 20, 25, 32, 45, 48])
@pytest.mark.parametrize("evaluator", [quad_char_values, l_one_logsin, l_prime_zero_lgamma,
                                       l_one_series, narrow_class_number_and_regulator])
def test_rejects_non_fundamental_discriminants(evaluator, disc):
    # their characters are not primitive: 9 gives the principal character
    # mod 3, 20 the character of 5 lifted to modulus 20; the forms of 20
    # are those of an order of Q(sqrt 5), and at a square rho can reach a
    # form with c = 0
    with pytest.raises(InputError, match="fundamental"):
        evaluator(disc)


def test_accepts_fundamental_discriminant_twelve():
    # 12 = 4 * 3 is the discriminant of Q(sqrt 3), with class number 1 and
    # fundamental unit 2 + sqrt 3: L(1, chi_12) = log(2 + sqrt 3) / sqrt 3
    assert abs(l_one_logsin(12) - math.log(2 + math.sqrt(3)) / math.sqrt(3)) < 1e-13


def class_number_formula_errors(disc):
    """The relative errors of the two evaluators at disc against Dirichlet's
    class number formula, L(1, chi) = h+ R+ / sqrt(D) and
    L'(0, chi) = h+ R+ / 2, in units of D * 2^-52."""
    h, reg = narrow_class_number_and_regulator(disc)
    unit = disc * 2.0 ** -52
    l_one, l_prime = h * reg / math.sqrt(disc), h * reg / 2
    return (abs(l_one_logsin(disc) - l_one) / l_one / unit,
            abs(l_prime_zero_lgamma(disc) - l_prime) / l_prime / unit)


def test_narrow_class_numbers_and_regulators():
    # Q(sqrt 5): h+ = 1, and the totally positive fundamental unit is
    # phi^2, phi = (1 + sqrt 5)/2; Q(sqrt 3) has fundamental unit 2 + sqrt 3
    # of norm 1, so h+ = 2h = 2; Q(sqrt 229) has class number 3
    h5, reg5 = narrow_class_number_and_regulator(5)
    assert h5 == 1 and abs(reg5 - 2 * math.log((1 + math.sqrt(5)) / 2)) < 1e-15
    h12, reg12 = narrow_class_number_and_regulator(12)
    assert h12 == 2 and abs(reg12 - math.log(2 + math.sqrt(3))) < 1e-15
    assert narrow_class_number_and_regulator(229)[0] == 3


def test_evaluators_match_class_number_formula():
    discs = real_fundamental_discs(2000)
    assert len(discs) == 607
    for disc in discs:
        assert max(class_number_formula_errors(disc)) <= 4, disc


def test_class_number_formula_rejects_an_even_table_that_is_no_character(monkeypatch):
    # swap a value 1 and a value -1 of chi_101 together with their
    # reflections: the table stays even, +-1 off 0, with zero sum, so the
    # ratio of the two sums over it would still be 2/sqrt(101), but
    # neither sum is an L-value, and the ratio check, which reads
    # L'(0, chi) from the reduced forms, fails
    disc = 101
    chi = even_table_that_is_no_character(disc)
    monkeypatch.setattr(tq.lseries, "quad_char_values", lambda d: chi)
    ratio = l_one_logsin(disc) / l_prime_zero_lgamma(disc)
    assert abs(ratio * ratio - 4 / disc) < 1e-12
    assert not leading_ratio_check("chi1", field_data(101, 2)).ok
    # both miss the bound of test_evaluators_match_class_number_formula,
    # each by a relative error of 0.46
    assert min(class_number_formula_errors(disc)) > 4


@pytest.mark.parametrize("disc", [-3, -4, -15, 0, 1])
def test_forms_route_rejects_discriminants_below_two(disc):
    # a negative disc would reach math.isqrt, which takes no negative int
    with pytest.raises(InputError, match="fundamental"):
        narrow_class_number_and_regulator(disc)


def test_rho_leaving_the_reduced_forms_is_a_tq_error(monkeypatch):
    # with the check on disc bypassed, rho at the square 25 reaches
    # (-2, 5, 0), which is no reduced form: a TqError, not a KeyError
    monkeypatch.setattr(tq.lseries, "_prime_discriminants", lambda disc: (1, []))
    with pytest.raises(TqError, match="rho left the reduced forms of discriminant 25"):
        narrow_class_number_and_regulator(25)


class Accepted(Exception):
    """A route's check passed."""


def test_every_route_accepts_exactly_the_fundamental_discriminants(monkeypatch):
    # the check stops each route once it passes, so that no table of the
    # 12000-odd fundamental discriminants up to 40000 is built; a route
    # that ran past it without the check would fail here
    check = tq.lseries._prime_discriminants

    def stop_when_accepted(disc):
        check(disc)
        raise Accepted

    monkeypatch.setattr(tq.lseries, "_prime_discriminants", stop_when_accepted)
    discs = range(-50, 40001)
    expected = [disc for disc in discs if disc > 1 and is_fundamental(disc)]
    for route in (quad_char_values, l_one_logsin, l_prime_zero_lgamma,
                  narrow_class_number_and_regulator):
        accepted = []
        for disc in discs:
            try:
                route(disc)
            except Accepted:
                accepted.append(disc)
            except InputError:
                continue
            else:
                pytest.fail(f"{route.__name__}({disc}) ran without its check")
        assert accepted == expected, route.__name__
