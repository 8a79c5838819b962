import math
import random
from collections import Counter

import pytest
from sympy.external.ntheory import kronecker

from helpers import odd_primes_up_to
from tq import arith
from tq.arith import (MR_BOUND, factorization, hilbert_symbol, is_prime,
                      is_squarefree, kronecker_symbol, prime_factors,
                      squarefree_kernel)
from tq.errors import InputError


def test_is_prime_small():
    primes = [p for p in range(60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))
    assert [n for n in range(10 ** 5) if is_prime(n)] \
        == [n for n in range(10 ** 5) if trial(n)]


def test_is_prime_rejects_strong_pseudoprimes():
    # strong pseudoprimes to the bases 2, 3, 5, 7, and to the first 12 primes
    assert not is_prime(3_215_031_751)
    assert not is_prime(3_825_123_056_546_413_051)
    assert is_prime(999_999_999_999_999_989)


def test_is_prime_refuses_beyond_proven_bound():
    with pytest.raises(InputError):
        is_prime(MR_BOUND)


def test_squarefree():
    assert is_squarefree(1) and is_squarefree(2) and is_squarefree(30)
    assert not is_squarefree(4) and not is_squarefree(12) and not is_squarefree(0)
    assert is_squarefree(-5) and not is_squarefree(-8)


def test_squarefree_kernel():
    assert squarefree_kernel(65) == 65
    assert squarefree_kernel(5 * 13 * 13) == 5
    assert squarefree_kernel(2 * 17) == 34
    assert squarefree_kernel(21 * 33) == 77
    assert squarefree_kernel(-12) == -3
    with pytest.raises(InputError):
        squarefree_kernel(0)


def test_prime_factors():
    assert prime_factors(60) == [2, 3, 5]
    assert prime_factors(-65) == [5, 13]
    assert prime_factors(1) == []


def trial_factorization(n):
    out = Counter()
    q = 2
    while q * q <= n:
        while n % q == 0:
            n //= q
            out[q] += 1
        q += 1
    if n > 1:
        out[n] += 1
    return out


def rho_factorization(n):
    """The factorization of n >= 1 by `_pollard_brent` splits alone, with
    no trial division."""
    if n == 1:
        return Counter()
    if is_prime(n):
        return Counter({n: 1})
    g = arith._pollard_brent(n)
    assert 1 < g < n and n % g == 0, n
    return rho_factorization(g) + rho_factorization(n // g)


def test_rho_matches_trial_division_below_1e5():
    sample = list(range(1, 2000)) + random.Random(7).sample(range(2000, 10 ** 5), 3000)
    for n in sample:
        assert rho_factorization(n) == trial_factorization(n), n
        assert factorization(n) == trial_factorization(n), n


def test_factorization_of_large_semiprimes():
    primes = [999_999_937, 1_000_000_007, 1_000_000_009]
    for i, p in enumerate(primes):
        for q in primes[i:]:
            n = p * q
            assert factorization(n) == Counter([p, q]), (p, q)
            assert prime_factors(-n) == sorted({p, q})
            assert is_squarefree(n) == (p != q)
    assert factorization(999_999_999_999_999_989) == {999_999_999_999_999_989: 1}
    assert squarefree_kernel(2 * 3 ** 2 * 1_000_000_007 ** 2) == 2


def test_small_n_need_only_trial_division(monkeypatch):
    """Every |n| below the square of the first prime past TRIAL_BOUND is
    factored by trial division alone: neither Miller-Rabin nor rho runs."""
    def refuse(n):
        raise AssertionError(f"{n} left the trial-division stage")
    monkeypatch.setattr(arith, "is_prime", refuse)
    monkeypatch.setattr(arith, "_pollard_brent", refuse)
    for n in [299_993, 547 * 541, 547 ** 2, 2 * 149_993, 1009 ** 2 - 1] \
            + random.Random(11).sample(range(2, 3 * 10 ** 5), 2000):
        assert factorization(n) == trial_factorization(n), n


def test_odd_primes_up_to():
    assert odd_primes_up_to(20) == [3, 5, 7, 11, 13, 17, 19]


def brute_legendre(a, p):
    a %= p
    if a == 0:
        return 0
    return 1 if any((x * x) % p == a for x in range(1, p)) else -1


def test_kronecker_matches_legendre_at_odd_primes():
    for p in odd_primes_up_to(40):
        for a in range(-30, 31):
            assert kronecker_symbol(a, p) == brute_legendre(a, p), (a, p)


def test_kronecker_multiplicative_in_denominator():
    for a in (3, 5, -7, 11, 15):
        for m in (3, 5, 7, 9, 15):
            for n in (3, 5, 11, 21):
                assert (kronecker_symbol(a, m * n)
                        == kronecker_symbol(a, m) * kronecker_symbol(a, n))


# the primes of the reach line near 10^18, and the largest prime below
# MR_BOUND, the largest extra prime that `--extra-s` accepts
REACH_PRIMES = (999_999_999_999_999_989, 999_999_999_999_999_877,
                3_317_044_064_679_887_385_961_813)


def test_kronecker_matches_sympy_at_the_moduli_tq_reaches():
    """(a/n) against sympy's Kronecker symbol at the largest primes that
    `tq` reaches and at odd composites, for a of either sign, small and
    near n, and multiples of a prime of n."""
    rng = random.Random(39)
    moduli = REACH_PRIMES + (3 * 5 * 7 * 11 * 13, 9 * 25 * 49, 3 ** 15,
                             REACH_PRIMES[0] * REACH_PRIMES[1], 1009 * REACH_PRIMES[2])
    values = []
    for n in moduli:
        numerators = ([*range(-12, 13), n - 1, n + 2, 3 * n, -n, *REACH_PRIMES]
                      + [rng.randrange(-n, n) for _ in range(40)])
        for a in numerators:
            values.append(kronecker_symbol(a, n))
            assert values[-1] == kronecker(a, n), (a, n)
    assert set(values) == {-1, 0, 1}


@pytest.mark.parametrize("n", [0, -3, 2, 8])
def test_kronecker_rejects_n_that_is_not_odd_and_positive(n):
    with pytest.raises(InputError):
        kronecker_symbol(5, n)


def primitive_zero_mod(a, b, p, k):
    """Whether z^2 = a x^2 + b y^2 has a solution mod p^k with x, y, z not
    all divisible by p, read from the squares mod p^k, each marked by
    whether it is the square of a unit."""
    m = p ** k
    squares = {(x * x % m, x % p != 0) for x in range(m)}
    unit_squares = {sq for sq, unit in squares if unit}
    all_squares = {sq for sq, _ in squares}
    return any((a * sx + b * sy) % m in (all_squares if ux or uy else unit_squares)
               for sx, ux in squares for sy, uy in squares)


def test_hilbert_symbol_is_its_definition():
    """(a, b)_p = 1 exactly when z^2 = a x^2 + b y^2 has a nonzero
    solution in Q_p, checked by brute force for squarefree 0 < |a|, |b| <= 30
    at p = 2, 3, 5 and 7 on primitive solutions mod p^k, k = 4 at 2 and
    k = 2 at odd p.  A zero in Q_p, scaled to be primitive, reduces to one
    mod p^k.  Conversely, by Hensel's lemma (Serre, A Course in Arithmetic,
    ch. II, 2.2, Cor. 2 of Thm. 1) a zero mod p^n lifts to Z_p when some
    partial derivative 2z, 2ax, 2by has valuation j with 2j < n.  For
    squarefree a, b a primitive zero mod p^k has one unless p divides z and
    the coefficient of each unit among x, y.  If p divides one coefficient
    only, the other variable is then divisible by p too, and the zero fails
    mod p^2 (mod 4 at 2) by one power of p; if p divides both, the form
    divided by p, a' x^2 + b' y^2 - p z'^2, has such a derivative at the
    zero mod p^(k-1).  One power of p fewer does not suffice: mod 8,
    (2, 6)_2 = -1 has a primitive zero, and mod 3 so does (2, 3)_3 = -1."""
    ds = [d for n in range(1, 31) if is_squarefree(n) for d in (n, -n)]
    for p, k in ((2, 4), (3, 2), (5, 2), (7, 2)):
        for a in ds:
            for b in ds:
                assert (hilbert_symbol(a, b, p) == 1) == primitive_zero_mod(a, b, p, k), \
                    (a, b, p)
    assert primitive_zero_mod(2, 6, 2, 3) and hilbert_symbol(2, 6, 2) == -1
    assert primitive_zero_mod(2, 3, 3, 1) and hilbert_symbol(2, 3, 3) == -1


def test_hilbert_symbol_product_formula():
    """Hilbert reciprocity (Serre, ch. III, Thm. 3): for every nonzero a, b
    in [-60, 60], squares and powers of p included, the product of
    (a, b)_p over the primes p of 2ab, where alone it can be -1, and of
    (a, b)_inf, -1 exactly when a and b are both negative, is 1."""
    for a in range(-60, 61):
        for b in range(-60, 61):
            if a and b:
                at_inf = -1 if a < 0 and b < 0 else 1
                assert at_inf * math.prod(hilbert_symbol(a, b, p)
                                          for p in prime_factors(2 * a * b)) == 1, (a, b)


@pytest.mark.parametrize("a, b, p", [(0, 3, 3), (5, 0, 2), (0, 0, 5),
                                     (3, 5, 1), (3, 5, 0), (3, 5, -3)])
def test_hilbert_symbol_rejects_zero_and_p_below_2(a, b, p):
    with pytest.raises(InputError, match="Hilbert symbol"):
        hilbert_symbol(a, b, p)
