"""Floating-point evaluation of Dirichlet L-functions of real primitive
even characters (the only place in the package where floats appear).

For a primitive quadratic character chi of conductor f = D > 0:

  * L(1, chi)  = -(1/sqrt(f)) * sum_{a=1}^{f-1} chi(a) log(2 sin(pi a / f))
  * L'(0, chi) =  sum_{a=1}^{f-1} chi(a) lgamma(a / f)

(the Hurwitz zeta expansion around s = 0 kills the constant terms because
sum chi(a) = 0 and, for even chi, sum chi(a) a = 0 pairs off), and, by
Dirichlet's class number formula, L'(0, chi) = h+ R+ / 2, with the narrow
class number h+ and narrow regulator R+ read from the reduced forms of
discriminant D (`narrow_class_number_and_regulator`), which reads no table
and loops over far fewer than f values.  `invariant.leading_ratio_check`
divides the log-sine sum by h+ R+ / 2; `l_prime_zero_lgamma` is not on its
path, and its floats stay pinned with those of `l_one_logsin`.

`l_one_logsin` sums the log-sine form over half the residues.  As
sin(pi (f-a)/f) = sin(pi a/f), the terms at a and f - a share one
logarithm, and when f is even the term at a = f/2 is chi(f/2) log 2, as
sin(pi/2) = 1:

  sum_{a=1}^{f-1} chi(a) log(2 sin(pi a / f))
    = sum_{1 <= a < f/2} (chi(a) + chi(f-a)) log(2 sin(pi a / f))
      [+ chi(f/2) log 2 if f is even]

This regroups the sum and reads nothing of chi, so a table that is not
even (say, one corrupted above f/2) still gets its full-range value.  For
an even chi each pair is 2 chi(a), and chi(f/2) = 0 as 4 | f.

The tests validate the log-sine form against a direct summation of the
defining series, and the half-range sum against the full-range one, both
kept with them (`l_one_series` and `l_one_logsin_full` in
tests/helpers.py).

The table chi(0..D-1) is built from the prime discriminants of D (H. Cohen,
A Course in Computational Algebraic Number Theory, ch. 5).  A fundamental
discriminant D is the product of p* = (-1)^((p-1)/2) p over its odd primes
p and of a 2-part D / prod p* in {1, -4, 8, -8}.  For any D > 1 that
quotient is +-2^k prod p^(e-1), p^e || D, so D > 1 is fundamental exactly
when the quotient is one of the four.  The Kronecker symbol (D/n) is
multiplicative in D, so chi is the product of the characters of these
factors: the 2-part's has period 1, 4 or 8, and (p*/n) is the Legendre
symbol (n/p), of period p and 1 at the squares a^2 mod p,
1 <= a <= (p-1)/2 (K. Ireland and M. Rosen, A Classical Introduction to
Modern Number Theory, ch. 5).  The periods are coprime and multiply to D,
so the table is their product by the Chinese remainder theorem.
"""

from __future__ import annotations

import math
from itertools import cycle, islice
from operator import mul

from .arith import factorization
from .errors import InputError, TqError

# chi(0..period-1) of each 2-part of a fundamental discriminant
_TWO_PARTS = {1: (1,), -4: (0, 1, 0, -1), 8: (0, 1, 0, -1, 0, -1, 0, 1),
              -8: (0, 1, 0, 1, 0, -1, 0, -1)}


def _prime_discriminants(disc: int) -> tuple[int, list[int]]:
    """The 2-part disc / prod p* of disc and its odd primes p, with an
    InputError unless disc > 1 is a fundamental discriminant."""
    if disc > 1:
        odd = [p for p in factorization(disc) if p > 2]
        two = disc // math.prod(p if p % 4 == 1 else -p for p in odd)
        if two in _TWO_PARTS:
            return two, odd
    raise InputError("need a positive fundamental discriminant > 1 "
                     "(even nontrivial character)")


def quad_char_values(disc: int) -> tuple[int, ...]:
    """chi(0..disc-1), the Kronecker symbols (disc/n), for a fundamental
    discriminant disc > 1 (an InputError otherwise), as the product of the
    characters of its prime discriminants."""
    two, odd = _prime_discriminants(disc)
    vals = _TWO_PARTS[two]
    for p in odd:
        legendre = [-1] * p
        legendre[0] = 0
        for a in range(1, p // 2 + 1):
            legendre[a * a % p] = 1
        # the periods are coprime, so one period of the product is len(vals) * p long
        vals = legendre if len(vals) == 1 else list(
            islice(map(mul, cycle(vals), cycle(legendre)), len(vals) * p))
    return tuple(vals)


def l_one_logsin(disc: int) -> float:
    """L(1, chi) by the finite log-sine closed form, its sum over
    1 <= a <= f-1 regrouped by sin(pi (f-a)/f) = sin(pi a/f) into
    (chi(a) + chi(f-a)) log(2 sin(pi a/f)) over 1 <= a < f/2, plus
    chi(f/2) log 2 when f is even.  The regrouping reads no property of
    the table, so a table that is not even still gets the full sum."""
    chi = quad_char_values(disc)
    f = len(chi)
    total = 0.0
    for a in range(1, (f + 1) // 2):
        c = chi[a] + chi[f - a]
        if c:
            total += c * math.log(2.0 * math.sin(math.pi * a / f))
    if f % 2 == 0:
        total += chi[f // 2] * math.log(2.0)
    return -total / math.sqrt(f)


def l_prime_zero_lgamma(disc: int) -> float:
    """L'(0, chi) by the log-Gamma closed form."""
    chi = quad_char_values(disc)
    f = len(chi)
    total = 0.0
    for a in range(1, f):
        if chi[a]:
            total += chi[a] * math.lgamma(a / f)
    return total


def narrow_class_number_and_regulator(disc: int) -> tuple[int, float]:
    """The narrow class number h+ and narrow regulator R+ of the real
    quadratic field of fundamental discriminant disc, from its reduced
    indefinite forms (H. Cohen, A Course in Computational Algebraic Number
    Theory, 5.6-5.7): the forms (a, b, c), b^2 - 4ac = disc, with
    0 < b < sqrt(disc) and sqrt(disc) - b < 2|a| < sqrt(disc) + b, fall
    into cycles under rho, h+ is the number of cycles, and R+ is the sum
    of log((b + sqrt(disc)) / (2|a|)) over the cycle of the form with
    a = 1.  By Dirichlet's class number formula,
    L(1, chi) = h+ R+ / sqrt(disc) and L'(0, chi) = h+ R+ / 2."""
    _prime_discriminants(disc)
    s = math.isqrt(disc)
    forms = set()
    for b in range(2 - disc % 2, s + 1, 2):  # b = disc mod 2, b^2 < disc
        n = (disc - b * b) // 4  # -ac
        # (a, b, c) is reduced exactly when (c, b, a) is, so each pair of
        # divisors a <= sqrt(n) <= n/a is found once, at a; there
        # 2a <= sqrt(disc - b^2) < sqrt(disc) + b, and disc is no square,
        # so the one bound left, sqrt(disc) - b < 2a, is a >= (s + 2 - b)/2
        for a in range((s + 2 - b) // 2, math.isqrt(n) + 1):
            if n % a == 0:
                m = n // a
                forms |= {(a, b, -m), (-a, b, m), (m, b, -a), (-m, b, a)}
    cycles, regulator = 0, None
    while forms:
        start = form = forms.pop()
        cycle = []
        while True:
            cycle.append(form)
            _, b, c = form
            # rho: r = -b mod 2|c| in (sqrt(disc) - 2|c|, sqrt(disc)); a
            # reduced form has |c| < sqrt(disc), so the range for
            # |c| > sqrt(disc), (-|c|, |c|], is never needed
            r = s - (s + b) % (2 * abs(c))
            form = c, r, (r * r - disc) // (4 * c)
            if form == start:
                break
            try:
                forms.remove(form)  # rho permutes the reduced forms
            except KeyError:
                raise TqError(f"rho left the reduced forms of discriminant {disc} "
                              f"at {form}") from None
        cycles += 1
        if any(a == 1 for a, _, _ in cycle):
            root = math.sqrt(disc)
            regulator = math.fsum(math.log((b + root) / (2 * abs(a))) for a, b, _ in cycle)
    return cycles, regulator
