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

The tests validate the log-sine form against a direct summation of the
defining series, kept with them (`l_one_series` in tests/helpers.py).

`quad_char_values` is its own one-entry memo: it keeps the tuple
chi(0..f-1) of the last disc only, so a check builds one table, both
evaluators called on one disc in a row share it, and no caller can change
the tuple another one reads.  The table is built from the primes of D
alone: for n >= 1 the Kronecker symbol (D/n) is
completely multiplicative in n and in its top argument D (H. Cohen, A
Course in Computational Algebraic Number Theory, 1.4.2), so
(D/n) = (-1/n)^[D<0] prod_{p^e || |D|} (p/n)^e, where:

  * for even e, (p/n)^e is 0 at the multiples of p and 1 elsewhere;
  * (2/n) has period 8: 0, 1, 0, -1, 0, -1, 0, 1;
  * at an odd p, reciprocity gives (p/n) = (n/p) (-1/n)^[p = 3 mod 4], and
    the Legendre symbol (n/p) has period p and is 1 at the squares a^2 mod
    p, 1 <= a <= (p-1)/2 (K. Ireland and M. Rosen, A Classical Introduction
    to Modern Number Theory, ch. 5);
  * (-1/n) = chi_{-4}(n / 2^v2(n)) is not periodic, and is a factor when
    [D<0] plus the number of odd p = 3 mod 4 with odd e is odd.

The periods (8 or 2 at p = 2, p at an odd p) are coprime: the builder
multiplies the tables into one of their product's period, repeats it to
length f, negates by one slice per power of two where (-1/n) = -1, and sets
entry 0 to `kronecker_symbol(D, 0)`.  The table equals the symbol at every
n, so the evaluators' floats do not depend on how it is built.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import cycle, islice
from operator import mul, neg

from .arith import factorization, is_squarefree, kronecker_symbol
from .errors import InputError, TqError


@lru_cache(maxsize=1)
def quad_char_values(disc: int) -> tuple[int, ...]:
    """chi(0..f-1), f = |disc|, for any integer disc:
    (kronecker_symbol(disc, n) for n in range(abs(disc))) as a tuple, built
    from the primes of disc and kept for the last disc."""
    f = abs(disc)
    if f <= 1:
        return (kronecker_symbol(disc, 0),) * f
    vals = [1]
    minus_one = disc < 0  # whether (-1/n) is a factor
    for p, e in factorization(f).items():
        if e % 2 == 0:
            period = [0] + [1] * (p - 1)
        elif p == 2:
            period = [0, 1, 0, -1, 0, -1, 0, 1]
        else:
            period = [-1] * p
            period[0] = 0
            for a in range(1, p // 2 + 1):
                period[a * a % p] = 1
            minus_one ^= p % 4 == 3
        if len(vals) > 1:  # the periods are coprime
            period = list(islice(map(mul, cycle(vals), cycle(period)), len(vals) * len(period)))
        vals = period
    vals *= -(-f // len(vals))
    del vals[f:]
    q = 1
    while minus_one and q < f:  # (-1/n) = -1 at n = q * m, m = 3 mod 4
        vals[3 * q::4 * q] = map(neg, vals[3 * q::4 * q])
        q *= 2
    vals[0] = kronecker_symbol(disc, 0)
    return tuple(vals)


def _require_even_nontrivial(disc: int) -> int:
    # fundamental: D = 1 mod 4 squarefree, or D = 4m, m = 2 or 3 mod 4 squarefree
    if not (disc > 1 and (disc % 4 == 1 or disc % 16 in (8, 12))
            and is_squarefree(disc if disc % 2 else disc // 4)):
        raise InputError("need a positive fundamental discriminant > 1 "
                         "(even nontrivial character)")
    return disc


def l_one_logsin(disc: int) -> float:
    """L(1, chi) by the finite log-sine closed form."""
    f = _require_even_nontrivial(disc)
    chi = quad_char_values(disc)
    total = 0.0
    for a in range(1, f):
        if chi[a]:
            total += chi[a] * math.log(2.0 * math.sin(math.pi * a / f))
    return -total / math.sqrt(f)


def l_prime_zero_lgamma(disc: int) -> float:
    """L'(0, chi) by the log-Gamma closed form."""
    f = _require_even_nontrivial(disc)
    chi = quad_char_values(disc)
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
    _require_even_nontrivial(disc)
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
