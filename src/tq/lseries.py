"""Floating-point evaluation of Dirichlet L-functions of real primitive
even characters (the only place in the package where floats appear).

For a primitive quadratic character chi of conductor f = D > 0:

  * L(1, chi)  = -(1/sqrt(f)) * sum_{a=1}^{f-1} chi(a) log(2 sin(pi a / f))
  * L'(0, chi) =  sum_{a=1}^{f-1} chi(a) lgamma(a / f)

(the Hurwitz zeta expansion around s = 0 kills the constant terms because
sum chi(a) = 0 and, for even chi, sum chi(a) a = 0 pairs off).

The tests validate the log-sine form against a direct summation of the
defining series, kept with them (`l_one_series` in tests/helpers.py).

The table chi(0..f-1) is built once per check: `quad_char_values` is its
own one-entry memo (it keeps the tuple of the last disc only), so the
second evaluator of `invariant.leading_ratio_check` finds the table of the
first, and no caller can change the tuple another one reads.  It is built
from the primes of D alone: for n >= 1 the Kronecker symbol (D/n) is
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
from .errors import InputError


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
