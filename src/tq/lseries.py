"""Floating-point evaluation of Dirichlet L-functions of real primitive
even characters (the only place in the package where floats appear).

For a primitive quadratic character chi of conductor f = D > 0:

  * L(1, chi)  = -(1/sqrt(f)) * sum_{a=1}^{f-1} chi(a) log(2 sin(pi a / f))
  * L'(0, chi) =  sum_{a=1}^{f-1} chi(a) lgamma(a / f)

(the Hurwitz zeta expansion around s = 0 kills the constant terms because
sum chi(a) = 0 and, for even chi, sum chi(a) a = 0 pairs off).

The tests validate the log-sine form against a direct summation of the
defining series, kept with them (`l_one_series` in tests/helpers.py).

The table chi(0..f-1) is built once per check: `quad_char_values` copies
it from a one-entry memo (`_char_table`, which keeps the table of the last
disc only), so the second evaluator of `invariant.leading_ratio_check`
finds the table of the first, and no caller holds a shared, mutable table.
For a fixed top argument the Kronecker symbol (D/n) is completely
multiplicative in n > 0 (H. Cohen, A Course in Computational Algebraic
Number Theory, 1.4.2), so the table needs the symbol only at the primes
below f, found by a sieve of Eratosthenes, and spreads each value to the
multiples of the prime.  At an odd prime p the symbol is the Legendre
symbol, which Euler's criterion gives as D^((p-1)/2) mod p, one of 0, 1 and
p - 1 (K. Ireland and M. Rosen, A Classical Introduction to Modern Number
Theory, Prop. 5.1.2); `kronecker_symbol` gives it at 0 and 2.  The table
equals the symbol at every n; the evaluators' sums take the same terms in
the same order as with a table of symbols, so their floats do not depend on
how the table is built.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import compress
from operator import neg

from .arith import kronecker_symbol
from .errors import InputError


def quad_char_values(disc: int) -> list[int]:
    """chi(0..f-1), f = |disc|, for any integer disc:
    [kronecker_symbol(disc, n) for n in range(abs(disc))], a fresh list
    copied from the table that `_char_table` keeps for the last disc."""
    return list(_char_table(disc))


@lru_cache(maxsize=1)
def _char_table(disc: int) -> tuple[int, ...]:
    """The table of `quad_char_values`, built by the multiplicative sieve of
    the module docstring."""
    f = abs(disc)
    if f == 0:
        return ()
    vals = [1] * f
    vals[0] = kronecker_symbol(disc, 0)
    for p in _primes_below(f):
        # Euler's criterion at odd p: 0, 1 or p - 1
        chi_p = kronecker_symbol(disc, 2) if p == 2 else pow(disc, p >> 1, p)
        if chi_p == 0:
            vals[p::p] = [0] * len(range(p, f, p))
        elif chi_p != 1:
            q = p
            while q < f:
                vals[q::q] = map(neg, vals[q::q])
                q *= p
    return tuple(vals)


def _primes_below(n: int) -> list[int]:
    """The primes p < n, by the sieve of Eratosthenes."""
    is_p = bytearray([1]) * n
    is_p[:2] = bytes(min(n, 2))
    for p in range(2, math.isqrt(n) + 1):
        if is_p[p]:
            is_p[p * p::p] = bytes(len(range(p * p, n, p)))
    return list(compress(range(n), is_p))


def _require_even_nontrivial(disc: int) -> int:
    if disc <= 1:
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
