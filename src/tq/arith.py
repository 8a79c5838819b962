"""Elementary number-theoretic helpers: primality, squarefree kernels,
Kronecker symbols.  Everything here is exact integer arithmetic."""

from __future__ import annotations

from math import isqrt

from .errors import InputError


# The first 13 primes as Miller-Rabin bases decide primality for every
# n < MR_BOUND (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the bases `_MR_BASES`; InputError
    for n >= MR_BOUND, where those bases are no longer proven enough."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n < 43 * 43:
        return True
    if n >= MR_BOUND:
        raise InputError(f"{n} is too large for the primality test "
                         f"(it must be below {MR_BOUND})")
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_squarefree(n: int) -> bool:
    n = abs(n)
    if n == 0:
        return False
    for q in range(2, isqrt(n) + 1):
        if n % (q * q) == 0:
            return False
    return True


def squarefree_kernel(n: int) -> int:
    """Largest squarefree divisor pattern: n with all square factors removed.
    Sign is preserved."""
    if n == 0:
        raise InputError("squarefree kernel of 0 is undefined")
    sign = -1 if n < 0 else 1
    n = abs(n)
    out = 1
    q = 2
    while q * q <= n:
        if n % q == 0:
            e = 0
            while n % q == 0:
                n //= q
                e += 1
            if e % 2 == 1:
                out *= q
        q += 1
    return sign * out * n


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of |n| in increasing order."""
    n = abs(n)
    out = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1 if q == 2 else 2
    if n > 1:
        out.append(n)
    return out


def odd_primes_up_to(bound: int) -> list[int]:
    return [p for p in range(3, bound + 1, 2) if is_prime(p)]


def kronecker_symbol(a: int, n: int) -> int:
    """Kronecker symbol (a/n), defined for every integer n."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -1
    # factor out 2s from n
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t:
        if a % 2 == 0:
            return 0
        if t % 2 == 1 and a % 8 in (3, 5):
            sign = -sign
    # now n odd positive: Jacobi symbol with reciprocity
    a %= n
    result = sign
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0
