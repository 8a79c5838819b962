"""Elementary number-theoretic helpers: primality, factoring, squarefree
kernels, Jacobi symbols at odd moduli and Hilbert symbols.  Everything
here is exact integer arithmetic."""

from __future__ import annotations

from itertools import count
from math import gcd, prod

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


# Factoring trial-divides by 2 and the odd q <= TRIAL_BOUND, so it needs
# no other stage for |n| < 1009**2, the square of the next prime.
TRIAL_BOUND = 1000
_RHO_BATCH = 128


def _pollard_brent(n: int) -> int:
    """A divisor 1 < g < n of the composite n by Pollard's rho (BIT 15,
    1975) on x -> x^2 + c from x = 2, for c = 1, 2, ... until one splits n,
    with Brent's cycle finding and batched gcds (BIT 20, 1980)."""
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            # the batch passed the collision: redo it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def factorization(n: int) -> dict[int, int]:
    """The prime factorization {p: exponent} of |n| ({} for 0 and +-1):
    trial division up to TRIAL_BOUND, then `is_prime` and `_pollard_brent`
    on what is left, so it inherits the InputError of `is_prime` on a
    cofactor of MR_BOUND or more."""
    n = abs(n)
    out = {}
    q = 2
    while q <= TRIAL_BOUND and q * q <= n:
        while n % q == 0:
            n //= q
            out[q] = out.get(q, 0) + 1
        q += 1 if q == 2 else 2
    # what is left has no prime factor below q, so it is prime when < q^2
    todo = [n] if n > 1 else []
    while todo:
        m = todo.pop()
        if m < q * q or is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            g = _pollard_brent(m)
            todo += [g, m // g]
    return out


def is_squarefree(n: int) -> bool:
    return n != 0 and all(e == 1 for e in factorization(n).values())


def squarefree_kernel(n: int) -> int:
    """Largest squarefree divisor pattern: n with all square factors removed.
    Sign is preserved."""
    if n == 0:
        raise InputError("squarefree kernel of 0 is undefined")
    return (-1 if n < 0 else 1) * prod(p for p, e in factorization(n).items() if e % 2)


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of |n| in increasing order."""
    return sorted(factorization(n))


def kronecker_symbol(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) at an odd n > 0, by quadratic reciprocity:
    the Legendre symbol when n is prime.  InputError at any other n."""
    if n < 1 or n % 2 == 0:
        raise InputError(f"({a}/{n}) is taken only at an odd n > 0")
    a %= n
    result = 1
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


def hilbert_symbol(a: int, b: int, p: int) -> int:
    """The Hilbert symbol (a, b)_p, 1 or -1, of nonzero integers a, b at a
    prime p (Serre, A Course in Arithmetic, ch. III, Thm. 1).  With
    a = p^al u and b = p^be v, u and v prime to p, it is
    (-1)^(al be (p - 1)/2) (u/p)^be (v/p)^al at an odd p, and
    (-1)^(e(u) e(v) + al w(v) + be w(u)) at 2, where e(u) = (u - 1)/2 and
    w(u) = (u^2 - 1)/8, both mod 2 read from u mod 8.  p is not checked
    for primality; InputError when a or b is 0 or p < 2, where the powers
    of p would never all split off."""
    if a == 0 or b == 0 or p < 2:
        raise InputError(f"the Hilbert symbol ({a}, {b})_{p} needs nonzero "
                         f"a, b and a prime p")
    al = be = 0
    while a % p == 0:
        a //= p
        al += 1
    while b % p == 0:
        b //= p
        be += 1
    if p == 2:
        u, v = a % 8, b % 8
        e = ((u - 1) // 2 * ((v - 1) // 2)
             + al * (v * v - 1) // 8 + be * (u * u - 1) // 8)
        return -1 if e % 2 else 1
    s = -1 if al * be % 2 and p % 4 == 3 else 1
    if be % 2:
        s *= kronecker_symbol(a, p)
    if al % 2:
        s *= kronecker_symbol(b, p)
    return s
