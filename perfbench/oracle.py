"""Correctness rules the benchmark checks `tq` against, written without
calling `tq`.

For a real biquadratic field E = Q(sqrt(d1), sqrt(d2)) with d1, d2
squarefree and d3 = d1*d2 / gcd(d1, d2)^2:

* E is inadmissible (the decomposition group at 2 is all of V4) exactly
  when none of d1, d2, d3 is 1 mod 8.
* Otherwise the torsion class is trivial exactly when
  (d1, d2)_2 * chi_{-4}(odd part of gcd(d1, d2)) = +1, where (., .)_2 is
  the 2-adic Hilbert symbol.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

INADMISSIBLE = "inadmissible"
VANISHES = "vanishes"
NONZERO = "nonzero"


def is_squarefree(n: int) -> bool:
    n = abs(n)
    if n == 0:
        return False
    q = 2
    while q * q <= n:
        if n % (q * q) == 0:
            return False
        if n % q == 0:
            n //= q
        q += 1
    return True


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    q = 2
    while q * q <= n:
        if n % q == 0:
            return False
        q += 1
    return True


def odd_prime_factors(n: int) -> list[int]:
    """Distinct odd prime factors of |n|, ascending."""
    n = abs(n)
    while n % 2 == 0:
        n //= 2
    out = []
    q = 3
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 2
    if n > 1:
        out.append(n)
    return out


def third_subfield(d1: int, d2: int) -> int:
    g = gcd(d1, d2)
    return d1 * d2 // (g * g)


def fundamental_discriminant(d: int) -> int:
    """Discriminant of Q(sqrt(d)) for squarefree d != 1."""
    return d if d % 4 == 1 else 4 * d


def _split2(n: int) -> tuple[int, int]:
    e = 0
    while n % 2 == 0:
        n //= 2
        e += 1
    return e, n


def hilbert_symbol_2(a: int, b: int) -> int:
    """The 2-adic Hilbert symbol (a, b)_2 of nonzero integers."""
    alpha, u = _split2(a)
    beta, v = _split2(b)

    def eps(x: int) -> int:
        return ((x - 1) // 2) % 2

    def omega(x: int) -> int:
        return ((x * x - 1) // 8) % 2

    exponent = eps(u) * eps(v) + alpha * omega(v) + beta * omega(u)
    return -1 if exponent % 2 else 1


def chi_minus4(n: int) -> int:
    """The character of Q(i) at an odd integer."""
    return 1 if n % 4 == 1 else -1


def verdict(d1: int, d2: int) -> str:
    """The verdict `tq` must give for the real field Q(sqrt(d1), sqrt(d2))."""
    d3 = third_subfield(d1, d2)
    if all(d % 8 != 1 for d in (d1, d2, d3)):
        return INADMISSIBLE
    g_odd = _split2(gcd(d1, d2))[1]
    sign = hilbert_symbol_2(d1, d2) * chi_minus4(g_odd)
    return VANISHES if sign == 1 else NONZERO


def squarefree_pairs(dmax: int) -> list[tuple[int, int]]:
    """Every squarefree pair 1 < d1 < d2 <= dmax, ordered by d2 then d1."""
    sf = [d for d in range(2, dmax + 1) if is_squarefree(d)]
    return [(d1, d2) for j, d2 in enumerate(sf) for d1 in sf[:j]]


def expected_sweep(dmax: int) -> dict:
    """The `tq sweep --max dmax --json` document `tq` must print."""
    counts = {VANISHES: 0, NONZERO: 0, INADMISSIBLE: 0}
    nonzero = []
    for d1, d2 in squarefree_pairs(dmax):
        v = verdict(d1, d2)
        counts[v] += 1
        if v == NONZERO:
            nonzero.append([d1, d2])
    return {"dmax": dmax, "counts": counts, "n_fields": sum(counts.values()),
            "nonzero_fields": nonzero}


def unit_mod4(values) -> int:
    """Odd part of the product of nonzero rationals, reduced mod 4."""
    prod = Fraction(1)
    for v in values:
        prod *= v
    n, d = prod.numerator, prod.denominator
    n = _split2(n)[1]
    d = _split2(d)[1]
    return (n * d) % 4


def tame_representative(p: int) -> tuple[Fraction, ...]:
    """Exact values at ("1", "chi1", "chi2", "chi1chi2") of the generic
    representative of the tame complex with inertia generator a and
    Frobenius lift b."""
    return (Fraction(1, 2 * p - 2), Fraction(-1), Fraction(-2, p + 1),
            Fraction(-1))


def lattice_correction(p: int, m: int, sign: int) -> tuple[Fraction, ...]:
    """The residue-field power chi |-> p^(m dim chi^I + sign) for inertia
    generated by a: chi^I is nonzero exactly for "1" and "chi2"."""
    up = Fraction(p) ** (m + sign)
    flat = Fraction(p) ** sign
    return (up, flat, up, flat)


def even_characters(conductor_max: int) -> list[tuple[int, int]]:
    """(d, conductor) for every real quadratic field Q(sqrt(d)) whose
    discriminant is at most conductor_max, ascending in conductor."""
    out = []
    for d in range(2, conductor_max + 1):
        if is_squarefree(d):
            disc = fundamental_discriminant(d)
            if disc <= conductor_max:
                out.append((d, disc))
    out.sort(key=lambda t: t[1])
    return out

