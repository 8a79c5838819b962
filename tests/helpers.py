"""Helpers shared by the tests, kept out of the package because nothing in
it needs them."""

import math
from math import gcd

from tq.arith import is_prime, is_squarefree
from tq.biquadratic import FieldData
from tq.grouprings import V4_E, GroupRingElem, GroupRingMatrix
from tq.lseries import _require_even_nontrivial, quad_char_values


def odd_primes_up_to(bound: int) -> list[int]:
    """The odd primes p <= bound, in increasing order."""
    return [p for p in range(3, bound + 1, 2) if is_prime(p)]


def identity_matrix(n: int) -> GroupRingMatrix:
    """The n x n identity matrix over Q[V4]."""
    return GroupRingMatrix.from_rows([[GroupRingElem({V4_E: int(i == j)}) for j in range(n)]
                                     for i in range(n)])


def squarefree_pairs(dmax: int):
    """The pairs 1 < d1 < d2 <= dmax of squarefree ints, by d2 then d1."""
    ds = [d for d in range(2, dmax + 1) if is_squarefree(d)]
    for i, d2 in enumerate(ds):
        for d1 in ds[:i]:
            yield d1, d2


def signed_fields(bound: int) -> list[FieldData]:
    """The fields Q(sqrt(d1), sqrt(d2)) for the pairs d1 < d2 of squarefree
    ints d != 0, 1 with |d| <= bound, imaginary ones included, by d2 then
    d1.  `field_data` takes positive d only, so each is built from its ints,
    d3 being the squarefree kernel of d1 d2."""
    ds = [d for d in range(-bound, bound + 1) if d not in (0, 1) and is_squarefree(d)]
    return [FieldData(d1, d2, d1 * d2 // gcd(d1, d2) ** 2)
            for i, d2 in enumerate(ds) for d1 in ds[:i]]


def _tail_power_sum(k0: int, j: int) -> float:
    """sum_{k >= k0} k^-j by Euler-Maclaurin."""
    x = float(k0)
    s = x ** (1 - j) / (j - 1) + 0.5 * x ** (-j) + j * x ** (-j - 1) / 12.0
    s -= j * (j + 1) * (j + 2) * x ** (-j - 3) / 720.0
    return s


def l_one_series(disc: int, blocks: int = 2000) -> float:
    """L(1, chi) by direct series summation over complete periods, plus an
    analytic estimate of the tail (expansion of the block sums in inverse
    powers of the block index)."""
    f = _require_even_nontrivial(disc)
    chi = quad_char_values(disc)
    total = 0.0
    for a in range(1, f):
        if chi[a]:
            total += chi[a] / a
    for k in range(1, blocks):
        kf = k * f
        block = 0.0
        for a in range(1, f):
            if chi[a]:
                block += chi[a] / (kf + a)
        total += block
    # tail: sum over k >= blocks of -A1/(kf)^2 + A2/(kf)^3 k^0 ... with
    # A_j = sum_a chi(a) a^j
    a1 = sum(chi[a] * a for a in range(1, f))
    a2 = sum(chi[a] * a * a for a in range(1, f))
    a3 = sum(chi[a] * a ** 3 for a in range(1, f))
    tail = (-a1 / f ** 2 * _tail_power_sum(blocks, 2)
            + a2 / f ** 3 * _tail_power_sum(blocks, 3)
            - a3 / f ** 4 * _tail_power_sum(blocks, 4))
    return total + tail


def narrow_class_number_and_regulator(disc: int) -> tuple[int, float]:
    """The narrow class number h+ and narrow regulator R+ of the positive
    non-square discriminant disc, from its reduced indefinite forms
    (H. Cohen, A Course in Computational Algebraic Number Theory, 5.6-5.7):
    the forms (a, b, c), b^2 - 4ac = disc, with 0 < b < sqrt(disc) and
    sqrt(disc) - b < 2|a| < sqrt(disc) + b, fall into cycles under rho,
    h+ is the number of cycles, and R+ is the sum of
    log((b + sqrt(disc)) / (2|a|)) over the cycle of the form with a = 1.
    By Dirichlet's class number formula, at a fundamental disc,
    L(1, chi) = h+ R+ / sqrt(disc) and L'(0, chi) = h+ R+ / 2."""
    s = math.isqrt(disc)

    def rho(a, b, c):
        # r = -b mod 2|c| in (sqrt(disc) - 2|c|, sqrt(disc)): a reduced
        # form has |c| < sqrt(disc), so the range for |c| > sqrt(disc),
        # (-|c|, |c|], is never needed
        r = s - (s + b) % (2 * abs(c))
        return c, r, (r * r - disc) // (4 * c)

    forms = set()
    for b in range(2 - disc % 2, s + 1, 2):  # b = disc mod 2, b^2 < disc
        n = (disc - b * b) // 4  # -ac
        for a in range(max(1, (s - b) // 2), (s + b) // 2 + 1):
            if n % a == 0 and (2 * a - b) ** 2 < disc < (2 * a + b) ** 2:
                forms |= {(a, b, -n // a), (-a, b, n // a)}
    cycles, regulator = 0, None
    while forms:
        cycle = [forms.pop()]
        while (form := rho(*cycle[-1])) != cycle[0]:
            forms.remove(form)  # rho permutes the reduced forms
            cycle.append(form)
        cycles += 1
        if any(a == 1 for a, _, _ in cycle):
            regulator = math.fsum(math.log((b + math.sqrt(disc)) / (2 * abs(a)))
                                  for a, b, _ in cycle)
    return cycles, regulator
