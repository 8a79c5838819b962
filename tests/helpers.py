"""Helpers shared by the tests, kept out of the package because nothing in
it needs them."""

import math
import os
from fractions import Fraction
from math import gcd, prod
from pathlib import Path

from tq import linalg
from tq.arith import is_prime, is_squarefree
from tq.biquadratic import (FieldData, field_and_ramified_set, field_data, frob_signs,
                            full_decomposition, local_galois, quad_field_disc,
                            ramified_set)
from tq.grouprings import V4_CHARS, V4_E, GroupRingElem, GroupRingMatrix
from tq.invariant import VERDICT_INADMISSIBLE, VERDICT_NONZERO, VERDICT_VANISHES
from tq.localterms import LatticeExponent, local_term_closed_form
from tq.lseries import quad_char_values
from tq.perfectcomplex import char_specialize, class_representative, cohomology_basis
from tq.relk0 import odd_part_mod4


def src_env() -> dict[str, str]:
    """The environment with this repository's `src` first on PYTHONPATH,
    for a subprocess that imports `tq`."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def odd_primes_up_to(bound: int) -> list[int]:
    """The odd primes p <= bound, in increasing order."""
    return [p for p in range(3, bound + 1, 2) if is_prime(p)]


def real_fundamental_discs(bound: int) -> list[int]:
    """The fundamental discriminants of real quadratic fields up to bound,
    in increasing order."""
    return sorted({quad_field_disc(d) for d in range(2, bound + 1)
                   if is_squarefree(d) and quad_field_disc(d) <= bound})


def identity_matrix(n: int) -> GroupRingMatrix:
    """The n x n identity matrix over Q[V4]."""
    return GroupRingMatrix.from_rows([[GroupRingElem({V4_E: int(i == j)}) for j in range(n)]
                                     for i in range(n)])


def _shifted(rows, by, rng):
    """Each row plus a combination of the rows of `by` whose coefficients
    are small rationals drawn from `rng`, a seeded `random.Random`."""
    out = []
    for v in rows:
        for b in by:
            t = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            v = [x + t * y for x, y in zip(v, b)]
        out.append(list(v))
    return out


def seeded_class_representative(cplx, iso, rng):
    """`class_representative(cplx, iso)` under other choices drawn from
    `rng`, a seeded `random.Random`: each supplied cocycle is moved by
    image vectors of its degree, which keeps its class, and each preimage
    that `linalg.reduce_rows` returns by kernel vectors, which keeps its
    image.  The class depends on neither choice."""
    moved = {}
    for chi in V4_CHARS:
        images = cohomology_basis(char_specialize(cplx, chi)).images
        comp = iso[chi.label]
        moved[chi.label] = comp._replace(
            odd_reps={j: _shifted(r, images[j], rng) for j, r in comp.odd_reps.items()},
            even_reps={j: _shifted(r, images[j], rng) for j, r in comp.even_reps.items()})
    reduce_rows = linalg.reduce_rows

    def moved_reduce_rows(a):
        images, preimages, kernel = reduce_rows(a)
        return images, _shifted(preimages, kernel, rng), kernel

    linalg.reduce_rows = moved_reduce_rows
    try:
        return class_representative(cplx, moved)
    finally:
        linalg.reduce_rows = reduce_rows


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


def independent_torsion(d1, d2, frob_twist=()):
    """Re-derive the torsion by assembling the odd-part product directly
    (an independent re-implementation of the pipeline used as an oracle).
    `frob_twist` lists full-decomposition primes whose Frobenius lift is
    replaced by its product with the inertia generator."""
    f = field_data(d1, d2)
    total = Fraction(1)
    for p in ramified_set(f):
        loc = local_galois(f, p)
        if loc.full_decomposition and p in frob_twist:
            loc = loc._replace(frob=loc.frob ^ loc.a_p,
                               b_p=loc.b_p ^ loc.a_p)
        for chi in V4_CHARS:
            if all(chi(g) == 1 for g in loc.inertia):
                total /= 1 - Fraction(chi(loc.frob), p)
            dim_d = 1 if all(chi(g) == 1 for g in loc.decomposition) else 0
            ratio = len(loc.decomposition) // len(loc.inertia)
            total *= Fraction(1, ratio ** dim_d)
            if (all(chi(g) == 1 for g in loc.inertia)
                    and not all(chi(g) == 1 for g in loc.decomposition)):
                total *= 1 - Fraction(chi(loc.frob))
        if loc.full_decomposition and p % 2 == 1:
            term = local_term_closed_form(p, loc, LatticeExponent())
            for val in term.as_tuple():
                total /= val
    return odd_part_mod4(total)


def prime_unit(p: int, signs: tuple[int, int, int]) -> int:
    """The unit 1 or 3 of (Z/4)* that a prime p of these Frobenius signs
    contributes to the torsion class under any lattice: 3 exactly when
    D = V4 (no sign is 1) and I != V4 (some sign is not 0).
    notes/decisions.md, "A prime's unit in closed form", derives it from
    the parts of `invariant.prime_parts`."""
    return 3 if full_decomposition(signs) and any(signs) else 1


def field_verdict(d1: int, d2: int) -> str:
    """The verdict of `omega_loc_torsion` for the real field
    Q(sqrt(d1), sqrt(d2)), checked by `field_and_ramified_set`, under any
    lattice and any enlargement of S, with no report: inadmissible when the
    signs of 2 give the full decomposition group, else the product of the
    `prime_unit`s of the ramified set, each from its signs alone."""
    f, ramified = field_and_ramified_set(d1, d2)
    at_2 = frob_signs(*f.subfields, 2)
    if full_decomposition(at_2):
        return VERDICT_INADMISSIBLE
    units = [prime_unit(p, at_2 if p == 2 else frob_signs(*f.subfields, p))
             for p in ramified]
    return VERDICT_VANISHES if prod(units) % 4 == 1 else VERDICT_NONZERO


def _tail_power_sum(k0: int, j: int) -> float:
    """sum_{k >= k0} k^-j by Euler-Maclaurin."""
    x = float(k0)
    s = x ** (1 - j) / (j - 1) + 0.5 * x ** (-j) + j * x ** (-j - 1) / 12.0
    s -= j * (j + 1) * (j + 2) * x ** (-j - 3) / 720.0
    return s


def l_one_logsin_full(disc: int) -> float:
    """L(1, chi) by the log-sine closed form summed over every residue
    1 <= a <= f-1, the reference for `l_one_logsin`'s half-range sum."""
    chi = quad_char_values(disc)
    f = len(chi)
    total = 0.0
    for a in range(1, f):
        if chi[a]:
            total += chi[a] * math.log(2.0 * math.sin(math.pi * a / f))
    return -total / math.sqrt(f)


def l_one_series(disc: int, blocks: int = 2000) -> float:
    """L(1, chi) by direct series summation over complete periods, plus an
    analytic estimate of the tail (expansion of the block sums in inverse
    powers of the block index)."""
    chi = quad_char_values(disc)
    f = len(chi)
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



def even_table_that_is_no_character(disc: int) -> tuple[int, ...]:
    """chi_disc with its first value 1 and its first value -1 negated,
    together with their reflections: a table that stays even, +-1 off 0,
    with zero sum, but is no character."""
    chi = list(quad_char_values(disc))
    a, b = chi.index(1), chi.index(-1)
    for n in (a, b, disc - a, disc - b):
        chi[n] = -chi[n]
    assert len({a, b, disc - a, disc - b}) == 4 and sum(chi) == 0
    return tuple(chi)
