"""Arithmetic of E = Q(sqrt(d1), sqrt(d2)): quadratic subfields, conductors,
ramification, and per-prime inertia/decomposition/Frobenius data inside
Gal(E/Q), identified with V4 so that

    a flips sqrt(d1),  b flips sqrt(d2),

hence chi1 = chi_{d1}, chi2 = chi_{d2}, chi1chi2 = chi_{d3} where d3 is the
squarefree kernel of d1*d2.  Everything is decided by d mod 8 at 2 and by
Legendre symbols (d/p) at odd p; no ideal factorization is needed for
quadratic subfields, and only d1 and d2 are ever factored, never their
product.

The local data at p depends on the field only through the Frobenius signs
s of p in Q(sqrt(d1)), Q(sqrt(d2)), Q(sqrt(d3)) (`frob_signs`), s = 1 for
the trivial character.  By the Galois correspondence, I_p and D_p are the
annihilators of the subgroups U (s != 0, unramified) and Z (s = 1, split)
of the character group.  So dim chi^I = [s != 0], dim chi^D = [s = 1],
chi(Frob) = s where chi is unramified, and, as the annihilator of a subgroup
H has order 4/|H|, |D|/|I| = |U|/|Z| (`sign_facts`); D = V4 exactly when no
sign is 1 (`full_decomposition`), and I != 1, putting p in S, exactly when
some sign is 0.  `local_data` builds the groups themselves, as
intersections of kernels, for a report.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from fractions import Fraction
from math import gcd

from .arith import factorization, is_prime, kronecker_symbol, prime_factors
from .errors import InputError
from .grouprings import (V4_CHARS, V4_E, GaloisChar, element_name,
                         group_elements, label_index)


# The largest |d| accepted for d1 and d2, which are factored: a composite
# cofactor of such a d has a prime factor below 10^9, which Pollard-Brent
# rho finds in some 10^4.5 steps.
D_BOUND = 10 ** 18


def quad_field_disc(d: int) -> int:
    """Discriminant of Q(sqrt(d)) for squarefree d != 1."""
    return d if d % 4 == 1 else 4 * d


class FieldData(namedtuple("FieldData", "d1 d2 d3")):
    __slots__ = ()

    @property
    def subfields(self) -> tuple[int, int, int]:
        return (self.d1, self.d2, self.d3)

    @property
    def char_to_subfield(self) -> dict[str, int]:
        return {"chi1": self.d1, "chi2": self.d2, "chi1chi2": self.d3}

    def subfield_of(self, label: str) -> int:
        if label == "1":
            raise InputError("the trivial character fixes no quadratic subfield")
        return self.subfields[label_index(label) - 1]

    def to_json_dict(self) -> dict:
        return {"d1": self.d1, "d2": self.d2, "d3": self.d3,
                "totally_real": True,
                "subfield_discs": {str(d): quad_field_disc(d) for d in self.subfields}}


def _squarefree_primes(d: int) -> list[int]:
    """The primes of d, checked to be a squarefree integer != 1 with
    |d| <= D_BOUND, from one factorization."""
    if abs(d) > D_BOUND:
        raise InputError(f"{d} is outside the supported range |d| <= 10^18")
    exponents = factorization(d)
    if d in (0, 1) or any(e > 1 for e in exponents.values()):
        raise InputError(f"{d} is not a squarefree integer != 1")
    return sorted(exponents)


def field_and_ramified_set(d1: int, d2: int) -> tuple[FieldData, list[int]]:
    """`field_data(d1, d2)` and its `ramified_set`, from one factorization
    of d1 and one of d2."""
    primes1, primes2 = _squarefree_primes(d1), _squarefree_primes(d2)
    if d1 == d2:
        raise InputError("d1 and d2 must define distinct quadratic fields")
    if d1 < 0 or d2 < 0:
        raise InputError("negative d makes E imaginary, and E = N^Z is totally "
                         "real for every quaternion field N")
    # squarefree kernel of d1*d2, not 1, d1 or d2: d1 != d2 are squarefree and > 1
    d3 = d1 * d2 // gcd(d1, d2) ** 2
    return (FieldData(d1, d2, d3),
            sorted(disc_primes(d1, primes1) | disc_primes(d2, primes2)))


def field_data(d1: int, d2: int) -> FieldData:
    return field_and_ramified_set(d1, d2)[0]


class PrimeLocalData(namedtuple("PrimeLocalData",
                                 "p in_s inertia decomposition frob a_p b_p")):
    """Inertia and decomposition subgroups of V4 at p, a Frobenius
    representative, and (when the decomposition group is everything) the
    canonical inertia generator a_p and Frobenius lift b_p."""

    __slots__ = ()

    @property
    def full_decomposition(self) -> bool:
        return len(self.decomposition) == 4

    def char_facts(self, chi: GaloisChar) -> tuple[int, int, int]:
        """(dim chi^I, dim chi^D, chi(Frob)), all that the formulas' int cores read."""
        return chi.fixes(self.inertia), chi.fixes(self.decomposition), chi(self.frob)

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "in_s": self.in_s,
            "inertia": sorted(element_name(g) for g in self.inertia),
            "decomposition": sorted(element_name(g) for g in self.decomposition),
            "frobenius": element_name(self.frob),
            "a_p": element_name(self.a_p) if self.a_p is not None else None,
            "b_p": element_name(self.b_p) if self.b_p is not None else None,
        }


def local_data(p: int, signs: tuple[int, int, int]) -> PrimeLocalData:
    """Inertia, decomposition and Frobenius at p (the first element of D
    outside I, else e), read off from the Frobenius signs of p in the three
    quadratic subfields as kernel intersections."""
    inertia = decomposition = V4_CHARS[0].kernel
    for chi, sign in zip(V4_CHARS[1:], signs):
        if sign != 0:
            inertia &= chi.kernel
        if sign == 1:
            decomposition &= chi.kernel
    frob = next((g for g in group_elements()
                 if g in decomposition and g not in inertia), V4_E)
    a_p = b_p = None
    if len(decomposition) == 4 and len(inertia) == 2:
        (a_p,) = inertia - {V4_E}
        b_p = frob
    return PrimeLocalData(p, len(inertia) > 1, inertia, decomposition, frob, a_p, b_p)


def frob_signs(d1: int, d2: int, d3: int, p: int) -> tuple[int, int, int]:
    """The quadratic characters of Q(sqrt(d1)), Q(sqrt(d2)), Q(sqrt(d3)) at
    Frob_p: 1 where p splits, -1 where it is inert, 0 where it ramifies.
    An odd p ramifies where it divides d, and is otherwise read from the
    Legendre symbol (d/p), which is (disc/p) as (4/p) = 1; where p divides
    neither d1 nor d2, chi_{d3}(p) = chi_{d1}(p) chi_{d2}(p), as
    d3 = d1 d2 / gcd^2."""
    if p == 2:
        return tuple(0 if quad_field_disc(d) % 2 == 0 else 1 if d % 8 == 1 else -1
                     for d in (d1, d2, d3))
    s1, s2 = (0 if d % p == 0 else kronecker_symbol(d, p) for d in (d1, d2))
    if s1 and s2:
        return s1, s2, s1 * s2
    return s1, s2, 0 if d3 % p == 0 else kronecker_symbol(d3, p)


def sign_facts(signs: tuple[int, int, int]) -> tuple[int, list[tuple[int, int, int]]]:
    """|D|/|I| and the `char_facts` of 1, chi1, chi2, chi1chi2 at a prime of
    these Frobenius signs (see the module docstring), chi(Frob) exact where
    dim chi^I = 1, the only place the formulas' int cores read it."""
    signs = (1, *signs)
    facts = [(int(s != 0), int(s == 1), s) for s in signs]
    return (4 - signs.count(0)) // signs.count(1), facts


def full_decomposition(signs: tuple[int, int, int]) -> bool:
    """D = V4 at a prime of these Frobenius signs (see the module docstring)."""
    return 1 not in signs


def local_galois(f: FieldData, p: int) -> PrimeLocalData:
    """The local data of f at the prime p: `local_data` of its `frob_signs`."""
    if p < 2 or not is_prime(p):
        raise InputError(f"{p} is not prime")
    return local_data(p, frob_signs(*f.subfields, p))


def disc_primes(d: int, primes: Iterable[int] | None = None) -> set[int]:
    """The primes dividing the discriminant of Q(sqrt(d)): those of d
    (`primes`, when the caller has them), and 2 unless d = 1 mod 4."""
    if primes is None:
        primes = prime_factors(d)
    return set(primes).union(() if d % 4 == 1 else (2,))


def ramified_set(f: FieldData) -> list[int]:
    """Rational primes dividing the discriminant of E (minimal admissible
    set of finite places): those ramified in Q(sqrt(d1)) or Q(sqrt(d2)),
    since every prime ramified in Q(sqrt(d3)) is one of them."""
    return sorted(disc_primes(f.d1) | disc_primes(f.d2))


def _euler(p: int, dim_i: int, dim_d: int, frob: int):
    return (p - frob, p) if dim_i else (1, 1)


def euler_factor(chi: GaloisChar, p: int, local: PrimeLocalData) -> Fraction:
    """det(1 - p^-1 Frob^-1 | chi^I) as an exact rational: 1 when chi is
    nontrivial on inertia, else (p - chi(Frob))/p."""
    return Fraction(*_euler(p, *local.char_facts(chi)))


def frob_det_quotient(chi: GaloisChar, local: PrimeLocalData) -> int:
    """det(1 - Frob^-1 | chi^I / chi^D), an integer."""
    return _frob_det(*local.char_facts(chi))


def _frob_det(dim_i: int, dim_d: int, frob: int):
    return 1 - frob if dim_i - dim_d == 1 else 1


def artin_conductor(label: str, f: FieldData) -> int:
    """1 for the trivial character, else the discriminant of the real
    quadratic subfield cut out by the character of this label."""
    if label == "1":
        return 1
    return quad_field_disc(f.subfield_of(label))
