"""Relative K-class bookkeeping for the Klein four-group via the
Hom-description: a class is represented by a function from the four
one-dimensional characters to nonzero rationals, and is classified by the
complete invariant pair (rank vector of 2-adic valuations, a tuple of ints
in `HOMREP_KEYS` order; torsion class in (Z/4)*, the int 1 or 3).  The
pipeline reads only the torsion class; `v2` and the rank vector serve the
induction formula of acceptance criterion 7 (`induce_from_subgroup`)."""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from fractions import Fraction

from .errors import InputError
from .grouprings import HOMREP_KEYS, V4_CHARS, V4_E, label_index
from .linalg import Rational, exact


def v2(q: Rational) -> int:
    """2-adic valuation of a nonzero rational, an int or a `Fraction`
    (`linalg.exact` refuses anything else, a float above all)."""
    q = exact(q)
    if q == 0:
        raise InputError("v2(0) is undefined")
    n, d = q.numerator, q.denominator
    return (n & -n).bit_length() - (d & -d).bit_length()


def odd_unit(n: int) -> int:
    """The odd part of the nonzero integer n (sign kept), reduced mod 4:
    1 or 3."""
    return n // (n & -n) % 4


def odd_part_mod4(q: Rational) -> int:
    """Strip all factors of 2 from q and reduce the remaining odd rational
    mod 4 (odd denominators are inverted mod 4): 1 or 3."""
    q = exact(q)
    if q == 0:
        raise InputError("odd part mod 4 of 0 is undefined")
    # for odd d, the inverse of d mod 4 is d itself
    return odd_unit(q.numerator) * odd_unit(q.denominator) % 4


class HomRep:
    """A Hom-description representative: nonzero rational value per
    character label ("1", "chi1", "chi2", "chi1chi2").  The group law is
    pointwise multiplication."""

    __slots__ = ("_values",)

    def __init__(self, values: Iterable[Rational]):
        """`values` in the order of HOMREP_KEYS; a `Fraction` is kept as
        given, and anything else goes through `linalg.exact`."""
        vals = tuple(v if type(v) is Fraction else Fraction(exact(v)) for v in values)
        if len(vals) != 4:
            raise InputError("a HomRep needs exactly four values")
        if any(v == 0 for v in vals):
            raise InputError("HomRep values must be nonzero")
        self._values = vals

    def __getitem__(self, label: str) -> Fraction:
        return self._values[label_index(label)]

    def as_tuple(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return self._values

    def __mul__(self, other: "HomRep") -> "HomRep":
        return HomRep(tuple(a * b for a, b in zip(self._values, other._values)))

    def inverse(self) -> "HomRep":
        return HomRep(tuple(1 / v for v in self._values))

    def __eq__(self, other):
        if not isinstance(other, HomRep):
            return NotImplemented
        return self._values == other._values

    def __repr__(self):
        body = ", ".join(f"{k}: {v}" for k, v in zip(HOMREP_KEYS, self._values))
        return f"HomRep({body})"

    @classmethod
    def from_char_function(cls, fn) -> "HomRep":
        """Build from a callable on the canonical V4 characters, whose
        order is that of HOMREP_KEYS."""
        return cls(map(fn, V4_CHARS))

    def to_json_dict(self) -> dict[str, str]:
        return {k: f"{v.numerator}/{v.denominator}"
                for k, v in zip(HOMREP_KEYS, self._values)}


def torsion_class(h: HomRep) -> int:
    """Product of the four values, 2-power stripped, mod 4: the complete
    torsion invariant of the class represented by h, 1 or 3."""
    return odd_part_mod4(math.prod(h.as_tuple()))


def _validate_subgroup(elements: Iterable[int]) -> frozenset[int]:
    elems = frozenset(elements)
    if not elems:
        raise InputError("empty subgroup")
    if V4_E not in elems:
        raise InputError("subgroup must contain the identity")
    for g in elems:
        for h in elems:
            if g ^ h not in elems:
                raise InputError("not closed under multiplication")
    return elems


def induce_from_subgroup(subgroup: Iterable[int],
                         f: Mapping[str, Rational]) -> tuple[tuple[int, ...], int]:
    """Induction of a class from a subgroup H of order 1 or 2 up to V4,
    read off through restriction of characters: the rank vector, in
    `HOMREP_KEYS` order, whose entry at chi is v2(f(chi restricted to H)),
    and the torsion class, always the trivial 1.

    `f` maps "1" (and, when |H| = 2, "sign") to nonzero rationals.
    """
    elems = _validate_subgroup(subgroup)
    if len(elems) not in (1, 2):
        raise InputError("not a proper subgroup of order <= 2; "
                         "induction formula does not apply")
    f_triv = exact(f["1"])
    if f_triv == 0:
        raise InputError("character values must be nonzero")
    f_sign = f_triv  # unused when |H| = 1: every character fixes H
    if len(elems) == 2:
        f_sign = exact(f["sign"])
        if f_sign == 0:
            raise InputError("character values must be nonzero")
    exps = tuple(v2(f_triv if chi.fixes(elems) else f_sign) for chi in V4_CHARS)
    return exps, 1
