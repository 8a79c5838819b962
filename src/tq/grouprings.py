"""Exact arithmetic in the rational group ring Q[V4] of the Klein four-group
V4 = <a, b> = Gal(E/Q), and its four one-dimensional characters.

V4 is (Z/2)^2, so the element a^i b^j is the int 2i + j: e, b, a, ab are
0, 1, 2, 3, ordered as their words (i, j), and the product is XOR, `g ^ h`
(never `g * h`, which multiplies the ints).  An element of Q[V4] is the
tuple of its four coefficients, indexed by group element.

A coefficient of an element of Q[V4] is an int when it is integral and a
Fraction only when it is not, like the 1/4 of an idempotent; `apply_char`
keeps the same rule, so the tame complex specializes to int matrices.

A character is stored as its kernel, the one fact every question about it
reduces to: chi(g) is 1 on the kernel and -1 off it, and dim chi^H is 1
exactly when the subgroup H lies in the kernel.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Mapping
from fractions import Fraction
from operator import add

from .errors import ContractViolationError
from .linalg import Rational, exact


V4_E, V4_B, V4_A, V4_AB = 0, 1, 2, 3

# the canonical order, which `biquadratic.local_data` scans for Frobenius
_ELEMENTS = (V4_E, V4_A, V4_B, V4_AB)
_V4_NAMES = ("e", "b", "a", "ab")  # indexed by element


def group_elements() -> tuple[int, ...]:
    """All elements in canonical order."""
    return _ELEMENTS


def element_name(g: int) -> str:
    return _V4_NAMES[g]


class GaloisChar(namedtuple("GaloisChar", "label kernel")):
    """A one-dimensional character of V4, stored by its kernel."""

    __slots__ = ()

    def __call__(self, g: int) -> int:
        return 1 if g in self.kernel else -1

    def is_trivial(self) -> bool:
        return len(self.kernel) == len(_ELEMENTS)

    def fixes(self, elements: Iterable[int]) -> int:
        """dim chi^H for the subgroup H generated by `elements`: 1 when H
        lies in the kernel of chi, else 0."""
        return 1 if self.kernel.issuperset(elements) else 0


HOMREP_KEYS = ("1", "chi1", "chi2", "chi1chi2")

# chi1(a) = -1 = chi2(b), chi1(b) = 1 = chi2(a)
V4_CHARS = (
    GaloisChar("1", frozenset(_ELEMENTS)),
    GaloisChar("chi1", frozenset({V4_E, V4_B})),
    GaloisChar("chi2", frozenset({V4_E, V4_A})),
    GaloisChar("chi1chi2", frozenset({V4_E, V4_AB})),
)


def label_index(label: str) -> int:
    """The position of a character label in HOMREP_KEYS."""
    if label not in HOMREP_KEYS:
        raise ContractViolationError(f"{label!r} is not a character label of V4")
    return HOMREP_KEYS.index(label)


class GroupRingElem:
    """An element of Q[V4], immutable: its coefficients at e, b, a, ab, in
    that order, each an int when it is integral (`linalg.exact`).  Its +,
    -, * and == take elements only: n is `GroupRingElem({V4_E: n})`."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, Rational] | None = None):
        """From a map of group elements to coefficients, 0 where absent."""
        coeffs = coeffs or {}
        self._coeffs = tuple(exact(coeffs.get(g, 0)) for g in range(4))

    @classmethod
    def _of_tuple(cls, coeffs: Iterable[Rational]) -> "GroupRingElem":
        self = cls.__new__(cls)
        self._coeffs = tuple(map(exact, coeffs))
        return self

    @classmethod
    def zero(cls) -> "GroupRingElem":
        return cls()

    @classmethod
    def one(cls) -> "GroupRingElem":
        return cls({V4_E: 1})

    @classmethod
    def of(cls, g: int) -> "GroupRingElem":
        return cls({g: 1})

    def items(self) -> tuple[tuple[int, Rational], ...]:
        """The nonzero terms (g, coefficient), in element order."""
        return tuple((g, c) for g, c in enumerate(self._coeffs) if c)

    def is_zero(self) -> bool:
        return not any(self._coeffs)

    def __add__(self, other):
        if not isinstance(other, GroupRingElem):
            return NotImplemented
        return GroupRingElem._of_tuple(map(add, self._coeffs, other._coeffs))

    def __neg__(self):
        return GroupRingElem._of_tuple(-c for c in self._coeffs)

    def __sub__(self, other):
        if not isinstance(other, GroupRingElem):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, GroupRingElem):
            return NotImplemented
        out = [0] * 4
        for g, c in self.items():
            for h, d in other.items():
                out[g ^ h] += c * d
        return GroupRingElem._of_tuple(out)

    def __eq__(self, other):
        if not isinstance(other, GroupRingElem):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __repr__(self):
        if self.is_zero():
            return "0"
        terms = [f"({c})*{element_name(g)}" for g, c in self.items()]
        return " + ".join(terms)


def idempotent(chi: GaloisChar) -> GroupRingElem:
    """The primitive idempotent sigma_chi = (1/|G|) sum_g chi(g) g of Q[V4]."""
    n = len(_ELEMENTS)
    return GroupRingElem({g: Fraction(chi(g), n) for g in _ELEMENTS})


def apply_char(chi: GaloisChar, x: GroupRingElem) -> Rational:
    """Linear extension of chi to the group ring."""
    total = 0
    for g, c in x.items():
        total += c * chi(g)
    return exact(total)


class GroupRingMatrix(namedtuple("GroupRingMatrix", "entries")):
    """A rows x cols matrix over Q[V4].  A map of free modules P -> Q is
    stored row-wise: row i lists the coefficients of the image of the i-th
    basis vector of P in the basis of Q."""

    __slots__ = ()

    def __new__(cls, entries: tuple[tuple[GroupRingElem, ...], ...]):
        self = super().__new__(cls, entries)
        width = {len(r) for r in self.entries}
        if len(width) > 1:
            raise ValueError("ragged matrix")
        return self

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[GroupRingElem]]) -> "GroupRingMatrix":
        return cls(tuple(map(tuple, rows)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __matmul__(self, other: "GroupRingMatrix") -> "GroupRingMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ "
                             f"{other.rows}x{other.cols}")
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = GroupRingElem.zero()
                for k in range(self.cols):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            out.append(tuple(row))
        return GroupRingMatrix(tuple(out))

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.entries for x in row)


def apply_char_matrix(chi: GaloisChar, m: GroupRingMatrix) -> list[list[Rational]]:
    """Entrywise application of a one-dimensional character: the rational
    matrix of the character-specialized map."""
    return [[apply_char(chi, x) for x in row] for row in m.entries]
