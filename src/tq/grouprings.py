"""Exact arithmetic in the rational group ring Q[V4] of the Klein four-group
V4 = <a, b> = Gal(E/Q), and its four one-dimensional characters.

Elements are pairs (i, j) with i, j in {0, 1}, meaning a^i b^j; the product
is the componentwise XOR of the pairs.  The normal form is fixed once and
for all so that dictionaries keyed by group elements are deterministic.

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

from .errors import UnsupportedGroupError
from .linalg import Rational, exact


class GroupElement(namedtuple("GroupElement", "word")):
    __slots__ = ()

    def __new__(cls, word: tuple[int, int]):
        self = super().__new__(cls, word)
        i, j = self.word
        if i not in (0, 1) or j not in (0, 1):
            raise UnsupportedGroupError(f"word {self.word} is not a normal form in V4")
        return self

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        i, j = self.word
        k, l = other.word
        return _BY_WORD[i ^ k, j ^ l]

    def __repr__(self):
        return f"<V4:{element_name(self)}>"


V4_E = GroupElement((0, 0))
V4_A = GroupElement((1, 0))
V4_B = GroupElement((0, 1))
V4_AB = GroupElement((1, 1))

_ELEMENTS = (V4_E, V4_A, V4_B, V4_AB)
_BY_WORD = {g.word: g for g in _ELEMENTS}
_V4_NAMES = {V4_E: "e", V4_A: "a", V4_B: "b", V4_AB: "ab"}


def group_elements() -> tuple[GroupElement, ...]:
    """All elements in canonical order."""
    return _ELEMENTS


def element_name(g: GroupElement) -> str:
    return _V4_NAMES[g]


class GaloisChar(namedtuple("GaloisChar", "label kernel")):
    """A one-dimensional character of V4, stored by its kernel."""

    __slots__ = ()

    def __call__(self, g: GroupElement) -> int:
        return 1 if g in self.kernel else -1

    def is_trivial(self) -> bool:
        return len(self.kernel) == len(_ELEMENTS)

    def fixes(self, elements: Iterable[GroupElement]) -> int:
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
        raise UnsupportedGroupError(f"{label!r} is not a character label of V4")
    return HOMREP_KEYS.index(label)


class GroupRingElem:
    """A finitely supported rational combination of group elements.
    Immutable after construction; zero coefficients are dropped, and a
    coefficient is an int when it is integral (`linalg.exact`)."""

    __slots__ = ("_coeffs", "_key")

    def __init__(self, coeffs: Mapping[GroupElement, Rational] | None = None):
        clean: dict[GroupElement, Rational] = {}
        for g, c in (coeffs or {}).items():
            c = exact(c)
            if c != 0:
                clean[g] = c
        self._coeffs = clean
        self._key = tuple(sorted(clean.items()))

    @classmethod
    def zero(cls) -> "GroupRingElem":
        return cls({})

    @classmethod
    def one(cls) -> "GroupRingElem":
        return cls({V4_E: 1})

    @classmethod
    def of(cls, g: GroupElement) -> "GroupRingElem":
        return cls({g: 1})

    def items(self):
        return self._key

    def is_zero(self) -> bool:
        return not self._coeffs

    def _coerce(self, other) -> "GroupRingElem | None":
        if isinstance(other, GroupRingElem):
            return other
        if isinstance(other, (int, Fraction)):
            return GroupRingElem({V4_E: other})
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self._coeffs)
        for g, c in o._coeffs.items():
            out[g] = out.get(g, 0) + c
        return GroupRingElem(out)

    __radd__ = __add__

    def __neg__(self):
        return GroupRingElem({g: -c for g, c in self._coeffs.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return GroupRingElem({g: other * v for g, v in self._coeffs.items()})
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out: dict[GroupElement, Rational] = {}
        for g, c in self._coeffs.items():
            for h, d in o._coeffs.items():
                gh = g * h
                out[gh] = out.get(gh, 0) + c * d
        return GroupRingElem(out)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        if not isinstance(other, GroupRingElem):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        if self.is_zero():
            return "0"
        terms = [f"({c})*{element_name(g)}" for g, c in self._key]
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
    def from_rows(cls, rows: Iterable[Iterable[GroupRingElem | Rational]]) -> "GroupRingMatrix":
        out = []
        for row in rows:
            conv = []
            for x in row:
                if isinstance(x, GroupRingElem):
                    conv.append(x)
                else:
                    conv.append(GroupRingElem({V4_E: x}))
            out.append(tuple(conv))
        return cls(tuple(out))

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
