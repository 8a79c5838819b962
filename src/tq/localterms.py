"""The explicit three-term free complex attached to an odd prime p whose
decomposition group is all of V4 (so inertia has order two and the residue
extension is quadratic), its valuation trivialization, and the two routes
to the local class: the generic determinant pipeline and the closed
formula.  The two routes agree in (Z/4)* but not as rationals; only the
mod-4 agreement is asserted anywhere."""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .arith import is_prime
from .biquadratic import _euler, _frob_det
from .errors import InputError
from .grouprings import (V4_CHARS, V4_E, GaloisChar, GroupRingElem,
                         GroupRingMatrix, apply_char)
from .perfectcomplex import (CohomologyIsoComponent, PerfectComplex,
                             class_representative)
from .relk0 import HomRep

# generators live in degrees -2 (w), -1 (z1, z2), 0 (t)
DEGREES = (-2, 0)


def _require_odd_prime(p: int) -> None:
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise InputError(f"{p} is not an odd prime")


class TameComplexSpec(namedtuple("TameComplexSpec", "p a b")):
    """Input data for the local complex at an odd prime: the inertia
    generator a and a Frobenius lift b, two distinct nontrivial elements
    of V4."""

    __slots__ = ()

    def __new__(cls, p: int, a: int, b: int):
        self = super().__new__(cls, p, a, b)
        _require_odd_prime(self.p)
        if self.a == V4_E:
            raise InputError("inertia generator must be nontrivial")
        if self.b in (V4_E, self.a):
            raise InputError("Frobenius lift must lie outside {e, a}")
        return self


class LatticeExponent(namedtuple("LatticeExponent", "m sign")):
    """The integer 1 <= m <= 100 scaling the sublattice (the cap keeps p^(m+2)
    under Python's 4300-digit int printing limit), and the sign ambiguity of
    the residue-correction exponent."""

    __slots__ = ()

    def __new__(cls, m: int = 1, sign: int = 1):
        self = super().__new__(cls, m, sign)
        if not 1 <= self.m <= 100:
            raise InputError("lattice exponent m must be in [1, 100]")
        if self.sign not in (1, -1):
            raise InputError("sign must be +1 or -1")
        return self


def inertia_unit(p: int, a: int) -> GroupRingElem:
    """(p+1)/2 + ((p-1)/2) a, the group-ring element realizing the residue
    field as a quotient."""
    return GroupRingElem({V4_E: (p + 1) // 2, a: (p - 1) // 2})


def build_tame_complex(spec: TameComplexSpec) -> PerfectComplex:
    """Degrees -2, -1, 0 with ranks 1, 2, 1: first differential
    w |-> (b((p+1)/2 + ((p-1)/2)a) - 1) z1 - (a - 1) z2, second the negated
    map z1 |-> (a-1)t, z2 |-> (b-1)t."""
    a = GroupRingElem.of(spec.a)
    b = GroupRingElem.of(spec.b)
    one = GroupRingElem.one()
    lam = GroupRingMatrix.from_rows([[b * inertia_unit(spec.p, spec.a) - one, -(a - one)]])
    minus_phi = GroupRingMatrix.from_rows([[-(a - one)], [-(b - one)]])
    return PerfectComplex(DEGREES, {-2: 1, -1: 2, 0: 1},
                          {-2: lam, -1: minus_phi})


def torsion_cycle(spec: TameComplexSpec, chi: GaloisChar) -> list[int]:
    """Character specialization of T = (1+b) z2 - (1+a) z1, the cocycle
    whose class generates the odd cohomology at the trivial character."""
    return [-(1 + chi(spec.a)), 1 + chi(spec.b)]


def valuation_iso(spec: TameComplexSpec) -> dict[str, CohomologyIsoComponent]:
    """The normalized valuation trivialization: at the trivial character it
    sends the class of T to the augmentation class of t with matrix (1);
    at nontrivial characters the cohomology vanishes and the iso is 0x0.
    `class_representative` checks these dimensions against the complex."""
    components = {}
    for chi in V4_CHARS:
        if chi.is_trivial():
            components[chi.label] = CohomologyIsoComponent(
                odd_reps={-1: [torsion_cycle(spec, chi)]},
                even_reps={0: [[1]]},
                matrix=[[1]])
        else:
            components[chi.label] = CohomologyIsoComponent({}, {}, [])
    return components


def residue_class(p: int, a: int) -> HomRep:
    """The class of the residue quadratic extension as a function on
    characters: p where chi(a) = 1, else 1."""
    _require_odd_prime(p)
    return HomRep.from_char_function(
        lambda chi: Fraction(p) if chi.fixes((a,)) else Fraction(1))


class ResidueResolutionReport(namedtuple(
        "ResidueResolutionReport",
        "p multiplication_by_p displayed_identity char_values char_value_list")):
    """Witness report for the two-term free resolution of the residue
    field by multiplication with (p+1)/2 + ((p-1)/2) a."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return (self.multiplication_by_p and self.displayed_identity
                and self.char_values)


def verify_residue_resolution(p: int, a: int) -> ResidueResolutionReport:
    """Check, exactly:

    (i)  x = (p+1)/2 + ((p-1)/2) a acts as multiplication by p on the
         residue-field model (a acts trivially there), so the composite of
         the resolution maps is zero mod p;
    (ii) x - a x = 1 - a in Q[V4];
    (iii) the characters send x to the values of `residue_class(p, a)`:
          p where chi(a) = 1, else 1.
    """
    _require_odd_prime(p)
    if a == V4_E:
        raise InputError("inertia generator must be a nontrivial V4 element")
    x = inertia_unit(p, a)
    # (i) on the normal basis (v, v-bar) of the residue field, inertia acts
    # as the identity and everything outside it as the swap, so x acts as
    # s_in + s_out swap: multiplication by p exactly when s_in = p, s_out = 0
    s_in = sum(c for g, c in x.items() if g in (V4_E, a))
    s_out = sum(c for g, c in x.items() if g not in (V4_E, a))
    mult_by_p = s_in == p and s_out == 0
    # (ii)
    one = GroupRingElem.one()
    a_elem = GroupRingElem.of(a)
    displayed = (x - a_elem * x) == (one - a_elem)
    # (iii)
    values = tuple(apply_char(chi, x) for chi in V4_CHARS)
    chars_ok = values == residue_class(p, a).as_tuple()
    return ResidueResolutionReport(p, mult_by_p, displayed, chars_ok, values)


def _require_full_decomposition(p, local) -> None:
    if p % 2 == 0:
        raise InputError("local terms are computed at odd primes only")
    if len(local.decomposition) != 4 or len(local.inertia) != 2:
        raise InputError(
            f"p = {p}: local term requires full decomposition group with "
            f"order-2 inertia (got |D| = {len(local.decomposition)}, "
            f"|I| = {len(local.inertia)})")


def _local_term(p: int, lat: LatticeExponent, dim_i: int, dim_d: int, frob: int):
    eps = -1 if dim_i - dim_d else 1
    e_num, e_den = _euler(p, dim_i, dim_d, frob)
    p_exp = 1 + lat.sign * lat.m * dim_i
    num = eps * _frob_det(dim_i, dim_d, frob) * e_den * p ** max(-p_exp, 0)
    den = 2 ** dim_d * p ** max(p_exp, 0) * e_num
    return num, den


def local_term_closed_form(p: int, local, lat: LatticeExponent) -> HomRep:
    """The local class at a fully decomposed odd prime by the closed
    formula, whose value at chi is

        eps(chi) * (|G|/|I|)^(-dim chi^D) * det(1 - Frob^-1 | chi^I/chi^D)
        / ( p^(1 +- m dim chi^I) * det(1 - p^-1 Frob^-1 | chi^I) )

    with eps(chi) = (-1)^(dim(chi^I/chi^D)) and |G|/|I| = 2.
    """
    _require_full_decomposition(p, local)
    return HomRep.from_char_function(
        lambda chi: Fraction(*_local_term(p, lat, *local.char_facts(chi))))


def local_term_via_complex(p: int, local, lat: LatticeExponent) -> HomRep:
    """The generic determinant pipeline on the tame complex with the
    valuation trivialization, corrected for the lattice choice by the
    residue-field power chi |-> p^(m dim chi^I +- 1)."""
    _require_full_decomposition(p, local)
    spec = TameComplexSpec(p, local.a_p, local.b_p)
    rep = class_representative(build_tame_complex(spec), valuation_iso(spec))
    correction = HomRep.from_char_function(
        lambda chi: Fraction(p) ** (lat.m * chi.fixes(local.inertia) + lat.sign))
    return rep * correction
