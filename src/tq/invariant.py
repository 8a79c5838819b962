"""Assembly of the torsion invariant in (Z/4)* for a biquadratic field:
the simplified global representative (inverse Euler-factor products over
the ramified set), the per-prime power-of-two terms, and the local classes
at fully decomposed odd primes.  A report (`omega_loc_torsion`) reads all
of them, per prime and character, as int (numerator, denominator) pairs
from the prime's Frobenius signs alone (`prime_parts`), takes the odd part
mod 4 of their product as the prime's unit (`_parts_unit`), multiplies
the units to the field's class, and makes one `Fraction` of each pair it
shows.  Those parts reduce to a closed rule, a unit of 3 exactly when
D = V4 and I != V4 (notes/decisions.md, "A prime's unit in closed form"),
and `sweep` decides a whole row of fields at once, as int bitmasks, by
the parity law that this rule gives through Hilbert reciprocity, reading
no prime's signs: the law's 2-adic symbol is `arith.hilbert_symbol` on
the classes of d1 and d2 at 2.  A report takes extra primes of S and a
lattice, which change values it shows; `sweep` takes neither, since
neither choice can change a unit.  Plus the analytic cross-check (the
ratio L*(1)/L*(0) squared, numerically, against its exact value) and the
standalone resolvent quotient check for the supported shapes of the
completion at 2.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable
from fractions import Fraction

from .arith import hilbert_symbol, is_prime
from .biquadratic import (FieldData, PrimeLocalData, _euler, _frob_det,
                          artin_conductor, euler_factor, field_and_ramified_set,
                          frob_signs, full_decomposition, local_data, local_galois,
                          quad_field_disc, sign_facts)
from .errors import InputError
from .grouprings import V4_CHARS
from .localterms import LatticeExponent, _local_term
from .lseries import l_one_logsin, narrow_class_number_and_regulator
from .relk0 import HomRep, odd_part_mod4, odd_unit

VERDICT_VANISHES = "vanishes"
VERDICT_NONZERO = "nonzero"
VERDICT_INADMISSIBLE = "inadmissible"
INADMISSIBLE_NOTE = "decomposition group at 2 is everything"


def _delta1(ratio: int, dim_i: int, dim_d: int, frob: int):
    return _frob_det(dim_i, dim_d, frob), ratio ** dim_d


def delta1_term(f: FieldData, p: int, local: PrimeLocalData | None = None) -> HomRep:
    """The power-of-two class attached to p, whose value at chi is
    (|D|/|I|)^(-dim chi^D) det(1 - Frob^-1 | chi^I/chi^D)."""
    local = local or local_galois(f, p)
    ratio = len(local.decomposition) // len(local.inertia)
    return HomRep.from_char_function(
        lambda chi: Fraction(*_delta1(ratio, *local.char_facts(chi))))


def ts_representative(f: FieldData, s_f: Iterable[int]) -> HomRep:
    """Simplified global representative: per character, the inverse of the
    product of Euler factors over the finite places of S."""
    prod = HomRep((1, 1, 1, 1))
    for p in sorted(set(s_f)):
        local = local_galois(f, p)
        prod = prod * HomRep(euler_factor(chi, p, local) for chi in V4_CHARS)
    return prod.inverse()


class ResolventCheck(namedtuple("ResolventCheck", "status completion value reason",
                                 defaults=(None, None, None))):
    """Result of the standalone quotient check available when 2 ramifies
    and the completion at 2 is Q2(sqrt(2)) or Q2(sqrt(10)): `status` is
    "pass", "fail" or "unsupported", and `completion` is "Q2(sqrt2)" or
    "Q2(sqrt10)"."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {"status": self.status, "completion": self.completion,
                "value": (f"{self.value.numerator}/{self.value.denominator}"
                          if self.value is not None else None),
                "reason": self.reason}


def resolvent_factor_check(f: FieldData) -> ResolventCheck | None:
    """Evaluate r = sqrt(prod of conductors) / (8^4 * pi^2) exactly and
    test that its odd part is 1 mod 4.  Returns None when 2 is unramified
    (the dropped factor is then determinantal and contributes nothing),
    and an `unsupported` report when the completion at 2 is not one of the
    two supported quadratic extensions."""
    ram = [d for d in f.subfields if quad_field_disc(d) % 2 == 0]
    if not ram:
        return None
    if len(ram) == 3:
        return ResolventCheck("unsupported",
                              reason="2 ramifies in every quadratic subfield")
    # for even d, d/2 = 1 mod 8 exactly when d = 2 mod 16, and
    # d/2 = 5 mod 8 exactly when d = 10 mod 16
    classes = sorted(d % 16 for d in ram if d % 2 == 0)
    if classes == [2, 2]:
        pi_sq, completion = 2, "Q2(sqrt2)"
    elif classes == [10, 10]:
        pi_sq, completion = 10, "Q2(sqrt10)"
    else:
        return ResolventCheck("unsupported",
                              reason="completion at 2 is a ramified extension "
                                     "not generated by sqrt(2) or sqrt(10)")
    # the conductors multiply to disc(E) = D1 D2 D3, which is always a square
    prod_f = math.prod(artin_conductor(chi.label, f) for chi in V4_CHARS)
    r = Fraction(math.isqrt(prod_f), 8 ** 4 * pi_sq)
    ok = odd_part_mod4(r) == 1
    return ResolventCheck("pass" if ok else "fail", completion, r)


class PrimeReport(namedtuple("PrimeReport", "local delta1 euler local_term")):
    """`delta1`, `euler` and `local_term` are `HomRep`s in `HOMREP_KEYS` order;
    `local_term` is None off the fully decomposed odd primes of an admissible field."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "local": self.local.to_json_dict(),
            "delta1": self.delta1.to_json_dict(),
            "euler_factors": self.euler.to_json_dict(),
            "local_term": self.local_term.to_json_dict() if self.local_term else None,
        }


class InvariantReport(namedtuple("InvariantReport",
                                  "field per_prime ts_rep resolvent_check "
                                  "torsion verdict")):
    """One field's report: `per_prime` is keyed by S in increasing order,
    and `torsion` is the unit 1 or 3, or None for an inadmissible field."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        # each prime's delta1 and local term dicts, made once, appear twice
        per_prime = {str(p): r.to_json_dict() for p, r in self.per_prime.items()}
        return {
            "field": self.field.to_json_dict(),
            "s_f": list(self.per_prime),
            "per_prime": per_prime,
            "ts_rep": self.ts_rep.to_json_dict() if self.ts_rep else None,
            "delta1": {p: r["delta1"] for p, r in per_prime.items()},
            "local_terms": {p: r["local_term"] for p, r in per_prime.items()
                            if r["local_term"] is not None},
            "resolvent_check": (self.resolvent_check.to_json_dict()
                                if self.resolvent_check else None),
            "torsion": self.torsion,
            "verdict": self.verdict,
            "note": INADMISSIBLE_NOTE if self.torsion is None else None,
        }


Pair = tuple[int, int]


def prime_parts(p: int, signs: tuple[int, int, int], lat: LatticeExponent
                ) -> list[tuple[Pair, Pair, Pair | None]]:
    """Per character 1, chi1, chi2, chi1chi2, the (numerator, denominator)
    pairs of the Euler factor, the power-of-two term and, at a fully
    decomposed odd prime, the local term (else None), at a prime p of these
    Frobenius signs: the int cores of `euler_factor`, `delta1_term` and
    `local_term_closed_form` on the characters' `sign_facts`."""
    local_term = p % 2 == 1 and full_decomposition(signs)
    ratio, facts = sign_facts(signs)
    return [(_euler(p, dim_i, dim_d, frob), _delta1(ratio, dim_i, dim_d, frob),
             _local_term(p, lat, dim_i, dim_d, frob) if local_term else None)
            for dim_i, dim_d, frob in facts]


def _parts_unit(parts: list[tuple[Pair, Pair, Pair | None]]) -> int:
    n = 1
    for (e_num, e_den), (d_num, d_den), local in parts:
        # a unit mod 4 is its own inverse, so numerators and
        # denominators count alike, inverted factors or not
        n *= e_num * e_den * d_num * d_den
        if local:
            n *= local[0] * local[1]
    return odd_unit(n)


def _prime_report(p: int, signs: tuple[int, int, int],
                  parts: list[tuple[Pair, Pair, Pair | None]],
                  admissible: bool) -> PrimeReport:
    """The report of p from its `prime_parts`, one `Fraction` per value,
    and its `local_data`; the local term only in an admissible field."""
    euler, delta1, local = zip(*parts)
    return PrimeReport(local_data(p, signs),
                       HomRep([Fraction(n, d) for n, d in delta1]),
                       HomRep([Fraction(n, d) for n, d in euler]),
                       HomRep([Fraction(n, d) for n, d in local])
                       if admissible and local[0] else None)


def omega_loc_torsion(d1: int, d2: int,
                      s_extra: Iterable[int] | None = None,
                      lat: LatticeExponent = LatticeExponent()) -> InvariantReport:
    """Full pipeline: field data; the Frobenius signs of 2 and of each
    prime of S, the ramified set plus any extra odd primes; each prime's
    `prime_parts`, read once for both its unit and its report; the torsion
    class, the product of those units mod 4, or None when the signs of 2
    (read even when 2 is not in S) give the full decomposition group, with
    its verdict; and the exact values behind it, one `Fraction` per value
    shown: per prime its local data, Euler factors, power-of-two terms
    and, at the fully decomposed odd primes of an admissible field, local
    class, and the simplified global representative."""
    f, ramified = field_and_ramified_set(d1, d2)
    extra = tuple(s_extra or ())
    for p in extra:
        if p == 2 or not is_prime(p):
            raise InputError(f"extra primes must be odd primes, got {p}")
    s_f = sorted(set(ramified).union(extra))
    at_2 = frob_signs(*f.subfields, 2)
    signs = {p: at_2 if p == 2 else frob_signs(*f.subfields, p) for p in s_f}
    parts = {p: prime_parts(p, signs[p], lat) for p in s_f}
    unit = (None if full_decomposition(at_2)
            else math.prod(map(_parts_unit, parts.values())) % 4)
    per_prime = {p: _prime_report(p, signs[p], parts[p], unit is not None) for p in s_f}

    if unit is None:
        return InvariantReport(f, per_prime, None, resolvent_factor_check(f),
                               None, VERDICT_INADMISSIBLE)

    # the global representative, per character 1 / the Euler factors' product over S
    ts_rep = HomRep([Fraction(math.prod([e.denominator for e in col]),
                              math.prod([e.numerator for e in col]))
                     for col in zip(*(r.euler.as_tuple() for r in per_prime.values()))])
    return InvariantReport(f, per_prime, ts_rep, resolvent_factor_check(f),
                           unit, VERDICT_VANISHES if unit == 1 else VERDICT_NONZERO)


class AnalyticCheck(namedtuple("AnalyticCheck",
                                "chi conductor lhs_numeric rhs_exact_squared "
                                "abs_error_squared tol")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.abs_error_squared < self.tol


def leading_ratio_check(label: str, f: FieldData,
                          tol: float = 1e-8) -> AnalyticCheck:
    """Numerically verify (L(1,chi)/L'(0,chi))^2 = 4/f(chi) for the
    nontrivial even character chi of this label.  L(1, chi) is the
    log-sine sum over chi's table, and L'(0, chi) = h+ R+ / 2 comes from
    the reduced forms of the discriminant by Dirichlet's class number
    formula, which reads no table: so the check tests that the table gives
    L(1, chi), not only that it is even with zero sum.  Both take a real
    field's discriminant only, and that is the conductor f(chi)."""
    disc = quad_field_disc(f.subfield_of(label))
    h, reg = narrow_class_number_and_regulator(disc)
    ratio = l_one_logsin(disc) / (h * reg / 2)
    rhs = Fraction(4, disc)
    err = abs(ratio * ratio - float(rhs))
    return AnalyticCheck(label, disc, ratio, rhs, err, tol)


class SweepSummary(namedtuple("SweepSummary", "dmax counts nonzero_fields")):
    __slots__ = ()

    @property
    def n_fields(self) -> int:
        return sum(self.counts.values())

    def to_json_dict(self) -> dict:
        return {"dmax": self.dmax, "counts": self.counts,
                "n_fields": self.n_fields,
                "nonzero_fields": [list(t) for t in self.nonzero_fields]}


def _squarefree_masks(dmax: int) -> tuple[list[int], list[list[int]], dict[int, int]]:
    """The squarefree 1 < d <= dmax in increasing order; for each d, the
    primes q = 3 mod 4 that divide it, in increasing order; and for each
    such q <= dmax, in increasing order, the mask of the d that q divides
    (bit i for the i-th d): one smallest-prime-factor sieve gives all
    three."""
    spf = list(range(dmax + 1))
    for q in range(2, math.isqrt(dmax) + 1):
        if spf[q] == q:
            for k in range(q * q, dmax + 1, q):
                if spf[k] == k:
                    spf[k] = q
    ds, q3, div = [], [], {}
    for d in range(2, dmax + 1):
        n, qs = d, []
        while n > 1:
            q = spf[n]
            n //= q
            if n % q == 0:  # q^2 | d
                break
            if q % 4 == 3:
                qs.append(q)
        else:
            for q in qs:
                div[q] = div.get(q, 0) | 1 << len(ds)
            ds.append(d)
            q3.append(qs)
    return ds, q3, div


def sweep(dmax: int) -> SweepSummary:
    """Decide every squarefree pair 1 < d1 < d2 <= dmax one row d2 at a
    time, the d1 being the bits of ints (bit i for the i-th squarefree d),
    by the parity law that the closed per-prime rule reduces to
    (notes/decisions.md, "The verdict and the parity law").  A field is
    admissible exactly when one of d1, d2, d3 is 1 mod 8, and for
    squarefree d d3 is 1 mod 8 exactly when d1 and d2 are in the same class
    at 2 (d mod 8, or mod 16 when d is even): `adm` is every d1 when d2 is
    1 mod 8, else the d1 of class 1 or of d2's class.  An admissible field
    is nonzero exactly when (d1, d2)_2 chi_-4(g) = -1, g the odd part of
    gcd(d1, d2): `flip` is the d1 of the classes c1 with
    `hilbert_symbol(c1, c2, 2)` = -1, c2 being d2's class, XORed with the
    d1 that each prime q = 3 mod 4 of d2 divides.  A class is itself a
    representative of its d modulo squares of Q2*, as d / c is 1 mod 8, so
    the symbol is read on the 8 x 8 classes once per sweep.  Nonzero
    torsion, `flip & adm`, is collected for prominent reporting: it means
    the predicted universal vanishing fails."""
    if dmax < 3:
        raise InputError("dmax must be at least 3")
    # q3[j]: the primes q = 3 mod 4 that divide ds[j]; div[q]: the d that q divides
    ds, q3, div = _squarefree_masks(dmax)
    cls = [d % 8 if d % 2 else d % 16 for d in ds]  # the class of each d
    of_class = dict.fromkeys((1, 3, 5, 7, 2, 6, 10, 14), 0)  # class -> its d
    for i, c in enumerate(cls):
        of_class[c] |= 1 << i
    hilbert = {c2: sum(m for c1, m in of_class.items() if hilbert_symbol(c1, c2, 2) < 0)
               for c2 in of_class}  # class of d2 -> the d1 with (d1, d2)_2 = -1
    counts = dict.fromkeys((VERDICT_VANISHES, VERDICT_NONZERO, VERDICT_INADMISSIBLE), 0)
    nonzero_fields = []
    for j, (d2, c2) in enumerate(zip(ds, cls)):
        below = (1 << j) - 1
        adm = below if c2 == 1 else (of_class[1] | of_class[c2]) & below
        flip = hilbert[c2]
        for q in q3[j]:
            flip ^= div[q]
        nonzero = flip & adm
        counts[VERDICT_VANISHES] += adm.bit_count() - nonzero.bit_count()
        counts[VERDICT_NONZERO] += nonzero.bit_count()
        counts[VERDICT_INADMISSIBLE] += j - adm.bit_count()
        while nonzero:
            low = nonzero & -nonzero
            nonzero_fields.append((ds[low.bit_length() - 1], d2))
            nonzero ^= low
    return SweepSummary(dmax, counts, nonzero_fields)
