"""Assembly of the torsion invariant in (Z/4)* for a biquadratic field:
the simplified global representative (inverse Euler-factor products over
the ramified set), the per-prime power-of-two terms, and the local classes
at fully decomposed odd primes; plus the analytic cross-checks (the exact
ratio L*(1)/L*(0) squared, its numeric verification) and the standalone
resolvent quotient check for the supported shapes of the completion at 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

from .arith import is_prime
from .biquadratic import (FieldData, PrimeLocalData, artin_conductor,
                          euler_factor, field_data, frob_det_quotient,
                          local_galois, quad_field_disc, ramified_set)
from .errors import InputError, TqError
from .grouprings import HOMREP_KEYS, V4_CHARS, GaloisChar
from .localterms import LatticeExponent, local_term_closed_form
from .lseries import l_one_logsin, l_prime_zero_lgamma
from .relk0 import HomRep, TorsionClass, odd_part_mod4, torsion_class

VERDICT_VANISHES = "vanishes"
VERDICT_NONZERO = "nonzero"
VERDICT_INADMISSIBLE = "inadmissible"


def delta1_term(f: FieldData, p: int, local: PrimeLocalData | None = None) -> HomRep:
    """The power-of-two class attached to p:
    chi |-> (|D|/|I|)^(-dim chi^D) det(1 - Frob^-1 | chi^I/chi^D)."""
    if local is None:
        local = local_galois(f, p)
    ratio = len(local.decomposition) // len(local.inertia)

    def value(chi: GaloisChar) -> Fraction:
        return (Fraction(1, ratio ** chi.fixes(local.decomposition))
                * frob_det_quotient(chi, local))

    return HomRep.from_char_function(value)


def ts_representative(f: FieldData, s_f: Iterable[int],
                      locals_map: Mapping[int, PrimeLocalData] | None = None) -> HomRep:
    """Simplified global representative: per character, the inverse of the
    product of Euler factors over the finite places of S."""
    primes = sorted(set(s_f))
    locals_map = locals_map or {}

    def value(chi: GaloisChar) -> Fraction:
        prod = Fraction(1)
        for p in primes:
            local = locals_map.get(p) or local_galois(f, p)
            prod *= euler_factor(chi, p, local)
        return 1 / prod

    return HomRep.from_char_function(value)


@dataclass(frozen=True)
class ResolventCheck:
    """Result of the standalone quotient check available when 2 ramifies
    and the completion at 2 is Q2(sqrt(2)) or Q2(sqrt(10))."""

    status: str                      # "pass" | "fail" | "unsupported"
    completion: str | None = None    # "Q2(sqrt2)" | "Q2(sqrt10)"
    value: Fraction | None = None
    reason: str | None = None

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
    discs = [quad_field_disc(d) for d in f.subfields]
    if all(d % 2 for d in discs):
        return None
    ram = [d for d in f.subfields if quad_field_disc(d) % 2 == 0]
    if len(ram) == 3:
        return ResolventCheck("unsupported",
                              reason="2 ramifies in every quadratic subfield")
    evens = [d for d in ram if d % 2 == 0]
    if len(evens) != 2:
        return ResolventCheck("unsupported",
                              reason="completion at 2 is a ramified extension "
                                     "not generated by sqrt(2) or sqrt(10)")
    ms = [d // 2 for d in evens]
    if all(m % 8 == 1 for m in ms):
        pi_sq, completion = 2, "Q2(sqrt2)"
    elif all(m % 8 == 5 for m in ms):
        pi_sq, completion = 10, "Q2(sqrt10)"
    else:
        return ResolventCheck("unsupported",
                              reason="completion at 2 is a ramified extension "
                                     "not generated by sqrt(2) or sqrt(10)")
    prod_f = 1
    for chi in V4_CHARS:
        prod_f *= artin_conductor(chi, f)
    root = math.isqrt(prod_f)
    if root * root != prod_f:
        raise TqError("conductor product is not a perfect square; "
                      "internal consistency violated")
    r = Fraction(root, 8 ** 4 * pi_sq)
    ok = odd_part_mod4(r).is_trivial()
    return ResolventCheck("pass" if ok else "fail", completion, r)


@dataclass(frozen=True)
class PrimeReport:
    local: PrimeLocalData
    delta1: HomRep
    euler: tuple[Fraction, Fraction, Fraction, Fraction]
    local_term: HomRep | None

    def to_json_dict(self) -> dict:
        return {
            "local": self.local.to_json_dict(),
            "delta1": self.delta1.to_json_dict(),
            "euler_factors": {k: f"{v.numerator}/{v.denominator}"
                              for k, v in zip(HOMREP_KEYS, self.euler)},
            "local_term": self.local_term.to_json_dict() if self.local_term else None,
        }


@dataclass(frozen=True)
class InvariantReport:
    field: FieldData
    s_f: tuple[int, ...]
    per_prime: Mapping[int, PrimeReport]
    ts_rep: HomRep | None
    resolvent_check: ResolventCheck | None
    torsion: TorsionClass | None
    verdict: str
    lattice: LatticeExponent = LatticeExponent()
    note: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "field": self.field.to_json_dict(),
            "s_f": list(self.s_f),
            "per_prime": {str(p): r.to_json_dict()
                          for p, r in sorted(self.per_prime.items())},
            "ts_rep": self.ts_rep.to_json_dict() if self.ts_rep else None,
            "delta1": {str(p): r.delta1.to_json_dict()
                       for p, r in sorted(self.per_prime.items())},
            "local_terms": {str(p): r.local_term.to_json_dict()
                            for p, r in sorted(self.per_prime.items())
                            if r.local_term is not None},
            "resolvent_check": (self.resolvent_check.to_json_dict()
                                if self.resolvent_check else None),
            "torsion": self.torsion.unit if self.torsion else None,
            "verdict": self.verdict,
            "note": self.note,
        }


def omega_loc_torsion(d1: int, d2: int,
                      s_extra: Iterable[int] | None = None,
                      lat: LatticeExponent = LatticeExponent(),
                      allow_imaginary: bool = False) -> InvariantReport:
    """Full pipeline: field data, local data over the ramified set (plus
    any extra odd primes), the simplified global representative, the
    power-of-two terms, the local classes at fully decomposed odd primes,
    and the resulting torsion class with its verdict."""
    f = field_data(d1, d2, allow_imaginary=allow_imaginary)
    s_f = set(ramified_set(f))
    for p in (s_extra or ()):
        if p == 2 or not is_prime(p):
            raise InputError(f"extra primes must be odd primes, got {p}")
        s_f.add(p)
    s_f = tuple(sorted(s_f))

    locals_map = {p: local_galois(f, p) for p in s_f}
    local_2 = locals_map.get(2) or local_galois(f, 2)
    admissible = len(local_2.decomposition) != 4
    per_prime = {}
    for p, loc in locals_map.items():
        term = None
        if admissible and loc.full_decomposition and p % 2 == 1:
            term = local_term_closed_form(p, loc, lat)
        per_prime[p] = PrimeReport(loc, delta1_term(f, p, loc),
                                   tuple(euler_factor(chi, p, loc) for chi in V4_CHARS),
                                   term)

    note = None if f.totally_real else "outside the totally real default"
    if not admissible:
        return InvariantReport(f, s_f, per_prime, None, resolvent_factor_check(f),
                               None, VERDICT_INADMISSIBLE, lat,
                               note="decomposition group at 2 is everything"
                                    + (f"; {note}" if note else ""))

    ts_rep = ts_representative(f, s_f, locals_map)
    total = ts_rep
    for report in per_prime.values():
        if report.local_term is not None:
            total = total * report.local_term.inverse()
        total = total * report.delta1
    torsion = torsion_class(total)
    verdict = VERDICT_VANISHES if torsion.is_trivial() else VERDICT_NONZERO
    return InvariantReport(f, s_f, per_prime, ts_rep, resolvent_factor_check(f),
                           torsion, verdict, lat, note)


def leading_ratio_exact(chi: GaloisChar | str, f: FieldData) -> Fraction:
    """The square of the leading-coefficient ratio L*(1)/L*(0): 4 over the
    Artin conductor (4 itself for the trivial character)."""
    return Fraction(4, artin_conductor(chi, f))


@dataclass(frozen=True)
class AnalyticCheck:
    chi: str
    conductor: int
    lhs_numeric: float
    rhs_exact_squared: Fraction
    abs_error_squared: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.abs_error_squared < self.tol


def leading_ratio_check(chi: GaloisChar | str, f: FieldData,
                          tol: float = 1e-8) -> AnalyticCheck:
    """Numerically verify (L(1,chi)/L'(0,chi))^2 = 4/f(chi) for a
    nontrivial even character, using the log-sine and log-Gamma closed
    forms as independent evaluators."""
    label = chi if isinstance(chi, str) else chi.label
    if label == "1":
        raise InputError("the numeric check applies to nontrivial characters")
    d = f.subfield_of(label)
    if d < 0:
        raise InputError("odd characters (imaginary subfield) are out of scope "
                         "for the numeric check")
    disc = quad_field_disc(d)
    cond = artin_conductor(label, f)
    ratio = l_one_logsin(disc) / l_prime_zero_lgamma(disc)
    rhs = leading_ratio_exact(label, f)
    err = abs(ratio * ratio - float(rhs))
    return AnalyticCheck(label, cond, ratio, rhs, err, tol)


@dataclass
class SweepSummary:
    dmax: int
    counts: dict[str, int] = field(default_factory=lambda: {
        VERDICT_VANISHES: 0, VERDICT_NONZERO: 0, VERDICT_INADMISSIBLE: 0})
    nonzero_fields: list[tuple[int, int]] = field(default_factory=list)
    reports: dict[tuple[int, int], InvariantReport] | None = None

    @property
    def n_fields(self) -> int:
        return sum(self.counts.values())

    def to_json_dict(self) -> dict:
        return {"dmax": self.dmax, "counts": self.counts,
                "n_fields": self.n_fields,
                "nonzero_fields": [list(t) for t in self.nonzero_fields]}


def squarefree_pairs(dmax: int):
    from .arith import is_squarefree
    for d2 in range(3, dmax + 1):
        if not is_squarefree(d2):
            continue
        for d1 in range(2, d2):
            if is_squarefree(d1):
                yield d1, d2


def sweep(dmax: int, s_extra: Iterable[int] | None = None,
          lat: LatticeExponent = LatticeExponent(),
          keep_reports: bool = False) -> SweepSummary:
    """Run the pipeline over all squarefree pairs 1 < d1 < d2 <= dmax.
    Any nonzero torsion is collected for prominent reporting: it means the
    predicted universal vanishing fails for that field."""
    if dmax < 3:
        raise InputError("dmax must be at least 3")
    summary = SweepSummary(dmax, reports={} if keep_reports else None)
    for d1, d2 in squarefree_pairs(dmax):
        report = omega_loc_torsion(d1, d2, s_extra=s_extra, lat=lat)
        summary.counts[report.verdict] += 1
        if report.verdict == VERDICT_NONZERO:
            summary.nonzero_fields.append((d1, d2))
        if summary.reports is not None:
            summary.reports[(d1, d2)] = report
    return summary
