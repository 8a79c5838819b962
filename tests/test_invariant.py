import json
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import (field_verdict, independent_torsion, odd_primes_up_to, prime_unit,
                     squarefree_pairs)
from tq.arith import (hilbert_symbol, is_prime, is_squarefree, kronecker_symbol,
                      prime_factors)
from tq.biquadratic import (D_BOUND, artin_conductor, euler_factor,
                            FieldData, field_data, frob_signs, quad_field_disc,
                            full_decomposition, local_data, local_galois,
                            ramified_set, sign_facts)
from tq.invariant import (INADMISSIBLE_NOTE, VERDICT_INADMISSIBLE,
                               VERDICT_NONZERO, VERDICT_VANISHES, delta1_term,
                               leading_ratio_check, omega_loc_torsion, prime_parts,
                               resolvent_factor_check, sweep, ts_representative,
                               _parts_unit)
from tq.errors import ContractViolationError, InputError
from tq.grouprings import V4_CHARS
from tq.localterms import LatticeExponent, local_term_closed_form
from tq.relk0 import HomRep, odd_part_mod4, torsion_class, v2


# ---------- delta terms ----------

def test_delta1_values_5_13_at_5():
    f = field_data(5, 13)
    d = delta1_term(f, 5)
    assert d["1"] == Fraction(1, 2)
    assert d["chi2"] == 2
    assert d["chi1"] == 1 and d["chi1chi2"] == 1


def test_delta1_values_are_powers_of_two():
    for d1, d2 in [(5, 13), (3, 11), (21, 33), (2, 17), (13, 17)]:
        f = field_data(d1, d2)
        for p in ramified_set(f):
            d = delta1_term(f, p)
            for val in d.as_tuple():
                assert odd_part_mod4(val) == 1
                stripped = val / Fraction(2) ** v2(val)
                assert stripped == 1, (d1, d2, p, val)


def test_delta1_product_torsion_trivial():
    for d1, d2 in squarefree_pairs(30):
        f = field_data(d1, d2)
        total = HomRep((1, 1, 1, 1))
        for p in ramified_set(f):
            total = total * delta1_term(f, p)
        assert torsion_class(total) == 1, (d1, d2)


# ---------- the simplified global representative ----------

def test_ts_representative_5_13():
    f = field_data(5, 13)
    ts = ts_representative(f, [5, 13])
    assert ts["1"] == Fraction(65, 48)
    assert ts["chi2"] == Fraction(5, 6)
    assert ts["chi1"] == Fraction(13, 14)
    assert ts["chi1chi2"] == 1


def test_ts_empty_set_is_one():
    f = field_data(5, 13)
    assert ts_representative(f, []) == HomRep((1, 1, 1, 1))


# ---------- resolvent quotient ----------

def test_resolvent_2_17_worked_value():
    rc = resolvent_factor_check(field_data(2, 17))
    assert rc.status == "pass"
    assert rc.value == Fraction(17, 1024)
    assert rc.completion == "Q2(sqrt2)"


def test_resolvent_none_when_two_unramified():
    assert resolvent_factor_check(field_data(5, 13)) is None
    assert resolvent_factor_check(field_data(21, 33)) is None


def test_resolvent_unsupported_cases():
    rc = resolvent_factor_check(field_data(3, 11))
    assert rc.status == "unsupported"
    rc = resolvent_factor_check(field_data(2, 3))
    assert rc.status == "unsupported"


def test_resolvent_sqrt10_case():
    rc = resolvent_factor_check(field_data(10, 26))
    assert rc.completion == "Q2(sqrt10)"
    assert rc.status == "pass"
    assert rc.value == Fraction(13, 1024)


def test_resolvent_rule_on_every_pair_200():
    """The resolvent check supports a field exactly when 2 ramifies in two
    of its quadratic subfields, both Q(sqrt d) with d even, and the halves
    d/2 are both 1 mod 8 (Q2(sqrt2)) or both 5 mod 8 (Q2(sqrt10))."""
    other = "completion at 2 is a ramified extension not generated by sqrt(2) or sqrt(10)"

    def stated(f):
        ram = [d for d in f.subfields if d % 4 != 1]
        if not ram:
            return None
        if len(ram) == 3:
            return "unsupported", None, "2 ramifies in every quadratic subfield"
        halves = [d // 2 for d in ram if d % 2 == 0]
        for pi_sq, m, completion in ((2, 1, "Q2(sqrt2)"), (10, 5, "Q2(sqrt10)")):
            if len(halves) == 2 and all(h % 8 == m for h in halves):
                root = math.isqrt(math.prod(quad_field_disc(d) for d in f.subfields))
                ok = odd_part_mod4(Fraction(root, 8 ** 4 * pi_sq)) == 1
                return "pass" if ok else "fail", completion, None
        return "unsupported", None, other

    seen = set()
    for d1, d2 in squarefree_pairs(200):
        f = field_data(d1, d2)
        rc = resolvent_factor_check(f)
        got = rc and (rc.status, rc.completion, rc.reason)
        assert got == stated(f), (d1, d2)
        seen.add(got)
    assert len(seen) == 7  # None, two reasons, and pass and fail at each completion


# ---------- exact and numeric leading-coefficient ratios ----------

def test_leading_ratio_exact_values():
    f = field_data(5, 13)
    assert leading_ratio_check("chi1", f).rhs_exact_squared == Fraction(4, 5)
    f2 = field_data(2, 17)
    assert leading_ratio_check("chi1", f2).rhs_exact_squared == Fraction(1, 2)


def test_leading_ratio_numeric_chi5():
    f = field_data(5, 13)
    check = leading_ratio_check("chi1", f, tol=1e-9)
    assert check.ok
    assert abs(check.lhs_numeric - 0.894427) < 1e-5
    assert check.rhs_exact_squared == Fraction(4, 5)


def test_leading_ratio_numeric_conductor8():
    f = field_data(2, 17)
    check = leading_ratio_check("chi1", f, tol=1e-9)
    assert check.ok and check.conductor == 8
    assert check.rhs_exact_squared == Fraction(1, 2)


def test_leading_ratio_rejects_trivial_and_imaginary():
    f = field_data(5, 13)
    with pytest.raises(InputError):
        leading_ratio_check("1", f)
    # an imaginary field, built from its ints: field_data takes no negative d
    fi = FieldData(-3, 5, -15)
    with pytest.raises(InputError):
        leading_ratio_check("chi1", fi)


LABEL_LOOKUPS = {
    "subfield_of": lambda label: field_data(5, 13).subfield_of(label),
    "artin_conductor": lambda label: artin_conductor(label, field_data(5, 13)),
    "leading_ratio_check": lambda label: leading_ratio_check(label, field_data(5, 13)),
    "HomRep": lambda label: HomRep((2, 3, 5, 7))[label],
}


@pytest.mark.parametrize("label", ["chi3", "bogus"])
@pytest.mark.parametrize("lookup", LABEL_LOOKUPS)
def test_unknown_character_label_is_named(lookup, label):
    """A label that is no character of V4 is reported as such, by name,
    and not as the trivial character."""
    with pytest.raises(ContractViolationError, match=f"^{label!r} is not a character"):
        LABEL_LOOKUPS[lookup](label)


def test_trivial_label_fixes_no_subfield():
    with pytest.raises(InputError, match="trivial character fixes no quadratic subfield"):
        field_data(5, 13).subfield_of("1")


# ---------- the assembled invariant ----------

def test_omega_5_13_vanishes():
    report = omega_loc_torsion(5, 13)
    assert report.verdict == VERDICT_VANISHES
    assert report.torsion == 1
    assert list(report.per_prime) == [5, 13]
    assert set(report.per_prime) == {5, 13}
    assert report.per_prime[5].local_term is not None
    assert report.per_prime[13].local_term is not None


def test_omega_13_17_vanishes_without_local_terms():
    report = omega_loc_torsion(13, 17)
    assert report.verdict == VERDICT_VANISHES
    assert all(pr.local_term is None for pr in report.per_prime.values())


def test_omega_2_5_inadmissible():
    report = omega_loc_torsion(2, 5)
    assert report.verdict == VERDICT_INADMISSIBLE
    assert report.torsion is None


def test_omega_rejects_bad_extras():
    with pytest.raises(InputError):
        omega_loc_torsion(5, 13, s_extra=[2])
    with pytest.raises(InputError):
        omega_loc_torsion(5, 13, s_extra=[9])


def test_independent_assembly_matches_pipeline():
    for d1, d2 in [(5, 13), (13, 17), (3, 11), (21, 33), (2, 17), (5, 21),
                   (3, 19), (17, 26)]:
        report = omega_loc_torsion(d1, d2)
        assert report.torsion == independent_torsion(d1, d2), (d1, d2)


def test_s_enlargement_invariance():
    for d1, d2 in [(5, 13), (3, 11), (13, 17)]:
        base = omega_loc_torsion(d1, d2)
        enlarged = omega_loc_torsion(d1, d2, s_extra=[3, 7, 23, 29])
        assert base.torsion == enlarged.torsion, (d1, d2)


def test_frobenius_relabeling_invariance():
    for d1, d2 in [(5, 13), (3, 11), (21, 33)]:
        f = field_data(d1, d2)
        full = [p for p in ramified_set(f)
                if local_galois(f, p).full_decomposition and p % 2 == 1]
        base = independent_torsion(d1, d2)
        for p in full:
            assert independent_torsion(d1, d2, frob_twist=(p,)) == base, \
                (d1, d2, p)
        assert independent_torsion(d1, d2, frob_twist=tuple(full)) == base


def test_lattice_invariance():
    for d1, d2 in [(5, 13), (3, 11)]:
        base = omega_loc_torsion(d1, d2).torsion
        for m in (1, 2, 3):
            for sign in (1, -1):
                assert omega_loc_torsion(d1, d2,
                                         lat=LatticeExponent(m, sign)).torsion \
                    == base


def fraction_torsion(report):
    """The reference torsion of an admissible report: its Fraction classes
    ts_rep * prod delta1 * prod local_term^-1 through `torsion_class`."""
    total = report.ts_rep
    for pr in report.per_prime.values():
        total = total * pr.delta1
        if pr.local_term is not None:
            total = total * pr.local_term.inverse()
    return torsion_class(total)


def test_integer_verdicts_match_fraction_reports_to_100():
    verdicts = {}
    for d1, d2 in squarefree_pairs(100):
        report = omega_loc_torsion(d1, d2)
        assert field_verdict(d1, d2) == report.verdict, (d1, d2)
        if report.verdict != VERDICT_INADMISSIBLE:
            assert report.torsion == fraction_torsion(report), (d1, d2)
        verdicts[d1, d2] = report.verdict
    summary = sweep(100)
    assert summary.counts == {v: list(verdicts.values()).count(v)
                              for v in summary.counts}
    assert summary.nonzero_fields == [pair for pair, v in verdicts.items()
                                      if v == VERDICT_NONZERO]


def test_integer_verdicts_match_fraction_reports_with_options():
    """`field_verdict`, which takes neither extra primes nor a lattice, is
    the verdict of the report under each choice of both."""
    pairs = [(5, 13), (3, 11), (21, 33), (2, 17), (2, 5), (5, 21), (3, 19),
             (17, 26), (33, 42), (7, 15), (13, 17), (10, 26)]
    lattices = [LatticeExponent(m, sign) for m in (1, 2, 3) for sign in (1, -1)]
    for d1, d2 in pairs:
        verdict = field_verdict(d1, d2)
        for extra in (None, [3, 7]):
            for lat in lattices:
                report = omega_loc_torsion(d1, d2, s_extra=extra, lat=lat)
                assert verdict == report.verdict, (d1, d2, extra, lat)
                if report.verdict != VERDICT_INADMISSIBLE:
                    assert report.torsion == fraction_torsion(report), \
                        (d1, d2, extra, lat)


def test_prime_units_match_fraction_reports():
    """Each prime's unit alone, not only the whole-field product, agrees
    with the odd part mod 4 of its exact Euler, power-of-two and local
    terms: two wrong per-prime units could cancel in a product.  The
    default lattice and S first, then the lattices (1, +1), (2, -1) and
    (3, +1), each with S enlarged by 3 and 7 as well: the lattice enters
    the local term through dim chi^I, and `prime_unit`, read under the
    default lattice, is the unit under each."""
    cases = [(LatticeExponent(m, sign), extra, n)
             for m, sign in ((1, 1), (2, -1), (3, 1))
             for extra, n in ((None, 2140), ([3, 7], 3011))]
    for lat, extra, expected in cases:
        n_primes = 0
        for d1, d2 in squarefree_pairs(100):
            report = omega_loc_torsion(d1, d2, s_extra=extra, lat=lat)
            if report.verdict == VERDICT_INADMISSIBLE:
                continue
            for p, pr in report.per_prime.items():
                total = Fraction(1)
                for chi in V4_CHARS:
                    total *= pr.euler[chi.label] * pr.delta1[chi.label]
                    if pr.local_term is not None:
                        total *= pr.local_term[chi.label]
                signs = frob_signs(*report.field.subfields, p)
                assert prime_unit(p, signs) == odd_part_mod4(total), \
                    (d1, d2, p, lat, extra)
                n_primes += 1
        assert n_primes == expected, (lat, extra)


# the Frobenius sign triples of the primes p <= 400 over the real pairs of
# squarefree d <= 60, which reach every triple that imaginary pairs do
# (test_biquadratic's test_real_pairs_lose_no_sign_class): every triple a
# prime can have, (0, 0, 0) only at 2
SIGN_TRIPLES = [(-1, -1, 1), (-1, 0, 0), (-1, 1, -1), (0, -1, 0), (0, 0, -1),
                (0, 0, 0), (0, 0, 1), (0, 1, 0), (1, -1, -1), (1, 0, 0), (1, 1, 1)]


def test_sign_rules_match_local_data_and_fraction_units():
    """The sign rules of `sign_facts` and `full_decomposition` agree with the
    kernel intersections of `local_data` on every sign triple, wherever the
    int cores read them (chi(Frob) only where dim chi^I = 1), and the unit
    `prime_unit` reads from the signs alone is the odd part mod 4 of the
    exact Euler, power-of-two and local terms, at a few primes of each
    triple and under every lattice with m <= 3 (`prime_unit` takes none)."""
    primes = [p for p in range(2, 401) if is_prime(p)]
    found = {}  # signs -> {p: a field where p has these signs}
    for d1, d2 in squarefree_pairs(60):
        f = field_data(d1, d2)
        for p in primes:
            found.setdefault(frob_signs(*f.subfields, p), {}).setdefault(p, f)
    assert sorted(found) == SIGN_TRIPLES
    lats = [LatticeExponent(m, sign) for m in (1, 2, 3) for sign in (1, -1)]
    for signs, fields in found.items():
        ratio, facts = sign_facts(signs)
        assert facts == [(int(s != 0), int(s == 1), s) for s in (1, *signs)]
        for p in sorted(fields)[:2] + sorted(fields)[-1:]:
            loc = local_data(p, signs)
            assert loc == local_galois(fields[p], p)
            assert ratio == len(loc.decomposition) // len(loc.inertia), signs
            assert full_decomposition(signs) == loc.full_decomposition, signs
            assert (0 in signs) == loc.in_s, signs
            for chi, (dim_i, dim_d, frob) in zip(V4_CHARS, facts):
                got = loc.char_facts(chi)
                assert got[:2] == (dim_i, dim_d), (signs, chi.label)
                assert got[2] == frob or not dim_i, (signs, chi.label)
            delta1 = delta1_term(fields[p], p, loc)
            unit = prime_unit(p, signs)
            for lat in lats:
                term = (local_term_closed_form(p, loc, lat)
                        if p % 2 and loc.full_decomposition else None)
                total = Fraction(1)
                for chi in V4_CHARS:
                    total *= euler_factor(chi, p, loc) * delta1[chi.label]
                    if term is not None:
                        total *= term[chi.label]
                assert unit == odd_part_mod4(total), (signs, p, lat)


def test_prime_unit_needs_no_lattice_and_no_extra_prime_below_1000():
    """`prime_unit(p, signs)`, read under the default lattice, is the odd
    part mod 4 of the exact Euler, power-of-two and local terms of
    `local_data(p, signs)` under every lattice with m <= 3, at 2 and at
    every odd p < 1000, for each triple p can have ((0, 0, 0) only at 2);
    and an unramified prime, as an extra prime of S is, has unit 1."""
    lats = [LatticeExponent(m, sign) for m in (1, 2, 3) for sign in (1, -1)]
    unramified = [signs for signs in SIGN_TRIPLES if 0 not in signs]
    assert len(unramified) == 4
    n_cases = 0
    for p in [2, *odd_primes_up_to(999)]:
        for signs in [s for s in SIGN_TRIPLES if p == 2 or s != (0, 0, 0)]:
            loc = local_data(p, signs)
            unit = prime_unit(p, signs)
            # f is read only when the local data is not given
            delta1 = delta1_term(None, p, loc)
            base = math.prod(euler_factor(chi, p, loc) * delta1[chi.label]
                             for chi in V4_CHARS)
            for lat in lats:
                total = base
                if p % 2 and loc.full_decomposition:
                    total *= math.prod(local_term_closed_form(p, loc, lat).as_tuple())
                assert unit == odd_part_mod4(total), (p, signs, lat)
                n_cases += 1
            if signs in unramified:
                assert unit == 1, (p, signs)
    assert n_cases == 6 * (11 + 10 * 167)


def test_prime_unit_rule_matches_its_parts_below_10000():
    """The closed rule of `prime_unit` (3 exactly when no sign is 1 and some
    sign is not 0) is the `_parts_unit` of the `prime_parts` it stands for,
    at every prime p < 10^4, for every sign triple p can have (the 10 at an
    odd p, and all 11 at 2, (0, 0, 0) included), under all six lattices
    with m <= 3."""
    lats = [LatticeExponent(m, sign) for m in (1, 2, 3) for sign in (1, -1)]
    cases = [(p, signs) for p in [2, *odd_primes_up_to(9999)]
             for signs in SIGN_TRIPLES if p == 2 or signs != (0, 0, 0)]
    assert len(cases) == 11 + 10 * 1228
    # one assertion over all 73 746 cases, not one rewritten assert each
    assert [(p, signs, lat) for p, signs in cases for lat in lats
            if prime_unit(p, signs) != _parts_unit(prime_parts(p, signs, lat))] == []


def test_report_local_data_matches_local_galois():
    """Every per-prime record of a report, admissible or not, carries the
    local data `local_galois` gives at that prime of S."""
    for d1, d2 in squarefree_pairs(100):
        f = field_data(d1, d2)
        for extra in (None, [3, 7]):
            report = omega_loc_torsion(d1, d2, s_extra=extra)
            assert list(report.per_prime) == sorted({*ramified_set(f), *(extra or ())})
            for p, pr in report.per_prime.items():
                assert pr.local == local_galois(f, p), (d1, d2, extra, p)


@pytest.mark.parametrize("extra, local_data_calls, is_prime_calls",
                         [(None, 6, 0), ([3, 7], 7, 2)])
def test_report_makes_each_prime_record_once(monkeypatch, extra,
                                              local_data_calls, is_prime_calls):
    """One report makes one `local_data` per prime of S, none at 2 when 2
    is not in S (admissibility is read from the signs of 2), and runs
    `is_prime` only on the extra primes: the primes from factoring d1 and
    d2 are not checked again."""
    import tq.biquadratic
    import tq.invariant
    calls = {"local_data": 0, "is_prime": 0}
    for name in calls:
        orig = getattr(tq.biquadratic, name)

        def counted(*args, _name=name, _orig=orig):
            calls[_name] += 1
            return _orig(*args)
        for module in (tq.biquadratic, tq.invariant):
            monkeypatch.setattr(module, name, counted)
    report = omega_loc_torsion(10005, 10065, s_extra=extra)
    assert 2 not in report.per_prime and len(report.per_prime) == local_data_calls
    assert calls == {"local_data": local_data_calls, "is_prime": is_prime_calls}


def test_report_factors_d1_and_d2_once_each(monkeypatch):
    """`omega_loc_torsion` and `field_verdict` check d1 and d2 and take
    their ramified primes from one factorization of each."""
    import tq.arith
    import tq.biquadratic
    calls = []
    orig = tq.arith.factorization

    def counted(n):
        calls.append(n)
        return orig(n)
    for module in (tq.arith, tq.biquadratic):
        monkeypatch.setattr(module, "factorization", counted)
    omega_loc_torsion(10009, 20001)
    assert calls == [10009, 20001]
    field_verdict(10009, 20001)
    assert calls == [10009, 20001] * 2


def test_inadmissible_report_multiplies_no_prime_unit(monkeypatch):
    """Admissibility is read from the signs of 2 alone: over the pairs with
    d2 <= 100, `omega_loc_torsion` reduces no prime's parts to a unit on an
    inadmissible field, and one per prime of S on an admissible one."""
    import tq.invariant
    calls = []
    orig = tq.invariant.odd_unit

    def counted(n):
        calls.append(n)
        return orig(n)
    monkeypatch.setattr(tq.invariant, "odd_unit", counted)
    inadmissible = 0
    for d1, d2 in squarefree_pairs(100):
        del calls[:]
        report = omega_loc_torsion(d1, d2)
        if report.verdict == VERDICT_INADMISSIBLE:
            inadmissible += 1
            assert calls == [], (d1, d2)
        else:
            assert len(calls) == len(report.per_prime), (d1, d2)
    assert inadmissible == 1130


def test_report_reads_no_group_data_and_inverts_nothing(monkeypatch):
    """A report takes its values from the int pairs of `prime_parts`: it
    asks no `PrimeLocalData.char_facts` (group elements hashed per
    character) and makes `ts_rep` without `HomRep.inverse`."""
    from tq.biquadratic import PrimeLocalData
    calls = []
    for cls, name in ((PrimeLocalData, "char_facts"), (HomRep, "inverse")):
        orig = getattr(cls, name)

        def counted(*args, _name=name, _orig=orig):
            calls.append(_name)
            return _orig(*args)
        monkeypatch.setattr(cls, name, counted)
    for extra in (None, [3, 7]):
        report = omega_loc_torsion(10005, 10065, s_extra=extra)
        assert report.ts_rep is not None and report.to_json_dict()["ts_rep"]
    assert calls == []
    ts_representative(report.field, report.per_prime)
    assert calls.count("inverse") == 1
    assert calls.count("char_facts") == 4 * len(report.per_prime)


def test_report_values_match_fraction_functions():
    """Every `PrimeReport` value equals the `Fraction` function that states
    its formula on `local_galois(f, p)`: `delta1_term`, `euler_factor` and,
    exactly at the fully decomposed odd primes of an admissible field,
    `local_term_closed_form`; and `ts_rep` is the inverse of the product of
    the Euler factors over S.  Every pair with d2 <= 60, with and without
    extra primes 3 and 7, under the lattices (1, +1), (2, -1) and (3, +1)."""
    lats = [LatticeExponent(m, sign) for m, sign in ((1, 1), (2, -1), (3, 1))]
    n_terms = 0
    for d1, d2 in squarefree_pairs(60):
        f = field_data(d1, d2)
        for extra in (None, [3, 7]):
            s_f = sorted(set(ramified_set(f)).union(extra or ()))
            locals_ = {p: local_galois(f, p) for p in s_f}
            for lat in lats:
                report = omega_loc_torsion(d1, d2, s_extra=extra, lat=lat)
                assert list(report.per_prime) == s_f
                admissible = report.verdict != VERDICT_INADMISSIBLE
                for p, pr in report.per_prime.items():
                    loc = locals_[p]
                    assert pr.local == loc, (d1, d2, p)
                    assert pr.delta1 == delta1_term(f, p, loc), (d1, d2, p)
                    assert pr.euler == HomRep(euler_factor(chi, p, loc)
                                              for chi in V4_CHARS), (d1, d2, p)
                    if admissible and p % 2 and loc.full_decomposition:
                        assert pr.local_term == local_term_closed_form(p, loc, lat), \
                            (d1, d2, p, lat)
                        n_terms += 1
                    else:
                        assert pr.local_term is None, (d1, d2, p, lat)
                if admissible:
                    assert report.ts_rep == ts_representative(f, s_f), (d1, d2, extra)
                else:
                    assert report.ts_rep is None
    assert n_terms == 1776


def test_report_takes_each_primes_signs_once(monkeypatch):
    """`omega_loc_torsion` evaluates the Frobenius signs of each prime of S,
    and of 2, once: its unit and its rows read the same signs."""
    import tq.invariant
    primes = []
    orig = tq.invariant.frob_signs

    def counted(d1, d2, d3, p):
        primes.append(p)
        return orig(d1, d2, d3, p)
    monkeypatch.setattr(tq.invariant, "frob_signs", counted)
    cases = [(d1, d2, None) for d1, d2 in squarefree_pairs(60)] + [(5, 13, [3, 7])]
    for d1, d2, extra in cases:
        del primes[:]
        report = omega_loc_torsion(d1, d2, s_extra=extra)
        assert sorted(primes) == sorted({2, *report.per_prime}), (d1, d2, extra)


def test_sweep_with_options_matches_reports():
    """`sweep`, which takes neither extra primes nor a lattice, decides
    every pair as its report does with S enlarged by 3 and 7, under every
    lattice with m <= 3."""
    extra = [3, 7]
    pairs = list(squarefree_pairs(40))
    summary = sweep(40)
    for lat in [LatticeExponent(m, sign) for m in (1, 2, 3) for sign in (1, -1)]:
        verdicts = [omega_loc_torsion(d1, d2, s_extra=extra, lat=lat).verdict
                    for d1, d2 in pairs]
        assert summary.counts == {v: verdicts.count(v) for v in summary.counts}, lat
        assert summary.nonzero_fields == [pair for pair, v in zip(pairs, verdicts)
                                          if v == VERDICT_NONZERO], lat


@pytest.mark.parametrize("dmax", [3, 4, 5, 90])
def test_sweep_matches_field_verdicts(dmax):
    """`sweep` decides its pairs from data made once per d, `field_verdict`
    each field from `field_data`: they agree on every pair with d2 <= dmax."""
    pairs = list(squarefree_pairs(dmax))
    verdicts = [field_verdict(d1, d2) for d1, d2 in pairs]
    summary = sweep(dmax)
    assert summary.counts == {v: verdicts.count(v) for v in summary.counts}
    assert summary.nonzero_fields == [pair for pair, v in zip(pairs, verdicts)
                                      if v == VERDICT_NONZERO]


def test_sweep_rows_match_field_verdicts():
    """Whole rows d2 = N of a sweep past 1000, for seeded squarefree N in
    (1000, 1500], one 1 mod 4 and one even: the nonzero fields of the row
    are exactly the d1 < N whose `field_verdict` is nonzero, in order."""
    import random
    candidates = [n for n in range(1001, 1501) if is_squarefree(n)]
    rng = random.Random(13)
    rows = [rng.choice([n for n in candidates if n % 4 == 1]),
            rng.choice([n for n in candidates if n % 2 == 0])]
    summary = sweep(max(rows))
    for d2 in rows:
        expected = [d1 for d1 in range(2, d2) if is_squarefree(d1)
                    and field_verdict(d1, d2) == VERDICT_NONZERO]
        assert [d1 for d1, n in summary.nonzero_fields if n == d2] == expected, d2


def test_sweep_100_reads_no_prime_signs_and_no_prime_unit(monkeypatch):
    """`sweep(100)` decides by the parity law from d mod 8 or 16 and the
    primes of d: it calls none of `frob_signs`, `full_decomposition`,
    `prime_parts` and `_parts_unit`, where a report reads the signs of 2
    and of each prime of S and reduces each prime's parts to a unit."""
    import tq.invariant
    calls = []
    names = ("frob_signs", "full_decomposition", "prime_parts", "_parts_unit")
    for name in names:
        orig = getattr(tq.invariant, name)

        def counted(*args, _name=name, _orig=orig):
            calls.append(_name)
            return _orig(*args)
        monkeypatch.setattr(tq.invariant, name, counted)
    sweep(100)
    assert calls == []
    omega_loc_torsion(5, 13)  # the patches are live
    assert set(calls) == set(names)


def test_class_hilbert_symbol_matches_product_formula():
    """`hilbert_symbol` at 2 on the classes at 2 (d mod 8, or mod 16 when
    d is even), as `sweep` reads it, of every squarefree 1 < d1, d2 <= 300,
    against the product formula: for d1, d2 > 0, (d1, d2)_inf = 1, so
    (d1, d2)_2 is the product over the odd primes p of (d1, d2)_p, which is
    1 unless p divides d1 d2.  All 64 pairs of classes occur, each class
    with at least 10 d."""
    ds = [d for d in range(2, 301) if is_squarefree(d)]
    primes = odd_primes_up_to(300)

    def cls(d):
        return d % 8 if d % 2 else d % 16
    by_class = {}
    for d in ds:
        by_class.setdefault(cls(d), []).append(d)
    assert sorted(by_class) == [1, 2, 3, 5, 6, 7, 10, 14]
    assert min(len(v) for v in by_class.values()) >= 10
    for d1 in ds:
        for d2 in ds:
            expected = math.prod(hilbert_symbol(d1, d2, p) for p in primes
                                 if d1 * d2 % p == 0)
            assert hilbert_symbol(cls(d1), cls(d2), 2) == expected, (d1, d2)


SWEEP_3000_JSON_SHA256 = (
    "3435d021618a06a0bb160cee1296086c500e47c1a39dbf797076a6c496fa15a2")


def test_sweep_3000_json_is_pinned():
    """The JSON of `sweep(3000)`, every pair with d2 <= 3000, hashes to
    the value it had when `sweep` still read each prime's signs."""
    import hashlib
    text = json.dumps(sweep(3000).to_json_dict(), indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == SWEEP_3000_JSON_SHA256


def test_sweep_makes_no_kronecker_symbol_call(monkeypatch):
    """`sweep` decides by the parity law, from the classes at 2 (d mod 8
    or 16) and the primes q = 3 mod 4 that divide d2: it makes no
    `kronecker_symbol` call, where `field_verdict` makes one per subfield
    that an odd prime of S does not divide: 2 for (5, 13), whose S is
    {5, 13}, d3 = 65 and 5 and 13 each divide two of the three subfields."""
    import sys
    import tq.arith
    calls = []
    orig = tq.arith.kronecker_symbol

    def counted(*args):
        calls.append(args)
        return orig(*args)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "tq" and hasattr(module, "kronecker_symbol"):
            monkeypatch.setattr(module, "kronecker_symbol", counted)
    sweep(100)
    assert calls == []
    field_verdict(5, 13)
    assert len(calls) == 2


def test_sweep_100_makes_no_factorization_call(monkeypatch):
    """`sweep` takes its squarefree d and the primes of each from one
    smallest-prime-factor sieve, where factoring each d <= 100 in
    `is_squarefree` and again in `prime_factors` made 159
    `factorization` calls."""
    import tq.arith
    calls = []

    def counted(n, _orig=tq.arith.factorization):
        calls.append(n)
        return _orig(n)
    monkeypatch.setattr(tq.arith, "factorization", counted)
    sweep(100)
    assert calls == []
    is_squarefree(12)  # the patch is live
    assert calls == [12]


@pytest.mark.parametrize("dmax", [3, 4, 30, 1000])
def test_sweep_sieve_matches_factorization(dmax):
    """The sieve gives the squarefree d in increasing order, for each d
    its primes q = 3 mod 4 in increasing order, and for each such prime
    q <= dmax the mask of the d that q divides."""
    from tq.arith import prime_factors
    from tq.invariant import _squarefree_masks
    ds = [d for d in range(2, dmax + 1) if is_squarefree(d)]
    q3 = [[q for q in prime_factors(d) if q % 4 == 3] for d in ds]
    div = {}
    for i, qs in enumerate(q3):
        for q in qs:
            div[q] = div.get(q, 0) | 1 << i
    assert _squarefree_masks(dmax) == (ds, q3, div)
    assert list(_squarefree_masks(dmax)[2]) == sorted(div)


@pytest.mark.parametrize("d1, d2, extra, n_calls", [
    (10005, 10065, None, 6),  # each of the 6 primes of S divides d1 or d2
    (21, 33, [5], 5),  # 3 | d1, d2; 7 | d1; 11 | d2; 5 divides neither
])
def test_report_reads_a_kronecker_symbol_per_subfield_not_divided(
        monkeypatch, d1, d2, extra, n_calls):
    """`frob_signs` evaluates a Kronecker symbol at an odd p only for a
    subfield that p does not divide, and takes chi_{d3}(p) as
    chi_{d1}(p) chi_{d2}(p) when p divides neither d1 nor d2."""
    import sys
    calls = []

    def counted(*args, _orig=sys.modules["tq.arith"].kronecker_symbol):
        calls.append(args)
        return _orig(*args)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "tq" and hasattr(module, "kronecker_symbol"):
            monkeypatch.setattr(module, "kronecker_symbol", counted)
    omega_loc_torsion(d1, d2, s_extra=extra)
    assert len(calls) == n_calls


def test_verdicts_build_no_local_data(monkeypatch):
    """`sweep` decides by the parity law, from d mod 8 or 16 and the primes
    q = 3 mod 4 of d2, and `field_verdict` reads each prime's unit from its
    Frobenius signs alone: they make no `local_data` call, where a report
    makes one per prime of S."""
    import sys
    import tq.biquadratic
    calls = []
    orig = tq.biquadratic.local_data

    def counted(*args):
        calls.append(args)
        return orig(*args)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "tq" and hasattr(module, "local_data"):
            monkeypatch.setattr(module, "local_data", counted)
    sweep(100)
    for d1, d2 in [(5, 13), (3, 11), (10005, 10065), (2, 3)]:
        field_verdict(d1, d2)
    assert calls == []
    omega_loc_torsion(5, 13)
    assert [p for p, _ in calls] == [5, 13]


def test_imaginary_field_is_rejected():
    """No quaternion field has an imaginary E, so neither a report nor a
    verdict is made for a negative d."""
    for d1, d2 in [(-3, 5), (5, -3), (-3, -5)]:
        with pytest.raises(InputError, match="imaginary"):
            omega_loc_torsion(d1, d2)
        with pytest.raises(InputError, match="imaginary"):
            field_verdict(d1, d2)


# ---------- sweep ----------

def parity_prediction(d1, d2):
    """The nonzero-torsion fields are exactly those where the 2-adic
    Hilbert symbol of (d1, d2) times (-1 / odd part of gcd) is -1."""
    import math
    g = math.gcd(d1, d2)
    while g % 2 == 0:
        g //= 2
    chi4 = 1 if g % 4 == 1 else -1
    return hilbert_symbol(d1, d2, 2) * chi4


def test_sweep_20_counts_and_parity():
    summary = sweep(20)
    assert summary.counts[VERDICT_VANISHES] + summary.counts[VERDICT_NONZERO] \
        + summary.counts[VERDICT_INADMISSIBLE] == summary.n_fields
    assert summary.counts[VERDICT_INADMISSIBLE] >= 1
    # cross-check every verdict against the closed-form parity criterion
    for d1, d2 in squarefree_pairs(20):
        report = omega_loc_torsion(d1, d2)
        if report.verdict == VERDICT_INADMISSIBLE:
            continue
        expected = VERDICT_VANISHES if parity_prediction(d1, d2) == 1 \
            else VERDICT_NONZERO
        assert report.verdict == expected, (d1, d2)


def parity_law_verdict(d1, d2):
    """The README's law: inadmissible exactly when none of d1, d2, d3 is
    1 mod 8, else nonzero exactly when the parity prediction is -1."""
    d3 = d1 * d2 // math.gcd(d1, d2) ** 2
    if all(d % 8 != 1 for d in (d1, d2, d3)):
        return VERDICT_INADMISSIBLE
    return VERDICT_VANISHES if parity_prediction(d1, d2) == 1 else VERDICT_NONZERO


def assert_sweep_matches_parity_law(dmax):
    """The README's law for every pair with d2 <= dmax."""
    counts = {VERDICT_VANISHES: 0, VERDICT_NONZERO: 0, VERDICT_INADMISSIBLE: 0}
    nonzero = []
    for d1, d2 in squarefree_pairs(dmax):
        verdict = parity_law_verdict(d1, d2)
        if verdict == VERDICT_NONZERO:
            nonzero.append((d1, d2))
        counts[verdict] += 1
    summary = sweep(dmax)
    assert summary.counts == counts
    assert summary.nonzero_fields == nonzero


def test_sweep_400_matches_parity_law():
    assert_sweep_matches_parity_law(400)


def test_sweep_1000_matches_parity_law():
    assert_sweep_matches_parity_law(1000)


def test_resolvent_failures_are_the_nonzero_fields_600():
    """On the admissible fields with d2 <= 600 whose completion at 2 is
    supported, the same 389 fields are those where
    `resolvent_factor_check` fails, the nonzero pairs of `sweep(600)`, and
    those where the odd part of lcm(d1, d2) is 3 mod 4.  So criteria 4 and
    9 fail on these fields together."""
    supported = {}  # (d1, d2) -> the resolvent check's status
    for d1, d2 in squarefree_pairs(600):
        rc = resolvent_factor_check(field_data(d1, d2))
        if rc is not None and rc.status != "unsupported" \
                and field_verdict(d1, d2) != VERDICT_INADMISSIBLE:
            supported[d1, d2] = rc.status
    failing = {pair for pair, status in supported.items() if status == "fail"}
    nonzero = set(sweep(600).nonzero_fields) & supported.keys()
    lcm_3_mod_4 = set()
    for pair in supported:
        odd = math.lcm(*pair)
        while odd % 2 == 0:
            odd //= 2
        if odd % 4 == 3:
            lcm_3_mod_4.add(pair)
    assert (len(supported), len(failing)) == (4206, 389)
    assert failing == nonzero == lcm_3_mod_4


def test_hilbert2_is_the_chi4_product_on_supported_classes():
    """A finite check over the classes at 2 (d mod 8, or mod 16 when d is
    even), with two squarefree representatives of each: whether a field is admissible, and whether
    `resolvent_factor_check` supports it, depend on the classes of d1 and
    d2 alone, and on every admissible supported pair of classes
    (d1, d2)_2 = chi_-4(odd d1) chi_-4(odd d2), both sides being 1 on
    the four such pairs.  With it the resolvent check fails exactly where
    the torsion is 3 (notes/decisions.md, "Criteria 4 and 9 are one
    fact")."""
    def cls(d):
        return d % 8 if d % 2 else d % 16

    def chi_minus4_of_odd_part(d):
        return 1 if d // (d & -d) % 4 == 1 else -1

    classes = (1, 3, 5, 7, 2, 6, 10, 14)
    reps = {c: [d for d in range(2, 100) if is_squarefree(d) and cls(d) == c][:2]
            for c in classes}
    symbols = {}  # admissible supported (c1, c2) -> (d1, d2)_2
    for i, c1 in enumerate(classes):
        for c2 in classes[i:]:
            kinds = set()
            for d1 in reps[c1]:
                for d2 in reps[c2]:
                    if d1 == d2:
                        continue
                    rc = resolvent_factor_check(field_data(d1, d2))
                    supported = rc is not None and rc.status != "unsupported"
                    admissible = field_verdict(d1, d2) != VERDICT_INADMISSIBLE
                    kinds.add((supported, admissible))
                    if supported and admissible:
                        symbols[c1, c2] = hilbert_symbol(c1, c2, 2)
                        assert symbols[c1, c2] == (chi_minus4_of_odd_part(d1)
                                                   * chi_minus4_of_odd_part(d2)), (d1, d2)
            assert len(kinds) == 1, (c1, c2, kinds)
    assert symbols == {(1, 2): 1, (1, 10): 1, (2, 2): 1, (10, 10): 1}


def test_parity_law_holds_at_each_odd_prime_on_its_24_local_types():
    """The parity law one odd ramified prime p at a time, as a finite check
    (notes/decisions.md, "The verdict and the parity law").  The local type
    of (d1, d2, p) is whether p divides d1 only, d2 only or both; p mod 4;
    and the Legendre symbols at p of the p-free parts u1, u2 of d1 and d2:
    24 types.  p's Frobenius signs are (0, (u2/p), 0), ((u1/p), 0, 0) or
    (0, 0, (u1 u2/p)), and (d1, d2)_p chi_-4(p)^[p | gcd] reads p's
    valuations in d1 and d2, p mod 4 and the same two symbols, so both
    sides are functions of the type.  On two representatives of each
    type, the first by d2, d1 and p, `prime_unit` is 3 exactly when
    (d1, d2)_p chi_-4(p)^[p | gcd] = -1, and one unit per type: so the
    identity holds at every odd ramified prime of every field."""
    reps = {}  # type -> its first two (d1, d2, d3, p)
    for d1, d2 in squarefree_pairs(60):
        d3 = d1 * d2 // math.gcd(d1, d2) ** 2
        for p in prime_factors(d1 * d2):
            if p == 2:
                continue
            divides = (d1 % p == 0, d2 % p == 0)
            u1, u2 = (d // p if k else d for d, k in zip((d1, d2), divides))
            kind = (divides, p % 4, kronecker_symbol(u1, p), kronecker_symbol(u2, p))
            if len(reps.setdefault(kind, [])) < 2:
                reps[kind].append((d1, d2, d3, p))
    assert len(reps) == 24 and all(len(r) == 2 for r in reps.values())
    for (divides, p_mod_4, _, _), instances in reps.items():
        chi4 = -1 if all(divides) and p_mod_4 == 3 else 1
        units = {prime_unit(p, frob_signs(d1, d2, d3, p)) for d1, d2, d3, p in instances}
        laws = {hilbert_symbol(d1, d2, p) * chi4 for d1, d2, _, p in instances}
        assert len(units) == len(laws) == 1, instances
        assert (units == {3}) == (laws == {-1}), instances


def next_prime(n):
    while not is_prime(n):
        n += 1
    return n


@st.composite
def squarefree_pairs_to_1e18(draw):
    """(d1, d2, the primes of d1 d2) with 1 < d1, d2 <= D_BOUND = 10**18,
    d1 != d2: products of distinct primes, small (2 to 97) or up to 10**9,
    each put in d1, in d2 or in both, so that gcd(d1, d2) > 1 occurs.  A
    prime that would take either product past D_BOUND is left out."""
    primes = draw(st.lists(
        st.one_of(st.sampled_from(odd_primes_up_to(97) + [2]),
                  st.integers(100, 10 ** 9).map(next_prime)),
        min_size=2, max_size=14, unique=True))
    d1 = d2 = 1
    for p in primes:
        f1, f2 = draw(st.sampled_from([(p, 1), (1, p), (p, p)]))
        if d1 * f1 <= D_BOUND and d2 * f2 <= D_BOUND:
            d1, d2 = d1 * f1, d2 * f2
    assume(1 < d1 != d2 > 1)
    return d1, d2, [p for p in primes if d1 * d2 % p == 0]


@settings(max_examples=100, deadline=None)
@given(squarefree_pairs_to_1e18())
def test_verdict_follows_parity_law_up_to_1e18(drawn):
    """`omega_loc_torsion`'s verdict is the README's law on squarefree
    pairs up to D_BOUND = 10**18, well past every sweep test, a cross-check
    of the per-type proof above.  The law's 2-adic symbol is checked first
    against the product formula, by the symbols at the odd primes of
    d1 d2."""
    d1, d2, primes = drawn
    assert hilbert_symbol(d1, d2, 2) == math.prod(hilbert_symbol(d1, d2, p)
                                                  for p in primes if p != 2)
    assert omega_loc_torsion(d1, d2).verdict == parity_law_verdict(d1, d2)


def test_sweep_5_has_inadmissible():
    summary = sweep(5)
    assert summary.counts[VERDICT_INADMISSIBLE] >= 1


def test_sweeps_share_no_mutable_state():
    """Each summary holds its own counts and list: a later sweep neither
    sees nor changes what an earlier one returned."""
    alone = sweep(30)
    first, second = sweep(100), sweep(30)
    assert first.counts is not second.counts
    assert first.nonzero_fields is not second.nonzero_fields
    assert second.counts == alone.counts
    assert second.nonzero_fields == alone.nonzero_fields
    assert second.to_json_dict() == alone.to_json_dict()


def test_sweep_rejects_tiny_bound():
    with pytest.raises(InputError):
        sweep(2)


# ---------- report serialization ----------

def test_report_json_schema():
    report = omega_loc_torsion(5, 13)
    d = report.to_json_dict()
    assert set(d) >= {"field", "s_f", "per_prime", "ts_rep", "delta1",
                      "local_terms", "resolvent_check", "torsion", "verdict"}
    assert d["torsion"] == 1
    assert d["verdict"] == "vanishes"
    assert d["ts_rep"]["1"] == "65/48"
    assert d["per_prime"]["5"]["euler_factors"]["chi2"] == "6/5"
    json.dumps(d)  # must be serializable


def test_inadmissible_report_json():
    d = omega_loc_torsion(2, 5).to_json_dict()
    assert d["torsion"] is None
    assert d["verdict"] == "inadmissible"
    assert d["note"] == INADMISSIBLE_NOTE
    json.dumps(d)
