"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line.  Run with `pytest tests/test_acceptance.py -v -s`.

Criteria 4 and 9 assert universal statements over the full sweep range.
The pipeline, implemented exactly as specified (and pinned by the fixture
values of criterion 1), returns a nonzero torsion class on a parity class
of fields: those with (d1,d2)_2 * (-1 / odd gcd part) = -1.  Those two
assertions therefore fail, with the counterexamples named in the failure
message; the analysis lives in the project notes.  The tests are kept as
stated rather than weakened to match the implementation.
"""

import random
import time
from fractions import Fraction

from helpers import (independent_torsion, l_one_series, odd_primes_up_to,
                     seeded_class_representative, squarefree_pairs)
from tq.biquadratic import field_data, local_galois, quad_field_disc, ramified_set
from tq.invariant import (VERDICT_NONZERO, VERDICT_VANISHES,
                               delta1_term, leading_ratio_check, omega_loc_torsion,
                               resolvent_factor_check, sweep)
from tq.grouprings import V4_A, V4_AB, V4_B, V4_CHARS, V4_E
from tq.localterms import (LatticeExponent, TameComplexSpec,
                           build_tame_complex, valuation_iso,
                           verify_residue_resolution)
from tq.lseries import l_one_logsin, l_prime_zero_lgamma
from tq.perfectcomplex import class_representative
from tq.relk0 import HomRep, torsion_class, v2

PRIMES_42 = (3, 5, 7, 11, 13, 17, 19)


def announce(number: int, ok: bool, description: str, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"CRITERION {number}: {status} - {description}"
    if detail:
        line += f" [{detail}]"
    print(line)


def fixture_values(p):
    return {"++": Fraction(1, 2 * p - 2), "--": Fraction(-1),
            "+-": Fraction(-2, p + 1), "-+": Fraction(-1)}


def test_criterion_1_tame_determinant_fixtures():
    t0 = time.time()
    mismatches = []
    for p in PRIMES_42:
        spec = TameComplexSpec(p, V4_A, V4_B)
        rep = class_representative(build_tame_complex(spec), valuation_iso(spec))
        expected = fixture_values(p)
        for chi in V4_CHARS:
            pattern = ("+" if chi(V4_A) == 1 else "-") + \
                      ("+" if chi(V4_B) == 1 else "-")
            if rep[chi.label] != expected[pattern]:
                mismatches.append((p, chi.label, rep[chi.label]))
    elapsed = time.time() - t0
    ok = not mismatches and elapsed < 1.0
    announce(1, ok, "generic pipeline reproduces the four tame determinants "
                    "for p in 3..19", f"{elapsed:.2f}s")
    assert not mismatches, mismatches
    assert elapsed < 1.0


def test_criterion_2_splitting_independence():
    t0 = time.time()
    rng = random.Random(20260810)
    failures = []
    for p in PRIMES_42:
        spec = TameComplexSpec(p, V4_A, V4_B)
        cplx = build_tame_complex(spec)
        iso = valuation_iso(spec)
        baseline = class_representative(cplx, iso)
        for trial in range(100):
            sample = seeded_class_representative(cplx, iso, rng)
            if sample != baseline:
                failures.append((p, trial))
                break
    elapsed = time.time() - t0
    ok = not failures and elapsed < 10.0
    announce(2, ok, "100 seeded-random splitting choices per (p, chi) give "
                    "identical determinants", f"{elapsed:.2f}s")
    assert not failures, failures
    assert elapsed < 10.0


def test_criterion_3_residue_resolution():
    t0 = time.time()
    failures = []
    for p in odd_primes_up_to(50):
        for a in (V4_A, V4_B, V4_AB):
            report = verify_residue_resolution(p, a)
            if not report.ok:
                failures.append((p, a))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 1.0
    announce(3, ok, "residue-field resolution checks for p <= 50 incl. "
                    "x - a x = 1 - a", f"{elapsed:.2f}s")
    assert not failures, failures
    assert elapsed < 1.0


def test_criterion_4_universal_vanishing_sweep():
    t0 = time.time()
    summary = sweep(100)
    elapsed = time.time() - t0
    nonzero = summary.nonzero_fields
    ok = not nonzero and elapsed < 60.0
    detail = (f"{summary.counts[VERDICT_VANISHES]} vanish, "
              f"{len(nonzero)} nonzero, "
              f"{summary.counts['inadmissible']} inadmissible, {elapsed:.2f}s")
    announce(4, ok, "every admissible pair d2 <= 100 has trivial torsion",
             detail)
    assert elapsed < 60.0
    assert not nonzero, (
        f"{len(nonzero)} admissible fields have nonzero torsion, first ten: "
        f"{nonzero[:10]}; the pipeline output equals the Hilbert-symbol "
        f"parity (d1,d2)_2 * (-1/odd gcd), so universal vanishing fails for "
        f"exactly that class; see notes/decisions ledger")


def test_criterion_5_delta_product_trivial():
    failures = []
    for d1, d2 in squarefree_pairs(100):
        f = field_data(d1, d2)
        total = HomRep((1, 1, 1, 1))
        for p in ramified_set(f):
            total = total * delta1_term(f, p)
        if torsion_class(total) != 1:
            failures.append((d1, d2))
    ok = not failures
    announce(5, ok, "power-of-two term products have trivial torsion over "
                    "the full sweep")
    assert not failures, failures


def _first_admissible_fields(count):
    out = []
    for d1, d2 in squarefree_pairs(100):
        report = omega_loc_torsion(d1, d2)
        if report.verdict in (VERDICT_VANISHES, VERDICT_NONZERO):
            out.append(((d1, d2), report.torsion))
            if len(out) == count:
                break
    return out


def _unramified_odd_primes(f, count):
    out = []
    ram = set(ramified_set(f))
    for p in odd_primes_up_to(200):
        if p not in ram:
            out.append(p)
            if len(out) == count:
                break
    return out


def test_criterion_6_invariance_suite():
    failures = []
    sample = _first_admissible_fields(50)
    for (d1, d2), base in sample:
        f = field_data(d1, d2)
        extras = _unramified_odd_primes(f, 3)
        if omega_loc_torsion(d1, d2, s_extra=extras).torsion != base:
            failures.append((d1, d2, "s-enlargement"))
        for m in (1, 2, 3):
            for sign in (1, -1):
                lat = LatticeExponent(m, sign)
                if omega_loc_torsion(d1, d2, lat=lat).torsion != base:
                    failures.append((d1, d2, f"m={m} sign={sign}"))
        full = [p for p in ramified_set(f)
                if p % 2 == 1 and local_galois(f, p).full_decomposition]
        if independent_torsion(d1, d2, ()) != base:
            failures.append((d1, d2, "independent assembly"))
        if full and independent_torsion(d1, d2, tuple(full)) != base:
            failures.append((d1, d2, "frobenius relabeling"))
    ok = not failures
    announce(6, ok, "torsion invariant under S-enlargement, relabeling, "
                    "lattice exponent and sign on a 50-field sample")
    assert not failures, failures


def test_criterion_7_induction():
    rng = random.Random(7)
    failures = []

    def random_nonzero():
        q = Fraction(0)
        while q == 0:
            q = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
        return q

    for gen in (None, V4_A, V4_B, V4_AB):
        subgroup = {V4_E} if gen is None else {V4_E, gen}
        for _ in range(100):
            if gen is None:
                f = {"1": random_nonzero()}
                expected = tuple(v2(f["1"]) for _ in range(4))
            else:
                f = {"1": random_nonzero(), "sign": random_nonzero()}
                expected = tuple(
                    v2(f["1"] if chi(gen) == 1 else f["sign"])
                    for chi in V4_CHARS)
            # the class induced from the subgroup, through restriction of
            # characters: chi takes f's value at the restriction of chi
            induced = HomRep.from_char_function(
                lambda chi: f["1"] if chi.fixes(subgroup) else f["sign"])
            rank = tuple(map(v2, induced.as_tuple()))
            if torsion_class(induced) != 1 or rank != expected:
                failures.append((gen, f))
    ok = not failures
    announce(7, ok, "induced classes have trivial torsion and "
                    "restriction-table ranks (100 random inputs per subgroup)")
    assert not failures, failures


def test_criterion_8_analytic_oracle():
    t0 = time.time()
    discs = {}  # conductor -> (label, field) of one character of it
    for d1, d2 in squarefree_pairs(30):
        f = field_data(d1, d2)
        for label, d in f.char_to_subfield.items():
            disc = quad_field_disc(d)
            if 0 < disc <= 60:
                discs.setdefault(disc, (label, f))
    oracle_failures = []
    ratio_failures = []
    check_failures = []
    for disc, (label, f) in sorted(discs.items()):
        # validate the closed-form evaluators against direct series first
        if abs(l_one_series(disc) - l_one_logsin(disc)) > 1e-10:
            oracle_failures.append(disc)
        ratio = l_one_logsin(disc) / l_prime_zero_lgamma(disc)
        if abs(ratio * ratio - 4.0 / disc) >= 1e-8:
            ratio_failures.append(disc)
        # the two sums' ratio passes on any even +-1 table with zero sum;
        # the check divides L(1, chi) by h+ R+ / 2 from the reduced forms
        if not leading_ratio_check(label, f).ok:
            check_failures.append(disc)
    elapsed = time.time() - t0
    ok = not oracle_failures and not ratio_failures and not check_failures and elapsed < 5.0
    announce(8, ok, f"leading-coefficient ratio matches 4/f at 1e-8 for "
                    f"{len(discs)} conductors <= 60", f"{elapsed:.2f}s")
    assert not oracle_failures, f"series validation failed: {oracle_failures}"
    assert not ratio_failures, ratio_failures
    assert not check_failures, check_failures
    assert elapsed < 5.0


def test_criterion_9_resolvent_quotients():
    worked = resolvent_factor_check(field_data(2, 17))
    worked_ok = (worked is not None and worked.status == "pass"
                 and worked.value == Fraction(17, 1024))
    failures = []
    checked = 0
    for d1, d2 in squarefree_pairs(100):
        report = omega_loc_torsion(d1, d2)
        if report.verdict not in (VERDICT_VANISHES, VERDICT_NONZERO):
            continue
        rc = report.resolvent_check
        if rc is None or rc.status == "unsupported":
            continue
        checked += 1
        if rc.status != "pass":
            failures.append((d1, d2, str(rc.value)))
    ok = worked_ok and not failures
    announce(9, ok, f"resolvent quotient odd part is 1 mod 4 on all "
                    f"{checked} supported 2-ramified fields",
             "" if ok else f"failing: {failures}")
    assert worked_ok, worked
    assert not failures, (
        f"{len(failures)} supported fields fail the quotient check: "
        f"{failures}; these are exactly the fields whose square-root "
        f"cofactor is 3 mod 4; see notes/decisions ledger")
