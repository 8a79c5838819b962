import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import odd_primes_up_to
from tq import localterms
from tq.arith import is_prime, is_squarefree
from tq.biquadratic import PrimeLocalData, field_data, local_galois
from tq.errors import ContractViolationError, InputError
from tq.grouprings import (V4_A, V4_AB, V4_B, V4_CHARS, V4_E,
                           GroupRingElem, GroupRingMatrix, group_elements)
from tq.localterms import (LatticeExponent, TameComplexSpec,
                           build_tame_complex, inertia_unit,
                           local_term_closed_form, local_term_via_complex,
                           residue_class, valuation_iso,
                           verify_residue_resolution)
from tq.perfectcomplex import (PerfectComplex, char_specialize,
                               class_representative)
from tq.relk0 import torsion_class

FIXTURES = Path(__file__).parent / "fixtures"

NONTRIVIAL = (V4_A, V4_B, V4_AB)


def all_labelings():
    return [(a, b) for a in NONTRIVIAL for b in NONTRIVIAL if a != b]


def full_local_data(p, a, b):
    inertia = frozenset({V4_E, a})
    return PrimeLocalData(p, True, inertia, frozenset(group_elements()),
                          frob=b, a_p=a, b_p=b)


# ---------- spec validation ----------

def test_spec_rejects_bad_input():
    with pytest.raises(InputError):
        TameComplexSpec(4, V4_A, V4_B)
    with pytest.raises(InputError):
        TameComplexSpec(2, V4_A, V4_B)
    with pytest.raises(InputError):
        TameComplexSpec(5, V4_E, V4_B)
    with pytest.raises(InputError):
        TameComplexSpec(5, V4_A, V4_A)


# ---------- the complex ----------

def test_lambda_coefficients_p3():
    spec = TameComplexSpec(3, V4_A, V4_B)
    cplx = build_tame_complex(spec)
    lam = cplx.differentials[-2]
    a = GroupRingElem.of(V4_A)
    b = GroupRingElem.of(V4_B)
    one = GroupRingElem.one()
    assert lam.entries[0][0] == b * (GroupRingElem({V4_E: 2}) + a) - one
    assert lam.entries[0][1] == -(a - one)


def test_lambda_coefficients_p5():
    """The tame complex at p = 5, a = V4_A, b = V4_B, every entry written
    out: d_-2 = [[-1 + 3b + 2ab, 1 - a]] and d_-1 = [[1 - a], [1 - b]]."""
    cplx = build_tame_complex(TameComplexSpec(5, V4_A, V4_B))
    assert cplx.degrees == (-2, 0)
    assert {j: cplx.rank(j) for j in range(-2, 1)} == {-2: 1, -1: 2, 0: 1}
    one_minus_a = GroupRingElem({V4_E: 1, V4_A: -1})
    one_minus_b = GroupRingElem({V4_E: 1, V4_B: -1})
    assert cplx.differentials.keys() == {-2, -1}
    assert cplx.differentials[-2].entries == (
        (GroupRingElem({V4_E: -1, V4_B: 3, V4_AB: 2}), one_minus_a),)
    assert cplx.differentials[-1].entries == ((one_minus_a,), (one_minus_b,))


def test_composite_zero_symbolically():
    for p in odd_primes_up_to(23):
        for a, b in all_labelings():
            build_tame_complex(TameComplexSpec(p, a, b))  # raises if d*d != 0


def test_trivial_char_specialization_p5():
    spec = TameComplexSpec(5, V4_A, V4_B)
    c = char_specialize(build_tame_complex(spec), V4_CHARS[0])
    assert c.diffs[-2] == [[Fraction(4), Fraction(0)]]
    assert c.diffs[-1] == [[Fraction(0)], [Fraction(0)]]


def test_tame_complex_holds_only_ints():
    """(p +- 1)/2 is an int at odd p and chi(g) = +-1, so the tame complex
    and its specializations at all four characters hold ints only: no
    float, and no Fraction, even an integral one.  The class read from it
    is still a HomRep of Fractions."""
    rng = random.Random(22)
    draws = (rng.randrange(11, 10 ** 6) | 1 for _ in range(100))
    for p in [3, 5, 7] + [q for q in draws if is_prime(q)]:
        for a, b in all_labelings():
            spec = TameComplexSpec(p, a, b)
            cplx = build_tame_complex(spec)
            for d in cplx.differentials.values():
                assert all(type(c) is int for row in d.entries for x in row
                           for _, c in x.items()), (p, a, b)
            for chi in V4_CHARS:
                for m in char_specialize(cplx, chi).diffs.values():
                    assert all(type(v) is int for row in m for v in row), (p, chi)
            rep = class_representative(cplx, valuation_iso(spec))
            assert all(type(v) is Fraction for v in rep.as_tuple()), p


# ---------- valuation iso ----------

def test_valuation_iso_shapes():
    spec = TameComplexSpec(5, V4_A, V4_B)
    iso = valuation_iso(spec)
    assert iso["1"].matrix == [[Fraction(1)]]
    for label in ("chi1", "chi2", "chi1chi2"):
        assert iso[label].matrix == []


def test_valuation_iso_detects_differential_bug():
    spec = TameComplexSpec(5, V4_A, V4_B)
    a = GroupRingElem.of(V4_A)
    one = GroupRingElem.one()
    broken = PerfectComplex(
        (-2, 0), {-2: 1, -1: 2, 0: 1},
        {-2: GroupRingMatrix.from_rows([[a - one, GroupRingElem.zero()]]),
         -1: GroupRingMatrix.from_rows([[GroupRingElem.zero()],
                                        [a - one]])})
    with pytest.raises(ContractViolationError):
        class_representative(broken, valuation_iso(spec))


def test_p3_composed_representative():
    spec = TameComplexSpec(3, V4_A, V4_B)
    rep = class_representative(build_tame_complex(spec), valuation_iso(spec))
    assert rep.as_tuple() == (Fraction(1, 4), Fraction(-1), Fraction(-1, 2),
                              Fraction(-1))


def test_fixture_determinants_all_labelings():
    with open(FIXTURES / "tame_determinants.json") as fh:
        raw = json.load(fh)["determinants"]
    for p_str, by_pattern in raw.items():
        p = int(p_str)
        for a, b in all_labelings():
            spec = TameComplexSpec(p, a, b)
            rep = class_representative(build_tame_complex(spec),
                                       valuation_iso(spec))
            for chi in V4_CHARS:
                pattern = (("+" if chi(a) == 1 else "-")
                           + ("+" if chi(b) == 1 else "-"))
                assert rep[chi.label] == Fraction(by_pattern[pattern]), \
                    (p, a, b, chi.label)


def test_generic_determinants_all_primes_to_fifty():
    closed = {"++": lambda p: Fraction(1, 2 * p - 2),
              "--": lambda p: Fraction(-1),
              "+-": lambda p: Fraction(-2, p + 1),
              "-+": lambda p: Fraction(-1)}
    for p in odd_primes_up_to(50):
        for a, b in all_labelings():
            spec = TameComplexSpec(p, a, b)
            rep = class_representative(build_tame_complex(spec),
                                       valuation_iso(spec))
            for chi in V4_CHARS:
                pattern = (("+" if chi(a) == 1 else "-")
                           + ("+" if chi(b) == 1 else "-"))
                assert rep[chi.label] == closed[pattern](p), (p, a, b, chi.label)


# ---------- residue field ----------

def test_residue_class_values():
    rep = residue_class(5, V4_A)
    assert rep.as_tuple() == (5, 1, 5, 1)
    rep = residue_class(3, V4_AB)
    # chi(ab) = 1 exactly for the trivial character and chi1chi2
    assert rep.as_tuple() == (3, 1, 1, 3)


def test_residue_class_square_has_trivial_torsion():
    for p in (3, 5, 7):
        rep = residue_class(p, V4_A)
        assert torsion_class(rep * rep) == 1


def test_residue_resolution_reports():
    for p in odd_primes_up_to(50):
        for a in NONTRIVIAL:
            report = verify_residue_resolution(p, a)
            assert report.ok, (p, a, report)


def test_residue_resolution_rejects_trivial_inertia_generator():
    for p in (3, 5, 7):
        with pytest.raises(InputError, match="nontrivial"):
            verify_residue_resolution(p, V4_E)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_residue_resolution_check_i_reads_off_inertia_terms(monkeypatch, p):
    """Check (i) fails for an x with a term off inertia, and passes for one
    whose off-inertia terms cancel: x acts on the residue field as the sum
    of its inertia terms plus the sum of the others times the swap."""
    off = {V4_E: (p + 1) // 2, V4_B: (p - 1) // 2}
    monkeypatch.setattr(localterms, "inertia_unit",
                        lambda p, a: GroupRingElem(off))
    report = verify_residue_resolution(p, V4_A)
    assert not report.multiplication_by_p and not report.ok
    cancel = {V4_E: p, V4_B: 1, V4_AB: -1}
    monkeypatch.setattr(localterms, "inertia_unit",
                        lambda p, a: GroupRingElem(cancel))
    assert verify_residue_resolution(p, V4_A).multiplication_by_p


def test_residue_resolution_character_values():
    report = verify_residue_resolution(3, V4_A)
    assert report.char_value_list == (3, 1, 3, 1)
    report = verify_residue_resolution(7, V4_A)
    assert report.char_value_list == (7, 1, 7, 1)


def test_displayed_identity_directly():
    # x - a*x = 1 - a for x = (p+1)/2 + ((p-1)/2) a
    for p in (3, 5, 7, 11):
        x = inertia_unit(p, V4_A)
        a = GroupRingElem.of(V4_A)
        assert x - a * x == GroupRingElem.one() - a


# ---------- closed form ----------

def test_closed_form_examples_p5():
    lat = LatticeExponent(1, 1)
    rep = local_term_closed_form(5, full_local_data(5, V4_A, V4_B), lat)
    assert rep["1"] == Fraction(1, 40)
    # nontrivial on inertia: 1/p
    assert rep["chi1"] == Fraction(1, 5)
    assert rep["chi1chi2"] == Fraction(1, 5)
    # trivial on inertia, nontrivial on decomposition: -2/(p^(1+m)(1+1/p))
    assert rep["chi2"] == Fraction(-2, 25 * 6) * 5
    assert rep["chi2"] == Fraction(-1, 15)


def test_closed_form_sign_flip():
    rep = local_term_closed_form(5, full_local_data(5, V4_A, V4_B),
                                 LatticeExponent(1, -1))
    assert rep["1"] == Fraction(1, 2) / (Fraction(5) ** 0 * Fraction(4, 5))
    assert rep["chi2"] == Fraction(-2) / (Fraction(1) * Fraction(6, 5))


def test_closed_form_rejects_partial_decomposition():
    f = field_data(13, 17)
    loc = local_galois(f, 13)  # decomposition of order 2
    with pytest.raises(InputError):
        local_term_closed_form(13, loc, LatticeExponent())


def test_closed_form_rejects_even_prime():
    loc = full_local_data(2, V4_A, V4_B)
    with pytest.raises(InputError):
        local_term_closed_form(2, loc, LatticeExponent())


def test_epsilon_sign_structure():
    # exactly one character is trivial on inertia but nontrivial on the
    # full decomposition group, so the four signs multiply to -1
    for p in (3, 5, 13):
        rep = local_term_closed_form(p, full_local_data(p, V4_A, V4_B),
                                     LatticeExponent())
        signs = [1 if v > 0 else -1 for v in rep.as_tuple()]
        assert sorted(signs) == [-1, 1, 1, 1]
        prod = 1
        for s in signs:
            prod *= s
        assert prod == -1


def test_total_p_exponent_even():
    for p in (3, 5, 11):
        for m in (1, 2):
            for sign in (1, -1):
                rep = local_term_closed_form(p, full_local_data(p, V4_A, V4_B),
                                             LatticeExponent(m, sign))
                prod = Fraction(1)
                for val in rep.as_tuple():
                    prod *= val
                vp = 0
                num, den = prod.numerator, prod.denominator
                while num % p == 0:
                    num //= p
                    vp += 1
                while den % p == 0:
                    den //= p
                    vp -= 1
                assert vp % 2 == 0, (p, m, sign, prod)


# ---------- route agreement ----------

@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_routes_agree_mod4(p):
    for a, b in all_labelings():
        loc = full_local_data(p, a, b)
        for m in (1, 2, 3):
            for sign in (1, -1):
                lat = LatticeExponent(m, sign)
                closed = local_term_closed_form(p, loc, lat)
                generic = local_term_via_complex(p, loc, lat)
                assert torsion_class(closed) == torsion_class(generic), \
                    (p, a, b, m, sign)


def fully_decomposed_cases(count, seed=20261018):
    """Seeded (p, local data) with p in [1e3, 1e6) fully decomposed in
    Q(sqrt(p), sqrt(d)) for a small squarefree d, the field taken in
    either order."""
    rng = random.Random(seed)
    small_d = [d for d in range(2, 200) if is_squarefree(d)]
    cases = []
    while len(cases) < count:
        p = rng.randrange(1_000, 1_000_000) | 1
        if not is_prime(p):
            continue
        d1, d2 = rng.sample((p, rng.choice(small_d)), 2)
        loc = local_galois(field_data(d1, d2), p)
        if loc.full_decomposition:
            cases.append((p, loc))
    return cases


def test_via_complex_exact_values():
    # the tame closed forms by (chi(a_p), chi(b_p)), times the lattice
    # correction p^(m dim chi^I + sign)
    tame = {(1, 1): lambda p: Fraction(1, 2 * p - 2),
            (-1, -1): lambda p: Fraction(-1),
            (1, -1): lambda p: Fraction(-2, p + 1),
            (-1, 1): lambda p: Fraction(-1)}
    for p, loc in fully_decomposed_cases(20):
        for m in (1, 2, 3):
            for sign in (1, -1):
                rep = local_term_via_complex(p, loc, LatticeExponent(m, sign))
                for chi in V4_CHARS:
                    dim_i = 1 if chi(loc.a_p) == 1 else 0
                    expected = (tame[chi(loc.a_p), chi(loc.b_p)](p)
                                * Fraction(p) ** (m * dim_i + sign))
                    assert rep[chi.label] == expected, (p, m, sign, chi.label)


def test_sign_flip_leaves_torsion_unchanged():
    loc = full_local_data(13, V4_A, V4_B)
    plus = local_term_via_complex(13, loc, LatticeExponent(2, 1))
    minus = local_term_via_complex(13, loc, LatticeExponent(2, -1))
    assert torsion_class(plus) == torsion_class(minus)


def test_lattice_exponent_validation():
    with pytest.raises(InputError):
        LatticeExponent(0, 1)
    with pytest.raises(InputError):
        LatticeExponent(101, 1)
    with pytest.raises(InputError):
        LatticeExponent(1, 2)


def test_lattice_exponent_defaults_and_repr():
    assert repr(LatticeExponent()) == "LatticeExponent(m=1, sign=1)"
