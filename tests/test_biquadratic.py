from fractions import Fraction
from math import isqrt

import pytest
from sympy.external.ntheory import kronecker

from helpers import odd_primes_up_to, signed_fields, squarefree_pairs
from tq.arith import is_squarefree, prime_factors
from tq.biquadratic import (artin_conductor, disc_primes, euler_factor,
                            field_data, frob_det_quotient, frob_signs,
                            local_galois, quad_field_disc, ramified_set)
from tq.errors import InputError
from tq.grouprings import V4_A, V4_B, V4_CHARS, V4_E, group_elements
from tq.relk0 import v2


# ---------- field data ----------

def test_field_data_5_13():
    f = field_data(5, 13)
    assert f.d3 == 65
    assert f.to_json_dict()["subfield_discs"] == {"5": 5, "13": 13, "65": 65}


def test_field_data_2_17():
    f = field_data(2, 17)
    assert f.d3 == 34
    assert f.to_json_dict()["subfield_discs"] == {"2": 8, "17": 17, "34": 136}


def test_field_data_rejects_bad_input():
    with pytest.raises(InputError):
        field_data(4, 3)
    with pytest.raises(InputError):
        field_data(5, 5)
    with pytest.raises(InputError):
        field_data(1, 5)
    with pytest.raises(InputError):
        field_data(-3, 5)
    with pytest.raises(InputError):
        field_data(5, 10 ** 18 + 3)
    with pytest.raises(InputError, match="outside the supported range"):
        field_data(-(10 ** 18) - 3, 5)


def test_field_data_rejects_imaginary():
    """A negative d makes E imaginary, which no quaternion field's E = N^Z
    is; the subfield discriminants of the tests' imaginary ints stay
    those of Q(sqrt(d))."""
    for d1, d2 in [(-3, 5), (5, -3), (-3, -5), (-1, 2)]:
        with pytest.raises(InputError, match="imaginary"):
            field_data(d1, d2)
    assert quad_field_disc(-3) == -3 and quad_field_disc(-15) == -15
    assert quad_field_disc(-5) == -20


def test_char_subfield_binding():
    f = field_data(5, 13)
    assert f.char_to_subfield == {"chi1": 5, "chi2": 13, "chi1chi2": 65}
    # chi_d is trivial exactly on the subgroup fixing sqrt(d): a flips
    # sqrt(d1), so chi1(a) = -1 and chi1(b) = 1
    chi1 = V4_CHARS[1]
    assert chi1(V4_A) == -1 and chi1(V4_B) == 1


# ---------- local Galois data ----------

def test_local_galois_5_13_at_5():
    f = field_data(5, 13)
    loc = local_galois(f, 5)
    assert loc.inertia == frozenset({V4_E, V4_A})  # kernel of chi2 = chi_13
    assert loc.full_decomposition
    assert loc.frob not in loc.inertia
    assert loc.a_p == V4_A and loc.b_p == loc.frob


def test_local_galois_13_17_at_13():
    f = field_data(13, 17)
    loc = local_galois(f, 13)
    # inertia is the kernel of chi_17 = chi2, and (17/13) = (4/13) = +1
    # puts the Frobenius inside it
    assert loc.inertia == frozenset({V4_E, V4_A})
    assert loc.decomposition == loc.inertia
    assert loc.frob == V4_E
    assert not loc.full_decomposition


def test_local_galois_2_5_at_2():
    f = field_data(2, 5)
    loc = local_galois(f, 2)
    # inertia = kernel of chi_5; 5 = 5 mod 8 means 2 is inert in Q(sqrt 5)
    chi2 = V4_CHARS[2]
    assert loc.inertia == frozenset(g for g in group_elements() if chi2(g) == 1)
    assert loc.full_decomposition


def test_local_galois_totally_ramified_at_2():
    f = field_data(2, 3)
    loc = local_galois(f, 2)
    assert loc.inertia == frozenset(group_elements())
    assert loc.full_decomposition


def test_local_galois_unramified_prime():
    f = field_data(5, 13)
    loc = local_galois(f, 3)
    assert loc.inertia == frozenset({V4_E})
    assert not loc.in_s
    assert len(loc.decomposition) <= 2


def test_local_galois_rejects_a_non_prime():
    f = field_data(5, 13)
    for p in (-5, 0, 1, 9, 65):
        with pytest.raises(InputError, match=f"^{p} is not prime$"):
            local_galois(f, p)


def test_full_decomposition_implies_ramified():
    for d1, d2 in squarefree_pairs(30):
        f = field_data(d1, d2)
        ram = set(ramified_set(f))
        for p in odd_primes_up_to(40):
            loc = local_galois(f, p)
            if loc.full_decomposition:
                assert p in ram, (d1, d2, p)


# ---------- ramified sets ----------

@pytest.mark.parametrize("pair,expected", [
    ((5, 13), [5, 13]),
    ((2, 17), [2, 17]),
    ((13, 17), [13, 17]),
    ((3, 11), [2, 3, 11]),
    ((21, 33), [3, 7, 11]),
])
def test_ramified_set(pair, expected):
    assert ramified_set(field_data(*pair)) == expected


def test_disc_primes_and_ramified_set_against_discriminants():
    """disc_primes(d) are the primes of the discriminant of Q(sqrt(d)), and
    the ramified set is their union over all three quadratic subfields."""
    ds = [d for d in range(-40, 41) if d not in (0, 1) and is_squarefree(d)]
    for d in ds:
        assert disc_primes(d) == set(prime_factors(quad_field_disc(d))), d
    for f in signed_fields(40):
        expected = set().union(*(prime_factors(quad_field_disc(d))
                                 for d in f.subfields))
        assert ramified_set(f) == sorted(expected), (f.d1, f.d2)


# ---------- Euler factors and conductors ----------

def test_euler_factor_examples():
    f = field_data(5, 13)
    loc = local_galois(f, 5)
    assert euler_factor(V4_CHARS[0], 5, loc) == Fraction(4, 5)
    assert euler_factor(V4_CHARS[2], 5, loc) == Fraction(6, 5)
    assert euler_factor(V4_CHARS[1], 5, loc) == 1
    assert euler_factor(V4_CHARS[3], 5, loc) == 1


def test_frob_det_quotient_examples():
    f = field_data(5, 13)
    loc = local_galois(f, 5)
    assert frob_det_quotient(V4_CHARS[0], loc) == 1
    assert frob_det_quotient(V4_CHARS[2], loc) == 2
    assert frob_det_quotient(V4_CHARS[1], loc) == 1


def test_euler_multiset_even_multiplicity_when_not_full():
    for d1, d2 in squarefree_pairs(25):
        f = field_data(d1, d2)
        for p in set(ramified_set(f)) | {3, 5, 7}:
            loc = local_galois(f, p)
            if len(loc.decomposition) > 2:
                continue
            values = [euler_factor(chi, p, loc) for chi in V4_CHARS]
            for v in set(values):
                assert values.count(v) % 2 == 0, (d1, d2, p, values)


def test_artin_conductor_examples():
    f = field_data(5, 13)
    assert artin_conductor("1", f) == 1
    assert artin_conductor("chi1", f) == 5
    f2 = field_data(2, 17)
    assert artin_conductor("chi1", f2) == 8
    assert artin_conductor("chi2", f2) == 17
    assert artin_conductor("chi1chi2", f2) == 136


def test_conductor_product_is_perfect_square():
    """The conductors multiply to disc(E) = D1 D2 D3, a square for every
    field, which `resolvent_factor_check` takes the root of unchecked.  Its
    odd part is a square: D has the odd part of d, and each odd prime of
    d1 d2 divides exactly two of d1, d2, d3.  Its 2-adic valuation is even:
    v2(D) is 0, 2 or 3 as d is 1 or 3 mod 4 or even, so it depends only on
    the class of d at 2 (d mod 8, or mod 16 when d is even), and the class
    of d3 only on those of d1 and d2, so two squarefree representatives of
    each of the 8 x 8 pairs of classes cover every field.  Every pair with
    d2 <= 40 has a square product outright."""
    for d1, d2 in squarefree_pairs(40):
        f = field_data(d1, d2)
        assert f.d3 not in (1, f.d1, f.d2), (d1, d2)
        prod = 1
        for chi in V4_CHARS:
            prod *= artin_conductor(chi.label, f)
        assert isqrt(prod) ** 2 == prod, (d1, d2, prod)

    def cls(d):
        return d % 8 if d % 2 else d % 16
    reps = {}
    for d in range(2, 40):
        if is_squarefree(d):
            reps.setdefault(cls(d), []).append(d)
    assert sorted(reps) == [1, 2, 3, 5, 6, 7, 10, 14]
    for c1, r1 in reps.items():
        for c2, r2 in reps.items():
            d3_classes = set()
            for d1, d2 in ((r1[0], r2[1]), (r1[1], r2[0])):
                f = field_data(d1, d2)
                for p in prime_factors(d1 * d2):
                    if p % 2:
                        assert sum(d % p == 0 for d in f.subfields) == 2, (d1, d2, p)
                prod = 1
                for chi in V4_CHARS:
                    prod *= artin_conductor(chi.label, f)
                assert v2(prod) % 2 == 0, (d1, d2, prod)
                d3_classes.add(cls(f.d3))
            assert len(d3_classes) == 1, (c1, c2)


def _oracle_sign(d, p, squares):
    """Splitting of p in Q(sqrt d) without Kronecker symbols: 0 when p
    divides the discriminant, 1 when p splits, -1 when p is inert.  An odd
    p splits iff the discriminant is a nonzero square mod p (`squares` is
    the set of nonzero squares mod p); 2 splits iff d = 1 mod 8."""
    disc = quad_field_disc(d)
    if disc % p == 0:
        return 0
    if p == 2:
        return 1 if d % 8 == 1 else -1
    return 1 if disc % p in squares else -1


def _expected_local(signs):
    """Local data at p from the signs of p in Q(sqrt d1), Q(sqrt d2) and
    Q(sqrt d3).  a^i b^j acts on the three square roots by (-1)^i, (-1)^j
    and (-1)^(i+j); it lies in inertia when it fixes every root with sign
    != 0 and in the decomposition group when it fixes every root with sign
    1.  Frobenius is the first element, in the order e, a, b, ab, acting on
    each unramified root by its sign."""
    def acts(g):
        i, j = divmod(g, 2)  # a^i b^j is the int 2i + j
        return ((-1) ** i, (-1) ** j, (-1) ** (i + j))
    elems = group_elements()
    inertia = frozenset(g for g in elems
                        if all(a == 1 for a, s in zip(acts(g), signs) if s))
    decomposition = frozenset(g for g in elems
                              if all(a == 1 for a, s in zip(acts(g), signs) if s == 1))
    frob = next(g for g in elems
                if all(a == s for a, s in zip(acts(g), signs) if s))
    a_p = b_p = None
    if len(decomposition) == 4 and len(inertia) == 2:
        a_p = next(g for g in inertia if g != V4_E)
        b_p = frob
    return (len(inertia) > 1, inertia, decomposition, frob, a_p, b_p)


def test_frob_signs_are_the_three_kronecker_symbols():
    """At every odd prime p <= 100, over the pairs of squarefree |d| <= 40,
    imaginary ones included, `frob_signs` equals sympy's Kronecker symbols
    of the three subfield discriminants at p."""
    fields = signed_fields(40)
    for p in odd_primes_up_to(100):
        for f in fields:
            assert frob_signs(*f.subfields, p) == tuple(
                kronecker(quad_field_disc(d), p) for d in f.subfields), \
                (f.d1, f.d2, p)


def test_local_galois_against_brute_force_oracle():
    """Every field Q(sqrt d1, sqrt d2) with squarefree |d1|, |d2| <= 60,
    imaginary ones included, at every prime p <= 400."""
    fields = signed_fields(60)
    subfields = {d for f in fields for d in f.subfields}
    primes = [2] + odd_primes_up_to(400)
    expected = {}  # sign triple -> expected local data
    for p in primes:
        squares = {x * x % p for x in range(1, p)}
        sign = {d: _oracle_sign(d, p, squares) for d in subfields}
        for f in fields:
            signs = (sign[f.d1], sign[f.d2], sign[f.d3])
            if signs not in expected:
                expected[signs] = _expected_local(signs)
            loc = local_galois(f, p)
            got = (loc.in_s, loc.inertia, loc.decomposition, loc.frob,
                   loc.a_p, loc.b_p)
            assert got == expected[signs], (f.d1, f.d2, p, signs)
    assert (len(fields), len(primes)) == (2628, 78)


def test_real_pairs_lose_no_sign_class():
    """The real fields of squarefree d <= 60 reach, at the primes p <= 400,
    every class (p = 2, `frob_signs`) that the fields of squarefree
    |d| <= 60 reach, imaginary ones included, whose signs come from
    `frob_signs` on their ints: a test that walks real pairs only misses
    no kind of local data."""
    primes = [2] + odd_primes_up_to(400)
    fields = signed_fields(60)
    real = [f for f in fields if f.d1 > 0]
    assert real == [field_data(d1, d2) for d1, d2 in squarefree_pairs(60)]

    def classes(fields):
        return {(p == 2, frob_signs(*f.subfields, p)) for p in primes for f in fields}
    reached = classes(real)
    assert reached == classes(fields)
    assert len(reached) == 21
