from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tq.errors import InputError
from tq.grouprings import HOMREP_KEYS, V4_A, V4_AB, V4_B, V4_CHARS, V4_E
from tq.relk0 import HomRep, odd_part_mod4, odd_unit, torsion_class, v2

# the nonzero rationals with |q| <= 50 and denominator <= 48, drawn as
# s*(1 + k mod 50d)/d with a sign s and 0 <= k <= 2399: st.fractions spends
# most of these tests' time drawing, and a numerator strategy built per
# denominator by flatmap is rebuilt and revalidated for every draw
nonzero_fractions = st.builds(lambda d, s, k: Fraction(s * (1 + k % (50 * d)), d),
                              st.integers(1, 48), st.sampled_from((1, -1)),
                              st.integers(0, 2399))
homreps = st.builds(lambda t: HomRep(t), st.tuples(*[nonzero_fractions] * 4))


# ---------- odd part mod 4 ----------

def test_odd_part_examples():
    assert odd_part_mod4(16) == 1
    assert odd_part_mod4(-1) == 3
    assert odd_part_mod4(Fraction(6, 5)) == 3
    assert odd_part_mod4(Fraction(-1, 24)) == 1
    assert odd_part_mod4(Fraction(17, 1024)) == 1


def test_odd_unit_strips_twos_and_keeps_sign():
    for n in [*range(-300, 0), *range(1, 300), 3 * 2 ** 80, -(2 ** 80)]:
        odd = n
        while odd % 2 == 0:
            odd //= 2
        assert odd_unit(n) == odd % 4, n


def test_odd_part_zero_rejected():
    # zero has neither an odd part nor a 2-adic valuation
    with pytest.raises(InputError):
        odd_part_mod4(0)
    for zero in (0, Fraction(0)):
        with pytest.raises(InputError, match="v2"):
            v2(zero)


@settings(max_examples=1000, deadline=None)
@given(nonzero_fractions, nonzero_fractions)
def test_odd_part_multiplicative(q, r):
    assert odd_part_mod4(q) in (1, 3)
    assert odd_part_mod4(q * r) == odd_part_mod4(q) * odd_part_mod4(r) % 4


def test_torsion_class_group_law():
    three = torsion_class(HomRep((3, 1, 1, 1)))
    # 3 * 3 = 1 mod 4: three is its own inverse
    assert three * three % 4 == 1 == torsion_class(HomRep((9, 1, 1, 1)))


# ---------- torsion of HomReps ----------

def test_torsion_examples():
    assert torsion_class(HomRep((1, 1, 1, 1))) == 1
    assert torsion_class(HomRep((3, 1, 1, 1))) == 3
    assert torsion_class(HomRep((Fraction(1, 8), -1, Fraction(-1, 3), -1))) == 1


@settings(max_examples=1000, deadline=None)
@given(homreps, homreps)
def test_torsion_class_is_homomorphism(h1, h2):
    product = torsion_class(h1) * torsion_class(h2) % 4
    assert torsion_class(h1 * h2) == product


@settings(max_examples=300, deadline=None)
@given(homreps)
def test_squares_die_mod4(h):
    assert torsion_class(h * h) == 1


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[st.integers(min_value=-6, max_value=6)] * 4),
       st.tuples(*[st.integers(min_value=-10, max_value=10)] * 4))
def test_one_mod_four_odd_parts_give_trivial_torsion(odd_units, twos):
    # values of the form 2^k * u with u = 1 mod 4 in odd part
    values = tuple(Fraction(2) ** k * (4 * n + 1) for k, n in zip(twos, odd_units))
    assert torsion_class(HomRep(values)) == 1


def test_power_of_two_product_torsion_trivial():
    h = HomRep((Fraction(1, 2), 4, Fraction(-8), Fraction(-1, 16)))
    # product is 1: a 2-power times (-1)^2
    assert torsion_class(h) == 1


# ---------- induction from subgroups ----------

def induce(subgroup, f1, f_sign=None):
    """The rank vector and torsion class of the class induced from a
    subgroup of order <= 2, read through restriction of characters: chi
    takes f1 when it fixes the subgroup, else f_sign."""
    h = HomRep.from_char_function(lambda chi: f1 if chi.fixes(subgroup) else f_sign)
    return tuple(map(v2, h.as_tuple())), torsion_class(h)


def test_induce_trivial_subgroup_examples():
    rank, tors = induce({V4_E}, 3)
    assert rank == (0, 0, 0, 0) and tors == 1
    rank, tors = induce({V4_E}, 2)
    assert rank == (1, 1, 1, 1) and tors == 1


def test_induce_order_two_example():
    rank, tors = induce({V4_E, V4_A}, 2, 1)
    # characters restricting trivially to <a> are 1 and chi2; the rank
    # vector is in HOMREP_KEYS order (1, chi1, chi2, chi1chi2)
    assert rank == (1, 0, 1, 0)
    assert tors == 1


def test_induce_rank_matches_restriction_table():
    # independent restriction table: chi restricts trivially to <h> iff chi(h) = 1
    for h in (V4_A, V4_B, V4_AB):
        f = {"1": Fraction(12, 5), "sign": Fraction(-3, 7)}
        rank, tors = induce({V4_E, h}, f["1"], f["sign"])
        for chi, exp in zip(V4_CHARS, rank):
            assert exp == v2(f["1"] if chi(h) == 1 else f["sign"])
        assert tors == 1


@settings(max_examples=400, deadline=None)
@given(nonzero_fractions, nonzero_fractions,
       st.sampled_from([None, V4_A, V4_B, V4_AB]))
def test_induce_torsion_always_trivial(f1, fsign, gen):
    if gen is None:
        _, tors = induce({V4_E}, f1)
    else:
        _, tors = induce({V4_E, gen}, f1, fsign)
    assert tors == 1


# ---------- serialization ----------

def test_homrep_json_roundtrip():
    h = HomRep((Fraction(1, 8), -1, Fraction(-1, 3), -1))
    d = h.to_json_dict()
    assert set(d) == set(HOMREP_KEYS)
    assert d["1"] == "1/8" and d["chi2"] == "-1/3"


def test_homrep_rejects_zero():
    with pytest.raises(InputError):
        HomRep((1, 0, 1, 1))


def test_homrep_keeps_fractions_and_checks_values():
    """A `Fraction` value is kept as the object given, an int is converted;
    a zero value or a count other than four is rejected, from any
    iterable."""
    values = (Fraction(1, 3), Fraction(-2), Fraction(5, 7), Fraction(1))
    h = HomRep(iter(values))
    assert all(a is b for a, b in zip(h.as_tuple(), values))
    assert HomRep((1, -2, 3, 4)).as_tuple() == (1, -2, 3, 4)
    assert all(type(v) is Fraction for v in HomRep((1, -2, 3, 4)).as_tuple())
    for bad in ((Fraction(1), Fraction(0), Fraction(1), Fraction(1)),
                (Fraction(1),) * 3, (Fraction(1),) * 5, (1, 1, 1, 0), ()):
        with pytest.raises(InputError):
            HomRep(iter(bad))


def test_relk0_refuses_floats():
    """A float may already have lost the value it stands for (0.1 is
    3602879701896397/2**55, of valuation -55), so `HomRep`, `v2` and
    `odd_part_mod4` refuse one with a `TypeError`, in any position, as
    `linalg.exact` does; the exact values they stand for still go
    through."""
    for x in (0.1, 2.0, -3.0):
        with pytest.raises(TypeError):
            v2(x)
        with pytest.raises(TypeError):
            odd_part_mod4(x)
        for i in range(4):
            with pytest.raises(TypeError):
                HomRep((1,) * i + (x,) + (1,) * (3 - i))
    assert v2(Fraction(1, 10)) == -1 and v2(2) == 1
    assert odd_part_mod4(Fraction(1, 10)) == 1
    assert HomRep((Fraction(1, 10), 1, 1, 1))["1"] == Fraction(1, 10)


def test_from_char_function_orders_values_by_homrep_keys():
    values = {"1": Fraction(2), "chi1": Fraction(3), "chi2": Fraction(5),
              "chi1chi2": Fraction(7)}
    h = HomRep.from_char_function(lambda chi: values[chi.label])
    assert h.as_tuple() == tuple(values[k] for k in HOMREP_KEYS)
    assert [h[k] for k in HOMREP_KEYS] == [2, 3, 5, 7]
    assert [h[chi.label] for chi in V4_CHARS] == [2, 3, 5, 7]
