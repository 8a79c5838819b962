from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import identity_matrix
from tq.grouprings import (V4_A, V4_AB, V4_B, V4_CHARS, V4_E, GroupRingElem,
                           GroupRingMatrix, apply_char, apply_char_matrix,
                           element_name, group_elements, idempotent)
from tq.relk0 import HomRep


# ---------- group law: an element is an int, the product XOR ----------

# single-case parametrizations keep their ids, so test names stay stable
@pytest.mark.parametrize("elems", [group_elements()], ids=["V4"])
def test_associativity_exhaustive(elems):
    for g in elems:
        for h in elems:
            for k in elems:
                assert (g ^ h) ^ k == g ^ (h ^ k)


@pytest.mark.parametrize("elems", [group_elements()], ids=["V4"])
def test_identity_and_inverses(elems):
    e = V4_E
    for g in elems:
        assert g ^ e == g == e ^ g
        # every element of V4 is its own inverse
        assert g ^ g == e


def test_v4_elements_square_to_identity():
    for g in group_elements():
        assert g ^ g == V4_E


def test_elements_sort_by_word():
    """a^i b^j is the int 2i + j, so the ints sort as the words (i, j):
    `GroupRingElem.items()`, and so the JSON of a complex, list the terms
    in the order e, b, a, ab."""
    assert sorted(group_elements()) == [V4_E, V4_B, V4_A, V4_AB]
    words = {"e": (0, 0), "b": (0, 1), "a": (1, 0), "ab": (1, 1)}
    for g in group_elements():
        assert divmod(g, 2) == words[element_name(g)]
    x = GroupRingElem({g: g + 1 for g in group_elements()})
    assert x.items() == ((V4_E, 1), (V4_B, 2), (V4_A, 3), (V4_AB, 4))


# ---------- characters ----------

@pytest.mark.parametrize("chars", [V4_CHARS], ids=["chars0-V4"])
def test_characters_multiplicative(chars):
    for chi in chars:
        for g in group_elements():
            for h in group_elements():
                assert chi(g ^ h) == chi(g) * chi(h)


@pytest.mark.parametrize("chars", [V4_CHARS], ids=["chars0-V4"])
def test_character_orthogonality(chars):
    n = len(group_elements())
    for chi in chars:
        for psi in chars:
            total = sum(chi(g) * psi(g) for g in group_elements())
            assert total == (n if chi == psi else 0)


def test_exactly_four_one_dim_characters():
    # a one-dimensional character of V4 is determined by signs on (a, b)
    seen = {tuple(chi(g) for g in group_elements()) for chi in V4_CHARS}
    assert len(seen) == 4


# values on (e, a, b, ab): chi1(a) = -1 = chi2(b), chi1(b) = 1 = chi2(a)
CHAR_TABLE = {
    "1": (1, 1, 1, 1),
    "chi1": (1, -1, 1, -1),
    "chi2": (1, 1, -1, -1),
    "chi1chi2": (1, -1, -1, 1),
}

SUBGROUPS = ({V4_E}, {V4_E, V4_A}, {V4_E, V4_B}, {V4_E, V4_AB},
             {V4_E, V4_A, V4_B, V4_AB})

# dim chi^H for H in SUBGROUPS, in that order
FIXES_TABLE = {
    "1": (1, 1, 1, 1, 1),
    "chi1": (1, 0, 1, 0, 0),
    "chi2": (1, 1, 0, 0, 0),
    "chi1chi2": (1, 0, 0, 1, 0),
}


def test_character_table_literal():
    assert [chi.label for chi in V4_CHARS] == list(CHAR_TABLE)
    for chi in V4_CHARS:
        assert tuple(chi(g) for g in (V4_E, V4_A, V4_B, V4_AB)) == \
            CHAR_TABLE[chi.label]
        assert chi.is_trivial() == (chi.label == "1")


def test_fixes_table_literal():
    for chi in V4_CHARS:
        assert tuple(chi.fixes(h) for h in SUBGROUPS) == FIXES_TABLE[chi.label]


def test_fixes_is_invariant_dimension():
    # dim chi^H is 1 exactly when H lies in the kernel of chi
    subgroups = [{V4_E}, {V4_E, V4_A}, {V4_E, V4_B}, {V4_E, V4_AB},
                 set(group_elements())]
    for chi in V4_CHARS:
        kernel = {g for g in group_elements() if chi(g) == 1}
        for h in subgroups:
            assert chi.fixes(h) == (1 if h <= kernel else 0)


# ---------- idempotents ----------

def test_idempotent_trivial_char():
    quarter = Fraction(1, 4)
    expected = GroupRingElem({g: quarter for g in group_elements()})
    assert idempotent(V4_CHARS[0]) == expected


def test_idempotent_sign_char():
    chi = V4_CHARS[3]  # chi(a) = chi(b) = -1
    expected = GroupRingElem({V4_E: Fraction(1, 4), V4_A: Fraction(-1, 4),
                              V4_B: Fraction(-1, 4), V4_AB: Fraction(1, 4)})
    assert idempotent(chi) == expected


def test_idempotents_complete_and_orthogonal():
    total = GroupRingElem.zero()
    for chi in V4_CHARS:
        e = idempotent(chi)
        assert e * e == e
        total = total + e
        for psi in V4_CHARS:
            if psi != chi:
                assert (e * idempotent(psi)).is_zero()
    assert total == GroupRingElem.one()


# ---------- group ring arithmetic ----------

# the rationals with |q| <= 5 and denominator <= 6, drawn as
# s*(k mod (5d + 1))/d with a sign s and 0 <= k <= 30 (faster to draw than
# st.fractions, and than a numerator strategy built per denominator by
# flatmap)
small_fractions = st.builds(lambda d, s, k: Fraction(s * (k % (5 * d + 1)), d),
                            st.integers(1, 6), st.sampled_from((1, -1)),
                            st.integers(0, 30))


def ring_elems():
    return st.builds(
        lambda cs: GroupRingElem(dict(zip(group_elements(), cs))),
        st.tuples(*[small_fractions] * len(group_elements())))


@settings(max_examples=300, deadline=None)
@given(ring_elems(), ring_elems(), ring_elems())
def test_ring_axioms_random(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + GroupRingElem.zero() == x
    assert x * GroupRingElem.one() == x


def test_zero_has_empty_support():
    x = GroupRingElem({V4_A: Fraction(1, 2)})
    assert (x - x).is_zero()
    assert (x - x).items() == ()
    assert GroupRingElem({V4_A: Fraction(0)}).is_zero()


def test_arithmetic_takes_elements_only():
    """+, -, * and == take a GroupRingElem only: a scalar is not read as a
    multiple of the identity, and an element has no hash."""
    x = GroupRingElem({V4_A: Fraction(1, 2), V4_B: 3})
    for op in (lambda: GroupRingElem.one() + 1, lambda: 1 + x, lambda: x * 2,
               lambda: 2 * x, lambda: x - 1):
        with pytest.raises(TypeError):
            op()
    assert (GroupRingElem.one() == 1) is False
    with pytest.raises(TypeError):
        hash(x)


def test_homrep_is_unhashable():
    with pytest.raises(TypeError):
        hash(HomRep((3, 1, 1, 1)))


# ---------- character application ----------

def residue_unit(p, a=V4_A):
    return GroupRingElem({V4_E: Fraction(p + 1, 2), a: Fraction(p - 1, 2)})


def test_apply_char_residue_unit_values():
    x = residue_unit(5)
    assert apply_char(V4_CHARS[0], x) == 5
    assert apply_char(V4_CHARS[2], x) == 5  # chi2(a) = 1
    assert apply_char(V4_CHARS[1], x) == 1  # chi1(a) = -1
    assert apply_char(V4_CHARS[3], x) == 1


def test_apply_char_zero():
    for chi in V4_CHARS:
        assert apply_char(chi, GroupRingElem.zero()) == 0


@settings(max_examples=1000, deadline=None)
@given(ring_elems(), ring_elems(), st.sampled_from(range(4)))
def test_apply_char_is_ring_homomorphism(x, y, idx):
    chi = V4_CHARS[idx]
    assert apply_char(chi, x * y) == apply_char(chi, x) * apply_char(chi, y)
    assert apply_char(chi, x + y) == apply_char(chi, x) + apply_char(chi, y)


# ---------- matrices ----------

def test_apply_char_matrix_identity():
    m = identity_matrix(3)
    for chi in V4_CHARS:
        assert apply_char_matrix(chi, m) == [
            [1 if i == j else 0 for j in range(3)] for i in range(3)]


def test_apply_char_matrix_single_entry():
    a = GroupRingElem.of(V4_A)
    one = GroupRingElem.one()
    m = GroupRingMatrix.from_rows([[a - one]])
    chi = V4_CHARS[1]  # chi(a) = -1
    assert apply_char_matrix(chi, m) == [[-2]]


def test_apply_char_matrix_one_by_two():
    a = GroupRingElem.of(V4_A)
    b = GroupRingElem.of(V4_B)
    one = GroupRingElem.one()
    m = GroupRingMatrix.from_rows([[a - one, b - one]])
    chi = V4_CHARS[3]  # chi(a) = chi(b) = -1
    assert apply_char_matrix(chi, m) == [[-2, -2]]


def test_matrix_functorial_under_multiplication():
    a = GroupRingElem.of(V4_A)
    b = GroupRingElem.of(V4_B)
    one = GroupRingElem.one()
    m1 = GroupRingMatrix.from_rows([[a, b], [one, a * b]])
    m2 = GroupRingMatrix.from_rows([[b, one], [a, a]])
    from tq import linalg
    for chi in V4_CHARS:
        lhs = apply_char_matrix(chi, m1 @ m2)
        rhs = linalg.mat_mul(linalg.mat(apply_char_matrix(chi, m1)),
                             linalg.mat(apply_char_matrix(chi, m2)))
        assert linalg.mat(lhs) == rhs


def test_matrix_shape_mismatch():
    m1 = identity_matrix(2)
    m2 = identity_matrix(3)
    with pytest.raises(ValueError):
        m1 @ m2


def test_ragged_matrix_rejected():
    one = GroupRingElem.one()
    with pytest.raises(ValueError, match="^ragged matrix$"):
        GroupRingMatrix(((one, one), (one,)))
