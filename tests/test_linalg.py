from fractions import Fraction

import sympy
from hypothesis import given, settings, strategies as st

from tq.linalg import det, identity, mat, mat_mul, reduce_rows, rref, vec_mat


def test_rref_pivots_leftmost():
    m = mat([[0, 2, 4], [1, 1, 1]])
    r, pivots = rref(m)
    assert pivots == [0, 1]
    assert r == mat([[1, 0, -1], [0, 1, 2]])


def test_row_space_basis_deterministic():
    m = mat([[2, 4], [1, 2], [3, 6]])
    assert reduce_rows(m)[0] == mat([[1, 2]])


def test_left_kernel_members():
    m = mat([[1, 2], [2, 4], [0, 1]])
    _, _, kernel = reduce_rows(m)
    assert len(kernel) == 1
    for v in kernel:
        assert all(x == 0 for x in vec_mat(v, m))


def test_left_kernel_zero_map():
    # an r x 0 map and a zero r x c map have the identity as kernel basis
    assert reduce_rows([[], []]) == ([], [], identity(2))
    m = [[Fraction(0)] * 3 for _ in range(2)]
    assert reduce_rows(m) == ([], [], identity(2))


def test_solve_left():
    m = mat([[1, 2], [0, 1]])
    images, preimages, _ = reduce_rows(m)
    # m is invertible, so its image basis is the standard one and b @
    # preimages solves x @ m = b
    assert images == identity(2)
    b = [Fraction(1), Fraction(5)]
    assert vec_mat(vec_mat(b, preimages), m) == b


small_matrices = st.integers(0, 4).flatmap(lambda c: st.lists(
    st.lists(st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
             min_size=c, max_size=c), min_size=1, max_size=4))


@settings(max_examples=200, deadline=None)
@given(small_matrices, st.data())
def test_reduce_rows_reads_one_rref(a, data):
    # a zero column, and rank deficiency from a combination of two rows and
    # a zero row
    k, t = data.draw(st.integers(0, len(a[0]))), data.draw(st.integers(-2, 2))
    a = [row[:k] + [Fraction(0)] + row[k:] for row in a]
    a += [[t * x + y for x, y in zip(a[0], a[-1])], [Fraction(0)] * len(a[0])]
    images, preimages, kernel = reduce_rows(a)
    r, pivots = rref(a)
    assert images == r[:len(pivots)]
    assert len(preimages) == len(images)
    for x, b in zip(preimages, images):
        assert vec_mat(x, a) == b
    for v in kernel:
        assert not any(vec_mat(v, a))
    assert len(images) + len(kernel) == len(a)
    assert len(rref(kernel)[1]) == len(kernel)


def test_det_values():
    assert det([]) == 1
    assert det(mat([[3]])) == 3
    assert det(mat([[0, 2], [1, 0]])) == -2
    assert det(mat([[1, 2], [2, 4]])) == 0
    assert det(mat([[2, 0, 1], [1, 1, 0], [0, 3, 1]])) == 5


def test_det_multiplicative():
    a = mat([[1, 2], [3, 5]])
    b = mat([[0, 1], [7, 2]])
    assert det(mat_mul(a, b)) == det(a) * det(b)


def test_exactness_no_float_drift():
    # 1/3 arithmetic that would drift in floats stays exact
    m = mat([[Fraction(1, 3), 1], [1, Fraction(3)]])
    assert det(m) == 0


# ---------- an independent oracle: sympy's exact rationals ----------

# ints, and Fractions with denominators 1..4, so that an integral Fraction
# such as Fraction(4, 2) is among the inputs
ints_and_fractions = st.one_of(
    st.integers(-4, 4), st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4)))


@st.composite
def mixed_matrices(draw, square=False):
    """Random r x c matrices of ints and Fractions; in about half of them
    the last row is a combination of the first and another row, or zero,
    so that singular and rank-deficient matrices are drawn too."""
    r = draw(st.integers(1, 4))
    c = r if square else draw(st.integers(1, 4))
    a = draw(st.lists(st.lists(ints_and_fractions, min_size=c, max_size=c),
                      min_size=r, max_size=r))
    if draw(st.booleans()):
        if r > 1:
            t, u = draw(ints_and_fractions), draw(st.sampled_from(a[:-1]))
            a[-1] = [t * x + y for x, y in zip(a[0], u)]
        else:
            a[-1] = [0] * c
    return a


def to_sympy(a):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                         for row in a])


def from_sympy(x):
    return Fraction(int(x.p), int(x.q))


def assert_exact(rows):
    """No entry is a float, and every integral entry is an int."""
    for row in rows:
        for x in row:
            assert type(x) in (int, Fraction), (x, rows)
            assert type(x) is int or x.denominator != 1, (x, rows)


@settings(max_examples=100, deadline=None)
@given(mixed_matrices())
def test_rref_and_reduce_rows_match_sympy(a):
    r, pivots = rref(a)
    sym_r, sym_pivots = to_sympy(a).rref()
    assert r == [[from_sympy(x) for x in sym_r.row(i)] for i in range(len(a))]
    assert pivots == list(sym_pivots)
    assert_exact(r)
    # reduce_rows reads the (unique) RREF of [a | I]
    n, c = len(a), len(a[0])
    aug, aug_pivots = to_sympy([row + e for row, e in zip(a, identity(n))]).rref()
    aug = [[from_sympy(x) for x in aug.row(i)] for i in range(n)]
    rank = sum(1 for col in aug_pivots if col < c)
    images, preimages, kernel = reduce_rows(a)
    assert images == [row[:c] for row in aug[:rank]]
    assert preimages == [row[c:] for row in aug[:rank]]
    assert kernel == [row[c:] for row in aug[rank:]]
    for block in (images, preimages, kernel):
        assert_exact(block)


@settings(max_examples=100, deadline=None)
@given(mixed_matrices(square=True))
def test_det_matches_sympy(a):
    d = det(a)
    assert d == from_sympy(to_sympy(a).det())
    assert_exact([[d]])
