from fractions import Fraction

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
