from fractions import Fraction

from tq.linalg import (det, identity, left_kernel_basis, mat, mat_mul, rref,
                       row_space_basis, solve_left, vec_mat)


def test_rref_pivots_leftmost():
    m = mat([[0, 2, 4], [1, 1, 1]])
    r, pivots = rref(m)
    assert pivots == [0, 1]
    assert r == mat([[1, 0, -1], [0, 1, 2]])


def test_row_space_basis_deterministic():
    m = mat([[2, 4], [1, 2], [3, 6]])
    assert row_space_basis(m) == mat([[1, 2]])


def test_left_kernel_members():
    m = mat([[1, 2], [2, 4], [0, 1]])
    basis = left_kernel_basis(m)
    assert len(basis) == 1
    for v in basis:
        assert all(x == 0 for x in vec_mat(v, m))


def test_left_kernel_zero_map():
    m = [[Fraction(0)] * 3 for _ in range(2)]
    assert left_kernel_basis(m) == identity(2)


def test_solve_left():
    m = mat([[1, 2], [0, 1]])
    x = solve_left(m, [Fraction(1), Fraction(5)])
    assert vec_mat(x, m) == [Fraction(1), Fraction(5)]
    assert solve_left(mat([[1, 0], [2, 0]]), [Fraction(0), Fraction(1)]) is None


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
