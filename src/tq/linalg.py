"""Exact linear algebra over the rationals.

Matrices are lists of rows of exact rationals.  An entry that is an integer
is an int; an entry is a Fraction only where a division left a remainder
(`exact`, `_quotient`), so integral matrices reduce in int arithmetic.
Two operations would turn ints into a float without an error, `int / int`
and `int ** negative`; neither appears here, and `exact` refuses floats.

Vectors are row vectors: a linear map is applied as v |-> v @ M, so a map
from Q^r to Q^c is an r x c matrix whose i-th row is the image of the i-th
standard basis vector.

All reductions use reduced row echelon form with leftmost-pivot
tie-breaking, so every basis produced here is deterministic.  The image
basis of a map, a preimage of each of its vectors and a basis of its left
kernel all come from one reduction of [a | I] (`reduce_rows`).
"""

from __future__ import annotations

from fractions import Fraction

Rational = int | Fraction
Vec = list[Rational]
Mat = list[Vec]


def exact(x: Rational) -> Rational:
    """x as an int when it is integral, else as a Fraction.  Anything but
    an int or a Fraction is refused, a float above all: it may already have
    lost the value it stands for."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise TypeError(f"{x!r} is not an exact rational")


def _quotient(x: Rational, y: Rational) -> Rational:
    """x / y exactly: an int when y divides x, else a Fraction."""
    if type(x) is int and type(y) is int:
        q, r = divmod(x, y)
        return Fraction(x, y) if r else q
    return exact(x / y)


def vec(xs) -> Vec:
    return [exact(x) for x in xs]


def mat(rows) -> Mat:
    return [vec(r) for r in rows]


def zeros(r: int, c: int) -> Mat:
    return [[0] * c for _ in range(r)]


def identity(n: int) -> Mat:
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = 1
    return out


def mat_mul(a: Mat, b: Mat) -> Mat:
    if not a:
        return []
    n, k, m = len(a), len(b), len(b[0])
    assert len(a[0]) == k, "shape mismatch"
    out = zeros(n, m)
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t]
            if c:
                bt = b[t]
                for j in range(m):
                    if bt[j]:
                        oi[j] += c * bt[j]
    return [[exact(x) for x in row] for row in out]


def vec_mat(v: Vec, a: Mat) -> Vec:
    return mat_mul([v], a)[0]


def rref(a: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form; returns (R, pivot column indices)."""
    r = mat(a)
    nrows, ncols = len(r), len(r[0])
    pivots: list[int] = []
    lead = 0
    for col in range(ncols):
        piv = next((i for i in range(lead, nrows) if r[i][col] != 0), None)
        if piv is None:
            continue
        r[lead], r[piv] = r[piv], r[lead]
        pivot = r[lead][col]
        if pivot != 1:
            r[lead] = [_quotient(x, pivot) if x else 0 for x in r[lead]]
        row = r[lead]
        for i in range(nrows):
            c = r[i][col]
            if i != lead and c != 0:
                r[i] = [exact(x - c * y) if y else x for x, y in zip(r[i], row)]
        pivots.append(col)
        lead += 1
        if lead == nrows:
            break
    return r, pivots


def reduce_rows(a: Mat) -> tuple[Mat, Mat, Mat]:
    """One RREF of [a | I], read as (images, preimages, kernel).

    Every row of [a | I] stays of the form [x @ a | x] under row
    operations.  The rows with a pivot in the a block carry the RREF rows
    of a (images, a deterministic basis of its row space) and on the
    right their preimages x, with x @ a the image row; the remaining rows
    are [0 | v], and their v are a basis of {v : v @ a = 0}."""
    n = len(a)
    if n == 0:
        return [], [], []
    c = len(a[0])
    r, pivots = rref([row + e for row, e in zip(a, identity(n))])
    rank = sum(1 for col in pivots if col < c)
    return ([row[:c] for row in r[:rank]], [row[c:] for row in r[:rank]],
            [row[c:] for row in r[rank:]])


def det(a: Mat) -> Rational:
    """Determinant by elimination below each pivot: a row with a zero in
    the pivot column is left as it is, and an int row minus an int multiple
    of the pivot row stays int."""
    n = len(a)
    if n == 0:
        return 1
    assert all(len(row) == n for row in a), "determinant of non-square matrix"
    m = mat(a)
    result = 1
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            result = -result
        row, pivot = m[col], m[col][col]
        if pivot != 1:
            result *= pivot
        for i in range(col + 1, n):
            if m[i][col] != 0:
                c = _quotient(m[i][col], pivot)
                m[i] = [exact(x - c * y) if y else x for x, y in zip(m[i], row)]
    return exact(result)
