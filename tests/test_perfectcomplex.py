import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import identity_matrix, seeded_class_representative
from tq import linalg
from tq.errors import ContractViolationError, InputError
from tq.grouprings import (V4_A, V4_AB, V4_B, V4_CHARS, V4_E, GroupRingElem,
                           GroupRingMatrix)
from tq.localterms import (TameComplexSpec, build_tame_complex,
                           torsion_cycle, valuation_iso)
from tq.perfectcomplex import (CohomologyIsoComponent, PerfectComplex,
                               RationalComplex, char_specialize,
                               class_representative, cohomology_basis,
                               torsion_determinant)

FIXTURES = Path(__file__).parent / "fixtures"


def tame(p, a=V4_A, b=V4_B):
    spec = TameComplexSpec(p, a, b)
    return spec, build_tame_complex(spec)


def sign_pattern(chi, a=V4_A, b=V4_B):
    return ("+" if chi(a) == 1 else "-") + ("+" if chi(b) == 1 else "-")


# ---------- construction ----------

def test_composite_zero_enforced():
    one = GroupRingElem.one()
    a = GroupRingElem.of(V4_A)
    d0 = GroupRingMatrix.from_rows([[one]])
    d1 = GroupRingMatrix.from_rows([[a]])
    with pytest.raises(InputError):
        PerfectComplex((0, 2), {0: 1, 1: 1, 2: 1}, {0: d0, 1: d1})


def test_differential_shape_enforced():
    d = identity_matrix(2)
    with pytest.raises(InputError):
        PerfectComplex((0, 1), {0: 1, 1: 2}, {0: d})


def test_degree_range_and_ranks_enforced():
    d = identity_matrix(1)
    with pytest.raises(InputError, match="^empty degree range$"):
        PerfectComplex((1, 0), {}, {})
    with pytest.raises(InputError, match="^negative rank$"):
        PerfectComplex((0, 1), {0: 1, 1: -1}, {})
    with pytest.raises(InputError, match="^differential at degree 1 outside range$"):
        PerfectComplex((0, 1), {0: 1, 1: 1}, {1: d})


# ---------- specialization ----------

def test_specialize_lambda_row_trivial_char():
    _, p = tame(5)
    c = char_specialize(p, V4_CHARS[0])
    assert c.diffs[-2] == [[Fraction(4), Fraction(0)]]
    assert c.diffs[-1] == [[Fraction(0)], [Fraction(0)]]


def test_specialize_lambda_row_unramified_char():
    # chi(a) = 1, chi(b) = -1: first entry -(p+1)
    _, p = tame(5)
    c = char_specialize(p, V4_CHARS[2])
    assert c.diffs[-2] == [[Fraction(-6), Fraction(0)]]


def test_specialize_zero_complex():
    """The zero complex, with no differential or with a 0 x 0 one between
    its rank-zero terms, specializes to rank zero and has the trivial
    class under the empty iso."""
    empty = {chi.label: CohomologyIsoComponent({}, {}, []) for chi in V4_CHARS}
    for diffs in ({}, {0: GroupRingMatrix(())}):
        zero = PerfectComplex((0, 1), {0: 0, 1: 0}, diffs)
        c = char_specialize(zero, V4_CHARS[0])
        assert c.rank(0) == 0 and c.rank(1) == 0
        assert class_representative(zero, empty).as_tuple() == (1, 1, 1, 1)


# ---------- cohomology ----------

def test_cohomology_of_multiplication_by_two():
    two = GroupRingElem({V4_E: 2})
    p = PerfectComplex((0, 1), {0: 1, 1: 1},
                       {0: GroupRingMatrix.from_rows([[two]])})
    c = char_specialize(p, V4_CHARS[0])
    data = cohomology_basis(c)
    assert data.kernels[0] == []
    assert data.images[1] == [[Fraction(1)]]
    assert data.h_dim(0) == 0 and data.h_dim(1) == 0


def test_tame_cohomology_dimensions():
    _, p = tame(7)
    for chi in V4_CHARS:
        data = cohomology_basis(char_specialize(p, chi))
        dims = (data.h_dim(-2), data.h_dim(-1), data.h_dim(0))
        assert dims == ((0, 1, 1) if chi.is_trivial() else (0, 0, 0))


# ---------- determinants ----------

def load_fixture_determinants():
    with open(FIXTURES / "tame_determinants.json") as fh:
        raw = json.load(fh)["determinants"]
    return {int(p): {pat: Fraction(v) for pat, v in by_pat.items()}
            for p, by_pat in raw.items()}


def test_class_representative_matches_fixtures():
    expected = load_fixture_determinants()
    for p, by_pattern in expected.items():
        spec, cplx = tame(p)
        rep = class_representative(cplx, valuation_iso(spec))
        for chi in V4_CHARS:
            assert rep[chi.label] == by_pattern[sign_pattern(chi)], (p, chi.label)


def test_representative_at_thirteen():
    spec, cplx = tame(13)
    rep = class_representative(cplx, valuation_iso(spec))
    assert rep.as_tuple() == (Fraction(1, 24), Fraction(-1), Fraction(-1, 7),
                              Fraction(-1))


def test_zero_differential_identity_iso_gives_constant_one():
    p = PerfectComplex((-1, 0), {-1: 2, 0: 2},
                       {-1: GroupRingMatrix.from_rows(
                           [[GroupRingElem.zero()] * 2] * 2)})
    ident = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    comps = {chi.label: CohomologyIsoComponent(
        odd_reps={-1: [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]},
        even_reps={0: [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]},
        matrix=ident) for chi in V4_CHARS}
    rep = class_representative(p, comps)
    assert rep.as_tuple() == (1, 1, 1, 1)


def test_splitting_independence_seeded():
    for p in (3, 7):
        spec, cplx = tame(p)
        iso = valuation_iso(spec)
        baseline = class_representative(cplx, iso)
        rng = random.Random(p)
        for _ in range(30):
            assert seeded_class_representative(cplx, iso, rng) == baseline


def test_scalar_rescaling_of_iso():
    spec, cplx = tame(5)
    iso = valuation_iso(spec)
    baseline = class_representative(cplx, iso)
    for c in (Fraction(3), Fraction(-2, 7)):
        comps = dict(iso)
        base = comps["1"]
        comps["1"] = CohomologyIsoComponent(base.odd_reps, base.even_reps,
                                            [[c * base.matrix[0][0]]])
        scaled = class_representative(cplx, comps)
        # the trivial-character block is one-dimensional and odd-to-even
        assert scaled["1"] == c * baseline["1"]
        assert scaled["chi1"] == baseline["chi1"]


def test_iso_shape_violations_rejected():
    spec, cplx = tame(5)
    comps = dict(valuation_iso(spec))
    good = comps["1"]
    comps["1"] = CohomologyIsoComponent(good.odd_reps, good.even_reps,
                                        [[Fraction(0)]])
    with pytest.raises(ContractViolationError):
        class_representative(cplx, comps)
    comps["1"] = CohomologyIsoComponent({-1: []}, good.even_reps, [])
    with pytest.raises(ContractViolationError):
        class_representative(cplx, comps)
    # odd and even cohomology are one-dimensional here: the matrix is 1 x 1
    for matrix in ([[Fraction(1), Fraction(0)]], [[Fraction(1)], [Fraction(1)]]):
        comps["1"] = CohomologyIsoComponent(good.odd_reps, good.even_reps, matrix)
        with pytest.raises(ContractViolationError, match="shape"):
            class_representative(cplx, comps)


def test_degenerate_representative_rejected():
    # a representative whose class lies in the image spans nothing in
    # cohomology
    spec, cplx = tame(5)
    comps = dict(valuation_iso(spec))
    good = comps["1"]
    comps["1"] = CohomologyIsoComponent({-1: [[Fraction(1), Fraction(0)]]},
                                        good.even_reps, good.matrix)
    with pytest.raises(ContractViolationError):
        class_representative(cplx, comps)


def test_representative_count_mismatch_rejected():
    spec, cplx = tame(5)
    c2 = char_specialize(cplx, V4_CHARS[2])
    bad = CohomologyIsoComponent({-1: [[Fraction(1), Fraction(0)]]}, {}, [])
    with pytest.raises(ContractViolationError):
        torsion_determinant(c2, bad)


def test_wrong_length_representative_rejected():
    spec, cplx = tame(5)
    good = valuation_iso(spec)["1"]
    bad = CohomologyIsoComponent({-1: [[Fraction(1)]]}, good.even_reps, good.matrix)
    with pytest.raises(ContractViolationError, match="wrong length"):
        torsion_determinant(char_specialize(cplx, V4_CHARS[0]), bad)


def test_non_cocycle_representative_rejected():
    # d_-1 has rank 1, so H^-1 has dimension 1, spanned by (0, 1); (1, 0)
    # is the right count and length but d_-1 does not kill it
    one, zero = Fraction(1), Fraction(0)
    c = RationalComplex((-1, 0), {-1: 2, 0: 2}, {-1: [[one, zero], [zero, zero]]})
    bad = CohomologyIsoComponent({-1: [[one, zero]]}, {0: [[zero, one]]}, [[one]])
    with pytest.raises(ContractViolationError, match="not a cocycle"):
        torsion_determinant(c, bad)


def test_unequal_odd_and_even_ranks_rejected():
    c = RationalComplex((-1, 0), {-1: 2, 0: 1}, {})
    with pytest.raises(ContractViolationError,
                       match="odd total rank 2 != even total rank 1"):
        torsion_determinant(c, CohomologyIsoComponent({}, {}, []))


# ---------- two odd degrees ----------

def two_odd_degree_sum(p, q, a, b):
    """C_p + C_q[1]: the tame complex at p in degrees -2..0 and the tame
    complex at q shifted to -3..-1, block-diagonal with no sign change, so
    the ranks on -3..0 are 1, 3, 3, 1.  At the trivial character the odd
    section at -1 is T_p and the shifted t', the even section is T_q at -2
    and t at 0; the other characters have no cohomology."""
    zero = GroupRingElem.zero()
    sp, sq = TameComplexSpec(p, a, b), TameComplexSpec(q, a, b)
    dp, dq = build_tame_complex(sp).differentials, build_tame_complex(sq).differentials
    (lam_p,), (lam_q,) = dp[-2].entries, dq[-2].entries
    cplx = PerfectComplex((-3, 0), {-3: 1, -2: 3, -1: 3, 0: 1}, {
        -3: GroupRingMatrix.from_rows([[zero, *lam_q]]),
        -2: GroupRingMatrix.from_rows(
            [[*lam_p, zero]] + [[zero, zero, *row] for row in dq[-1].entries]),
        -1: GroupRingMatrix.from_rows([*dp[-1].entries, [zero]]),
    })
    trivial = V4_CHARS[0]
    t_p, t_q = torsion_cycle(sp, trivial), torsion_cycle(sq, trivial)
    comps = {chi.label: CohomologyIsoComponent({}, {}, []) for chi in V4_CHARS}
    comps["1"] = CohomologyIsoComponent(
        odd_reps={-1: [[*t_p, 0], [0, 0, 1]]},
        even_reps={-2: [[0, *t_q]], 0: [[1]]},
        matrix=[[Fraction(2), Fraction(1)], [Fraction(-1), Fraction(3, 2)]])
    return cplx, comps


TWO_ODD_DEGREE_CASES = [
    (5, 7, V4_A, V4_B, (-6, 1, Fraction(4, 3), 1)),
    (7, 13, V4_B, V4_AB, (-8, Fraction(7, 4), 1, 1)),
    (11, 13, V4_AB, V4_A, (Fraction(-24, 5), 1, 1, Fraction(7, 6))),
]


def test_two_odd_degree_sum_exact_values():
    # targets land in both the j-1 and the j+1 slot across two odd degrees
    for p, q, a, b, expected in TWO_ODD_DEGREE_CASES:
        cplx, iso = two_odd_degree_sum(p, q, a, b)
        assert class_representative(cplx, iso).as_tuple() == expected, (p, q)
        rng = random.Random(p)
        for _ in range(5):
            assert seeded_class_representative(cplx, iso, rng).as_tuple() == expected, (p, q)


def assert_preimages_map_to_images(c):
    data = cohomology_basis(c)
    for j in c.degree_list():
        d = c.diffs.get(j)
        if d is None:
            assert data.preimages[j] == []
            continue
        assert len(data.preimages[j]) == len(data.images[j + 1])
        for x, b in zip(data.preimages[j], data.images[j + 1]):
            assert linalg.vec_mat(x, d) == b, j


def test_preimages_map_to_images():
    for p in (3, 7, 13, 101):
        for chi in V4_CHARS:
            assert_preimages_map_to_images(char_specialize(tame(p)[1], chi))
    for p, q, a, b, _ in TWO_ODD_DEGREE_CASES:
        cplx, _ = two_odd_degree_sum(p, q, a, b)
        for chi in V4_CHARS:
            assert_preimages_map_to_images(char_specialize(cplx, chi))
