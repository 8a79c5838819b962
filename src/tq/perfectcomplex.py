"""Bounded complexes of free modules over Q[V4] and the class they define
together with a rational isomorphism between odd and even cohomology.

The per-character determinant is computed by character-specializing the
complex to a rational complex and taking the determinant of the composed
isomorphism phi = d + s + psi from the direct sum of odd-degree terms to
the direct sum of even-degree terms.  One reduction of [d_j | I] per
differential gives the image basis of d_j, a preimage of each image vector
(the splitting s) and a basis of the kernel of d_j.  The cocycle
representatives supplied with the iso are the section of kernel ->
cohomology, so the iso matrix is used as given; the class is read from odd
to even only.

det phi is read off adapted bases (Knudsen-Mumford, Math. Scand. 39, 1976):
each odd term C^j has the basis adapted_j of image vectors, section and
preimages of the next image, and det phi = det(targets) / prod det(adapted_j)
with targets the images of those rows under phi.  Block by block, phi on
the standard basis is adapted_j^-1 times its targets, so the quotient is
det phi exactly, with no coordinate solve.  The result does not depend on
the splittings or on the section either.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping
from fractions import Fraction

from . import linalg
from .errors import ContractViolationError, InputError
from .grouprings import V4_CHARS, GaloisChar, GroupRingMatrix, apply_char_matrix
from .relk0 import HomRep

Mat = linalg.Mat


class PerfectComplex(namedtuple("PerfectComplex", "degrees ranks differentials")):
    """A bounded complex of free modules, nonzero only in the contiguous
    degree range [degrees[0], degrees[1]].  Differentials are stored
    row-wise (see linalg) and are omitted when source or target has rank
    zero.  The composite of consecutive differentials must vanish in the
    group ring."""

    __slots__ = ()

    def __new__(cls, degrees: tuple[int, int], ranks: Mapping[int, int],
                differentials: Mapping[int, GroupRingMatrix]):
        self = super().__new__(cls, degrees, ranks, differentials)
        n, m = self.degrees
        if n > m:
            raise InputError("empty degree range")
        for j in range(n, m + 1):
            if self.rank(j) < 0:
                raise InputError("negative rank")
        for j, d in self.differentials.items():
            if not (n <= j < m):
                raise InputError(f"differential at degree {j} outside range")
            if d.rows != self.rank(j) or d.cols != self.rank(j + 1):
                raise InputError(
                    f"differential at degree {j} has shape {d.rows}x{d.cols}, "
                    f"expected {self.rank(j)}x{self.rank(j + 1)}")
        for j in range(n, m - 1):
            d0 = self.differentials.get(j)
            d1 = self.differentials.get(j + 1)
            if d0 is not None and d1 is not None and not (d0 @ d1).is_zero():
                raise InputError(f"d_{j + 1} o d_{j} != 0")
        return self

    def rank(self, j: int) -> int:
        return int(self.ranks.get(j, 0))


class RationalComplex(namedtuple("RationalComplex", "degrees ranks diffs")):
    """A character specialization: same shape as a PerfectComplex but with
    rational matrices."""

    __slots__ = ()

    def rank(self, j: int) -> int:
        return int(self.ranks.get(j, 0))

    def degree_list(self) -> list[int]:
        return list(range(self.degrees[0], self.degrees[1] + 1))


def char_specialize(p: PerfectComplex, chi: GaloisChar) -> RationalComplex:
    """Apply a one-dimensional character entrywise to every differential.
    d o d = 0 needs no check here: `PerfectComplex` checks it in Q[V4], and
    chi is a ring homomorphism."""
    diffs = {j: apply_char_matrix(chi, d) for j, d in p.differentials.items()}
    return RationalComplex(p.degrees, dict(p.ranks), diffs)


class CohomologyData(namedtuple("CohomologyData", "kernels images preimages")):
    """Deterministic bases of a rational complex, as row vectors in the
    ambient term of their degree: kernels[j] of d_j, images[j] of d_(j-1),
    and preimages[j], whose i-th row d_j maps to images[j+1][i]."""

    __slots__ = ()

    def h_dim(self, j: int) -> int:
        return len(self.kernels.get(j, [])) - len(self.images.get(j, []))


def cohomology_basis(c: RationalComplex) -> CohomologyData:
    """One `linalg.reduce_rows` per differential; a missing differential
    is the zero map."""
    degs = c.degree_list()
    images: dict[int, Mat] = {j: [] for j in degs}
    kernels: dict[int, Mat] = {}
    preimages: dict[int, Mat] = {}
    for j in degs:
        d = c.diffs.get(j)
        if d is None:
            kernels[j], preimages[j] = linalg.identity(c.rank(j)), []
        else:
            images[j + 1], preimages[j], kernels[j] = linalg.reduce_rows(d)
    return CohomologyData(kernels, images, preimages)


class CohomologyIsoComponent(namedtuple("CohomologyIsoComponent",
                                         "odd_reps even_reps matrix")):
    """One character's worth of a cohomology isomorphism: explicit cocycle
    representatives whose classes form bases of the odd and even
    cohomology, and the matrix of the isomorphism in those bases (rows
    indexed by the odd basis, ascending degree)."""

    __slots__ = ()


def _section(c: RationalComplex, data: CohomologyData, j: int,
             supplied: Mat) -> Mat:
    """Copies of the supplied degree-j cocycles, checked to be cocycles
    whose classes form a basis of the degree-j cohomology."""
    if len(supplied) != data.h_dim(j):
        raise ContractViolationError(
            f"degree {j}: {len(supplied)} representatives supplied for "
            f"{data.h_dim(j)}-dimensional cohomology")
    d = c.diffs.get(j)
    reps = []
    for v in supplied:
        if len(v) != c.rank(j):
            raise ContractViolationError(f"degree {j}: representative has "
                                         f"wrong length")
        v = linalg.vec(v)
        if d is not None and any(linalg.vec_mat(v, d)):
            raise ContractViolationError(
                f"degree {j}: supplied representative is not a cocycle")
        reps.append(v)
    # with no representatives the count check above already says H^j = 0
    if reps and (len(linalg.rref(data.images[j] + reps)[1])
                 != len(data.kernels[j])):
        raise ContractViolationError(
            f"degree {j}: representatives do not span the cohomology")
    return reps


def torsion_determinant(c: RationalComplex, comp: CohomologyIsoComponent) -> Fraction:
    """Determinant of the composed isomorphism from the sum of odd-degree
    terms to the sum of even-degree terms, built from the supplied
    cohomology iso, with its cocycles as the section of kernel ->
    cohomology, and the deterministic splittings of `cohomology_basis`.

    Basis convention: both sides are ordered by ascending degree, then by
    index inside each term; det phi is det(targets) / prod det(adapted_j),
    as in the module docstring.
    """
    data = cohomology_basis(c)
    degs = c.degree_list()
    odd_degs = [j for j in degs if j % 2 == 1]
    even_degs = [j for j in degs if j % 2 == 0]
    odd_rank = sum(c.rank(j) for j in odd_degs)
    even_rank = sum(c.rank(j) for j in even_degs)
    if odd_rank != even_rank:
        raise ContractViolationError(
            f"odd total rank {odd_rank} != even total rank {even_rank}")

    reps = {j: _section(c, data, j,
                        (comp.odd_reps if j % 2 else comp.even_reps).get(j, []))
            for j in degs}
    # h_odd = h_even by rank-nullity, as odd_rank = even_rank
    h_odd = sum(data.h_dim(j) for j in odd_degs)
    h_even = sum(data.h_dim(j) for j in even_degs)

    psi = linalg.mat(comp.matrix)
    if len(psi) != h_odd or (psi and len(psi[0]) != h_even):
        raise ContractViolationError("iso matrix shape does not match cohomology")
    if h_odd and linalg.det(psi) == 0:
        raise ContractViolationError("iso matrix is not invertible")

    slot, acc = {}, 0
    for j in even_degs:
        slot[j] = acc
        acc += c.rank(j)

    def placed(j: int, v: linalg.Vec) -> linalg.Vec:
        out = [0] * even_rank
        out[slot[j]:slot[j] + len(v)] = v
        return out

    # phi on the adapted basis of each odd term: the image basis goes to its
    # preimages one degree down, the section through psi to the even
    # section, the preimages to the image basis one degree up
    classes = iter(linalg.mat_mul(
        psi, [placed(k, v) for k in even_degs for v in reps[k]]))
    targets: Mat = []
    adapted = 1
    for j in odd_degs:
        adapted *= linalg.det(data.images[j] + reps[j] + data.preimages[j])
        targets += [placed(j - 1, v) for v in data.preimages.get(j - 1, [])]
        targets += [next(classes) for _ in reps[j]]
        targets += [placed(j + 1, v) for v in data.images.get(j + 1, [])]
    result = Fraction(linalg.det(targets), adapted)
    if result == 0:
        raise ContractViolationError("composite map is singular")
    return result


def class_representative(p: PerfectComplex,
                         iso: Mapping[str, CohomologyIsoComponent]) -> HomRep:
    """The Hom-description representative of the class of (p, iso): the
    per-character torsion determinant.  `iso`, a rational isomorphism
    from total odd to total even cohomology, maps each character label to
    its component, whose cocycles are the section of kernel -> cohomology;
    the reciprocal class, of the inverse iso, is `HomRep.inverse()`."""
    return HomRep(torsion_determinant(char_specialize(p, chi), iso[chi.label])
                  for chi in V4_CHARS)
