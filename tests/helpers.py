"""Helpers shared by the tests, kept out of the package because nothing in
it needs them."""

from tq.arith import is_prime, is_squarefree


def odd_primes_up_to(bound: int) -> list[int]:
    """The odd primes p <= bound, in increasing order."""
    return [p for p in range(3, bound + 1, 2) if is_prime(p)]


def squarefree_pairs(dmax: int):
    """The pairs 1 < d1 < d2 <= dmax of squarefree ints, by d2 then d1."""
    ds = [d for d in range(2, dmax + 1) if is_squarefree(d)]
    for i, d2 in enumerate(ds):
        for d1 in ds[:i]:
            yield d1, d2
