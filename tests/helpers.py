"""Helpers shared by the tests, kept out of the package because nothing in
it needs them."""

from tq.arith import is_prime


def odd_primes_up_to(bound: int) -> list[int]:
    """The odd primes p <= bound, in increasing order."""
    return [p for p in range(3, bound + 1, 2) if is_prime(p)]
