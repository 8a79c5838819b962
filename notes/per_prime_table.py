"""Measure where the nonzero torsion classes of acceptance criteria 4 and 9
come from, for notes/decisions.md.

Run from the repository root:

    PYTHONPATH=src python notes/per_prime_table.py

For every admissible squarefree pair d1 < d2 <= 100 it splits the torsion
unit in (Z/4)* by prime of S and by part: the inverse Euler factors, the
power-of-two term and, at fully decomposed odd primes, the inverse local
term, itself split into eps(chi) = (-1)^dim(chi^I/chi^D) and the rest.
Each part is the odd part mod 4 of the product over the four characters of
its exact values (that of a reduced fraction is that of the numerator and
denominator `invariant._parts_unit` multiplies unreduced), and the parts
multiply back to the unit of the field's verdict, which it takes from
its report, `invariant.omega_loc_torsion(d1, d2).verdict`.  It then
lists the supported 2-ramified fields whose resolvent quotient check
fails, with the odd part of the square root of the conductor product.
"""

import math
from collections import Counter

from tq.arith import is_squarefree
from tq.biquadratic import (artin_conductor, euler_factor, field_data,
                            local_galois, ramified_set)
from tq.grouprings import V4_CHARS
from tq.invariant import (VERDICT_INADMISSIBLE, VERDICT_NONZERO, delta1_term,
                          omega_loc_torsion)
from tq.localterms import LatticeExponent, local_term_closed_form
from tq.relk0 import odd_part_mod4

DMAX = 100
LAT = LatticeExponent()
DS = [d for d in range(2, DMAX + 1) if is_squarefree(d)]
PAIRS = [(d1, d2) for i, d2 in enumerate(DS) for d1 in DS[:i]]


def part_unit(values) -> int:
    """Odd part mod 4 of the product of exact values."""
    return odd_part_mod4(math.prod(values))


def eps(chi, loc) -> int:
    return -1 if chi.fixes(loc.inertia) - chi.fixes(loc.decomposition) else 1


def main() -> None:
    reports = {(d1, d2): omega_loc_torsion(d1, d2) for d1, d2 in PAIRS}
    fields = Counter()
    full, partial = Counter(), Counter()
    for d1, d2 in PAIRS:
        f = field_data(d1, d2)
        s_f = ramified_set(f)
        verdict = reports[d1, d2].verdict
        if verdict == VERDICT_INADMISSIBLE:
            fields["inadmissible"] += 1
            continue
        fields["admissible"] += 1
        unit = 3 if verdict == VERDICT_NONZERO else 1
        fields["nonzero"] += unit == 3
        product = 1
        n_full = 0
        for p in s_f:
            loc = local_galois(f, p)
            euler = part_unit(euler_factor(chi, p, loc) for chi in V4_CHARS)
            delta1 = part_unit(delta1_term(f, p, loc).as_tuple())
            row = (f"euler {euler}", f"delta1 {delta1}")
            total = euler * delta1 % 4
            if loc.full_decomposition and p % 2:
                term = part_unit(local_term_closed_form(p, loc, LAT).as_tuple())
                sign = part_unit(eps(chi, loc) for chi in V4_CHARS)
                total = total * term % 4
                full[row + (f"local {term} = eps {sign} x rest {term * sign % 4}",
                            f"prime {total}")] += 1
                n_full += 1
            else:
                partial[row + (f"p {'2' if p == 2 else 'odd'}",)] += 1
            product = product * total % 4
        assert product == unit == (3 if n_full % 2 else 1), (d1, d2)
        fields["odd number of full primes"] += n_full % 2
    print(f"squarefree pairs d1 < d2 <= {DMAX}: {dict(fields)}")
    print(f"fully decomposed odd primes: {sum(full.values())}")
    for row, n in sorted(full.items()):
        print(f"  {n:5d}  {', '.join(row)}")
    print(f"other primes of S: {sum(partial.values())}")
    for row, n in sorted(partial.items()):
        print(f"  {n:5d}  {', '.join(row)}")

    print("criterion 9: supported 2-ramified fields failing the quotient check")
    checked = 0
    for d1, d2 in PAIRS:
        report = reports[d1, d2]
        rc = report.resolvent_check
        if report.torsion is None or rc is None or rc.status == "unsupported":
            continue
        checked += 1
        if rc.status != "pass":
            root = math.isqrt(math.prod(artin_conductor(chi.label, report.field)
                                        for chi in V4_CHARS))
            cofactor = root // (root & -root)
            print(f"  ({d1}, {d2}): r = {rc.value}, {rc.completion}, "
                  f"sqrt of conductor product {root}, odd part {cofactor} "
                  f"= {cofactor % 4} mod 4, "
                  f"torsion {report.torsion}")
    print(f"  of {checked} supported fields")


if __name__ == "__main__":
    main()
