"""Exact computation of a 2-adic torsion invariant of biquadratic fields.

The pipeline is pure rational arithmetic: group rings of the Klein
four-group, perfect complexes with their splitting-independent
determinants, tame local classes, and Kronecker-symbol Galois data for
E = Q(sqrt(d1), sqrt(d2)).  Floating point appears only in the Dirichlet
L-function cross-checks.
"""

__version__ = "0.1.0"
