"""Exact wall-crossing combinatorics for ADE Dynkin data.

The package computes, over arbitrary-precision integers alone:
restricted root sets with gcd multiplicities, intersection arrangements
and their chamber geometry, minimal wall-crossing galleries, the mutation
groupoid of contraction subsets, and the vanishing/symmetry decision
procedures for curve-counting invariants that these structures control.
"""

__version__ = "0.1.0"
