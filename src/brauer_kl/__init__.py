"""Exact decomposition matrices for cyclotomic Brauer algebras.

The package computes, in exact rational arithmetic, the decomposition
matrices of cyclotomic Brauer (Nazarov-Wenzl) algebras with rational
parameters: admissibility of the parameter family, block-size selection and
parameter extension, weight combinatorics for a type-D parabolic category,
antispherical Kazhdan-Lusztig canonical bases, greedy tilting decomposition,
and level truncation — cross-validated at level one against a brute-force
diagram-algebra oracle.
"""

__version__ = "0.1.0"
