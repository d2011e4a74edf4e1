"""Dense exact linear algebra over the rationals.

Inputs are lists of rows of ints or :class:`fractions.Fraction`s; every
returned entry is a ``Fraction``.  ``rref`` clears each row's denominators
and runs fraction-free Gauss–Jordan elimination on integer rows: a row is
eliminated as ``p*row - f*pivot_row`` and then divided by the gcd of its
entries, so the work stays on machine-speed Python ints (Bareiss, Math.
Comp. 22, 1968, for integer-preserving elimination).  ``Fraction``s are
built once, for the returned reduced row-echelon form, which is unique, so
the results are exact.  No floating point anywhere.  Every system here is
the diagram oracle's, and they stay in the low hundreds: ``nullspace`` takes
each cell module's Gram radical, and ``solve`` the one character system per
decomposition matrix.

>>> from fractions import Fraction as F
>>> nullspace([[F(1), F(2)], [F(2), F(4)]])
[[Fraction(-2, 1), Fraction(1, 1)]]
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Matrix = list[list[Fraction]]
Vector = list[Fraction]


def _integer_row(row) -> list[int]:
    """The row times the lcm of its denominators."""
    scale = lcm(*(x.denominator for x in row))
    return [x.numerator * (scale // x.denominator) for x in row]


def rref(rows) -> tuple[Matrix, list[int]]:
    """Reduced row-echelon form and the list of pivot column indices."""
    m = [_integer_row(row) for row in rows]
    if not m:
        return [], []
    nrows, ncols = len(m), len(m[0])
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        pivot_row = None
        for r in range(row, nrows):
            if m[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        m[row], m[pivot_row] = m[pivot_row], m[row]
        prow = m[row]
        p = prow[col]
        for r in range(nrows):
            f = m[r][col]
            if r != row and f != 0:
                g = gcd(p, f)
                a, b = p // g, f // g
                new = [a * x - b * y for x, y in zip(m[r], prow)]
                g = gcd(*new)
                m[r] = [x // g for x in new] if g > 1 else new
        pivots.append(col)
        row += 1
    reduced = [[Fraction(x, m[r][pc]) for x in m[r]] for r, pc in enumerate(pivots)]
    reduced += [[Fraction(0)] * ncols for _ in range(nrows - len(pivots))]
    return reduced, pivots


def nullspace(rows) -> list[Vector]:
    """A basis of the right null space {x : M x = 0}.

    One vector per free (non-pivot) column: it is 1 at its own free column,
    which is its last nonzero entry, and 0 at every other free column.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(rows)
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis = []
    for free in free_cols:
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][free]
        basis.append(vec)
    return basis


def solve(rows, columns) -> list[Vector | None]:
    """One solution of M x = b for each right-hand side b in ``columns``,
    or None for a b that makes the system inconsistent.

    One elimination of [M | b_1 ... b_m] serves every column.  The rows past
    M's rank are zero on M, so a column is inconsistent exactly when one of
    them is nonzero there.  A pivot that the elimination then takes in an
    inconsistent column lies in one of those rows: it mixes them only among
    themselves, and they are zero in every consistent column, so neither the
    test nor a consistent column's reading changes.  When a solution is not
    unique an arbitrary representative (free variables set to zero) is
    returned.

    >>> solve([[1, 1], [1, 1]], [[2, 2], [0, 1]])
    [[Fraction(2, 1), Fraction(0, 1)], None]
    """
    if not rows:
        return [[] for _ in columns]
    ncols = len(rows[0])
    red, pivots = rref([[*row, *rhs] for row, *rhs in zip(rows, *columns)])
    system_rank = sum(1 for pc in pivots if pc < ncols)
    solutions: list[Vector | None] = []
    for j in range(ncols, ncols + len(columns)):
        if any(red[r][j] for r in range(system_rank, len(red))):
            solutions.append(None)
            continue
        x = [Fraction(0)] * ncols
        for r in range(system_rank):
            x[pivots[r]] = red[r][j]
        solutions.append(x)
    return solutions
