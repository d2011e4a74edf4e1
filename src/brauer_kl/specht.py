"""Exact Specht modules for small symmetric groups.

Everything is done over the rationals in the tabloid model: the permutation
module M^shape has the row-equivalence classes of fillings (tabloids) as an
orthonormal basis, a polytabloid is the signed column-group sum of a tabloid,
and the Specht module is spanned by the polytabloids of standard tableaux.
Permutations act by relabeling tabloid entries; the action matrix on the
standard-polytabloid basis is recovered by exact linear solves against the
polytabloid columns, once per permutation.  Characters need no matrix: the
Murnaghan–Nakayama rule gives them as integers, once per (shape, cycle
type).  The bilinear form is the tabloid inner product restricted to the
Specht span — degenerate exactly where the classical theory says it should
be, which is what the diagram-algebra oracle consumes.

Entries are 0-based throughout; a permutation is a tuple ``p`` with ``p[i]``
the image of ``i``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import permutations

from .linalg import solve

Tabloid = tuple[tuple[int, ...], ...]
Tableau = tuple[tuple[int, ...], ...]
Perm = tuple[int, ...]


def perm_sign(p: Perm) -> int:
    """Sign of a permutation given as an image tuple.

    >>> perm_sign((1, 0, 2))
    -1
    """
    seen = [False] * len(p)
    sign = 1
    for i in range(len(p)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def cycle_type(p: Perm) -> tuple[int, ...]:
    """Descending cycle lengths, the conjugacy-class invariant.

    >>> cycle_type((1, 0, 2, 3))
    (2, 1, 1)
    """
    seen = [False] * len(p)
    lengths = []
    for i in range(len(p)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


@cache
def murnaghan_nakayama(shape: tuple[int, ...], cycles: tuple[int, ...]) -> int:
    """The irreducible character of ``shape`` on the class of cycle type ``cycles``.

    Strips a rim hook of length ``cycles[0]`` in every possible way, with
    sign (-1)^(its height), and recurses on the rest.  On the beta-set
    {shape[i] + len(shape) - 1 - i} a rim hook of length k is a bead b with
    b - k free: the bead moves down to b - k, and the beads it jumps over
    count the height.

    >>> [murnaghan_nakayama((2, 1), c) for c in ((1, 1, 1), (2, 1), (3,))]
    [2, 0, -1]
    """
    if not cycles:
        return 1  # shape is empty: the sizes agree
    k, rest = cycles[0], cycles[1:]
    n = len(shape)
    beta = [part + n - 1 - i for i, part in enumerate(shape)]
    total = 0
    for b in beta:
        if b < k or b - k in beta:
            continue
        height = sum(1 for c in beta if b - k < c < b)
        moved = sorted((c if c != b else b - k for c in beta), reverse=True)
        smaller = tuple(x - (n - 1 - i) for i, x in enumerate(moved))
        total += (-1) ** height * murnaghan_nakayama(tuple(p for p in smaller if p), rest)
    return total


def canonical_tabloid(rows: Tableau) -> Tabloid:
    return tuple(tuple(sorted(row)) for row in rows)


def tabloids(shape: tuple[int, ...]) -> list[Tabloid]:
    """All tabloids of the given shape on {0, ..., sum(shape)-1}.

    >>> len(tabloids((2, 1)))
    3
    """
    m = sum(shape)

    def fill(remaining: frozenset[int], rows: tuple[tuple[int, ...], ...], level: int):
        if level == len(shape):
            yield rows
            return
        from itertools import combinations

        for chosen in combinations(sorted(remaining), shape[level]):
            yield from fill(remaining - set(chosen), rows + (chosen,), level + 1)

    return list(fill(frozenset(range(m)), (), 0))


def standard_tableaux(shape: tuple[int, ...]) -> list[Tableau]:
    """Row- and column-strict fillings with 0..m-1.

    >>> len(standard_tableaux((2, 1)))
    2
    """
    m = sum(shape)
    out: list[Tableau] = []

    def grow(rows: list[list[int]], entry: int) -> None:
        if entry == m:
            out.append(tuple(tuple(r) for r in rows))
            return
        for i in range(len(shape)):
            if len(rows[i]) >= shape[i]:
                continue
            if i > 0 and len(rows[i - 1]) <= len(rows[i]):
                continue
            rows[i].append(entry)
            grow(rows, entry + 1)
            rows[i].pop()

    grow([[] for _ in shape], 0)
    return out


def polytabloid(t: Tableau) -> dict[Tabloid, int]:
    """Signed column-group orbit sum of the tableau's tabloid."""
    m = sum(len(row) for row in t)
    ncols = max((len(row) for row in t), default=0)
    columns = [
        [t[i][j] for i in range(len(t)) if len(t[i]) > j] for j in range(ncols)
    ]
    out: dict[Tabloid, int] = {}
    def sweep(col_idx: int, mapping: list[int], sign: int) -> None:
        if col_idx == len(columns):
            rows = tuple(tuple(mapping[e] for e in row) for row in t)
            key = canonical_tabloid(rows)
            out[key] = out.get(key, 0) + sign
            if out[key] == 0:
                del out[key]
            return
        col = columns[col_idx]
        for images in permutations(col):
            s = perm_sign(tuple(col.index(x) for x in images))
            for src, dst in zip(col, images):
                mapping[src] = dst
            sweep(col_idx + 1, mapping, sign * s)
        for x in col:
            mapping[x] = x

    sweep(0, list(range(m)), 1)
    return out


class SpechtModule:
    """The Specht module of one partition, with exact action and form."""

    def __init__(self, shape: tuple[int, ...]):
        if not all(a > 0 for a in shape) or list(shape) != sorted(shape, reverse=True):
            raise ValueError(f"not a partition: {shape}")
        self.shape = tuple(shape)
        self.m = sum(shape)
        self.tabloid_list = tabloids(self.shape)
        self.tabloid_index = {tb: i for i, tb in enumerate(self.tabloid_list)}
        self.standard = standard_tableaux(self.shape)
        self.basis = [polytabloid(t) for t in self.standard]
        self.dim = len(self.basis)
        self._matrix = [
            [Fraction(self.basis[j].get(tb, 0)) for j in range(self.dim)]
            for tb in self.tabloid_list
        ]
        self._action_memo: dict[Perm, list[list[Fraction]]] = {}

    # -- vectors in the tabloid model ----------------------------------

    def act_tabloid_vector(self, p: Perm, vec: dict[Tabloid, Fraction]) -> dict[Tabloid, Fraction]:
        out: dict[Tabloid, Fraction] = {}
        for tb, coeff in vec.items():
            image = canonical_tabloid(tuple(tuple(p[e] for e in row) for row in tb))
            out[image] = out.get(image, Fraction(0)) + coeff
        return {tb: c for tb, c in out.items() if c}

    def coordinates(self, vecs: list[dict[Tabloid, Fraction]]) -> list[list[Fraction]]:
        """Exact expansions of Specht-span vectors in the standard basis, all
        from one elimination."""
        rhs = [[vec.get(tb, 0) for tb in self.tabloid_list] for vec in vecs]
        coords = solve(self._matrix, rhs)
        if any(c is None for c in coords):
            raise AssertionError("vector is not in the Specht span")
        return coords

    def action_matrix(self, p: Perm) -> list[list[Fraction]]:
        """Matrix of p on the standard basis, memoized per permutation.

        The result is shared between callers and must not be mutated.
        """
        mat = self._action_memo.get(p)
        if mat is None:
            cols = self.coordinates([self.act_tabloid_vector(p, vec) for vec in self.basis])
            mat = [[cols[j][i] for j in range(self.dim)] for i in range(self.dim)]
            self._action_memo[p] = mat
        return mat

    def character(self, p: Perm) -> int:
        """Trace of the permutation on the module, by Murnaghan–Nakayama."""
        return murnaghan_nakayama(self.shape, cycle_type(p))

    def pairing(self, v1: dict[Tabloid, Fraction], v2: dict[Tabloid, Fraction]) -> Fraction:
        """Tabloid inner product (tabloids orthonormal)."""
        if len(v2) < len(v1):
            v1, v2 = v2, v1
        return sum((c * v2.get(tb, Fraction(0)) for tb, c in v1.items()), Fraction(0))


@cache
def specht_module(shape: tuple[int, ...]) -> SpechtModule:
    return SpechtModule(shape)
