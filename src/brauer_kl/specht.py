"""Exact Specht modules for small symmetric groups, in Young's seminormal form.

The basis is the standard tableaux of the shape.  The adjacent transposition
s_e, swapping entries e and e + 1, acts from contents c(x) = column - row of
x's box (James–Kerber, *The Representation Theory of the Symmetric Group*,
1981; Okounkov–Vershik, Selecta Math. 2, 1996): it fixes T when e and e + 1
share a row, negates it when they share a column, and otherwise, for the
pair {T, T' = s_e T} with e in the higher row of T and d = c(e + 1) - c(e),

    s_e T = (1/d) T + T',    s_e T' = (1 - 1/d^2) T - (1/d) T'.

Every other permutation's matrix is a product of these along one descent.
The invariant form is diagonal, norm(T') = (1 - 1/d^2) norm(T); such a form
on an absolutely irreducible module is unique up to a scalar, so its Gram
radicals are those of any other model, which is what the diagram-algebra
oracle consumes.  A character is the trace of the same matrix.

Entries are 0-based throughout; a permutation is a tuple ``p`` with ``p[i]``
the image of ``i``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

Tableau = tuple[tuple[int, ...], ...]
Perm = tuple[int, ...]
Generator = tuple[list[int], list[Fraction], list[Fraction]]  # partner, diagonal, off


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


def seminormal_generator(standard: list[Tableau], e: int) -> Generator:
    """Young's seminormal matrix of s_e on the ``standard`` basis, by columns.

    Column j is s_e T_j = diagonal[j] T_j + off[j] T_partner[j], by the rule
    above; partner[j] is j and off[j] is 0 when s_e only signs T_j.

    >>> seminormal_generator(standard_tableaux((2, 1)), 1)
    ([1, 0], [Fraction(-1, 2), Fraction(1, 2)], [Fraction(1, 1), Fraction(3, 4)])
    """
    index = {t: j for j, t in enumerate(standard)}
    swap = {e: e + 1, e + 1: e}
    columns = []
    for j, t in enumerate(standard):
        place = {x: (row, col) for row, entries in enumerate(t) for col, x in enumerate(entries)}
        (ra, ca), (rb, cb) = place[e], place[e + 1]
        if ra == rb or ca == cb:
            columns.append((j, Fraction(1 if ra == rb else -1), Fraction(0)))
            continue
        d = Fraction(cb - rb - (ca - ra))  # c(e + 1) - c(e) in T_j
        image = index[tuple(tuple(swap.get(x, x) for x in row) for row in t)]
        columns.append((image, 1 / d, Fraction(1) if ra < rb else 1 - 1 / d**2))
    return tuple(map(list, zip(*columns)))  # partner, diagonal, off


class SpechtModule:
    """The Specht module of one partition, with exact action and form."""

    def __init__(self, shape: tuple[int, ...]):
        if not all(a > 0 for a in shape) or list(shape) != sorted(shape, reverse=True):
            raise ValueError(f"not a partition: {shape}")
        self.shape = tuple(shape)
        self.m = sum(shape)
        self.standard = standard_tableaux(self.shape)
        self.dim = len(self.standard)
        self.generators = [seminormal_generator(self.standard, e) for e in range(self.m - 1)]
        self.norms = self._walk_norms()
        identity = [[Fraction(int(i == j)) for j in range(self.dim)] for i in range(self.dim)]
        self._action_memo: dict[Perm, list[list[Fraction]]] = {tuple(range(self.m)): identity}

    def _walk_norms(self) -> list[Fraction]:
        """The diagonal invariant form, norm(T_i) G[i][j] = norm(T_j) G[j][i]
        for every generator G, walked from norm 1 on the first tableau; a
        tableau reached again along another path must get the same norm."""
        norms: list[Fraction | None] = [Fraction(1)] + [None] * (self.dim - 1)
        stack = [0]
        while stack:
            i = stack.pop()
            for partner, _, off in self.generators:
                j = partner[i]
                if j == i:
                    continue
                value = norms[i] * off[j] / off[i]
                if norms[j] is None:
                    norms[j] = value
                    stack.append(j)
                elif norms[j] != value:
                    raise AssertionError("the seminormal generators admit no invariant form")
        return norms

    def action_matrix(self, p: Perm) -> list[list[Fraction]]:
        """Matrix of p on the standard basis, memoised per permutation and
        shared between callers, who must not mutate it.

        At p's first descent e (p[e] > p[e + 1]), p = q s_e with q one
        inversion shorter, so A_p = A_q A_{s_e}, one column pair at a time.
        """
        mat = self._action_memo.get(p)
        if mat is None:
            e = next(e for e in range(len(p) - 1) if p[e] > p[e + 1])
            partner, diagonal, off = self.generators[e]
            rows = self.action_matrix(p[:e] + (p[e + 1], p[e]) + p[e + 2 :])
            mat = [
                [row[j] * diagonal[j] + row[partner[j]] * off[j] for j in range(self.dim)]
                for row in rows
            ]
            self._action_memo[p] = mat
        return mat

    def form_block(self, p: Perm) -> list[list[Fraction]]:
        """<T_i, p T_j> for the invariant form: diag(norms) times A_p."""
        return [[n * x for x in row] for n, row in zip(self.norms, self.action_matrix(p))]

    def character(self, p: Perm) -> Fraction:
        """Trace of the permutation on the module, an integer as a Fraction."""
        return sum((row[i] for i, row in enumerate(self.action_matrix(p))), Fraction(0))


@cache
def specht_module(shape: tuple[int, ...]) -> SpechtModule:
    return SpechtModule(shape)
