"""Brute-force Brauer diagram algebra over exact rationals.

Ground truth for the single-parameter algebra B_r(delta) at r <= 5: diagrams
are perfect matchings on r top and r bottom points, read off one arc-set
enumerator, ``arc_sets``, that also lists the cap sets, multiplication is
concatenation with closed loops traded for powers of delta, and cell modules
are spanned by half-diagrams (f disjoint top arcs) tensored with the standard
tableaux, Young's seminormal basis, of a Specht module of the symmetric group
on the r - 2f free points.  ``multiply`` is the one strand walker: a
half-diagram is written as a diagram whose free points run straight to the
other row, so the cell action is the product of a diagram over a
half-diagram, and the Gram form's gluing of two half-diagrams is the product
of one turned upside down over the other; their gluing permutation tau enters
the form as norm(T_i) times the (i, j) entry of tau's matrix, from the Specht
module's diagonal invariant form.  Every cell's Gram matrix and radical
come first: when every form is nonzero and every radical is empty, B_r(delta)
is semisimple (a cellular algebra with nondegenerate cell forms;
Graham--Lehrer, Thm 3.8) and the decomposition matrix is the identity, read
off the forms with no character evaluated.  Otherwise it is computed from
exact character identities: the character of each cell module and of each
Gram-quotient simple is evaluated on one diagram per class under conjugation
by the permutation diagrams (a character is a trace and those diagrams are
units, so it is constant on each class), and the integer multiplicities solve
the resulting linear system (characters of pairwise non-isomorphic simples
are linearly independent in characteristic zero).  The Gram radical is
checked to be invariant under the generators s_1, ..., s_{r-1} and e_1, which
is invariance under the whole algebra.

All of this is deliberately independent of the weight/KL machinery: it
imports no package module but ``combinat`` (the cell labels and their text),
``linalg`` and ``specht``, so agreement between the two is meaningful evidence.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from functools import cache
from typing import NamedTuple

from . import combinat
from .linalg import nullspace, solve
from .specht import SpechtModule, specht_module

Diagram = tuple[int, ...]  # partner array on 2r points; involution, no fixed point
Caps = tuple[tuple[int, int], ...]  # disjoint sorted arcs; on the top points, a cap set


DIAGRAM_BUDGET = 945  # (2*5-1)!!: the brute force runs up to r = 5


class DimensionTooLarge(Exception):
    """Refuse brute-force runs on more than DIAGRAM_BUDGET diagrams."""

    exit_code = 2


# -- diagrams ---------------------------------------------------------------


def arc_sets(points: tuple[int, ...], arcs: int) -> Iterator[Caps]:
    """Every set of ``arcs`` disjoint arcs on ``points``, in lexicographic
    order: the first point pairs with each later point in turn, then stays
    free.  Each arc is written (lower, higher), and the arcs by lower point.

    >>> list(arc_sets((0, 1, 2, 3), 1))
    [((0, 1),), ((0, 2),), ((0, 3),), ((1, 2),), ((1, 3),), ((2, 3),)]
    >>> list(arc_sets((0, 1, 2, 3), 2))
    [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))]
    """
    if not arcs:
        yield ()
        return
    if len(points) < 2 * arcs:
        return
    a, rest = points[0], points[1:]
    for i, b in enumerate(rest):
        for tail in arc_sets(rest[:i] + rest[i + 1 :], arcs - 1):
            yield ((a, b), *tail)
    yield from arc_sets(rest, arcs)


@cache
def all_diagrams(r: int) -> tuple[Diagram, ...]:
    """All perfect matchings on 2r points, (2r-1)!! of them, as partner
    arrays in ``arc_sets`` order.

    >>> len(all_diagrams(3))
    15
    """
    out = []
    for arcs in arc_sets(tuple(range(2 * r)), r):
        partner = [0] * (2 * r)
        for a, b in arcs:
            partner[a], partner[b] = b, a
        out.append(tuple(partner))
    return tuple(out)


@cache
def class_representatives(r: int) -> tuple[Diagram, ...]:
    """One diagram per class under conjugation by the permutation diagrams.

    Conjugating by a permutation relabels the top and the bottom points
    alike, so each class is closed up under relabelling the partner array by
    the r - 1 adjacent transpositions.  A class is represented by its first
    member in ``all_diagrams`` order.

    >>> [len(class_representatives(r)) for r in (1, 2, 3, 4)]
    [1, 3, 5, 12]
    """
    relabellings = []
    for i in range(r - 1):
        sigma = list(range(2 * r))
        sigma[i], sigma[i + 1], sigma[r + i], sigma[r + i + 1] = i + 1, i, r + i + 1, r + i
        relabellings.append(sigma)
    seen: set[Diagram] = set()
    reps: list[Diagram] = []
    for d in all_diagrams(r):
        if d in seen:
            continue
        reps.append(d)
        seen.add(d)
        stack = [d]
        while stack:
            x = stack.pop()
            for sigma in relabellings:  # each sigma is its own inverse
                y = tuple(sigma[x[sigma[i]]] for i in range(2 * r))
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return tuple(reps)


def generators(r: int) -> tuple[Diagram, ...]:
    """s_1, ..., s_{r-1} and, for r >= 2, e_1: they generate B_r(delta).

    >>> generators(2)
    ((3, 2, 1, 0), (1, 0, 3, 2))
    """
    ident = half_diagram((), r)
    out = []
    for i in range(r - 1):
        s = list(ident)
        s[i], s[i + 1], s[r + i], s[r + i + 1] = r + i + 1, r + i, i + 1, i
        out.append(tuple(s))
    if r >= 2:
        e = list(ident)
        e[0], e[1], e[r], e[r + 1] = 1, 0, r + 1, r
        out.append(tuple(e))
    return tuple(out)


def multiply(d1: Diagram, d2: Diagram) -> tuple[Diagram, int]:
    """Concatenate d1 over d2; returns (product diagram, loop count).

    The bottom points of d1 are glued to the top points of d2, the middle
    row; each closed loop left in the middle row is one power of delta.  This
    is the oracle's one strand walker: the cell action and the form are read
    off products with half-diagrams.

    >>> e = (1, 0, 3, 2)  # r=2: top arc + bottom arc
    >>> multiply(e, e)
    ((1, 0, 3, 2), 1)
    >>> multiply(half_diagram((), 2), half_diagram((), 2))
    ((2, 3, 0, 1), 0)
    """
    r = len(d1) // 2
    if len(d2) != len(d1):
        raise ValueError("diagrams must share r")
    crossed = [False] * r  # middle points some strand has passed through

    def end_of(p: int) -> int:
        lower = p >= r  # the strand is in d2
        x = d2[p] if lower else d1[p]
        while (x < r) == lower:  # x lies on the middle row: cross it
            m = x if lower else x - r
            crossed[m] = True
            lower = not lower
            x = d2[m] if lower else d1[r + m]
        return x

    partner = [-1] * (2 * r)
    for p in range(2 * r):
        if partner[p] == -1:
            q = end_of(p)
            partner[p], partner[q] = q, p
    loops = 0
    for m in range(r):
        if not crossed[m]:
            loops += 1
            while not crossed[m]:
                crossed[m] = crossed[d2[m]] = True
                m = d1[r + d2[m]] - r
    return tuple(partner), loops


# -- half-diagrams and cell modules -----------------------------------------


@cache
def caps(r: int, f: int) -> tuple[Caps, ...]:
    """All placements of f disjoint arcs on the r top points, in
    ``arc_sets`` order.

    >>> caps(4, 1)
    (((0, 1),), ((0, 2),), ((0, 3),), ((1, 2),), ((1, 3),), ((2, 3),))
    """
    return tuple(arc_sets(tuple(range(r)), f))


def half_diagram(S: Caps, r: int, below: bool = False) -> Diagram:
    """S written on the top row (the bottom row if ``below``): its i-th free
    point is joined to point i of the other row, whose remaining points are
    paired off in order.

    >>> half_diagram(((0, 1),), 2)
    (1, 0, 3, 2)
    >>> half_diagram((), 2, below=True)
    (2, 3, 0, 1)
    """
    row, other = (r, 0) if below else (0, r)
    d = [-1] * (2 * r)
    for a, b in S:
        d[row + a], d[row + b] = row + b, row + a
    used = {p for arc in S for p in arc}
    free = [p for p in range(r) if p not in used]
    for i, p in enumerate(free):
        d[row + p], d[other + i] = other + i, row + p
    for i in range(len(free), r, 2):
        d[other + i], d[other + i + 1] = other + i + 1, other + i
    return tuple(d)


@cache
def act_on_caps(d: Diagram, S: Caps) -> tuple[int, Caps, tuple[int, ...]] | None:
    """Act with diagram d on the half-diagram S glued below it.

    Returns (loops, S', perm) where perm[i] is the new label of old free
    label i, or None if two free labels merge (the term falls into the
    higher-cap ideal).  Cached: every cell module with f = len(S) caps,
    and both its ``act`` and its ``character``, share one result.

    >>> act_on_caps(half_diagram((), 2), ())
    (0, (), (0, 1))
    >>> act_on_caps((1, 0, 3, 2), ()) is None  # e_1 joins the two free labels
    True
    """
    r = len(d) // 2
    prod, loops = multiply(d, half_diagram(S, r))
    k = r - 2 * len(S)  # old label i is the product's bottom point r + i
    if any(prod[r + i] >= r for i in range(k)):
        return None
    new_free = [t for t in range(r) if prod[t] >= r]
    perm = [0] * k
    for j, t in enumerate(new_free):
        perm[prod[t] - r] = j
    return loops, tuple((t, prod[t]) for t in range(r) if t < prod[t] < r), tuple(perm)


@cache
def glue_caps(S: Caps, T: Caps, r: int) -> tuple[int, tuple[int, ...]] | None:
    """Pair two half-diagrams on the same r points.

    Returns (loops, tau) with tau[j] = the S-side label identified with
    T-side label j, or None when two same-side labels meet (form value 0).
    Cached: every cell module with f = len(S) caps pairs the same (S, T).

    >>> glue_caps(((0, 1),), ((0, 1),), 2)
    (1, ())
    >>> glue_caps((), (), 2)
    (0, (0, 1))
    """
    if len(S) != len(T):
        return None
    prod, loops = multiply(half_diagram(S, r, below=True), half_diagram(T, r))
    k = r - 2 * len(S)  # S label i is top point i, T label j bottom point r + j
    if any(prod[i] < r for i in range(k)):
        return None
    return loops, tuple(prod[r + j] for j in range(k))


class CellModule:
    """One cell module C(f, lam) of B_r(delta), with exact Gram data."""

    def __init__(self, r: int, f: int, lam: tuple[int, ...], delta: Fraction):
        if 2 * f + sum(lam) != r:
            raise ValueError("caps and partition must fill r points")
        self.r, self.f, self.lam, self.delta = r, f, tuple(lam), delta
        self.caps = caps(r, f)
        self.specht: SpechtModule = specht_module(self.lam)
        self.sdim = self.specht.dim
        self.dim = len(self.caps) * self.sdim
        self._cap_index = {S: i for i, S in enumerate(self.caps)}

    # cell vectors are dense coordinate lists of length dim,
    # ordered (cap block 0 | cap block 1 | ...)

    def act(self, d: Diagram, vec: list[Fraction]) -> list[Fraction]:
        out = [Fraction(0)] * self.dim
        for ci, S in enumerate(self.caps):
            block = vec[ci * self.sdim : (ci + 1) * self.sdim]
            if not any(block):
                continue
            hit = act_on_caps(d, S)
            if hit is None:
                continue
            loops, S2, perm = hit
            scale = self.delta**loops
            base = self._cap_index[S2] * self.sdim
            for i, row in enumerate(self.specht.action_matrix(perm)):
                out[base + i] += scale * sum(
                    (a * c for a, c in zip(row, block) if a and c), Fraction(0)
                )
        return out

    def character(self, d: Diagram) -> Fraction:
        total = Fraction(0)
        for S in self.caps:
            hit = act_on_caps(d, S)
            if hit is None:
                continue
            loops, S2, perm = hit
            if S2 != S:
                continue
            total += self.delta**loops * self.specht.character(perm)
        return total

    def gram_matrix(self) -> list[list[Fraction]]:
        """The form on cap block pairs: delta^loops times the Specht block
        <T_i, tau T_j> = norm(T_i) (A_tau)_ij of their gluing permutation tau."""
        sdim = self.sdim
        G = [[Fraction(0)] * self.dim for _ in range(self.dim)]
        for ci, S in enumerate(self.caps):
            for cj, T in enumerate(self.caps):
                glued = glue_caps(S, T, self.r)
                if glued is None:
                    continue
                loops, tau = glued
                scale = self.delta**loops
                for i, row in enumerate(self.specht.form_block(tau)):
                    G[ci * sdim + i][cj * sdim : (cj + 1) * sdim] = [scale * x for x in row]
        return G


# -- decomposition matrix ----------------------------------------------------


class OracleMatrix(NamedTuple):
    """Decomposition matrix of B_r(delta): rows all cells, columns simples."""

    r: int
    delta: Fraction
    rows: list[tuple[int, tuple[int, ...]]]
    cols: list[tuple[int, tuple[int, ...]]]
    entries: dict[tuple[tuple[int, tuple[int, ...]], tuple[int, tuple[int, ...]]], int]

    def entry(self, row, col) -> int:
        return self.entries.get((row, col), 0)


def cell_labels(r: int) -> list[tuple[int, tuple[int, ...]]]:
    """(f, partition) labels in label order, read off the level-one walk table.

    >>> cell_labels(2)
    [(0, (2,)), (0, (1, 1)), (1, ())]
    """
    return [(idx.f, idx.shape[0]) for idx in combinat.enumerate_lambda(1, r)]


def _radical_coordinates(
    cell: CellModule,
    d: Diagram,
    vec: list[Fraction],
    supports: list[list[tuple[int, Fraction]]],
    free: list[int],
) -> list[Fraction]:
    """Coordinates of d.vec in the radical basis, checked by recombination.

    Each radical basis vector is 1 at its own free column, its last nonzero
    entry, and 0 at the others: an image's coordinates in the basis are its
    entries there, and they must rebuild the whole image.
    """
    image = cell.act(d, vec)
    coords = [image[c] for c in free]
    span = [Fraction(0)] * cell.dim
    for c, support in zip(coords, supports):
        if c:
            for i, x in support:
                span[i] += c * x
    if span != image:
        raise AssertionError("radical is not invariant under the algebra")
    return coords


def check_budget(r: int) -> None:
    """Refuse an r whose B_r has more than ``DIAGRAM_BUDGET`` diagrams."""
    if combinat.double_factorial(2 * r - 1) > DIAGRAM_BUDGET:
        raise DimensionTooLarge(
            f"r={r} exceeds the brute-force budget of {DIAGRAM_BUDGET} diagrams (r <= 5)"
        )


def oracle_decomposition_matrix(r: int, delta: Fraction) -> OracleMatrix:
    """Exact decomposition matrix [C(f,lam) : D(f',mu)] for B_r(delta).

    Every cell's Gram matrix and radical come first.  B_r(delta) is cellular,
    and a cellular algebra whose cell forms are all nondegenerate is
    semisimple, with the cell modules as its simple modules (Graham--Lehrer,
    Invent. Math. 123 (1996), Thm 3.8): when every label's form is nonzero
    and every radical is empty, the matrix is the identity on the labels and
    no character is evaluated.  Otherwise the columns are the labels with a
    nonzero form and the matrix is solved from the characters.
    """
    check_budget(r)
    labels = cell_labels(r)
    cells = {lab: CellModule(r, lab[0], lab[1], delta) for lab in labels}
    grams = {lab: cells[lab].gram_matrix() for lab in labels}
    cols = [lab for lab in labels if any(any(row) for row in grams[lab])]
    radicals = {lab: nullspace(grams[lab]) for lab in cols}
    if cols == labels and not any(radicals.values()):
        entries = {(lab, lab): 1 for lab in labels}
        return OracleMatrix(r=r, delta=delta, rows=labels, cols=cols, entries=entries)
    return _decomposition_by_characters(r, delta, cells, radicals)


def _decomposition_by_characters(
    r: int, delta: Fraction, cells: dict, radicals: dict
) -> OracleMatrix:
    """The decomposition matrix solved from characters on the class
    representatives.  ``cells`` maps every label, in label order, to its
    cell module, and ``radicals`` maps each column (a label with a nonzero
    form), in label order, to its Gram radical basis.  Each radical is
    checked invariant under the generators, and the solution is checked to
    exist and to be integral, nonnegative and unitriangular."""
    labels, cols = list(cells), list(radicals)
    reps = class_representatives(r)
    chi_C: dict[tuple[int, tuple[int, ...]], list[Fraction]] = {
        lab: [cells[lab].character(d) for d in reps] for lab in labels
    }
    chi_D: dict[tuple[int, tuple[int, ...]], list[Fraction]] = {}
    for lab in cols:
        cell = cells[lab]
        rad = radicals[lab]
        supports = [[(i, x) for i, x in enumerate(vec) if x] for vec in rad]
        free = [support[-1][0] for support in supports]
        for g in generators(r):
            for vec in rad:
                _radical_coordinates(cell, g, vec, supports, free)
        rad_char = []
        for d in reps:
            coords = [_radical_coordinates(cell, d, vec, supports, free) for vec in rad]
            rad_char.append(sum((c[alpha] for alpha, c in enumerate(coords)), Fraction(0)))
        chi_D[lab] = [a - b for a, b in zip(chi_C[lab], rad_char)]

    system = [[chi_D[col][i] for col in cols] for i in range(len(reps))]
    entries: dict = {}
    for lab, solution in zip(labels, solve(system, [chi_C[lab] for lab in labels])):
        if solution is None:
            raise AssertionError("cell character outside the simple-character span")
        for col, val in zip(cols, solution):
            if val.denominator != 1 or val < 0:
                raise AssertionError(f"bad multiplicity {val}")
            if val:
                entries[(lab, col)] = int(val)
    for col in cols:
        if entries.get((col, col)) != 1:
            raise AssertionError("decomposition matrix lacks unit diagonal")
    return OracleMatrix(r=r, delta=delta, rows=labels, cols=cols, entries=entries)


# -- comparison with the pipeline -------------------------------------------


def compare(level: dict, oracle_matrix: OracleMatrix, conjugate_convention: str) -> list[dict]:
    """Cell-for-cell diff between a report's ``matrix_level`` and the oracle.

    The report is read as printed: each oracle cell label is written once in
    the report's label text (``combinat.level_label``), its partition kept
    under ``"identity"`` and transposed under ``"transpose"``, and the label
    sets and the cells are compared in that text.  Returns a list of
    discrepancy records, labels written as the report writes them; empty
    means exact agreement.
    """
    if conjugate_convention not in ("identity", "transpose"):
        raise ValueError(f"unknown conjugate convention: {conjugate_convention!r}")
    transpose = conjugate_convention == "transpose"
    text = {
        (f, lam): combinat.level_label(
            combinat.LambdaIndex(f, (combinat.transpose(lam) if transpose else lam,)), 1
        )
        for f, lam in oracle_matrix.rows
    }
    rows = [text[lab] for lab in oracle_matrix.rows]
    cols = [text[lab] for lab in oracle_matrix.cols]
    diffs: list[dict] = []
    if sorted(rows) != sorted(level["rows"]):
        diffs.append({"kind": "row-labels", "oracle": rows, "report": level["rows"]})
    if sorted(cols) != sorted(level["cols"]):
        diffs.append({"kind": "col-labels", "oracle": cols, "report": level["cols"]})
    if diffs:
        return diffs

    cells = {(level["rows"][i], level["cols"][j]): v for i, j, v in level["entries"]}
    for orow in oracle_matrix.rows:
        for ocol in oracle_matrix.cols:
            expected = oracle_matrix.entry(orow, ocol)
            got = cells.get((text[orow], text[ocol]), 0)
            if expected != got:
                diffs.append(
                    {
                        "kind": "cell",
                        "row": text[orow],
                        "col": text[ocol],
                        "oracle": expected,
                        "report": got,
                    }
                )
    return diffs
