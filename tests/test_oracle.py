"""Level-one Brauer diagram algebra: the independent ground truth."""

import itertools
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import brauer_kl
from brauer_kl import oracle
from brauer_kl.oracle import (
    CellModule,
    DimensionTooLarge,
    OracleMatrix,
    act_on_caps,
    all_diagrams,
    caps,
    cell_labels,
    class_representatives,
    compare,
    generators,
    half_diagram,
    multiply,
    oracle_decomposition_matrix,
)
from brauer_kl.combinat import double_factorial
from brauer_kl.linalg import nullspace, solve
from verify_routes import rank

F = Fraction

E2 = (1, 0, 3, 2)  # r = 2: cup on top, cap on bottom
S2 = (3, 2, 1, 0)  # r = 2: the crossing


def test_identity_diagram():
    # the half-diagram with no caps joins top i to bottom i
    assert half_diagram((), 2) == (2, 3, 0, 1)
    assert half_diagram((), 3) == (3, 4, 5, 0, 1, 2)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_all_diagrams_count(r):
    ds = all_diagrams(r)
    assert len(ds) == double_factorial(2 * r - 1)
    assert len(set(ds)) == len(ds)
    for d in ds:
        assert all(d[d[i]] == i and d[i] != i for i in range(2 * r))


def test_all_diagrams_r4_has_105():
    assert len(all_diagrams(4)) == 105


def flip(d):
    """Top-bottom reflection (the algebra's anti-automorphism); on a
    permutation diagram it is the inverse."""
    r = len(d) // 2

    def sw(i):
        return i + r if i < r else i - r

    out = [0] * (2 * r)
    for i in range(2 * r):
        out[sw(i)] = sw(d[i])
    return tuple(out)


def test_flip_is_an_involution():
    for d in all_diagrams(3):
        assert flip(flip(d)) == d
    assert flip(half_diagram((), 3)) == half_diagram((), 3)


def test_multiply_identity():
    ident = half_diagram((), 2)
    assert multiply(ident, ident) == (ident, 0)
    for d in all_diagrams(2):
        assert multiply(ident, d) == (d, 0)
        assert multiply(d, ident) == (d, 0)


def test_multiply_e_squared_makes_one_loop():
    assert multiply(E2, E2) == (E2, 1)


def test_multiply_s_squared_is_identity():
    assert multiply(S2, S2) == (half_diagram((), 2), 0)


def test_multiply_braid_and_tangle_relations_r3():
    # s_1 e_1 = e_1 = e_1 s_1 with no loops; points: top 0,1,2; bottom 3,4,5
    e1 = (1, 0, 5, 4, 3, 2)
    s1 = (4, 3, 5, 1, 0, 2)
    assert e1 in all_diagrams(3) and s1 in all_diagrams(3)
    assert multiply(s1, e1) == (e1, 0)
    assert multiply(e1, s1) == (e1, 0)
    assert multiply(e1, e1) == (e1, 1)


def multiply_elements(x, y, delta):
    """Product of two algebra elements, {diagram: coefficient}, in B_r(delta)."""
    out = {}
    for d1, c1 in x.items():
        for d2, c2 in y.items():
            prod, loops = multiply(d1, d2)
            coeff = c1 * c2 * delta**loops
            if coeff:
                out[prod] = out.get(prod, Fraction(0)) + coeff
    return {d: c for d, c in out.items() if c}


@settings(deadline=None, max_examples=40)
@given(
    st.sampled_from(all_diagrams(3)),
    st.sampled_from(all_diagrams(3)),
    st.sampled_from(all_diagrams(3)),
    st.sampled_from([F(1), F(-2), F(1, 3)]),
)
def test_multiplication_is_associative(d1, d2, d3, delta):
    a = multiply_elements({d1: F(1)}, multiply_elements({d2: F(1)}, {d3: F(1)}, delta), delta)
    b = multiply_elements(multiply_elements({d1: F(1)}, {d2: F(1)}, delta), {d3: F(1)}, delta)
    assert a == b


@settings(deadline=None, max_examples=30)
@given(st.sampled_from(all_diagrams(3)), st.sampled_from(all_diagrams(3)))
def test_flip_is_an_antihomomorphism(d1, d2):
    prod, loops = multiply(d1, d2)
    fprod, floops = multiply(flip(d2), flip(d1))
    assert fprod == flip(prod)
    assert floops == loops


def test_caps_counts():
    assert len(caps(3, 0)) == 1
    assert len(caps(3, 1)) == 3
    assert len(caps(4, 2)) == 3
    assert caps(2, 1) == (((0, 1),),)


def disjoint_arc_sets(n, arcs):
    """Every set of ``arcs`` disjoint arcs (a, b), a < b, on n points, each
    written in increasing arc order, sorted; read off itertools alone."""
    pairs = itertools.combinations(range(n), 2)
    return sorted(
        c for c in itertools.combinations(pairs, arcs) if len(set(itertools.chain(*c))) == 2 * arcs
    )


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_diagrams_and_caps_come_in_lexicographic_order(r):
    # the class representatives (first in all_diagrams order) and the cell
    # bases (cap blocks in caps order) read these orders
    for f in range(r // 2 + 1):
        assert caps(r, f) == tuple(disjoint_arc_sets(r, f))
    partners = []
    for arcs in disjoint_arc_sets(2 * r, r):
        partner = [0] * (2 * r)
        for a, b in arcs:
            partner[a], partner[b] = b, a
        partners.append(tuple(partner))
    assert all_diagrams(r) == tuple(sorted(partners))


def test_cell_labels_example():
    assert cell_labels(2) == [(0, (2,)), (0, (1, 1)), (1, ())]


def test_cell_module_dimensions_square_to_algebra_dimension():
    # generic delta: the algebra is semisimple, so sum dim^2 = (2r-1)!!
    for r in (2, 3):
        total = sum(CellModule(r, f, lam, F(1, 3)).dim ** 2 for f, lam in cell_labels(r))
        assert total == double_factorial(2 * r - 1)


def test_cell_module_character_at_identity_is_dimension():
    for f, lam in cell_labels(3):
        cm = CellModule(3, f, lam, F(1, 3))
        assert cm.character(half_diagram((), 3)) == cm.dim


def test_gram_matrices_full_rank_at_generic_delta():
    for f, lam in cell_labels(3):
        cm = CellModule(3, f, lam, F(1, 3))
        assert rank(cm.gram_matrix()) == cm.dim


def test_gram_matrix_drops_rank_at_delta_one():
    cm = CellModule(3, 1, (1,), F(1))
    assert rank(cm.gram_matrix()) < cm.dim


def test_oracle_matrix_r2_delta1_is_identity():
    m = oracle_decomposition_matrix(2, F(1))
    assert m.rows == m.cols == [(0, (2,)), (0, (1, 1)), (1, ())]
    for a in m.rows:
        for b in m.cols:
            assert m.entry(a, b) == (1 if a == b else 0)


@pytest.mark.parametrize("r", [2, 3])
def test_oracle_matrix_generic_delta_is_identity(r):
    m = oracle_decomposition_matrix(r, F(1, 3))
    for a in m.rows:
        for b in m.cols:
            assert m.entry(a, b) == (1 if a == b else 0)


def test_oracle_matrix_r3_delta1_frozen():
    m = oracle_decomposition_matrix(3, F(1))
    off = {(a, b): v for (a, b), v in m.entries.items() if v and a != b}
    assert off == {((1, (1,)), (0, (2, 1))): 1}
    for a in m.rows:
        assert m.entry(a, a) == 1


def test_oracle_matrix_r3_delta_minus2_frozen():
    m = oracle_decomposition_matrix(3, F(-2))
    off = {(a, b): v for (a, b), v in m.entries.items() if v and a != b}
    assert off == {((1, (1,)), (0, (3,))): 1}


def test_oracle_matrix_r4_delta1_frozen():
    m = oracle_decomposition_matrix(4, F(1))
    off = {(a, b): v for (a, b), v in m.entries.items() if v and a != b}
    assert off == {((2, ()), (0, (2, 2))): 1}


# cols and off-diagonal entries of B_4(delta), frozen from the Fraction
# elimination; every column also has a unit diagonal and nothing else
FROZEN_R4 = {
    F(-4): (
        [(0, (4,)), (0, (3, 1)), (0, (2, 2)), (0, (2, 1, 1)), (0, (1, 1, 1, 1)),
         (1, (2,)), (1, (1, 1)), (2, ())],
        {((1, (2,)), (0, (4,))): 1},
    ),
    F(-2): (
        [(0, (4,)), (0, (3, 1)), (0, (2, 2)), (0, (2, 1, 1)), (0, (1, 1, 1, 1)),
         (1, (2,)), (1, (1, 1)), (2, ())],
        {((1, (1, 1)), (0, (3, 1))): 1, ((2, ()), (0, (4,))): 1},
    ),
    F(0): (
        [(0, (4,)), (0, (3, 1)), (0, (2, 2)), (0, (2, 1, 1)), (0, (1, 1, 1, 1)),
         (1, (2,)), (1, (1, 1))],
        {((1, (2,)), (0, (3, 1))): 1, ((2, ()), (1, (2,))): 1},
    ),
    F(1, 2): (
        [(0, (4,)), (0, (3, 1)), (0, (2, 2)), (0, (2, 1, 1)), (0, (1, 1, 1, 1)),
         (1, (2,)), (1, (1, 1)), (2, ())],
        {},
    ),
}


@pytest.mark.parametrize("delta", list(FROZEN_R4), ids=str)
def test_oracle_matrix_r4_frozen(delta):
    cols, off_diagonal = FROZEN_R4[delta]
    m = oracle_decomposition_matrix(4, delta)
    assert m.rows == cell_labels(4)
    assert m.cols == cols
    assert m.entries == {**{(c, c): 1 for c in cols}, **off_diagonal}


# off-diagonal entries of B_6(delta), frozen while the cell characters came
# from the Murnaghan–Nakayama rule, a route independent of the seminormal
# matrices; every cell is a column there, with a unit diagonal
FROZEN_R6 = {
    F(1): {((1, (2, 2)), (0, (3, 2, 1))): 1, ((3, ()), (1, (2, 2))): 1},
    F(-2): {
        ((1, (1, 1, 1, 1)), (0, (3, 1, 1, 1))): 1,
        ((1, (3, 1)), (0, (4, 2))): 1,
        ((1, (4,)), (0, (5, 1))): 1,
        ((2, (1, 1)), (1, (3, 1))): 1,
        ((3, ()), (1, (4,))): 1,
    },
    F(1, 2): {},
}


@pytest.mark.parametrize("delta", list(FROZEN_R6), ids=str)
def test_oracle_matrix_r6_frozen(delta, monkeypatch):
    """The referee past its budget: B_6 has (2*6-1)!! = 10,395 diagrams."""
    monkeypatch.setattr(oracle, "DIAGRAM_BUDGET", double_factorial(11))
    m = oracle_decomposition_matrix(6, delta)
    assert m.rows == m.cols == cell_labels(6)
    assert m.entries == {**{(c, c): 1 for c in m.cols}, **FROZEN_R6[delta]}


def basis_vectors(cell):
    return [[F(int(i == j)) for i in range(cell.dim)] for j in range(cell.dim)]


@pytest.mark.parametrize("delta", [F(1), F(-2, 3)], ids=str)
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_cell_action_traces_are_the_characters(r, delta):
    """The trace of d on the basis is the cell character, which sums the
    Specht characters over the caps that d fixes."""
    for f, lam in cell_labels(r):
        cell = CellModule(r, f, lam, delta)
        for d in all_diagrams(r):
            trace = sum((cell.act(d, v)[i] for i, v in enumerate(basis_vectors(cell))), F(0))
            assert trace == cell.character(d), (f, lam, d)


@pytest.mark.parametrize("delta", [F(1), F(-2, 3)], ids=str)
@pytest.mark.parametrize("r", [1, 2, 3])
def test_cell_action_is_a_module_action(r, delta):
    """d1.(d2.v) = delta^loops (d1 d2).v on every basis vector."""
    for f, lam in cell_labels(r):
        cell = CellModule(r, f, lam, delta)
        for d1 in all_diagrams(r):
            for d2 in all_diagrams(r):
                prod, loops = multiply(d1, d2)
                for v in basis_vectors(cell):
                    expected = [delta**loops * x for x in cell.act(prod, v)]
                    assert cell.act(d1, cell.act(d2, v)) == expected, (f, lam, d1, d2)


@pytest.mark.parametrize("delta", [F(1), F(-2, 3)], ids=str)
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_gram_form_is_contravariant(r, delta):
    """<d.x, y> = <x, flip(d).y> on every pair of basis vectors."""
    for f, lam in cell_labels(r):
        cell = CellModule(r, f, lam, delta)
        G = cell.gram_matrix()
        for d in all_diagrams(r):
            moved = [cell.act(d, x) for x in basis_vectors(cell)]
            flipped = [cell.act(flip(d), y) for y in basis_vectors(cell)]
            for i, dx in enumerate(moved):
                for j, fy in enumerate(flipped):
                    left = sum((a * G[k][j] for k, a in enumerate(dx) if a), F(0))
                    right = sum((G[i][k] * b for k, b in enumerate(fy) if b), F(0))
                    assert left == right, (f, lam, d, i, j)


def test_oracle_refuses_r6():
    with pytest.raises(DimensionTooLarge, match="budget of 945 diagrams"):
        oracle_decomposition_matrix(6, F(1))


def permutation_diagrams(r):
    return [d for d in all_diagrams(r) if all(d[i] >= r for i in range(r))]


def conjugate(sigma, d):
    """sigma d sigma^-1 by diagram products; a permutation has no loops."""
    return multiply(multiply(sigma, d)[0], flip(sigma))[0]


def conjugacy_orbit(d, perms):
    orbit, stack = {d}, [d]
    while stack:
        x = stack.pop()
        for sigma in perms:
            y = conjugate(sigma, x)
            if y not in orbit:
                orbit.add(y)
                stack.append(y)
    return orbit


@pytest.mark.parametrize("r, count", [(1, 1), (2, 3), (3, 5), (4, 12), (5, 20)])
def test_class_representatives_split_the_diagrams_into_conjugacy_classes(r, count):
    reps = class_representatives(r)
    assert len(reps) == count
    # orbits by products with s_1 ... s_{r-1}, independent of the relabelling
    orbits = [conjugacy_orbit(d, generators(r)[: r - 1]) for d in reps]
    assert sum(len(orbit) for orbit in orbits) == len(all_diagrams(r))
    assert set().union(*orbits) == set(all_diagrams(r))
    assert [d for d in all_diagrams(r) if d in reps] == list(reps)
    if r <= 4:
        perms = permutation_diagrams(r)
        for orbit in orbits:
            assert all(conjugate(sigma, d) in orbit for sigma in perms for d in orbit)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_products_of_the_generators_reach_every_diagram(r):
    """Invariance under the generators is invariance under the algebra:
    every diagram is a product of them, up to a power of delta."""
    reached, frontier = {half_diagram((), r)}, [half_diagram((), r)]
    while frontier:
        d = frontier.pop()
        for g in generators(r):
            prod, _ = multiply(d, g)
            if prod not in reached:
                reached.add(prod)
                frontier.append(prod)
    assert reached == set(all_diagrams(r))


def reference_decomposition_matrix(r, delta):
    """The all-diagram route: characters and radical traces on every
    diagram, and the radical's invariance checked on every diagram."""
    delta = F(delta)
    labels = cell_labels(r)
    diagrams = all_diagrams(r)
    cells = {lab: CellModule(r, lab[0], lab[1], delta) for lab in labels}
    grams = {lab: cells[lab].gram_matrix() for lab in labels}
    cols = [lab for lab in labels if any(any(row) for row in grams[lab])]
    chi_C = {lab: [cells[lab].character(d) for d in diagrams] for lab in labels}
    chi_D = {}
    for lab in cols:
        cell = cells[lab]
        rad = nullspace(grams[lab])
        trace = [F(0)] * len(diagrams)
        if rad:
            # the radical's coordinates of an image, by one solve; None
            # when the image leaves the radical
            for k, d in enumerate(diagrams):
                images = [cell.act(d, vec) for vec in rad]
                coords = solve([list(col) for col in zip(*rad)], images)
                assert all(c is not None for c in coords), "radical is not invariant"
                trace[k] = sum(c[alpha] for alpha, c in enumerate(coords))
        chi_D[lab] = [a - b for a, b in zip(chi_C[lab], trace)]
    system = [[chi_D[col][i] for col in cols] for i in range(len(diagrams))]
    entries = {}
    for lab, solution in zip(labels, solve(system, [chi_C[lab] for lab in labels])):
        assert solution is not None
        for col, val in zip(cols, solution):
            assert val.denominator == 1 and val >= 0
            if val:
                entries[(lab, col)] = int(val)
    return OracleMatrix(r=r, delta=delta, rows=labels, cols=cols, entries=entries)


HALF_INTEGERS = [F(k, 2) for k in range(-16, 17)]  # |delta| <= 8
REFERENCE_GRID = [(r, delta) for r in (1, 2, 3, 4) for delta in HALF_INTEGERS] + [(5, F(1))]


def test_class_route_matches_the_all_diagram_route():
    for r, delta in REFERENCE_GRID:
        assert oracle_decomposition_matrix(r, delta) == reference_decomposition_matrix(r, delta), (
            r,
            delta,
        )


def test_a_semisimple_point_reads_the_identity_off_the_forms():
    """At every point with all cell forms nonzero and nondegenerate the
    shortcut's identity is what the character route solves for."""
    semisimple = 0
    for r, delta in itertools.product((1, 2, 3, 4), HALF_INTEGERS):
        labels = cell_labels(r)
        cells = {lab: CellModule(r, lab[0], lab[1], delta) for lab in labels}
        radicals = {lab: nullspace(cells[lab].gram_matrix()) for lab in labels}
        if any(radicals.values()):
            continue
        semisimple += 1
        m = oracle_decomposition_matrix(r, delta)
        assert m.cols == labels and m.entries == {(c, c): 1 for c in labels}, (r, delta)
        assert m == oracle._decomposition_by_characters(r, delta, cells, radicals), (r, delta)
    # 132 points less delta = 0 at r = 2, delta in {-2, 1} at r = 3 and
    # delta in {-4, -2, 0, 1, 2} at r = 4
    assert semisimple == 124


def test_span_check_survives_python_O():
    src = os.path.dirname(os.path.dirname(brauer_kl.__file__))
    code = (
        "from fractions import Fraction as F\n"
        "from brauer_kl import oracle\n"
        "oracle.solve = lambda system, columns: [None] * len(columns)  # none in the span\n"
        "try:\n"
        "    oracle.oracle_decomposition_matrix(2, F(0))  # (1, ()) has a zero form\n"
        "except AssertionError as exc:\n"
        "    print('refused:', exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "refused: cell character outside the simple-character span\n"


def test_radical_invariance_check_survives_python_O():
    src = os.path.dirname(os.path.dirname(brauer_kl.__file__))
    code = (
        "from fractions import Fraction as F\n"
        "from brauer_kl import oracle\n"
        "act = oracle.CellModule.act\n"
        "def pushed(self, d, vec):  # add a vector the Gram form does not kill\n"
        "    out = act(self, d, vec)\n"
        "    gram = self.gram_matrix()\n"
        "    out[next(j for j in range(self.dim) if any(row[j] for row in gram))] += 1\n"
        "    return out\n"
        "oracle.CellModule.act = pushed\n"
        "try:\n"
        "    oracle.oracle_decomposition_matrix(3, F(1))\n"
        "except AssertionError as exc:\n"
        "    print('refused:', exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "refused: radical is not invariant under the algebra\n"


def test_compare_requires_known_convention():
    with pytest.raises(ValueError, match="conjugate"):
        compare({"rows": [], "cols": [], "entries": []}, oracle_decomposition_matrix(2, F(1)), "x")


def test_compare_guards_survive_python_O():
    """An unknown conjugate convention is refused with a ValueError, which
    ``python -O`` keeps."""
    src = os.path.dirname(os.path.dirname(brauer_kl.__file__))
    code = (
        "from fractions import Fraction as F\n"
        "from brauer_kl import oracle\n"
        "matrix = oracle.oracle_decomposition_matrix(2, F(1))\n"
        "try:\n"
        "    oracle.compare({'rows': [], 'cols': [], 'entries': []}, matrix, 'flip')\n"
        "except ValueError as exc:\n"
        "    print('refused:', exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "refused: unknown conjugate convention: 'flip'\n"
