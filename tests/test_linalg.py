"""Exact rational linear algebra."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from brauer_kl.linalg import nullspace, rref, solve
from verify_routes import mat_mul, mat_vec, rank

F = Fraction

entries = st.integers(min_value=-6, max_value=6).map(Fraction)
matrices_3 = st.lists(st.lists(entries, min_size=3, max_size=3), min_size=3, max_size=3)


def test_rref_identity_fixed():
    eye = [[F(1), F(0)], [F(0), F(1)]]
    reduced, pivots = rref(eye)
    assert reduced == eye
    assert pivots == [0, 1]


def test_rref_exact_fractions():
    m = [[F(1, 3), F(1)], [F(1), F(3)]]
    reduced, pivots = rref(m)
    assert pivots == [0]
    assert reduced[0] == [F(1), F(3)]
    assert reduced[1] == [F(0), F(0)]


def test_rank_examples():
    assert rank([[F(0)] * 3] * 3) == 0
    assert rank([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert rank([[F(1), F(2)], [F(3), F(4)]]) == 2


def test_nullspace_dimension_and_membership():
    m = [[F(1), F(2), F(3)], [F(2), F(4), F(6)]]
    basis = nullspace(m)
    assert len(basis) == 2
    for vec in basis:
        assert mat_vec(m, vec) == [F(0), F(0)]


def test_solve_exact_solution():
    m = [[F(2), F(1)], [F(1), F(3)]]
    rhs = [F(5), F(10)]
    (x,) = solve(m, [rhs])
    assert x is not None
    assert mat_vec(m, x) == rhs
    assert x == [F(1), F(3)]


def test_solve_inconsistent_returns_none():
    m = [[F(1), F(1)], [F(1), F(1)]]
    assert solve(m, [[F(0), F(1)]]) == [None]


def test_mat_mul_known_product():
    a = [[F(1), F(2)], [F(3), F(4)]]
    b = [[F(0), F(1)], [F(1), F(0)]]
    assert mat_mul(a, b) == [[F(2), F(1)], [F(4), F(3)]]


@given(matrices_3)
def test_rank_plus_nullity(m):
    assert rank(m) + len(nullspace(m)) == 3


@given(matrices_3)
def test_nullspace_vectors_annihilate(m):
    for vec in nullspace(m):
        assert all(c == 0 for c in mat_vec(m, vec))


@given(matrices_3, st.lists(entries, min_size=3, max_size=3))
def test_solve_verifies_when_found(m, rhs):
    (x,) = solve(m, [rhs])
    if x is not None:
        assert mat_vec(m, x) == rhs


# -- the integer elimination against a reference Fraction Gauss-Jordan -----


def reference_rref(rows):
    """Gauss-Jordan on Fraction entries: first nonzero pivot, scaled to 1."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return [], []
    nrows, ncols = len(m), len(m[0])
    pivots = []
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        pivot_row = next((r for r in range(row, nrows) if m[r][col] != 0), None)
        if pivot_row is None:
            continue
        m[row], m[pivot_row] = m[pivot_row], m[row]
        inv = 1 / m[row][col]
        m[row] = [x * inv for x in m[row]]
        for r in range(nrows):
            if r != row and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
    return m, pivots


def reference_nullspace(rows):
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = reference_rref(rows)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][free]
        basis.append(vec)
    return basis


def reference_solve(rows, rhs):
    if not rows:
        return [] if all(x == 0 for x in rhs) else None
    ncols = len(rows[0])
    red, pivots = reference_rref([list(row) + [b] for row, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


mixed_entries = st.one_of(
    st.integers(min_value=-5, max_value=5),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)


@st.composite
def structured_systems(draw, min_columns=1, max_columns=1):
    """A matrix of ints and Fractions with planted zero rows and columns and
    dependent rows, and right-hand sides, each consistent, perturbed off the
    column space, or arbitrary."""
    nrows = draw(st.integers(min_value=0, max_value=5))
    ncols = draw(st.integers(min_value=0, max_value=5))
    m = [[draw(mixed_entries) for _ in range(ncols)] for _ in range(nrows)]
    if nrows and draw(st.booleans()):
        m[draw(st.integers(0, nrows - 1))] = [0] * ncols
    if ncols and draw(st.booleans()):
        col = draw(st.integers(0, ncols - 1))
        for row in m:
            row[col] = Fraction(0)
    if nrows >= 2 and draw(st.booleans()):  # a combination of other rows
        order = draw(st.permutations(range(nrows)))
        a, b, c = order[0], order[1 if nrows > 2 else 0], order[-1]
        s, t = draw(mixed_entries), draw(mixed_entries)
        m[c] = [s * x + t * y for x, y in zip(m[a], m[b])]
    columns = []
    for _ in range(draw(st.integers(min_columns, max_columns))):
        x = [draw(mixed_entries) for _ in range(ncols)]
        rhs = [sum((Fraction(ai) * xi for ai, xi in zip(row, x)), Fraction(0)) for row in m]
        mode = draw(st.sampled_from(["consistent", "perturbed", "arbitrary"]))
        if mode == "perturbed" and nrows:
            rhs[draw(st.integers(0, nrows - 1))] += draw(st.integers(1, 3))
        elif mode == "arbitrary":
            rhs = [draw(mixed_entries) for _ in range(nrows)]
        columns.append(rhs)
    return m, columns


def all_fractions(rows):
    return all(type(x) is Fraction for row in rows for x in row)


@settings(max_examples=150, deadline=None)
@given(structured_systems())
def test_integer_elimination_matches_fraction_gauss_jordan(system):
    m, (rhs,) = system
    reduced, pivots = rref(m)
    assert (reduced, pivots) == reference_rref(m)
    assert all_fractions(reduced)
    assert rank(m) == len(pivots)
    basis = nullspace(m)
    assert basis == reference_nullspace(m)
    assert all_fractions(basis)
    (x,) = solve(m, [rhs])
    assert x == reference_solve(m, rhs)
    if x is not None:
        assert all_fractions([x])
        assert mat_vec(m, x) == rhs


@settings(max_examples=150, deadline=None)
@given(structured_systems(min_columns=0, max_columns=5))
def test_one_elimination_solves_every_column(system):
    """Consistent and inconsistent right-hand sides mixed in one call read
    as if each were solved alone."""
    m, columns = system
    solutions = solve(m, columns)
    assert solutions == [reference_solve(m, rhs) for rhs in columns]
    for x, rhs in zip(solutions, columns):
        if x is not None:
            assert all_fractions([x])
            assert mat_vec(m, x) == rhs


def test_integer_elimination_reads_ints_and_fractions_alike():
    ints = [[2, 4, 1], [1, 2, 0], [0, 0, 3]]
    mixed = [[F(2), 4, F(1)], [F(1, 2) * 2, 2, 0], [0, F(0), F(6, 2)]]
    assert rref(ints) == rref(mixed) == reference_rref(ints)
    assert solve(ints, [[1, 0, 3]]) == [[F(0), F(0), F(1)]]
    assert solve([[1, 1], [2, 2]], [[1, 3]]) == [None]
