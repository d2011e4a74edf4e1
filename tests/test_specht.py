"""Symmetric-group Specht modules over Q."""

import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import brauer_kl
from brauer_kl.specht import specht_module, standard_tableaux
from verify_routes import mat_mul, partitions, rank


def hook_length_dim(shape):
    m = sum(shape)
    prod = 1
    for i, row in enumerate(shape):
        for j in range(row):
            arm = row - j - 1
            leg = sum(1 for r in shape[i + 1 :] if r > j)
            prod *= arm + leg + 1
    return math.factorial(m) // prod


@pytest.mark.parametrize("shape", [(1,), (2,), (1, 1), (2, 1), (3, 1), (2, 2), (2, 1, 1)])
def test_dimension_matches_hook_length_formula(shape):
    assert len(standard_tableaux(shape)) == hook_length_dim(shape)
    assert specht_module(shape).dim == hook_length_dim(shape)


def test_sum_of_squares_is_group_order():
    m = 4
    assert sum(hook_length_dim(p) ** 2 for p in partitions(m)) == math.factorial(m)
    assert sum(specht_module(p).dim ** 2 for p in partitions(m)) == math.factorial(m)


def test_action_is_homomorphism():
    sm = specht_module((2, 1))
    perms = list(itertools.permutations(range(3)))
    for p in perms[:3]:
        for q in perms[3:]:
            pq = tuple(p[q[i]] for i in range(3))
            assert sm.action_matrix(pq) == mat_mul(sm.action_matrix(p), sm.action_matrix(q))


def test_characters_of_s3():
    # chi^{(2,1)} on classes (1,1,1), (2,1), (3,) = 2, 0, -1
    sm = specht_module((2, 1))
    assert sm.character((0, 1, 2)) == 2
    assert sm.character((1, 0, 2)) == 0
    assert sm.character((1, 2, 0)) == -1


def test_characters_of_s4_standard():
    # chi^{(3,1)} = fixed points - 1: 3, 1, -1, 0, -1 on (1^4), (2,1,1), (2,2), (3,1), (4)
    sm = specht_module((3, 1))
    reps = {
        (1, 1, 1, 1): (0, 1, 2, 3),
        (2, 1, 1): (1, 0, 2, 3),
        (2, 2): (1, 0, 3, 2),
        (3, 1): (1, 2, 0, 3),
        (4,): (1, 2, 3, 0),
    }
    values = {ct: sm.character(p) for ct, p in reps.items()}
    assert values == {
        (1, 1, 1, 1): 3,
        (2, 1, 1): 1,
        (2, 2): -1,
        (3, 1): 0,
        (4,): -1,
    }


@pytest.mark.parametrize("m", range(6))
def test_characters_are_orthogonal(m):
    """Column orthogonality, sum over p in S_m of chi_lam(p) chi_mu(p) =
    m! [lam = mu]: every Specht character is irreducible, and no two shapes
    share one."""
    perms = list(itertools.permutations(range(m)))
    chars = {shape: [specht_module(shape).character(p) for p in perms] for shape in partitions(m)}
    for lam, a in chars.items():
        for mu, b in chars.items():
            inner = sum((x * y for x, y in zip(a, b)), Fraction(0))
            assert inner == (math.factorial(m) if lam == mu else 0), (lam, mu)


def form_matrix(sm):
    return [[sm.norms[i] if i == j else Fraction(0) for j in range(sm.dim)] for i in range(sm.dim)]


def test_form_matrix_is_symmetric_and_nondegenerate_over_q():
    for shape in [(2, 1), (2, 2), (3, 1)]:
        sm = specht_module(shape)
        g = form_matrix(sm)
        assert g == [[g[j][i] for j in range(sm.dim)] for i in range(sm.dim)]
        assert rank(g) == sm.dim  # characteristic 0: the form never degenerates


def test_form_is_invariant_under_the_action():
    """A_p^T D A_p = D, read as A_p^T form_block(p) = D, for every p at m <= 4."""
    for m in range(5):
        for shape in partitions(m):
            sm = specht_module(shape)
            assert all(sm.norms)
            for p in itertools.permutations(range(m)):
                a = sm.action_matrix(p)
                transposed = [[a[j][i] for j in range(sm.dim)] for i in range(sm.dim)]
                assert mat_mul(transposed, sm.form_block(p)) == form_matrix(sm), (shape, p)


def test_action_matrix_is_memoised_per_permutation():
    sm = specht_module((2, 1))
    p = (1, 2, 0)
    assert sm.action_matrix(p) is sm.action_matrix(p)


def test_norm_walk_check_survives_python_O():
    """One corrupted coefficient of s_1 on (3, 2), whose tableau graph has a
    square through that edge: the norm walk meets two values and refuses."""
    src = os.path.dirname(os.path.dirname(brauer_kl.__file__))
    code = (
        "from brauer_kl import specht\n"
        "exact = specht.seminormal_generator\n"
        "def corrupted(standard, e):\n"
        "    partner, diagonal, off = exact(standard, e)\n"
        "    if e == 1:\n"
        "        j = next(j for j, i in enumerate(partner) if i != j)\n"
        "        off[j] *= 2\n"
        "    return partner, diagonal, off\n"
        "specht.seminormal_generator = corrupted\n"
        "try:\n"
        "    specht.SpechtModule((3, 2))\n"
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
    assert proc.stdout == "refused: the seminormal generators admit no invariant form\n"
