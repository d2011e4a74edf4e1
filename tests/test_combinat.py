"""Multipartition combinatorics: shapes, walks, contents."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import brauer_kl
from brauer_kl.combinat import (
    LambdaIndex,
    add_node,
    boundary_nodes,
    double_factorial,
    enumerate_lambda,
    is_partition,
    multipartitions,
    partitions,
    remove_node,
    size,
    steps,
    transpose,
    updown_count_table,
)
from verify_routes import content_sequence, step_node, updown_count, updown_tableaux

F = Fraction


def small_partitions():
    return st.integers(min_value=0, max_value=6).flatmap(
        lambda m: st.sampled_from(list(partitions(m)))
    )


def test_is_partition():
    assert is_partition(())
    assert is_partition((3, 1, 1))
    assert not is_partition((1, 2))
    assert not is_partition((2, 0))


def test_double_factorial():
    assert [double_factorial(m) for m in (-1, 0, 1, 3, 5, 7)] == [1, 1, 1, 3, 15, 105]


def test_partitions_of_four():
    assert list(partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_partition_counts():
    # p(0..8) = 1, 1, 2, 3, 5, 7, 11, 15, 22
    assert [len(list(partitions(m))) for m in range(9)] == [1, 1, 2, 3, 5, 7, 11, 15, 22]


def test_multipartitions_count_is_convolution():
    # number of 2-component multipartitions of 3: sum p(i) p(3-i) = 1*3+1*2+2*1+3*1 = 10
    assert len(list(multipartitions(2, 3))) == 10
    assert all(size(mp) == 3 for mp in multipartitions(2, 3))


def test_boundary_nodes_examples():
    assert boundary_nodes(((), ()), "add") == [(1, 1, 1), (1, 1, 2)]
    assert boundary_nodes(((2, 1),), "remove") == [(1, 2, 1), (2, 1, 1)]
    assert boundary_nodes(((2, 1),), "add") == [(1, 3, 1), (2, 2, 1), (3, 1, 1)]


def test_add_remove_node_roundtrip():
    mp = ((2, 1), (1,))
    for node in boundary_nodes(mp, "add"):
        assert remove_node(add_node(mp, node), node) == mp
    for node in boundary_nodes(mp, "remove"):
        assert add_node(remove_node(mp, node), node) == mp


@pytest.mark.parametrize("node", [(1, 3, 1), (2, 2, 1), (3, 1, 1), (0, 1, 1)])
def test_add_node_refuses_a_node_that_is_not_addable(node):
    with pytest.raises(ValueError, match="is not addable to"):
        add_node(((1,),), node)


@pytest.mark.parametrize("node", [(1, 1, 1), (2, 2, 1), (3, 1, 1), (0, 2, 1)])
def test_remove_node_refuses_a_node_that_is_not_removable(node):
    with pytest.raises(ValueError, match="is not removable from"):
        remove_node(((2, 1),), node)


def test_node_checks_survive_python_O():
    src = os.path.dirname(os.path.dirname(brauer_kl.__file__))
    code = (
        "from brauer_kl.combinat import add_node, remove_node\n"
        "for step, node in ((add_node, (2, 2, 1)), (remove_node, (1, 1, 1))):\n"
        "    try:\n"
        "        print('returned:', step(((2,),), node))\n"
        "    except ValueError as exc:\n"
        "        print('refused:', exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "refused: node (2, 2, 1) is not addable to ((2,),)\n"
        "refused: node (1, 1, 1) is not removable from ((2,),)\n"
    )


def test_step_node_identifies_difference():
    assert step_node(((1,),), ((2,),)) == ((1, 2, 1), 1)
    assert step_node(((2,),), ((1,),)) == ((1, 2, 1), -1)


@pytest.mark.parametrize("mp", [((),), ((2, 1),), ((1,), ()), ((2,), (1, 1))])
def test_steps_are_the_one_box_neighbours(mp):
    out = list(steps(mp))
    assert [sign for _, sign, _ in out] == sorted((sign for _, sign, _ in out), reverse=True)
    assert len({after for _, _, after in out}) == len(out)
    for node, sign, after in out:
        assert step_node(mp, after) == (node, sign)


def test_enumerate_lambda_examples():
    assert set(enumerate_lambda(1, 2)) == {
        LambdaIndex(0, ((2,),)),
        LambdaIndex(0, ((1, 1),)),
        LambdaIndex(1, ((),)),
    }
    assert enumerate_lambda(1, 0) == [LambdaIndex(0, ((),))]
    assert set(enumerate_lambda(2, 1)) == {
        LambdaIndex(0, ((1,), ())),
        LambdaIndex(0, ((), (1,))),
    }


def test_updown_counts_level_one_r3():
    assert updown_count(1, 3, ((1,),)) == 3
    assert updown_count(2, 1, ((1,), ())) == 1


def test_updown_square_sum_level_one_r3():
    # sum over shapes of count^2 = 1^r (2r-1)!! = 15 at r = 3
    table = {idx.shape: updown_count(1, 3, idx.shape) for idx in enumerate_lambda(1, 3)}
    assert table == {((3,),): 1, ((2, 1),): 2, ((1, 1, 1),): 1, ((1,),): 3}
    assert sum(c * c for c in table.values()) == 15 == double_factorial(2 * 3 - 1)


def test_updown_square_sum_level_two():
    total = sum(
        updown_count(2, 2, idx.shape) ** 2 for idx in enumerate_lambda(2, 2)
    )
    assert total == 2**2 * double_factorial(3)


def test_updown_tableaux_are_walks():
    for walk in updown_tableaux(1, 3, ((1,),)):
        assert len(walk) == 4
        assert walk[0] == ((),)
        assert walk[-1] == ((1,),)
        for before, after in zip(walk, walk[1:]):
            assert abs(size(after) - size(before)) == 1


def test_updown_count_table_matches_tableaux():
    table = updown_count_table(1, 4)
    for shape, count in table.items():
        assert count == len(updown_tableaux(1, 4, shape))


def test_content_sequence_examples():
    u = [F(0)]  # placeholder u_1 = 0 keeps the formulas visible
    # add (1,1,1) then add (1,2,1): contents u_1, u_1 + 1
    assert content_sequence((((),), ((1,),), ((2,),)), u) == [F(0), F(1)]
    # add (1,1,1) then remove it: contents u_1, -u_1
    assert content_sequence((((),), ((1,),), ((),)), u) == [F(0), F(0)]
    u = [F(1, 3)]
    assert content_sequence((((),), ((1,),), ((),)), u) == [F(1, 3), F(-1, 3)]
    # level 2: empty -> box in comp 1 -> box in each component
    u2 = [F(1, 2), F(5)]
    assert content_sequence(
        (((), ()), ((1,), ()), ((1,), (1,))), u2
    ) == [F(1, 2), F(5)]


def test_transpose_examples():
    assert transpose(()) == ()
    assert transpose((2, 1)) == (2, 1)
    assert transpose((3, 1)) == (2, 1, 1)


@given(small_partitions())
def test_transpose_involution(p):
    assert transpose(transpose(p)) == p


@given(st.integers(min_value=1, max_value=2), st.integers(min_value=0, max_value=4))
def test_enumerate_lambda_partitions_by_f(a, r):
    indices = enumerate_lambda(a, r)
    assert len(indices) == len(set(indices))
    for f, shape in indices:
        assert 0 <= f <= r // 2
        assert size(shape) == r - 2 * f
        assert len(shape) == a
