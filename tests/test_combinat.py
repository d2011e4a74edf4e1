"""Multipartition combinatorics: shapes, walks, contents."""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from brauer_kl.combinat import (
    LambdaIndex,
    double_factorial,
    enumerate_lambda,
    size,
    steps,
    transpose,
    updown_count_table,
)
from verify_routes import (
    content_sequence,
    enumerate_lambda_by_recursion,
    is_partition,
    multipartitions,
    partitions,
    step_node,
    updown_count,
    updown_tableaux,
)

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


def test_steps_examples():
    def nodes(mp, sign):
        return [node for node, step_sign, _ in steps(mp) if step_sign == sign]

    assert nodes(((), ()), 1) == [(1, 1, 1), (1, 1, 2)]
    assert nodes(((2, 1),), -1) == [(1, 2, 1), (2, 1, 1)]
    assert nodes(((2, 1),), 1) == [(1, 3, 1), (2, 2, 1), (3, 1, 1)]
    assert list(steps(((2,), (1, 1)))) == [
        ((1, 3, 1), 1, ((3,), (1, 1))),
        ((2, 1, 1), 1, ((2, 1), (1, 1))),
        ((1, 2, 2), 1, ((2,), (2, 1))),
        ((3, 1, 2), 1, ((2,), (1, 1, 1))),
        ((1, 2, 1), -1, ((1,), (1, 1))),
        ((2, 1, 2), -1, ((2,), (1,))),
    ]


def test_steps_roundtrip():
    mp = ((2, 1), (1,))
    for node, sign, after in steps(mp):
        assert (node, -sign, mp) in steps(after)


def test_step_node_identifies_difference():
    assert step_node(((1,),), ((2,),)) == ((1, 2, 1), 1)
    assert step_node(((2,),), ((1,),)) == ((1, 2, 1), -1)
    assert step_node(((1,), ()), ((1,), (1,))) == ((1, 1, 2), 1)


@pytest.mark.parametrize(
    "before, after",
    [
        (((1,),), ((3,),)),  # one row, two boxes
        (((1,),), ((2, 1),)),  # two rows
        (((1, 1),), ((1, 2),)),  # not a partition
        (((1,),), ((1,), (1,))),  # another level
        (((1,), ()), ((), (1,))),  # a box moved between components
    ],
)
def test_step_node_refuses_shapes_not_one_box_apart(before, after):
    with pytest.raises(ValueError, match="do not differ by one box"):
        step_node(before, after)


@pytest.mark.parametrize("mp", [((),), ((2, 1),), ((1,), ()), ((2,), (1, 1))])
def test_steps_are_the_one_box_neighbours(mp):
    out = list(steps(mp))
    assert [sign for _, sign, _ in out] == sorted((sign for _, sign, _ in out), reverse=True)
    assert len({after for _, _, after in out}) == len(out)
    for node, sign, after in out:
        assert step_node(mp, after) == (node, sign)


def boxes(mp):
    return frozenset(
        (comp, row, col) for comp, p in enumerate(mp) for row, length in enumerate(p)
        for col in range(length)
    )


@pytest.fixture(scope="module")
def brute_force_neighbours():
    """Every shape of level a <= 4 and size <= 5, mapped to the shapes one box
    away: those among all shapes one size up or down whose boxes hold its
    own, or are held by them."""
    out = {}
    for a in range(1, 5):
        by_size = [[(boxes(mp), mp) for mp in multipartitions(a, m)] for m in range(7)]
        for m in range(6):
            for mine, mp in by_size[m]:
                up = {nb for theirs, nb in by_size[m + 1] if mine < theirs}
                down = {nb for theirs, nb in by_size[m - 1] if theirs < mine} if m else set()
                out[mp] = up | down
    return out


def test_steps_are_the_brute_force_neighbours(brute_force_neighbours):
    for mp, expected in brute_force_neighbours.items():
        out = list(steps(mp))
        assert len(out) == len(expected)
        assert {after for _, _, after in out} == expected
        order = [(-sign, comp, row) for (row, _, comp), sign, _ in out]
        assert order == sorted(order)
        for node, sign, after in out:
            assert all(map(is_partition, after))
            assert step_node(mp, after) == (node, sign)


# sha256 of repr([sorted(updown_count_table(a, r).items()) for r in 1..6]),
# recorded from the tables of boundary-node steps that this one-pass version
# replaced
UPDOWN_DIGESTS = {
    1: "d9315018de3ba815",
    2: "5ef5c74e0dc1363b",
    3: "57076f3e0e33c750",
    4: "12f38c6c57fdd199",
}


@pytest.mark.parametrize("a", sorted(UPDOWN_DIGESTS))
def test_updown_count_table_walks_the_brute_force_neighbours(a, brute_force_neighbours):
    counts = {((),) * a: 1}
    tables = []
    for r in range(1, 7):
        nxt = {}
        for mp, c in counts.items():
            for nb in brute_force_neighbours[mp]:
                nxt[nb] = nxt.get(nb, 0) + c
        counts = nxt
        tables.append(updown_count_table(a, r))
        assert tables[-1] == counts
    text = repr([sorted(table.items()) for table in tables])
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == UPDOWN_DIGESTS[a]


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


# the largest r per level at which the walk table's labels are checked
# against the recursive enumeration, for every smaller r too
LABEL_GRID = {1: 14, 2: 12, 3: 8, 4: 7, 5: 8, 6: 8}


@pytest.mark.parametrize("a", sorted(LABEL_GRID))
def test_enumerate_lambda_is_the_recursive_enumeration(a):
    for r in range(LABEL_GRID[a] + 1):
        assert enumerate_lambda(a, r) == enumerate_lambda_by_recursion(a, r)


@pytest.mark.parametrize("a, r", [(0, 2), (1, -1)])
def test_enumerate_lambda_refuses_a_level_below_one_or_a_negative_length(a, r):
    with pytest.raises(ValueError, match="need level a >= 1 and length r >= 0"):
        enumerate_lambda(a, r)


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
