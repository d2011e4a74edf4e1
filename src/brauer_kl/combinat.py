"""Multipartitions, the walk graph of one-box steps, and the cell labels
read off it.

Encodings
---------
* A *partition* is a tuple of weakly decreasing positive integers — trailing
  zeros are never stored, the empty partition is ``()``.
* A *multipartition* of level ``a`` is an ``a``-tuple of partitions.
* A *node* is ``(row, col, comp)``, all 1-based; for an addable node ``col``
  is the length the row reaches after adding the box, for a removable node
  the current length of the row.
* An *updown tableau* of length ``r`` is a walk of ``r`` one-box steps
  (each adds or removes a node) from the empty multipartition.  The *walk
  graph* has the multipartitions as vertices and the steps as edges;
  ``steps`` lists a shape's out-edges, ``updown_count_table`` counts walks
  over them level by level, and ``selftest.content_mismatches`` checks
  contents on them edge by edge.
* A *shape index* (cell label) pairs ``f`` (the number of "removed pairs")
  with a multipartition of ``r - 2f``, a shape of the length-``r`` walk
  table: ``labels_of`` reads the labels off a table, in label order, and
  ``enumerate_lambda(a, r)`` is those of ``updown_count_table(a, r)``.

>>> [(node, sign) for node, sign, _ in steps(((2, 1),))]
[((1, 3, 1), 1), ((2, 2, 1), 1), ((3, 1, 1), 1), ((1, 2, 1), -1), ((2, 1, 1), -1)]
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

Partition = tuple[int, ...]
Multipartition = tuple[Partition, ...]
Node = tuple[int, int, int]


class LambdaIndex(NamedTuple):
    f: int
    shape: Multipartition


def family_label(idx: LambdaIndex) -> str:
    """Compact string form of a full (doubled-level) cell label."""
    parts = ["," .join(str(c) for c in comp) or "-" for comp in idx.shape]
    return f"f{idx.f}:" + "|".join(parts)


def level_label(idx: LambdaIndex, k: int) -> str:
    """Compact string form of a level-k cell label: its first k components."""
    return family_label(LambdaIndex(idx.f, idx.shape[:k]))


def double_factorial(m: int) -> int:
    """Product of m, m-2, m-4, ...; empty products are 1.

    >>> double_factorial(7)
    105
    >>> double_factorial(-1)
    1
    """
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def size(mp: Multipartition) -> int:
    return sum(sum(p) for p in mp)


def steps(mp: Multipartition) -> Iterator[tuple[Node, int, Multipartition]]:
    """The one-box steps out of ``mp``: ``(node, +1, shape)`` for each
    addable node, then ``(node, -1, shape)`` for each removable one, each
    ordered by (comp, row).

    One pass over each component's rows: row ``i`` takes a box when it is
    the first row or shorter than the row above (the row one past the end
    has length 0), and gives one up when it is longer than the row below.

    >>> list(steps(((1,),)))
    [((1, 2, 1), 1, ((2,),)), ((2, 1, 1), 1, ((1, 1),)), ((1, 1, 1), -1, ((),))]
    """
    removals = []
    for comp, p in enumerate(mp):
        head, tail = mp[:comp], mp[comp + 1 :]
        for i, cur in enumerate(p + (0,)):
            if i == 0 or cur < p[i - 1]:
                grown = p[:i] + (cur + 1,) + p[i + 1 :]
                yield (i + 1, cur + 1, comp + 1), 1, head + (grown,) + tail
            if cur and (i + 1 == len(p) or cur > p[i + 1]):
                shrunk = p[:i] + ((cur - 1,) if cur > 1 else ()) + p[i + 1 :]
                removals.append(((i + 1, cur, comp + 1), -1, head + (shrunk,) + tail))
    yield from removals


def updown_count_table(a: int, r: int) -> dict[Multipartition, int]:
    """Walk counts |{walks of length r from empty to shape}| for every shape.

    Dynamic programming over shapes per prefix length; the result covers all
    shapes reachable in exactly ``r`` steps, which are the level-``a``
    multipartitions of sizes r, r - 2, ..., the shapes of the cell labels.
    """
    empty: Multipartition = ((),) * a
    counts: dict[Multipartition, int] = {empty: 1}
    for _ in range(r):
        nxt: dict[Multipartition, int] = {}
        for mp, c in counts.items():
            for _node, _sign, nb in steps(mp):
                nxt[nb] = nxt.get(nb, 0) + c
        counts = nxt
    return counts


def labels_of(walks: dict[Multipartition, int], r: int) -> list[LambdaIndex]:
    """The cell labels (f, shape) of a length-``r`` walk table, |shape| = r - 2f:
    by f, then per component by size descending, parts descending lexicographically."""
    labels = (LambdaIndex((r - size(mp)) // 2, mp) for mp in walks)
    return sorted(labels, key=lambda idx: (idx.f, [(-sum(p), [-x for x in p]) for p in idx.shape]))


def enumerate_lambda(a: int, r: int) -> list[LambdaIndex]:
    """All pairs (f, shape) with |shape| = r - 2f: the labels of the walk table.

    >>> [(f, s) for f, s in enumerate_lambda(1, 2)]
    [(0, ((2,),)), (0, ((1, 1),)), (1, ((),))]
    """
    if a < 1 or r < 0:
        raise ValueError(f"need level a >= 1 and length r >= 0, got a={a}, r={r}")
    return labels_of(updown_count_table(a, r), r)


def transpose(p: Partition) -> Partition:
    if not p:
        return ()
    return tuple(sum(1 for x in p if x >= i) for i in range(1, p[0] + 1))
