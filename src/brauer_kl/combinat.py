"""Partitions, multipartitions, and the walk graph of one-box steps.

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
  over them level by level, and ``pipeline.content_mismatches`` checks
  contents on them edge by edge.
* A *shape index* pairs ``f`` (the number of "removed pairs") with a
  multipartition of ``r - 2f``; ``enumerate_lambda`` lists them all.

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


def level_label(idx: LambdaIndex, k: int) -> str:
    """Compact string form of a level-k cell label."""
    parts = ["," .join(str(c) for c in comp) or "-" for comp in idx.shape[:k]]
    return f"f{idx.f}:" + "|".join(parts)


def family_label(idx: LambdaIndex) -> str:
    """Compact string form of a full (doubled-level) cell label."""
    parts = ["," .join(str(c) for c in comp) or "-" for comp in idx.shape]
    return f"f{idx.f}:" + "|".join(parts)


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


def partitions(m: int) -> Iterator[Partition]:
    """All partitions of ``m`` in descending lexicographic order.

    >>> list(partitions(3))
    [(3,), (2, 1), (1, 1, 1)]
    """
    if m < 0:
        raise ValueError(f"no partitions of a negative size: {m}")
    if m == 0:
        yield ()
        return

    def gen(remaining: int, largest: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        for part in range(min(remaining, largest), 0, -1):
            yield from gen(remaining - part, part, prefix + (part,))

    yield from gen(m, m, ())


def multipartitions(a: int, m: int) -> Iterator[Multipartition]:
    """All level-``a`` multipartitions of total size ``m``, deterministic order."""
    if a < 1 or m < 0:
        raise ValueError(f"need level a >= 1 and size m >= 0, got a={a}, m={m}")
    if a == 1:
        for p in partitions(m):
            yield (p,)
        return
    for first_size in range(m, -1, -1):
        for p in partitions(first_size):
            for rest in multipartitions(a - 1, m - first_size):
                yield (p,) + rest


def size(mp: Multipartition) -> int:
    return sum(sum(p) for p in mp)


def enumerate_lambda(a: int, r: int) -> list[LambdaIndex]:
    """All pairs (f, shape) with |shape| = r - 2f, 0 <= f <= r//2.

    >>> [(f, s) for f, s in enumerate_lambda(1, 2)]
    [(0, ((2,),)), (0, ((1, 1),)), (1, ((),))]
    """
    if a < 1 or r < 0:
        raise ValueError(f"need level a >= 1 and length r >= 0, got a={a}, r={r}")
    out = []
    for f in range(r // 2 + 1):
        for mp in multipartitions(a, r - 2 * f):
            out.append(LambdaIndex(f, mp))
    return out


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
    shapes reachable in exactly ``r`` steps (i.e. every shape of any
    ``enumerate_lambda(a, r)`` entry).
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


def transpose(p: Partition) -> Partition:
    if not p:
        return ()
    return tuple(sum(1 for x in p if x >= i) for i in range(1, p[0] + 1))
