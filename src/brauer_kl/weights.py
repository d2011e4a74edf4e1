"""Type-D_n weight and root combinatorics with a type-A parabolic.

A weight mu is a length-n point on the standard basis.  A
:class:`WeightContext` carries the block boundaries p_0 < ... < p_k; the
parabolic subsystem consists of the "minus" roots e_i - e_j inside a block.

Every weight here is one integer tuple: the numerators scale * (mu + rho)
of the shifted weight over the family's common denominator.
:func:`shifted_chamber` is the one place rho is added: it gives the shifted
chamber weight's numerators, and :func:`layout` places a shape's cells on
the coordinates; the family's rows (:func:`enumerate_F`) and the pipeline's
content check read both.  The block-size verdict and the saturation test
need no weight, since ``params`` decides them from u and q by closed forms
over pairs of parameters.  The weight family F_r of a configuration is one
integer table, :class:`Family`, built once per ``decompose`` or
``oracle-compare`` command (``kl-selftest`` builds its check tables apart):
per position a cell label and its flag, both read off one level-2k walk table,
the numerators, off which singularity and dominance are read, the linkage
blocks, partitioned once when the table is built, and the engine-core store
that both KL conventions' tables share.  The same tuples run through the
canonical-basis engine, its tables and the peel; any weight reached there,
in the family or not, is such a tuple, and :func:`weight_of` turns one back
into mu (:func:`weight_name` for a message).

Conventions:

* positive roots are e_i - e_j and e_i + e_j for i < j (0-based indices here);
* the reflection in e_i - e_j swaps coordinates i and j; the reflection in
  e_i + e_j swaps them and negates both;
* a weight ``lam`` is parabolically dominant iff ``lam + rho`` is strictly
  decreasing within every block, and regular for the Levi iff the entries
  within every block are pairwise distinct.

The shifted chamber weight has block-j entries running down from u_j - 1/2 in
steps of 1, whatever the other blocks' sizes, which is what ties block sizes
to parameter disjointness.

Blocks are linkage classes: weights sharing, per integrality class of the
token values, the multiset of absolute values of x = mu + rho together with
the negative-entry parity when the class has no zero token
(:func:`canonical_form`, the one such grouping: the engine reads its classes
off this key); only a block of two or more weights reaches ``kl``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import accumulate
from math import gcd, lcm
from typing import Iterator, Literal, NamedTuple, Sequence

from . import combinat
from .combinat import LambdaIndex, Multipartition
from .params import ParamConfig

Weight = tuple[Fraction, ...]
Numerators = tuple[int, ...]  # scale * (mu + rho) over the family's denominator


class Root(NamedTuple):
    i: int  # 0-based, i < j
    j: int
    kind: Literal["plus", "minus"]


class _Boundaries(NamedTuple):
    # WeightContext's fields: a NamedTuple cannot define __new__ itself
    n: int
    p: tuple[int, ...]


class WeightContext(_Boundaries):
    """Rank n and block boundaries p_0 = 0 < p_1 < ... < p_k = n."""

    __slots__ = ()

    def __new__(cls, n: int, p: tuple[int, ...]):
        if not (p[0] == 0 and p[-1] == n and all(a < b for a, b in zip(p, p[1:]))):
            raise ValueError(f"block boundaries {p} must rise strictly from 0 to n={n}")
        return super().__new__(cls, n, p)

    @property
    def k(self) -> int:
        return len(self.p) - 1

    def blocks(self) -> Iterator[tuple[int, int]]:
        """(start, end) half-open coordinate ranges of the blocks."""
        for t in range(self.k):
            yield self.p[t], self.p[t + 1]


def context_of(cfg: ParamConfig) -> WeightContext:
    return WeightContext(cfg.n, cfg.p)


@cache
def rho(n: int) -> Weight:
    """(n-1, n-2, ..., 0): half the sum of the positive roots.

    >>> rho(3)
    (Fraction(2, 1), Fraction(1, 1), Fraction(0, 1))
    """
    return tuple(Fraction(n - 1 - i) for i in range(n))


def weight_of(x: Numerators, scale: int) -> Weight:
    """The weight mu = x / scale - rho read off its numerators."""
    return tuple(Fraction(a, scale) - c for a, c in zip(x, rho(len(x))))


def weight_name(x: Numerators, scale: int) -> str:
    """The weight mu = x / scale - rho as a tuple of rationals, for messages.

    >>> weight_name((5, 1, -1), 2)
    '(1/2,-1/2,-1/2)'
    """
    return "(" + ",".join(map(str, weight_of(x, scale))) + ")"


def pairing(x: Weight, beta: Root) -> Fraction:
    """<x, beta-coroot>; all roots of D_n have squared length 2."""
    if beta.kind == "minus":
        return x[beta.i] - x[beta.j]
    return x[beta.i] + x[beta.j]


def is_singular(x: Sequence) -> bool:
    """Some root pairs to zero with x: two coordinates share an absolute
    value, since <x, e_i -+ e_j> = x_i -+ x_j.  A zero pairing is integral,
    so this is also singularity for the integral Weyl group."""
    return len({abs(a) for a in x}) != len(x)


def blockwise_decreasing(x: Sequence, ctx: WeightContext) -> bool:
    for start, end in ctx.blocks():
        if any(x[i] <= x[i + 1] for i in range(start, end - 1)):
            return False
    return True


def shifted_chamber(u: Sequence[Fraction], q: Sequence[int]) -> tuple[int, Numerators]:
    """The shifted chamber weight (c_j on block j) + rho as ``(scale, numerators)``.

    The numerators are integers over ``scale``, the least common denominator
    of the u_j - 1/2; block j's run down from scale * (u_j - 1/2) in steps
    of ``scale``.  Computed on numerators and denominators alone, so it runs
    no ``Fraction`` arithmetic.

    >>> shifted_chamber([Fraction(1, 3)], [3])
    (6, (-1, -7, -13))
    """
    tops = [(2 * a.numerator - a.denominator, 2 * a.denominator) for a in u]  # u_j - 1/2
    scale = lcm(*(den // gcd(num, den) for num, den in tops))
    return scale, tuple(
        num * scale // den - scale * m for (num, den), size in zip(tops, q) for m in range(size)
    )


# ---------------------------------------------------------------------------
# the weight family F_r and its labels
# ---------------------------------------------------------------------------


def layout(shape: Multipartition, cfg: ParamConfig) -> tuple[int, ...]:
    """The integer shift from the chamber weight that places the cells of a
    level-2k shape of any size, one row per coordinate: component j <= k is
    the head of block j, from the block's start, and component j > k the
    tail of block 2k - j + 1, reversed and negated, from the block's end."""
    k = cfg.k
    d = [0] * cfg.n
    for t in range(k):
        head = shape[t]
        tail = shape[2 * k - t - 1]
        start, end = cfg.p[t], cfg.p[t + 1]
        if len(head) + len(tail) > cfg.q[t]:
            raise ValueError(f"shape {shape} does not fit in block {t + 1} of size {cfg.q[t]}")
        d[start : start + len(head)] = head
        d[end - len(tail) : end] = [-part for part in reversed(tail)]
    return tuple(d)


def tilde(x: Numerators, cfg: ParamConfig) -> LambdaIndex:
    """The (f, shape) label of the weight in F_r with numerators x; inverse
    of :func:`enumerate_F` on one label.

    The shift is x minus the shifted chamber weight's numerators, over the
    scale.  Per block, its positive entries are the head and its negative
    ones, reversed and negated, the tail."""
    scale, base = shifted_chamber(cfg.u, cfg.q)
    steps = [a - b for a, b in zip(x, base)]
    if any(s % scale for s in steps):
        raise ValueError(
            f"weight is not an integral shift of the chamber weight: {weight_name(x, scale)}"
        )
    d = [s // scale for s in steps]
    blocks = [d[start:end] for start, end in context_of(cfg).blocks()]
    total = sum(map(abs, d))
    rising = any(block != sorted(block, reverse=True) for block in blocks)
    if rising or len(x) != cfg.n or total > cfg.r or (cfg.r - total) % 2:
        raise ValueError(f"weight is not in the r-shift family: {weight_name(x, scale)}")
    heads = tuple(tuple(v for v in block if v > 0) for block in blocks)
    tails = tuple(tuple(-v for v in reversed(block) if v < 0) for block in blocks)
    return LambdaIndex((cfg.r - total) // 2, heads + tails[::-1])


def enumerate_F(cfg: ParamConfig, labels: Sequence[LambdaIndex]) -> list[Numerators]:
    """The numerators of the weights of F_r realizing ``labels``, level-2k
    cell labels of size r, r-2, ..., in their order: the shifted chamber
    weight's numerators plus ``scale`` times the label's :func:`layout`, the
    blockwise weakly decreasing integral shift.
    """
    scale, base = shifted_chamber(cfg.u, cfg.q)
    rows = []
    for f, shape in labels:
        if len(shape) != 2 * cfg.k:
            raise ValueError(f"expected a level-{2 * cfg.k} multipartition")
        if combinat.size(shape) != cfg.r - 2 * f or f < 0:
            raise ValueError(f"shape {shape} with f={f} does not have size r - 2f for r={cfg.r}")
        rows.append(tuple(b + scale * d for b, d in zip(base, layout(shape, cfg))))
    return rows


class Family:
    """The weight family F_r of one configuration, one row per position.

    Position i holds the i-th cell label of the level-2k walk table in label
    order (``combinat.labels_of``, the order of ``enumerate_lambda(2k, r)``),
    the numerators scale * (mu + rho) of its weight (:func:`enumerate_F`),
    and the flag: the number of level-2k walks to the label's shape, read
    off the same table.  ``level_flag`` maps the positions of F_{r,k} (empty
    tails), in order, to the truncated flag: the level-k walks to the head
    shape, since a walk whose tails stay empty is a walk on the heads alone.
    ``blocks`` is its linkage blocks, partitioned once, on construction
    (:func:`partition_into_blocks`).  ``cores`` is the family's engine-core
    store, one core per Coxeter shape, which every tilting table read off
    the family shares, under either KL convention.  ``len()`` is the family
    size, which is why this is not a ``NamedTuple``.
    """

    __slots__ = ("cfg", "labels", "scale", "numerators", "flag", "level_flag", "blocks", "cores")

    def __init__(
        self,
        cfg: ParamConfig,
        labels: tuple[LambdaIndex, ...],
        scale: int,
        numerators: tuple[Numerators, ...],
        flag: tuple[int, ...],
        level_flag: dict[int, int],
    ):
        self.cfg, self.labels, self.scale, self.numerators = cfg, labels, scale, numerators
        self.flag, self.level_flag = flag, level_flag
        self.blocks = partition_into_blocks(self)
        self.cores: dict = {}

    def __len__(self) -> int:
        return len(self.labels)


def family_table(cfg: ParamConfig) -> Family:
    """The family table of ``cfg``: one walk table per level, 2k and k, the
    labels and flags read off the first, the numerators from one
    :func:`enumerate_F` call on those labels."""
    k, r = cfg.k, cfg.r
    walks, heads = (combinat.updown_count_table(a, r) for a in (2 * k, k))
    labels = tuple(combinat.labels_of(walks, r))
    return Family(
        cfg=cfg,
        labels=labels,
        scale=shifted_chamber(cfg.u, cfg.q)[0],
        numerators=tuple(enumerate_F(cfg, labels)),
        flag=tuple(walks[idx.shape] for idx in labels),
        level_flag={i: heads[s[:k]] for i, (_, s) in enumerate(labels) if not any(s[k:])},
    )


# ---------------------------------------------------------------------------
# dominance order and linkage blocks (on numerator tuples at one scale)
# ---------------------------------------------------------------------------


def dominance_leq(lam: Numerators, mu: Numerators, scale: int) -> bool:
    """lam <= mu iff mu - lam is a nonnegative integer combination of the
    simple roots of D_n, both weights given as numerators over ``scale``.

    Only the difference counts, so numerators of shifted weights compare
    exactly as their weights do; a difference that ``scale`` does not
    divide is not integral, hence incomparable.  Solving for the
    coefficients: with d = (mu - lam) / scale and prefix sums P_j, the
    coefficients are c_j = P_j (j <= n-2), c_n = P_n / 2 and
    c_{n-1} = (P_{n-1} - d_n) / 2, so the test is: P_j >= 0 for j <= n-2,
    P_n >= 0 and even, and P_{n-1} - d_n >= 0.
    """
    n = len(lam)
    if len(mu) != n:
        raise ValueError(f"weights of different lengths {n} and {len(mu)}")
    d = []
    for l, m in zip(lam, mu):
        steps, rest = divmod(m - l, scale)
        if rest:
            return False
        d.append(steps)
    prefixes = list(accumulate(d))
    return (
        all(p >= 0 for p in prefixes[: n - 2])
        and prefixes[-1] >= 0
        and prefixes[-1] % 2 == 0
        and prefixes[-2] - d[-1] >= 0
    )


def dominance_less(lam: Numerators, mu: Numerators, scale: int) -> bool:
    return lam != mu and dominance_leq(lam, mu, scale)


def dominance_sort_key(x: Sequence) -> tuple:
    """A linear extension of dominance: lexicographic on prefix sums.

    Numerators of shifted weights at one scale sort as their weights do: the
    scale is positive, and rho adds the same prefix offset to every key.
    """
    return tuple(accumulate(x))


def canonical_form(x: Sequence[int], scale: int) -> tuple:
    """Linkage invariant of a shifted weight x = mu + rho, given as integer
    numerators over a common denominator ``scale``.

    Per integrality class (coordinates congruent mod 1 in absolute value,
    i.e. numerators congruent mod ``scale``): the sorted absolute values,
    plus the parity of the class's negative-entry count when the class
    contains no zero (flip parity is a type-D invariant of each integral
    factor; a zero coordinate absorbs it).  Keys taken at one scale compare.
    """
    classes: dict[int, list[int]] = {}
    for a in x:
        classes.setdefault(abs(a) % scale, []).append(a)
    key = []
    for res in sorted(classes):
        members = classes[res]
        abs_sorted = tuple(sorted(abs(a) for a in members))
        parity = None if 0 in members else sum(1 for a in members if a < 0) % 2
        key.append((res, abs_sorted, parity))
    return tuple(key)


class Block(NamedTuple):
    """A linkage class of parabolically dominant weights.

    ``numerators`` holds the members as scale * (mu + rho), sorted
    compatibly with dominance, and ``positions`` their places in the family
    table.
    """

    ctx: WeightContext
    key: tuple
    numerators: tuple[Numerators, ...]
    scale: int
    positions: tuple[int, ...]

    @property
    def weights(self) -> tuple[Weight, ...]:
        """The members mu, read off their numerators (for external readers)."""
        return tuple(weight_of(x, self.scale) for x in self.numerators)

    @property
    def is_singleton(self) -> bool:
        return len(self.numerators) == 1


def partition_into_blocks(family: Family) -> list[Block]:
    """Group family positions by linkage key, blocks in order of first
    appearance and members dominance-sorted within."""
    grouped: dict[tuple, list[int]] = {}
    for i, x in enumerate(family.numerators):
        grouped.setdefault(canonical_form(x, family.scale), []).append(i)
    ctx = context_of(family.cfg)
    blocks = []
    for key, members in grouped.items():
        members.sort(key=lambda i: dominance_sort_key(family.numerators[i]))
        numerators = tuple(family.numerators[i] for i in members)
        blocks.append(Block(ctx, key, numerators, family.scale, tuple(members)))
    return blocks
