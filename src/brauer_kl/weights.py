"""Type-D_n weight and root combinatorics with a type-A parabolic.

Weights are length-n tuples of rationals (coordinates on the standard basis).
A :class:`WeightContext` carries the block boundaries p_0 < ... < p_k; the
parabolic subsystem consists of the "minus" roots e_i - e_j inside a block.

Conventions:

* positive roots are e_i - e_j and e_i + e_j for i < j (0-based indices here);
* the reflection in e_i - e_j swaps coordinates i and j; the reflection in
  e_i + e_j swaps them and negates both;
* a weight ``lam`` is parabolically dominant iff ``lam + rho`` is strictly
  decreasing within every block, and regular for the Levi iff the entries
  within every block are pairwise distinct.

The shifted chamber weight has block-j entries running down from u_j - 1/2 in
steps of 1, which is what ties block sizes to parameter disjointness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Iterator, Literal, NamedTuple, Sequence

from . import combinat
from .combinat import LambdaIndex, Multipartition, Partition
from .params import ParamConfig

Weight = tuple[Fraction, ...]


class Root(NamedTuple):
    i: int  # 0-based, i < j
    j: int
    kind: Literal["plus", "minus"]


@dataclass(frozen=True)
class WeightContext:
    """Rank n and block boundaries p_0 = 0 < p_1 < ... < p_k = n."""

    n: int
    p: tuple[int, ...]

    def __post_init__(self):
        assert self.p[0] == 0 and self.p[-1] == self.n
        assert all(self.p[i] < self.p[i + 1] for i in range(len(self.p) - 1))

    @property
    def k(self) -> int:
        return len(self.p) - 1

    def blocks(self) -> Iterator[tuple[int, int]]:
        """(start, end) half-open coordinate ranges of the blocks."""
        for t in range(self.k):
            yield self.p[t], self.p[t + 1]

    def block_of(self, i: int) -> int:
        for t in range(self.k):
            if self.p[t] <= i < self.p[t + 1]:
                return t
        raise IndexError(i)


def context_of(cfg: ParamConfig) -> WeightContext:
    return WeightContext(cfg.n, cfg.p)


@cache
def rho(n: int) -> Weight:
    """(n-1, n-2, ..., 0): half the sum of the positive roots.

    >>> rho(3)
    (Fraction(2, 1), Fraction(1, 1), Fraction(0, 1))
    """
    return tuple(Fraction(n - 1 - i) for i in range(n))


def shift(mu: Weight) -> Weight:
    """The shifted weight mu + rho."""
    return tuple(a + b for a, b in zip(mu, rho(len(mu))))


def unshift(x: Weight) -> Weight:
    """Inverse of :func:`shift`: x - rho."""
    return tuple(a - b for a, b in zip(x, rho(len(x))))


def lambda_c(cfg: ParamConfig) -> Weight:
    """The chamber weight: constant c_j on block j."""
    out: list[Fraction] = []
    for t in range(cfg.k):
        out.extend([cfg.c[t]] * cfg.q[t])
    return tuple(out)


def reflect(x: Weight, beta: Root) -> Weight:
    y = list(x)
    if beta.kind == "minus":
        y[beta.i], y[beta.j] = y[beta.j], y[beta.i]
    else:
        y[beta.i], y[beta.j] = -y[beta.j], -y[beta.i]
    return tuple(y)


def pairing(x: Weight, beta: Root) -> Fraction:
    """<x, beta-coroot>; all roots of D_n have squared length 2."""
    if beta.kind == "minus":
        return x[beta.i] - x[beta.j]
    return x[beta.i] + x[beta.j]


def positive_roots(n: int) -> Iterator[Root]:
    for i in range(n):
        for j in range(i + 1, n):
            yield Root(i, j, "minus")
            yield Root(i, j, "plus")


def is_singular(x: Weight) -> bool:
    """Some root pairs to zero with x: two coordinates share an absolute
    value, since <x, e_i -+ e_j> = x_i -+ x_j.  A zero pairing is integral,
    so this is also singularity for the integral Weyl group."""
    return len({abs(a) for a in x}) != len(x)


def blockwise_regular(x: Weight, ctx: WeightContext) -> bool:
    """Pairwise-distinct entries within every block."""
    for start, end in ctx.blocks():
        seg = x[start:end]
        if len(set(seg)) != len(seg):
            return False
    return True


def blockwise_decreasing(x: Weight, ctx: WeightContext) -> bool:
    for start, end in ctx.blocks():
        if any(x[i] <= x[i + 1] for i in range(start, end - 1)):
            return False
    return True


def psi_sets(lam: Weight, ctx: WeightContext) -> tuple[set[Root], set[Root]]:
    """The positively-paired non-Levi roots and their doubly-regular subset.

    The first set collects beta outside the Levi with <lam+rho, beta-coroot>
    a positive integer; the second keeps those whose reflection of lam+rho
    still has pairwise-distinct entries within every block.
    """
    x = shift(lam)
    psi: set[Root] = set()
    psi_pp: set[Root] = set()
    for beta in positive_roots(ctx.n):
        if beta.kind == "minus" and ctx.block_of(beta.i) == ctx.block_of(beta.j):
            continue  # Levi root
        val = pairing(x, beta)
        if val.denominator == 1 and val > 0:
            psi.add(beta)
            if blockwise_regular(reflect(x, beta), ctx):
                psi_pp.add(beta)
    return psi, psi_pp


def phiA_condition(lam_c_weight: Weight, ctx: WeightContext) -> bool:
    """No cross-block "minus" root is positively paired with the chamber weight.

    For a single block this holds vacuously (all minus roots are Levi roots).
    """
    psi, _ = psi_sets(lam_c_weight, ctx)
    return not any(beta.kind == "minus" for beta in psi)


# ---------------------------------------------------------------------------
# the weight family F_r and its labels
# ---------------------------------------------------------------------------


def delta(mu: Weight, cfg: ParamConfig) -> tuple[int, ...]:
    """mu - lambda_c as an integer vector; raises if not integral."""
    d = []
    for a, b in zip(mu, lambda_c(cfg)):
        diff = a - b
        if diff.denominator != 1:
            raise ValueError(f"weight is not an integral shift of the chamber weight: {mu}")
        d.append(int(diff))
    return tuple(d)


def _block_head_tail(dblock: Sequence[int]) -> tuple[Partition, Partition] | None:
    """Split one block of a shift vector into (head, tail) partitions.

    The block must be weakly decreasing with positives at the start and
    negatives at the end; returns None otherwise.  The tail partition is the
    reversed, negated run of negative entries.
    """
    if any(dblock[i] < dblock[i + 1] for i in range(len(dblock) - 1)):
        return None
    head = tuple(x for x in dblock if x > 0)
    tail = tuple(-x for x in reversed(dblock) if x < 0)
    return head, tail


def _shift_in_F_r(d: tuple[int, ...], cfg: ParamConfig) -> bool:
    """Blockwise weakly decreasing shift with |shift| of r-parity."""
    total = 0
    for start, end in context_of(cfg).blocks():
        ht = _block_head_tail(d[start:end])
        if ht is None:
            return False
        total += sum(abs(x) for x in d[start:end])
    return total <= cfg.r and (cfg.r - total) % 2 == 0


def in_F_r(mu: Weight, cfg: ParamConfig) -> bool:
    """Integral, blockwise weakly decreasing shift with |shift| of r-parity."""
    try:
        d = delta(mu, cfg)
    except ValueError:
        return False
    return _shift_in_F_r(d, cfg)


def in_F_rk(mu: Weight, cfg: ParamConfig) -> bool:
    """Member of F_r with an entrywise nonnegative shift."""
    try:
        d = delta(mu, cfg)
    except ValueError:
        return False
    return all(x >= 0 for x in d) and _shift_in_F_r(d, cfg)


def hat(idx: LambdaIndex, cfg: ParamConfig) -> Weight:
    """The weight whose shift realizes a level-2k shape index.

    Component j <= k becomes the head of block j; component j > k becomes the
    tail of block 2k - j + 1, reversed and negated.
    """
    f, shape = idx
    k = cfg.k
    assert len(shape) == 2 * k, f"expected a level-{2 * k} multipartition"
    assert combinat.size(shape) == cfg.r - 2 * f and f >= 0
    lc = lambda_c(cfg)
    out = list(lc)
    for t in range(k):
        head = shape[t]
        tail = shape[2 * k - t - 1]
        start, end = cfg.p[t], cfg.p[t + 1]
        if len(head) + len(tail) > cfg.q[t]:
            raise ValueError(f"shape {shape} does not fit in block {t + 1} of size {cfg.q[t]}")
        for row, part in enumerate(head):
            out[start + row] += part
        for row, part in enumerate(tail):
            out[end - 1 - row] -= part
    return tuple(out)


def tilde(mu: Weight, cfg: ParamConfig) -> LambdaIndex:
    """The (f, shape) label of a weight in F_r; inverse of :func:`hat`."""
    d = delta(mu, cfg)
    k = cfg.k
    heads: list[Partition] = []
    tails: list[Partition] = []
    total = 0
    for start, end in context_of(cfg).blocks():
        ht = _block_head_tail(d[start:end])
        if ht is None:
            raise ValueError(f"weight is not in the r-shift family: {mu}")
        heads.append(ht[0])
        tails.append(ht[1])
        total += sum(ht[0]) + sum(ht[1])
    if total > cfg.r or (cfg.r - total) % 2 != 0:
        raise ValueError(f"weight is not in the r-shift family: {mu}")
    shape: Multipartition = tuple(heads) + tuple(reversed(tails))
    return LambdaIndex((cfg.r - total) // 2, shape)


def enumerate_F(r: int, cfg: ParamConfig) -> list[Weight]:
    """All weights with blockwise weakly decreasing integral shift of size
    r, r-2, ... — enumerated per block as (head, tail) partition pairs.

    Order matches ``enumerate_lambda(2k, r)`` through the labeling bijection.
    """
    assert r == cfg.r
    out = []
    for idx in combinat.enumerate_lambda(2 * cfg.k, r):
        out.append(hat(idx, cfg))
    return out


# ---------------------------------------------------------------------------
# dominance order (integral shifts only)
# ---------------------------------------------------------------------------


def dominance_leq(lam: Weight, mu: Weight) -> bool:
    """lam <= mu iff mu - lam is a nonnegative integer combination of the
    simple roots of D_n.

    Solving for the coefficients: with d = mu - lam and prefix sums P_j,
    the coefficients are c_j = P_j (j <= n-2), c_n = P_n / 2 and
    c_{n-1} = (P_{n-1} - d_n) / 2, so the test is: P_j >= 0 for j <= n-2,
    P_n >= 0 and even, and P_{n-1} - d_n >= 0.
    """
    n = len(lam)
    assert len(mu) == n
    d = [m - l for l, m in zip(lam, mu)]
    if any(x.denominator != 1 for x in d):
        return False
    d = [int(x) for x in d]
    prefix = 0
    prefixes = []
    for x in d:
        prefix += x
        prefixes.append(prefix)
    if any(p < 0 for p in prefixes[: n - 2]):
        return False
    if prefixes[-1] < 0 or prefixes[-1] % 2 != 0:
        return False
    return prefixes[-2] - d[-1] >= 0


def dominance_less(lam: Weight, mu: Weight) -> bool:
    return lam != mu and dominance_leq(lam, mu)


def dominance_sort_key(x: Weight) -> tuple:
    """A linear extension of dominance: lexicographic on prefix sums."""
    prefix = Fraction(0)
    key = []
    for val in x:
        prefix += val
        key.append(prefix)
    return tuple(key)


def serialize_weight(mu: Weight, cfg: ParamConfig) -> dict:
    """Sparse shift vector plus the shape label, for reports."""
    d = delta(mu, cfg)
    f, shape = tilde(mu, cfg)
    return {
        "delta": [[i, v] for i, v in enumerate(d) if v != 0],
        "f": f,
        "shape": [list(p) for p in shape],
    }
