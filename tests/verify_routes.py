"""Verification routes that no command runs, kept beside the tests that use them.

Each is an independent second route to something the package computes, so
it lives here rather than in ``brauer_kl``, where every command would have
to compile it:

* ``updown_count``: one walk count, read off ``updown_count_table``;
* ``partitions``, ``multipartitions`` and ``enumerate_lambda_by_recursion``:
  the shapes of a size and the cell labels by recursion over part sizes, the
  order reference for the package's ``enumerate_lambda``, which reads the
  labels off the walk table;
* ``updown_tableaux``, ``is_partition``, ``step_node``, ``content_sequence``
  and ``walk_content_mismatches``: every up-down tableau of a shape as a list
  of shapes, the partition test, the node between two shapes (found row by
  row, without ``steps``), the contents along one walk, and the
  content cross-check walk by walk, step by step (the package's
  ``content_mismatches`` checks each edge of the walk graph once);
* ``lambda_c``, ``delta``, ``reference_hat``, ``reference_tilde`` and
  ``reference_family``: the ``Fraction`` codec of the weight family, the
  chamber weight plus a label's integer shift, ``weights.layout`` (the
  package's ``enumerate_F`` and ``tilde`` work on the numerators
  scale * (mu + rho)), and ``numerators``, the map from the one form to the
  other;
* ``in_F_r``/``in_F_rk``: membership of a ``Fraction`` weight in the family
  F_r and its level part, decided through ``reference_tilde``;
* ``blockwise_regular``: pairwise-distinct entries within every block, read
  off the whole weight;
* ``shift``, ``reflect``, ``positive_roots``, ``block_of`` and ``psi_sets``:
  the positively paired non-Levi roots of a ``Fraction`` weight and their
  doubly-regular subset, root by root over all n(n-1) positive roots (the
  package decides both verdicts from u and q alone, by closed forms over
  pairs of parameters: ``params.doubly_regular_reflection`` and
  ``params.phiA_condition``);
* ``is_r_disjoint``/``verify_disjoint_extension``: r-disjointness of the
  extended parameters, pair by pair through ``cfg.u_ext``
  (``params.verify_block_sizes`` builds the extension itself);
* ``omega_series_by_convolution``: the admissibility series as a product of
  truncated power series (``params.omega_series`` runs a recurrence);
* ``polynomial_route``: the "some low omega is nonzero" criterion as a
  polynomial identity that must fail (``params.simple_param_condition``
  reads the omega series);
* ``mat_mul``/``mat_vec``: exact dense products; ``rank`` and ``trace``;
* ``has_nonnegative_coeffs``: a Laurent polynomial with no negative
  coefficient;
* ``BarInvolution``: the bar involution on a canonical-basis engine's
  module, by its own recursion (bar of each standard basis element, of an
  expansion, and the invariance test).

>>> updown_count(1, 3, ((1,),))
3
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterator

from brauer_kl import weights
from brauer_kl.combinat import (
    LambdaIndex,
    Multipartition,
    Node,
    Partition,
    enumerate_lambda,
    size,
    steps,
    updown_count_table,
)
from brauer_kl.kl import CanonicalBasisEngine, StateVector, NVector
from brauer_kl.laurent import LaurentPoly
from brauer_kl.linalg import rref
from brauer_kl.params import ParamConfig
from brauer_kl.weights import (
    Numerators,
    Root,
    Weight,
    WeightContext,
    context_of,
    pairing,
    rho,
    shifted_chamber,
)

UpdownTableau = tuple[Multipartition, ...]


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
    """All level-``a`` multipartitions of total size ``m``: the first
    component's size descending, each component's partitions in descending
    lexicographic order."""
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


def enumerate_lambda_by_recursion(a: int, r: int) -> list[LambdaIndex]:
    """All pairs (f, shape) with |shape| = r - 2f, 0 <= f <= r//2, f
    ascending and each size's shapes in the order of ``multipartitions``.

    >>> [(f, s) for f, s in enumerate_lambda_by_recursion(1, 2)]
    [(0, ((2,),)), (0, ((1, 1),)), (1, ((),))]
    """
    return [LambdaIndex(f, mp) for f in range(r // 2 + 1) for mp in multipartitions(a, r - 2 * f)]


def updown_count(a: int, r: int, shape: Multipartition) -> int:
    """The number of length-``r`` walks from the empty multipartition to ``shape``."""
    if len(shape) != a:
        raise ValueError(f"shape {shape} has {len(shape)} components, expected {a}")
    if (r - size(shape)) % 2 != 0 or size(shape) > r:
        raise ValueError(f"shape {shape} unreachable in {r} steps")
    return updown_count_table(a, r).get(shape, 0)


def updown_tableaux(a: int, r: int, shape: Multipartition) -> list[UpdownTableau]:
    """All length-``r`` one-box walks from the empty multipartition to ``shape``.

    >>> len(updown_tableaux(1, 3, ((1,),)))
    3
    """
    if len(shape) != a:
        raise ValueError(f"shape {shape} has {len(shape)} components, expected {a}")
    if (r - size(shape)) % 2 != 0 or size(shape) > r:
        raise ValueError(f"shape {shape} unreachable in {r} steps")
    out: list[UpdownTableau] = []

    def walk(path: list[Multipartition]) -> None:
        steps_left = r - (len(path) - 1)
        gap = size(path[-1]) - size(shape)
        if abs(gap) > steps_left or (steps_left - gap) % 2 != 0:
            return
        if steps_left == 0:
            if path[-1] == shape:
                out.append(tuple(path))
            return
        for _node, _sign, nxt in steps(path[-1]):
            path.append(nxt)
            walk(path)
            path.pop()

    walk([((),) * a])
    return out


def is_partition(p) -> bool:
    """A tuple of weakly decreasing positive integers.

    >>> is_partition((3, 1, 1)), is_partition((1, 2)), is_partition((2, 0))
    (True, False, False)
    """
    return (
        isinstance(p, tuple)
        and all(isinstance(x, int) and x > 0 for x in p)
        and all(x >= y for x, y in itertools.pairwise(p))
    )


def step_node(before: Multipartition, after: Multipartition) -> tuple[Node, int]:
    """The single node by which two shapes differ, with sign +1 (added) or -1.

    The shapes are compared row by row, a missing row reading 0: exactly one
    row may differ, by one box, and both shapes must be multipartitions of
    one level.

    >>> step_node(((1,),), ((2,),))
    ((1, 2, 1), 1)
    """
    if len(before) == len(after) and all(map(is_partition, before + after)):
        rows = [
            (row, comp, x, y)
            for comp, (p, s) in enumerate(zip(before, after), start=1)
            for row, (x, y) in enumerate(itertools.zip_longest(p, s, fillvalue=0), start=1)
            if x != y
        ]
        if len(rows) == 1:
            row, comp, x, y = rows[0]
            if abs(y - x) == 1:
                return (row, max(x, y), comp), y - x
    raise ValueError(f"{before} and {after} do not differ by one box")


def content_sequence(t: UpdownTableau, u) -> list[Fraction]:
    """Contents of the boxes touched along a walk.

    Adding the node ``(l, h, comp)`` contributes ``u[comp-1] + h - l``;
    removing it contributes the negative.

    >>> content_sequence((((),), ((1,),), ((2,),)), [Fraction(0)])
    [Fraction(0, 1), Fraction(1, 1)]
    """
    u = [Fraction(x) for x in u]
    if not t or len(t[0]) != len(u):
        raise ValueError("component count must match parameter count")
    out = []
    for before, after in itertools.pairwise(t):
        (l, h, comp), sign = step_node(before, after)
        out.append(sign * (u[comp - 1] + h - l))
    return out


def walk_content_mismatches(cfg: ParamConfig) -> list[dict]:
    """The content cross-check of ``pipeline.content_mismatches``, walk by
    walk: one record per failing step of every up-down tableau of every
    shape, carrying the numerators along the walk itself.  Each step moves
    the one coordinate where the ``weights.layout`` of its two shapes
    differ, the layout the edge route reads too.  Exponential in r.
    """
    a = 2 * cfg.k
    scale, chamber = shifted_chamber(cfg.u, cfg.q)
    mismatches: list[dict] = []
    for idx in enumerate_lambda(a, cfg.r):
        for t in updown_tableaux(a, cfg.r, idx.shape):
            contents = content_sequence(t, cfg.u_ext)
            x = list(chamber)
            for m in range(cfg.r):
                node, _ = step_node(t[m], t[m + 1])
                before, after = (weights.layout(shape, cfg) for shape in t[m : m + 2])
                moved = [(i, b - a) for i, (a, b) in enumerate(zip(before, after)) if a != b]
                ((i0, sigma),) = moved
                weight_side = Fraction(2 * sigma * x[i0] + scale, 2 * scale)
                if weight_side != contents[m]:
                    mismatches.append(
                        {
                            "shape": t[m],
                            "step": m,
                            "node": node,
                            "content": contents[m],
                            "weight_side": weight_side,
                        }
                    )
                x[i0] += sigma * scale
    return mismatches


def lambda_c(cfg: ParamConfig) -> Weight:
    """The chamber weight: constant c_j on block j."""
    return tuple(c for c, q in zip(cfg.c, cfg.q) for _ in range(q))


def delta(mu: Weight, cfg: ParamConfig) -> tuple[int, ...]:
    """mu - lambda_c as an integer vector; raises if not integral."""
    d = [a - b for a, b in zip(mu, lambda_c(cfg))]
    if any(x.denominator != 1 for x in d):
        raise ValueError(f"weight is not an integral shift of the chamber weight: {mu}")
    return tuple(int(x) for x in d)


def reference_hat(idx: LambdaIndex, cfg: ParamConfig) -> Weight:
    """The weight mu whose shift from the chamber weight realizes a label."""
    return tuple(a + x for a, x in zip(lambda_c(cfg), weights.layout(idx.shape, cfg)))


def reference_tilde(mu: Weight, cfg: ParamConfig) -> LambdaIndex:
    """The (f, shape) label of a weight mu in F_r; inverse of ``reference_hat``."""
    d = delta(mu, cfg)
    heads: list[tuple[int, ...]] = []
    tails: list[tuple[int, ...]] = []
    for start, end in context_of(cfg).blocks():
        block = d[start:end]
        if any(block[i] < block[i + 1] for i in range(len(block) - 1)):
            raise ValueError(f"weight is not in the r-shift family: {mu}")
        heads.append(tuple(x for x in block if x > 0))
        tails.append(tuple(-x for x in reversed(block) if x < 0))
    total = sum(abs(x) for x in d)
    if total > cfg.r or (cfg.r - total) % 2 != 0:
        raise ValueError(f"weight is not in the r-shift family: {mu}")
    return LambdaIndex((cfg.r - total) // 2, tuple(heads) + tuple(reversed(tails)))


def reference_family(cfg: ParamConfig) -> list[Weight]:
    """The weights mu of F_r in the order of ``enumerate_lambda(2k, r)``."""
    return [reference_hat(idx, cfg) for idx in enumerate_lambda(2 * cfg.k, cfg.r)]


def numerators(mu: Weight, scale: int) -> Numerators:
    """scale * (mu + rho) as integers; raises if ``scale`` leaves a fraction."""
    x = [scale * a for a in shift(mu)]
    if any(a.denominator != 1 for a in x):
        raise ValueError(f"scale {scale} does not clear the denominators of {mu}")
    return tuple(int(a) for a in x)


def in_F_r(mu: Weight, cfg: ParamConfig) -> bool:
    """Integral, blockwise weakly decreasing shift with |shift| of r-parity."""
    try:
        reference_tilde(mu, cfg)
    except ValueError:
        return False
    return True


def in_F_rk(mu: Weight, cfg: ParamConfig) -> bool:
    """Member of F_r with an entrywise nonnegative shift (empty tails)."""
    return in_F_r(mu, cfg) and not any(reference_tilde(mu, cfg).shape[cfg.k :])


def blockwise_regular(x: Weight, ctx: WeightContext) -> bool:
    """Pairwise-distinct entries within every block."""
    return all(len(set(x[start:end])) == end - start for start, end in ctx.blocks())


def shift(mu: Weight) -> Weight:
    """The shifted weight mu + rho."""
    return tuple(a + b for a, b in zip(mu, rho(len(mu))))


def reflect(x: Weight, beta: Root) -> Weight:
    y = list(x)
    if beta.kind == "minus":
        y[beta.i], y[beta.j] = y[beta.j], y[beta.i]
    else:
        y[beta.i], y[beta.j] = -y[beta.j], -y[beta.i]
    return tuple(y)


def positive_roots(n: int) -> Iterator[Root]:
    for i in range(n):
        for j in range(i + 1, n):
            yield Root(i, j, "minus")
            yield Root(i, j, "plus")


def block_of(ctx: WeightContext, i: int) -> int:
    """The block holding coordinate i."""
    for t in range(ctx.k):
        if ctx.p[t] <= i < ctx.p[t + 1]:
            return t
    raise IndexError(i)


def psi_sets(lam: Weight, ctx: WeightContext) -> tuple[set[Root], set[Root]]:
    """The positively-paired non-Levi roots and their doubly-regular subset.

    The first set collects beta outside the Levi with <lam+rho, beta-coroot>
    a positive integer; the second keeps those whose reflection of lam+rho
    still has pairwise-distinct entries within every block, read off the
    whole reflected weight.
    """
    x = shift(lam)
    psi: set[Root] = set()
    for beta in positive_roots(ctx.n):
        if beta.kind == "minus" and block_of(ctx, beta.i) == block_of(ctx, beta.j):
            continue  # Levi root
        val = pairing(x, beta)
        if val.denominator == 1 and val > 0:
            psi.add(beta)
    return psi, {beta for beta in psi if blockwise_regular(reflect(x, beta), ctx)}


def is_r_disjoint(a: Fraction, b: Fraction, r: int) -> bool:
    """True iff both a+b and a-b are non-integral or of absolute value >= r.

    >>> is_r_disjoint(Fraction(5), Fraction(1), 3)
    True
    >>> is_r_disjoint(Fraction(2), Fraction(1), 3)
    False
    """
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    a, b = Fraction(a), Fraction(b)
    for val in (a + b, a - b):
        if val.denominator == 1 and abs(val) < r:
            return False
    return True


def verify_disjoint_extension(cfg: ParamConfig) -> bool:
    """Each extended parameter must be r-disjoint from all earlier ones."""
    for j in range(cfg.k, 2 * cfg.k):
        for i in range(j):
            if not is_r_disjoint(cfg.u_ext[j], cfg.u_ext[i], cfg.r):
                return False
    return True


def _poly_mul(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def omega_series_by_convolution(v: list[Fraction], N: int) -> list[Fraction]:
    """``params.omega_series`` by multiplying out the truncated series
    1 + 2vt + 2v^2 t^2 + ... of each factor (1 + vt) / (1 - vt), in
    O(N^2 k) operations (the package runs a length-k recurrence instead).

    >>> omega_series_by_convolution([Fraction(3, 2)], 0)
    [Fraction(4, 1)]
    """
    e = Fraction((-1) ** len(v), 2)
    prod = [Fraction(1)] + [Fraction(0)] * (N + 1)
    for vi in v:
        factor = [Fraction(1)] + [2 * vi**m for m in range(1, N + 2)]
        new = [Fraction(0)] * (N + 2)
        for a, pa in enumerate(prod):
            for b in range(N + 2 - a):
                new[a + b] += pa * factor[b]
        prod = new
    return [prod[a + 1] - e * prod[a] + (Fraction(1, 2) if a == 0 else 0) for a in range(N + 1)]


def polynomial_route(u: list[Fraction], k: int) -> bool:
    """True iff (x - 1/2) prod (x - s u_i) != (x - s/2) prod (x + s u_i),
    with s = (-1)^k: the polynomial form of ``params.simple_param_condition``.

    >>> polynomial_route([Fraction(1, 2)], 1), polynomial_route([Fraction(0)], 1)
    (False, True)
    """
    sign = (-1) ** k
    lhs = [Fraction(-1, 2), Fraction(1)]
    rhs = [Fraction(-sign, 2), Fraction(1)]
    for ui in u:
        lhs = _poly_mul(lhs, [-sign * ui, Fraction(1)])
        rhs = _poly_mul(rhs, [sign * ui, Fraction(1)])
    return lhs != rhs


def mat_mul(a, b) -> list[list[Fraction]]:
    if not a or not b:
        return []
    ncols_b = len(b[0])
    return [
        [sum((ar[k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(ncols_b)]
        for ar in a
    ]


def mat_vec(a, x) -> list[Fraction]:
    return [sum((ai * xi for ai, xi in zip(row, x)), Fraction(0)) for row in a]


def rank(rows) -> int:
    return len(rref(rows)[1])


def trace(rows) -> Fraction:
    return sum((rows[i][i] for i in range(len(rows))), Fraction(0))


def has_nonnegative_coeffs(p: LaurentPoly) -> bool:
    return all(c >= 0 for c in p._coeffs.values())


class BarInvolution:
    """The bar involution on one engine's module, by its own recursion."""

    def __init__(self, engine: CanonicalBasisEngine):
        self.engine = engine
        self._of_standard: dict[int, StateVector] = {}  # packed state -> bar(N_state)

    def of_standard(self, x: int) -> StateVector:
        """bar(N_x) expanded in the N basis, for the packed state x.

        From N_y C_g = N_x + v N_y at an ascent (g, y) of x:
        bar(N_x) = bar(N_y) C_g - v^{-1} bar(N_y).
        """
        cached = self._of_standard.get(x)
        if cached is not None:
            return cached
        asc = self.engine._ascent(x)
        if asc is None:
            result: StateVector = {x: LaurentPoly.one()}
        else:
            g, y = asc
            bar_y = self.of_standard(y)
            vec = self.engine.generator_action(g, bar_y)
            for z, p in bar_y.items():
                vec[z] = vec.get(z, LaurentPoly.zero()) - LaurentPoly.v(-1) * p
            result = {z: p for z, p in vec.items() if p}
        self._of_standard[x] = result
        return result

    def __call__(self, vec: NVector) -> NVector:
        """The bar of an N-basis expansion keyed by numerators."""
        out: StateVector = {}
        for x, p in vec.items():
            for w, q in self.of_standard(self.engine._state_id(x)).items():
                out[w] = out.get(w, LaurentPoly.zero()) + p.bar() * q
        return self.engine._read({z: p for z, p in out.items() if p})

    def is_invariant(self, vec: NVector) -> bool:
        return self(vec) == {z: p for z, p in vec.items() if p}
