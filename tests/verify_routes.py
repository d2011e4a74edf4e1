"""Verification routes that no command runs, kept beside the tests that use them.

Each is an independent second route to something the package computes, so
it lives here rather than in ``brauer_kl``, where every command would have
to compile it:

* ``updown_count``: one walk count, read off ``updown_count_table``;
* ``in_F_r``/``in_F_rk``: membership of a ``Fraction`` weight in the family
  F_r and its level part, decided through ``tilde``;
* ``blockwise_regular``: pairwise-distinct entries within every block, read
  off the whole weight (``weights.psi_sets`` checks two coordinates);
* ``mat_mul``/``mat_vec``: exact dense products;
* ``has_nonnegative_coeffs``: a Laurent polynomial with no negative
  coefficient;
* ``BarInvolution``: the bar involution on a canonical-basis engine's
  module, by its own recursion (bar of each standard basis element, of an
  expansion, and the invariance test).

>>> updown_count(1, 3, ((1,),))
3
"""

from __future__ import annotations

from fractions import Fraction

from brauer_kl.combinat import Multipartition, size, updown_count_table
from brauer_kl.kl import CanonicalBasisEngine, IdVector, NVector
from brauer_kl.laurent import LaurentPoly
from brauer_kl.params import ParamConfig
from brauer_kl.weights import Weight, WeightContext, tilde


def updown_count(a: int, r: int, shape: Multipartition) -> int:
    """The number of length-``r`` walks from the empty multipartition to ``shape``."""
    if len(shape) != a:
        raise ValueError(f"shape {shape} has {len(shape)} components, expected {a}")
    if (r - size(shape)) % 2 != 0 or size(shape) > r:
        raise ValueError(f"shape {shape} unreachable in {r} steps")
    return updown_count_table(a, r).get(shape, 0)


def in_F_r(mu: Weight, cfg: ParamConfig) -> bool:
    """Integral, blockwise weakly decreasing shift with |shift| of r-parity."""
    try:
        tilde(mu, cfg)
    except ValueError:
        return False
    return True


def in_F_rk(mu: Weight, cfg: ParamConfig) -> bool:
    """Member of F_r with an entrywise nonnegative shift (empty tails)."""
    return in_F_r(mu, cfg) and not any(tilde(mu, cfg).shape[cfg.k :])


def blockwise_regular(x: Weight, ctx: WeightContext) -> bool:
    """Pairwise-distinct entries within every block."""
    return all(len(set(x[start:end])) == end - start for start, end in ctx.blocks())


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


def has_nonnegative_coeffs(p: LaurentPoly) -> bool:
    return all(c >= 0 for c in p._coeffs.values())


class BarInvolution:
    """The bar involution on one engine's module, by its own recursion."""

    def __init__(self, engine: CanonicalBasisEngine):
        self.engine = engine
        self._of_standard: dict[int, IdVector] = {}  # state id -> bar(N_id)

    def of_standard(self, x: int) -> IdVector:
        """bar(N_x) expanded in the N basis, for the state id x.

        From N_y C_g = N_x + v N_y at an ascent (g, y) of x:
        bar(N_x) = bar(N_y) C_g - v^{-1} bar(N_y).
        """
        cached = self._of_standard.get(x)
        if cached is not None:
            return cached
        asc = self.engine._ascent(x)
        if asc is None:
            result: IdVector = {x: LaurentPoly.one()}
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
        out: IdVector = {}
        for x, p in vec.items():
            for w, q in self.of_standard(self.engine._state_id(x)).items():
                out[w] = out.get(w, LaurentPoly.zero()) + p.bar() * q
        return self.engine._read({z: p for z, p in out.items() if p})

    def is_invariant(self, vec: NVector) -> bool:
        return self(vec) == {z: p for z, p in vec.items() if p}
