"""Exact parameter arithmetic for the cyclotomic Brauer algebra pipeline.

Parameters are :class:`fractions.Fraction`s, block sizes and r ints, taken as
given: no function coerces its arguments again.  The module provides

* the admissibility generating series (``omega_series``) and the "some low
  omega is nonzero" criterion read off it (``simple_param_condition``),
* the block-size verdict and the saturation test, decided from u and q
  alone by closed forms over pairs of parameters (``verify_block_sizes``,
  ``phiA_condition``): each block of the shifted chamber weight is a
  unit-step progression, so no weight is built and no root is scanned,
* deterministic block-size selection (``select_block_sizes``): one loop over
  the bases from the even ceiling of r, each candidate decided in O(k^2),
  refused at the first candidate with a block past ``MAX_BLOCK_SIZE``, and
* the parameter extension u_1..u_k -> u_1..u_2k (``extend_parameters``),
  packaged into an immutable :class:`ParamConfig`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple, Sequence


class RetryExhausted(Exception):
    """No base up to the one that always verifies gave verified block sizes."""


class BlockSizesTooLarge(Exception):
    """The block-size walk reached a candidate with a block past ``MAX_BLOCK_SIZE``."""

    exit_code = 5


# The largest block size the selection may try.  It bounds the walk over
# bases, and with it the rank of every weight.  Cold ``decompose --k 1`` at
# the bound (q = 20000) took 0.26 s at r = 2 (u = 9999, 25 MB) and 0.76 s at
# r = 5 (u = 9997, 82 MB) on a 2-core box.
MAX_BLOCK_SIZE = 20_000


# ---------------------------------------------------------------------------
# admissibility series
# ---------------------------------------------------------------------------


def omega_series(v: Sequence[Fraction], N: int) -> list[Fraction]:
    """Coefficients omega_0..omega_N of the admissibility generating function.

    The series expands, in powers of 1/u at u = infinity,

        (u - e) * prod_i (u + v_i) / (u - v_i)  -  u  +  1/2,

    where e = 1/2 for an even number of parameters and -1/2 for an odd one.
    Writing t = 1/u, the product is P(t) = A(t) / B(t) with A(t) =
    prod_i (1 + v_i t) and B(t) = prod_i (1 - v_i t), so its coefficients obey
    the length-k recurrence p_m = a_m - (b_1 p_{m-1} + ... + b_k p_{m-k}), and
    omega_a = p_{a+1} - e*p_a (+ 1/2 when a = 0).

    >>> omega_series([Fraction(3, 2)], 0)
    [Fraction(4, 1)]
    >>> omega_series([Fraction(0)], 0)
    [Fraction(1, 1)]
    """
    if not v:
        raise ValueError("need at least one parameter")
    if N < 0:
        raise ValueError(f"highest omega index must be >= 0, got {N}")
    k = len(v)
    e = Fraction((-1) ** k, 2)
    num, den = [Fraction(1)], [Fraction(1)]
    for vi in v:
        num = [x + vi * y for x, y in zip(num + [0], [0] + num)]
        den = [x - vi * y for x, y in zip(den + [0], [0] + den)]
    # coefficients p_0..p_{N+1} of P(t)
    prod: list[Fraction] = []
    for m in range(N + 2):
        head = num[m] if m <= k else 0
        prod.append(head - sum(den[j] * prod[m - j] for j in range(1, min(m, k) + 1)))
    out = []
    for a in range(N + 1):
        w = prod[a + 1] - e * prod[a]
        if a == 0:
            w += Fraction(1, 2)
        out.append(w)
    return out


def simple_param_condition(u: Sequence[Fraction], k: int) -> bool:
    """True iff some omega_i with i < k is nonzero for the sign-twisted parameters.

    The sign-twisted parameters are (-1)^k u_i, and the verdict reads the
    truncated series omega_0..omega_{k-1} of :func:`omega_series`.

    >>> simple_param_condition([Fraction(1, 2)], 1)
    False
    >>> simple_param_condition([Fraction(0)], 1)
    True
    """
    if len(u) != k or k < 1:
        raise ValueError(f"expected k = {k} >= 1 parameters, got {len(u)}")
    sign = (-1) ** k
    return any(w != 0 for w in omega_series([sign * ui for ui in u], k - 1))


# ---------------------------------------------------------------------------
# parameter configuration
# ---------------------------------------------------------------------------


class ParamConfig(NamedTuple):
    """Immutable bundle of a fully extended parameter choice.

    ``u`` are the k input parameters, ``q`` the block sizes, ``p`` the block
    boundaries (p_0 = 0, p_j = p_{j-1} + q_j, n = p_k), ``c`` the blockwise
    weight offsets, ``u_ext`` the 2k extended parameters and ``omega`` the
    admissibility series of ``u_ext`` truncated at index 2k.
    """

    k: int
    r: int
    u: tuple[Fraction, ...]
    q: tuple[int, ...]
    p: tuple[int, ...]
    n: int
    c: tuple[Fraction, ...]
    u_ext: tuple[Fraction, ...]
    omega: tuple[Fraction, ...]

    def serialize(self) -> dict:
        return {
            "k": self.k,
            "r": self.r,
            "u": [str(x) for x in self.u],
            "q": list(self.q),
            "p": list(self.p),
            "n": self.n,
            "c": [str(x) for x in self.c],
            "u_ext": [str(x) for x in self.u_ext],
            "omega": [str(x) for x in self.omega],
        }


def extend_parameters(u: Sequence[Fraction], q: Sequence[int], r: int) -> ParamConfig:
    """Fill in boundaries p, offsets c, the 2k extended parameters, and the
    omega series.

    p holds the prefix sums of q, and the extended parameters are u followed
    by q_l - u_l for l = k-1, ..., 0, so the zeroth series coefficient of
    the extension is 2*sum(q) = 2n; this invariant is checked.
    """
    u, q = tuple(u), tuple(q)
    k = len(u)
    if len(q) != k or not all(qi > 0 for qi in q):
        raise ValueError(f"q must be {k} positive block size(s), got {q}")
    p = tuple(accumulate(q, initial=0))
    n = p[k]
    c = tuple(u[j] + p[j] - n + Fraction(1, 2) for j in range(k))
    u_ext = u + tuple(q[l] - u[l] for l in reversed(range(k)))
    omega = tuple(omega_series(u_ext, 2 * k))
    if omega[0] != 2 * n:
        raise AssertionError(f"omega_0 = {omega[0]} != 2n = {2 * n}")
    return ParamConfig(k=k, r=r, u=u, q=q, p=p, n=n, c=c, u_ext=u_ext, omega=omega)


def _even_ceil(x: Fraction) -> int:
    return 2 * -(-x // 2)


def doubly_regular_reflection(u: Sequence[Fraction], q: Sequence[int]) -> bool:
    """Some non-Levi root pairs positively and integrally with the shifted
    chamber weight and reflects it to a weight whose entries stay distinct
    within every block (its psi-double-set is nonempty).

    Block s of the shifted chamber weight runs u_s - 1/2, u_s - 3/2, ...,
    u_s + 1/2 - q_s, so each root kind is one closed form on a pair of
    parameters, whose sigma or d must be an integer for the root to pair
    integrally:

    * a same-block plus root, sigma = 2u_s: iff q_s >= 2 and sigma >= q_s + 2,
      or sigma = q_s + 1 with q_s even (the block holds 0, and the root joins
      it to the top entry);
    * a cross-block plus root, s < t, sigma = u_s + u_t: iff
      sigma > max(q_s, q_t) (the two top entries, negated, leave both blocks);
    * a cross-block minus root, s < t, d = u_s - u_t: iff d > 0 and
      q_s - q_t < d (the top of block s and the bottom of block t).
    """
    for s, (us, qs) in enumerate(zip(u, q)):
        sigma = 2 * us
        if sigma.denominator == 1 and qs >= 2:
            if sigma >= qs + 2 or sigma == qs + 1 and qs % 2 == 0:
                return True
        for ut, qt in zip(u[s + 1 :], q[s + 1 :]):
            sigma, d = us + ut, us - ut
            if sigma.denominator == 1 and sigma > max(qs, qt):
                return True
            if d.denominator == 1 and d > 0 and d > qs - qt:
                return True
    return False


def phiA_condition(u: Sequence[Fraction], q: Sequence[int]) -> bool:
    """No cross-block "minus" root pairs positively and integrally with the
    shifted chamber weight.

    The largest such pairing between blocks s < t, the top of s against the
    bottom of t, is d + q_t - 1 with d = u_s - u_t, integral exactly when d
    is.  For a single block this holds vacuously (all minus roots are Levi
    roots).
    """
    return not any(
        (u[s] - u[t]).denominator == 1 and u[s] - u[t] + q[t] > 1
        for s in range(len(u))
        for t in range(s + 1, len(u))
    )


def verify_block_sizes(u: Sequence[Fraction], q: Sequence[int], r: int) -> bool:
    """The post-hoc check on block sizes q, from u and q alone.

    The shifted chamber weight must admit no doubly-regular reflection
    (:func:`doubly_regular_reflection`), and every extended parameter must be
    r-disjoint from each earlier one: a sum or difference of the two that
    is integral must be at least r in absolute value.  The extended
    parameters are u_0..u_{k-1} followed by q_l - u_l for l = k-1, ..., 0.
    """
    k = len(u)
    if doubly_regular_reflection(u, q):
        return False
    ext = list(u) + [q[l] - u[l] for l in reversed(range(k))]
    return all(
        val.denominator != 1 or abs(val) >= r
        for j in range(k, 2 * k)
        for i in range(j)
        for val in (ext[j] + ext[i], ext[j] - ext[i])
    )


def select_block_sizes(u: Sequence[Fraction], r: int) -> list[int]:
    """Deterministically choose block sizes q_1..q_k.

    Rule: every q is even (so n = sum q is automatically even).  Parameters
    with equal frac(u), that is with an integral difference, are staggered
    above a common base: sorted by (parameter value, index), each q exceeds
    the one before by the even ceiling of the value gap + r + 2.  With M the
    largest positive integral sum u_s + u_t (s = t allowed; 0 if none), the
    bases from the even ceiling of r up to base0 = 2r + 4 + 2M are tried in
    turn, two apart, and the first whose choice passes
    :func:`verify_block_sizes` wins.

    The walk starts where the verdict can first accept: q_l is the integral
    sum of the extended parameters u_l and q_l - u_l, so r-disjointness needs
    q_l >= r.  Every q >= r fits every shape, whose head and tail put
    len(head) + len(tail) <= r entries in a block.

    base0 always verifies, so the loop needs no retries.  Each bullet names
    the closed form that checks it (:func:`doubly_regular_reflection`, then
    the r-disjointness of :func:`verify_block_sizes`).

    * The cross-block minus form, d = u_s - u_t > 0 with q_s - q_t < d: d is
      an integer only when frac(u_s) = frac(u_t), and there the stagger
      gives q_s - q_t >= d + r + 2 instead, at every base.
    * The cross-block plus form, sigma = u_s + u_t > max(q_s, q_t), and the
      same-block plus form, which needs sigma = 2u_s >= q_s + 1: each needs a
      positive integral sum, at most M, to exceed a q, and every q at base0
      exceeds M.
    * r-disjointness of the extension u, q_{k-1} - u_{k-1}, ..., q_0 - u_0,
      by the same two bounds.  An integral sum or difference is one of:
      q_l; q_l - (u_l - u_m), integral only for equal frac(u), so at least
      q_l or, by the stagger, q_m + r + 2; q_l - (u_l + u_m), at least
      q_l - M >= 2r + 4; a sum q_l + q_m - (u_l + u_m) >= 4r; or
      (q_l - q_m) - (u_l - u_m), integral only for equal frac(u), so at
      least r + 2 in absolute value by the stagger.

    ``RetryExhausted`` after the loop would mean an implementation bug.
    The walk stops with ``BlockSizesTooLarge`` at the first candidate whose
    largest block exceeds ``MAX_BLOCK_SIZE``, so only an input whose first
    verified choice would pass the bound is refused, after at most
    ``MAX_BLOCK_SIZE / 2`` candidates.

    >>> select_block_sizes([Fraction(0)], 3)
    [4]
    >>> select_block_sizes([Fraction(1, 3)], 2)
    [2]
    >>> select_block_sizes([Fraction(4, 3), Fraction(-4, 3)], 4)
    [4, 4]
    """
    if not u or r < 1:
        raise ValueError(f"need at least one parameter and r >= 1, got {len(u)} and r={r}")
    sums = [a + b for s, a in enumerate(u) for b in u[s:]]
    int_sum_bound = max((int(x) for x in sums if x.denominator == 1 and x > 0), default=0)
    order = sorted(range(len(u)), key=lambda i: (u[i] % 1, u[i], i))
    offsets = [0] * len(u)
    for prev, idx in zip(order, order[1:]):
        if u[idx] % 1 == u[prev] % 1:
            offsets[idx] = offsets[prev] + _even_ceil(u[idx] - u[prev] + r + 2)
    base0 = 2 * r + 4 + 2 * int_sum_bound
    for base in range(_even_ceil(r), base0 + 1, 2):
        q = [base + offset for offset in offsets]
        if max(q) > MAX_BLOCK_SIZE:
            raise BlockSizesTooLarge(
                f"block-size selection at r={r} would try blocks past {MAX_BLOCK_SIZE} "
                "coordinates, the largest supported"
            )
        if verify_block_sizes(u, q, r):
            return q
    raise RetryExhausted(
        f"no verified block sizes for u={u}, r={r} up to base {base0} "
        "(this indicates an implementation bug, not a mathematical obstruction)"
    )


def build_config(u: Sequence[Fraction], r: int) -> ParamConfig:
    """Convenience: select block sizes and extend the parameters."""
    return extend_parameters(u, select_block_sizes(u, r), r)


def u_from_delta(delta: Fraction) -> Fraction:
    """The u_1 whose level-one diagram algebra has loop parameter delta = 1 - 2 u_1."""
    return (1 - delta) / 2
