"""Exact parameter arithmetic for the cyclotomic Brauer algebra pipeline.

Everything is a :class:`fractions.Fraction`.  The module provides

* the admissibility generating series (``omega_series``),
* the r-disjointness predicate on scalar pairs,
* the "some low omega is nonzero" criterion (``simple_param_condition``),
  computed along two independent routes that are checked to agree,
* deterministic block-size selection with post-hoc verification
  (``select_block_sizes``), and
* the parameter extension u_1..u_k -> u_1..u_2k (``extend_parameters``),
  packaged into an immutable :class:`ParamConfig`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence


class RetryExhausted(Exception):
    """Block-size selection failed verification after bounded retries."""


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" into an exact rational."""
    return Fraction(text.strip())


def format_rational(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# admissibility series
# ---------------------------------------------------------------------------


def omega_series(v: Sequence[Fraction], N: int) -> list[Fraction]:
    """Coefficients omega_0..omega_N of the admissibility generating function.

    The series expands, in powers of 1/u at u = infinity,

        (u - e) * prod_i (u + v_i) / (u - v_i)  -  u  +  1/2,

    where e = 1/2 for an even number of parameters and -1/2 for an odd one.
    Writing t = 1/u, each factor (u+v)/(u-v) = (1+vt)/(1-vt) contributes the
    series 1 + 2vt + 2v^2 t^2 + ...; with P(t) the truncated product,
    omega_a = p_{a+1} - e*p_a (+ 1/2 when a = 0).

    >>> omega_series([Fraction(3, 2)], 0)
    [Fraction(4, 1)]
    >>> omega_series([Fraction(0)], 0)
    [Fraction(1, 1)]
    """
    v = [Fraction(x) for x in v]
    if not v:
        raise ValueError("need at least one parameter")
    if N < 0:
        raise ValueError(f"highest omega index must be >= 0, got {N}")
    k = len(v)
    e = Fraction((-1) ** k, 2)
    # truncated product of per-parameter series, degrees 0..N+1
    prod = [Fraction(0)] * (N + 2)
    prod[0] = Fraction(1)
    for vi in v:
        factor = [Fraction(1)] + [2 * vi**m for m in range(1, N + 2)]
        new = [Fraction(0)] * (N + 2)
        for a, pa in enumerate(prod):
            if pa == 0:
                continue
            for b in range(N + 2 - a):
                new[a + b] += pa * factor[b]
        prod = new
    out = []
    for a in range(N + 1):
        w = prod[a + 1] - e * prod[a]
        if a == 0:
            w += Fraction(1, 2)
        out.append(w)
    return out


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


def _poly_mul(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def simple_param_condition(u: Sequence[Fraction], k: int) -> bool:
    """True iff some omega_i with i < k is nonzero for the sign-twisted parameters.

    Two independent routes are evaluated and checked to agree: a polynomial
    identity in one variable must *fail*, equivalently the truncated series
    omega_0..omega_{k-1} of the sign-twisted parameters has a nonzero entry.

    >>> simple_param_condition([Fraction(1, 2)], 1)
    False
    >>> simple_param_condition([Fraction(0)], 1)
    True
    """
    u = [Fraction(x) for x in u]
    if len(u) != k or k < 1:
        raise ValueError(f"expected k = {k} >= 1 parameters, got {len(u)}")
    sign = (-1) ** k
    # polynomial route: (x - 1/2) prod (x - sign*u_i) vs (x - sign/2) prod (x + sign*u_i)
    lhs = [Fraction(-1, 2), Fraction(1)]
    rhs = [Fraction(-sign, 2), Fraction(1)]
    for ui in u:
        lhs = _poly_mul(lhs, [-sign * ui, Fraction(1)])
        rhs = _poly_mul(rhs, [sign * ui, Fraction(1)])
    poly_route = lhs != rhs
    # series route
    series_route = any(w != 0 for w in omega_series([sign * ui for ui in u], k - 1))
    if poly_route != series_route:
        raise AssertionError(
            f"internal inconsistency between the polynomial and series criteria at u={u}"
        )
    return series_route


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
            "u": [format_rational(x) for x in self.u],
            "q": list(self.q),
            "p": list(self.p),
            "n": self.n,
            "c": [format_rational(x) for x in self.c],
            "u_ext": [format_rational(x) for x in self.u_ext],
            "omega": [format_rational(x) for x in self.omega],
        }


def extend_parameters(u: Sequence[Fraction], q: Sequence[int], p: Sequence[int], r: int) -> ParamConfig:
    """Fill in offsets c, the 2k extended parameters, and the omega series.

    The extended parameters satisfy u_{k+m} = q_l - u_l with l = k - m + 1,
    so the zeroth series coefficient of the extension is 2*sum(q) = 2n; this
    invariant is checked.
    """
    u = tuple(Fraction(x) for x in u)
    q = tuple(int(x) for x in q)
    k = len(u)
    if len(q) != k or not all(qi > 0 for qi in q):
        raise ValueError(f"q must be {k} positive block size(s), got {q}")
    p = tuple(int(x) for x in p)
    if len(p) != k + 1 or p[0] != 0 or any(p[j] != p[j - 1] + q[j - 1] for j in range(1, k + 1)):
        raise ValueError(f"p must be the prefix sums of q = {q}, got {p}")
    n = p[k]
    c = tuple(u[j] + p[j] - n + Fraction(1, 2) for j in range(k))
    u_ext = u + tuple(-c[2 * k - j] + p[2 * k - j + 1] - n + Fraction(1, 2) for j in range(k + 1, 2 * k + 1))
    omega = tuple(omega_series(u_ext, 2 * k))
    if omega[0] != 2 * n:
        raise AssertionError(f"omega_0 = {omega[0]} != 2n = {2 * n}")
    return ParamConfig(k=k, r=int(r), u=u, q=q, p=p, n=n, c=c, u_ext=u_ext, omega=omega)


def verify_disjoint_extension(cfg: ParamConfig) -> bool:
    """Each extended parameter must be r-disjoint from all earlier ones."""
    for j in range(cfg.k, 2 * cfg.k):
        for i in range(j):
            if not is_r_disjoint(cfg.u_ext[j], cfg.u_ext[i], cfg.r):
                return False
    return True


def _even_ceil(x: Fraction) -> int:
    return 2 * math.ceil(Fraction(x) / 2)


def _linkage_classes(u: Sequence[Fraction]) -> list[list[int]]:
    """Group parameter indices whose sums or differences are integral."""
    k = len(u)
    parent = list(range(k))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for s in range(k):
        for t in range(s + 1, k):
            if (u[s] - u[t]).denominator == 1 or (u[s] + u[t]).denominator == 1:
                parent[find(s)] = find(t)
    groups: dict[int, list[int]] = {}
    for i in range(k):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def select_block_sizes(u: Sequence[Fraction], k: int, r: int) -> tuple[list[int], list[int]]:
    """Deterministically choose block sizes q_1..q_k (and boundaries p).

    Rule: every q is even (so n = sum q is automatically even) and at least
    2r, so every shape fits (len(head) + len(tail) <= r).  Within each class
    of parameters linked by integral sums/differences the q's are staggered
    (sorted by parameter value) above a common base so that differences of
    extended parameters clear the +-r band.  Each choice is verified post
    hoc — the constant chamber weight must admit no doubly-regular
    reflection (its psi-double-set must be empty) and the extension must be
    r-disjoint — and the first base that verifies wins.  The bases tried are
    2r, 2r + 2, ... below 2r + 4 + 2 * (largest integral positive parameter
    sum), then that base and at most 8 uniform inflations of base and
    stagger; q never exceeds the first of these that verifies.

    >>> select_block_sizes([Fraction(0)], 1, 3)
    ([6], [0, 6])
    >>> select_block_sizes([Fraction(1, 3)], 1, 2)
    ([4], [0, 4])
    """
    from . import weights  # deferred: weights needs ParamConfig from this module

    u = [Fraction(x) for x in u]
    if len(u) != k or k < 1 or r < 1:
        raise ValueError(f"need k = {k} >= 1 parameters and r >= 1, got {len(u)} and r={r}")
    int_sum_bound = 0
    for s in range(k):
        for t in range(s, k):
            tot = u[s] + u[t]
            if tot.denominator == 1 and tot > 0:
                int_sum_bound = max(int_sum_bound, int(tot))
    classes = _linkage_classes(u)
    base0 = 2 * r + 4 + 2 * int_sum_bound
    # (base, stagger inflation): the small bases first, then the retries
    candidates = [(base, 0) for base in range(2 * r, base0, 2)]
    candidates += [(base0 + 2 * a * (r + 2 + int_sum_bound), a) for a in range(9)]

    for base, attempt in candidates:
        q = [0] * k
        for group in classes:
            members = sorted(group, key=lambda i: (u[i], i))
            offset = 0
            for pos, idx in enumerate(members):
                if pos > 0:
                    prev = members[pos - 1]
                    gap = u[idx] - u[prev]
                    offset += _even_ceil(gap + r + 2 + 2 * attempt)
                q[idx] = base + offset
        p = [0] * (k + 1)
        for j in range(k):
            p[j + 1] = p[j] + q[j]
        cfg = extend_parameters(u, q, p, r)
        ctx = weights.WeightContext(cfg.n, tuple(p))
        lam_c = weights.lambda_c(cfg)
        _, psi_pp = weights.psi_sets(lam_c, ctx)
        if not psi_pp and verify_disjoint_extension(cfg):
            return q, p
    raise RetryExhausted(
        f"no verified block sizes for u={u}, r={r} after 8 inflation retries "
        "(this indicates an implementation bug, not a mathematical obstruction)"
    )


def build_config(u: Sequence[Fraction], r: int, q: Sequence[int] | None = None) -> ParamConfig:
    """Convenience: select (or accept) block sizes and extend the parameters."""
    u = [Fraction(x) for x in u]
    k = len(u)
    if q is None:
        q, p = select_block_sizes(u, k, r)
    else:
        q = [int(x) for x in q]
        if len(q) != k:
            raise ValueError(f"expected {k} block size(s), got {len(q)}")
        p = [0] * (k + 1)
        for j in range(k):
            p[j + 1] = p[j] + q[j]
    return extend_parameters(u, q, p, r)


def delta_from_u(u1: Fraction) -> Fraction:
    """The level-one diagram-algebra loop parameter for a given u_1."""
    return 1 - 2 * Fraction(u1)


def u_from_delta(delta: Fraction) -> Fraction:
    """Inverse of :func:`delta_from_u`."""
    return (1 - Fraction(delta)) / 2
