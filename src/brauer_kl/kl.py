"""Exact antispherical Kazhdan-Lusztig engine for type D_n with type-A Levi.

Basis symbols N_x are indexed by shifted weights x = mu + rho, strictly
decreasing within every Levi block.  Every weight here is the integer tuple
scale * x over the weight family's common denominator, the same tuples as
``Family.numerators``: blocks carry them, the engine takes and returns them
and the tilting tables are keyed by them, though the tables read the
engine's packed states and decode a state only for a ``"direct"`` row
outside the block or to name a refused weight.  The recursion's state is
not the weight: it is the placement of value tokens (the absolute values of
the seed's numerators, in falling order) into Levi blocks, each carrying a
sign.  Token i's code 2 * (Levi block) + sign fills bit field i of one int,
(2k - 1).bit_length() bits wide, and that int is the state, the key of the
element memo and the image a move returns.  The Hecke generators act on
tokens, not on coordinate positions (the action is right multiplication on
Levi cosets, so it reads through the base point):

* a swap generator exchanges the placements of two magnitude-adjacent tokens
  in the same integrality class;
* the negating generator of each integrality class exchanges the class's two
  smallest tokens and flips both signs.

When a generator fixes the state, the sign-induced module kills the product
(a Levi move).  Otherwise the image y differs from x by one wall and

    N_x . C = N_y + v^{+-1} N_x,

with exponent +1 exactly when y is dominance-lower than x.  The identity
coset is the dominance-maximal state of the orbit; canonical basis elements
are built by ascending recursion from it (multiply the previously computed
element at a descent by the generator element C, subtract degree-0 excesses),
so every element's off-diagonal support climbs the dominance order:
b(x) = N_x + sum over y > x of n_{x,y} N_y with n_{x,y} in v*Z[v].

Zero tokens carry no visible sign; the engine tracks the hidden sign through
the type-D flip-parity invariant of the orbit, which is what makes the
generator tables match honest signed-permutation bookkeeping (they were
frozen against brute-forced W(D_4) and W(D_5) coset modules in the tests).

The exponent is read off the codes of the two moved tokens alone: adjacent
states differ by a multiple of one root, so their first differing
coordinate decides.  It lies in the earlier Levi block of the two tokens
(the higher token's when they share one), where the other token takes this
"holder" token's place, and e = +1 exactly when the value there falls:
when (holder positive) == (the move negates or the holder is the higher
token).  So moves and the element memo read no token value (the
translation principle: Cox-De Visscher-Martin, JPAA 215, 2011; Soergel,
Represent. Theory 1, 1997), and engines of one Coxeter shape share one
core, keyed by (context, generators, zero class): the element memo on
packed states.  The pipeline keeps the cores in its family's store
(``weights.Family.cores``), so every block of a command and both KL
conventions read one core per shape, and no element is computed twice.  A
move is not stored: each request computes its image and exponent, or
"fixed", from the two moved fields.

A wall block (one vanishing pairing x_i = -x_j = a) is read off the
canonical basis of its regular companion, whose tokens split the doubled
value into a+1 and a.  Each support entry folds onto the wall by the codes
of those two tokens alone.  :func:`tilting_table` reads every non-singleton
block along that one path: a regular block is its own companion, read with
no fold.  A refusal names its weight as mu through ``weights.weight_name``.

Blocks are linkage classes: weights sharing, per integrality class of the
token values, the multiset of absolute values of x = mu + rho together with
the negative-entry parity when the class has no zero token.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .laurent import LaurentPoly
from .weights import (
    Family,
    Numerators,
    Weight,
    WeightContext,
    blockwise_decreasing,
    context_of,
    dominance_sort_key,
    is_singular,
    weight_name,
    weight_of,
)

NVector = dict[Numerators, LaurentPoly]


class ClosedWorldViolation(Exception):
    """Dynamic block extension exceeded the weight bound ``MAX_WEIGHTS``."""

    exit_code = 5


# the elements one engine core may hold before its recursion is refused
MAX_WEIGHTS = 200_000


class UnsupportedBlock(ValueError):
    """A singular linkage block that no table here can read.

    Carries the offending ``weight`` (its numerators) and the ``reason`` it
    is refused; the message names the weight by ``name``.
    """

    exit_code = 5

    def __init__(self, weight: Numerators, reason: str, name: str):
        super().__init__(f"{reason} at {name}")
        self.weight = weight
        self.reason = reason


def _unsupported(x: Numerators, scale: int, reason: str) -> UnsupportedBlock:
    """The refusal of the weight with numerators x, named by :func:`weight_name`."""
    return UnsupportedBlock(x, reason, weight_name(x, scale))


_TIED_COORDINATES = "the engine supports no weight with two equal coordinates"
_NEGATIVE_FIRST = "wall reduction supports no wall pair with its negative member first"


# Frozen by the level-one diagram-algebra cross-check (k = 1, r <= 3,
# delta in {1, 2, -2}): the unique pair reconciling every run.
PINNED_KL_CONVENTION = "mirror"
PINNED_CONJUGATE_CONVENTION = "transpose"


def resolve_convention(convention: str | None) -> str:
    """The tilting convention: ``None`` reads the frozen pin at call time,
    and anything but ``"direct"`` or ``"mirror"`` is a ``ValueError``."""
    if convention is None:
        convention = PINNED_KL_CONVENTION
    if convention not in ("direct", "mirror"):
        raise ValueError(f"unknown tilting convention: {convention!r}")
    return convention


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


def singular_pairs(x: Sequence) -> list[tuple[int, int]]:
    """Coordinate pairs (i, j), i < j, with x_i = -x_j != 0, on any shifted
    weight (rationals, or numerators over a common denominator).

    Each pair is a reflection s_{e_i + e_j} fixing x; the pairing with that
    root is 0, hence integral, so any such pair makes x singular for the
    integral Weyl group.  Weights are strictly decreasing within every
    context block, but two blocks may share a coordinate once saturation is
    waived (``decompose --k 2 --u 0,0 --assume-saturated``); such ties are
    not pairs here, and the tables refuse them (``_TIED_COORDINATES``).
    """
    return [
        (i, j)
        for i in range(len(x))
        for j in range(i + 1, len(x))
        if x[i] != 0 and x[i] == -x[j]
    ]


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


class TokenMove(NamedTuple):
    """A simple generator in token form, on indices into the engine's tokens.

    ``negate`` False: exchange the placements (Levi block and sign) of the
    two tokens; True: exchange and flip both signs (the type-D node of the
    token class).
    """

    high: int
    low: int
    negate: bool


StateVector = dict[int, LaurentPoly]  # N-basis expansion over packed states
_V = {1: LaurentPoly.v(1), -1: LaurentPoly.v(-1)}


class CanonicalBasisEngine:
    """Lazy, memoized canonical-basis computation on one linkage class.

    All weights handled by one engine must share a canonical form; the token
    set, integrality classes, and generator list are computed once from a
    seed and reused.  The seed and every weight passed in or out are
    numerator tuples scale * (mu + rho) at the one ``scale`` given here.
    The engine keeps that codec to packed states; its element memo is the
    core its shape keys in the store ``cores``, and ``MAX_WEIGHTS`` bounds
    the elements of the whole core.  The core reads no token value, so it
    serves every engine of its shape.
    """

    def __init__(self, ctx: WeightContext, seed: Numerators, scale: int, cores: dict):
        self.ctx = ctx
        self.scale = scale
        if is_singular(seed):
            raise ValueError(
                f"seed weight is singular (repeated |value|): {weight_name(seed, scale)}"
            )
        self.tokens = tokens = tuple(sorted((abs(a) for a in seed), reverse=True))
        self.key = canonical_form(seed, scale)
        classes: dict[int, list[int]] = {}
        for i, t in enumerate(tokens):  # descending
            classes.setdefault(t % scale, []).append(i)
        # generators per integrality class: magnitude-adjacent swaps plus the
        # class's negating node on its two smallest tokens
        moves = []
        for cls in classes.values():
            moves.extend(TokenMove(hi, lo, False) for hi, lo in zip(cls, cls[1:]))
            if len(cls) >= 2:
                moves.append(TokenMove(cls[-2], cls[-1], True))
        self.moves: tuple[TokenMove, ...] = tuple(moves)
        # the zero token's hidden sign completes its class to even flip parity
        zero = next((tuple(c) for c in classes.values() if tokens[c[-1]] == 0), None)
        self._zero_class = zero
        self._index = {t: i for i, t in enumerate(tokens)}
        # bits per token code, 2 * Levi block + sign <= 2k - 1
        self._width = (2 * ctx.k - 1).bit_length()
        self._mask = (1 << self._width) - 1
        # the shape's core: the element memo, keyed by packed state
        self._b = cores.setdefault((ctx, self.moves, zero), {})

    # -- state codec (the numerator boundary) ---------------------------------

    def _field(self, s: int, i: int) -> int:
        """Token i's code in the packed state s."""
        return s >> i * self._width & self._mask

    def _state_id(self, x: Numerators) -> int:
        """Pack a shifted weight of this linkage class, sorted within blocks."""
        if canonical_form(x, self.scale) != self.key:
            raise ValueError(f"state off the linkage class: {weight_name(x, self.scale)}")
        if not blockwise_decreasing(x, self.ctx):
            raise ValueError(f"not sorted: {weight_name(x, self.scale)}")
        code = [0] * len(self.tokens)
        for bi, (start, end) in enumerate(self.ctx.blocks()):
            for c in x[start:end]:
                code[self._index[abs(c)]] = 2 * bi + (c < 0)
        if self._zero_class is not None:
            code[self._zero_class[-1]] |= sum(code[i] & 1 for i in self._zero_class) % 2
        return sum(c << i * self._width for i, c in enumerate(code))

    def _numerators(self, s: int) -> Numerators:
        """The numerators of a state, descending within each Levi block: its
        positive tokens by falling magnitude, then its negative ones by
        rising magnitude (tokens are indexed by falling magnitude)."""
        tokens = self.tokens
        pos: list[list[int]] = [[] for _ in range(self.ctx.k)]
        neg: list[list[int]] = [[] for _ in range(self.ctx.k)]
        for i in range(len(tokens)):
            code = self._field(s, i)
            (neg if code & 1 else pos)[code >> 1].append(i)
        out = []
        for up, down in zip(pos, neg):
            out.extend(tokens[i] for i in up)
            out.extend(-tokens[i] for i in reversed(down))
        return tuple(out)

    def _name(self, s: int) -> str:
        return weight_name(self._numerators(s), self.scale)

    def _read(self, vec: StateVector) -> NVector:
        return {self._numerators(z): p for z, p in vec.items()}

    # -- moves ----------------------------------------------------------------

    def apply_move(self, s: int, g: int):
        """The move of state s under generator index g, computed afresh.

        None when g fixes the state (a Levi move); otherwise (image, e) with
        N_s . C_g = N_image + v^e N_s.  The image swaps the two moved fields
        (and flips both signs when g negates), and e = +1 exactly when the
        image is dominance-lower, read off the two codes at their holder as
        the module docstring says.
        """
        m = self.moves[g]
        shift_hi, shift_lo = m.high * self._width, m.low * self._width
        hi, lo = s >> shift_hi & self._mask, s >> shift_lo & self._mask
        flip = hi ^ lo ^ m.negate
        if not flip:
            return None
        high_holds = hi >> 1 <= lo >> 1
        positive = not (hi if high_holds else lo) & 1
        e = 1 if positive == (m.negate or high_holds) else -1
        return s ^ (flip << shift_hi | flip << shift_lo), e

    # -- module structure ---------------------------------------------------

    def generator_action(self, g: int, vec: StateVector) -> StateVector:
        """Apply the generator element C_g to an N-basis expansion."""
        out: StateVector = {}
        for z, p in vec.items():
            entry = self.apply_move(z, g)
            if entry is None:
                continue
            y, e = entry
            cur = out.get(y)
            out[y] = p if cur is None else cur + p
            q = p * _V[e]
            cur = out.get(z)
            out[z] = q if cur is None else cur + q
        return {z: p for z, p in out.items() if p}

    def _ascent(self, s: int) -> tuple[int, int] | None:
        for g in range(len(self.moves)):
            entry = self.apply_move(s, g)
            if entry is not None and entry[1] < 0:
                return g, entry[0]
        return None

    def basis_element(self, x: Numerators) -> NVector:
        """The canonical basis element at x, as {z: coefficient of N_z}.

        Off-diagonal support sits strictly above x in the dominance order,
        with coefficients in v*Z[v].
        """
        return self._read(self._element(self._state_id(x)))

    def _element(self, x: int) -> StateVector:
        cached = self._b.get(x)
        if cached is not None:
            return cached
        if len(self._b) > MAX_WEIGHTS:
            raise ClosedWorldViolation(
                f"canonical-basis recursion touched more than {MAX_WEIGHTS} weights; "
                "the block enumeration is likely wrong"
            )
        asc = self._ascent(x)
        if asc is None:
            result: StateVector = {x: LaurentPoly.one()}
        else:
            g, y = asc
            vec = self.generator_action(g, self._element(y))
            # strip degree-0 excesses; higher canonical elements have no
            # constant terms off their diagonal, so one pass suffices
            for z in [z for z in vec if z != x]:
                m = vec[z].coeff(0)
                if m == 0:
                    continue
                for w, p in self._element(z).items():
                    vec[w] = vec.get(w, LaurentPoly.zero()) - m * p
            result = {z: p for z, p in vec.items() if p}
            if result.get(x) != LaurentPoly.one():
                raise AssertionError(
                    f"canonical basis element at {self._name(x)} is not unitriangular"
                )
            for z, p in result.items():
                if z != x and not p.in_positive_part():
                    raise AssertionError(
                        f"off-diagonal entry {p} at {self._name(z)} not in v*Z[v]"
                    )
        self._b[x] = result
        return result


def tilting_table(
    block: Block, convention: str, cores: dict
) -> dict[tuple[Numerators, Numerators], int]:
    """Tilting multiplicities keyed (lam, mu) = (T(mu) : M(lam)), both given
    by their numerators at the block's scale, nonzero values only.  The
    block's engine takes its core from the store ``cores``; the pipeline
    passes its family's, ``weights.Family.cores``.

    The ambient rank is even, so the longest-element twist in the Verma-flag
    character duality is plain negation and the only residual freedom is the
    order of indices.  ``convention``, as the caller resolved it
    (:func:`resolve_convention`), selects between the two readings:

    * ``"direct"``: (T(mu) : M(lam)) = n[mu][lam](1) — expand the canonical
      basis element at mu and read the coefficient of N at lam;
    * ``"mirror"``: (T(mu) : M(lam)) = n[lam][mu](1) — the same table with
      the indices swapped, equivalently the direct reading conjugated by the
      negation twist on both arguments.

    Under ``"mirror"`` only member ids key an entry, supported on lam <= mu
    as a flag of highest-weight modules must be; the choice is pinned by the
    diagram-algebra cross-check and then frozen in configuration.  Under
    ``"direct"`` a support outside the block is kept too, decoded as a row
    for the peel's escape check.

    Every non-singleton block is read along one path: its members share
    their absolute values, so the first routes it.  Each member is packed at
    a basis state, whose element is expanded, and a kept state, which keys
    the member in those elements' supports.  A regular block is its own
    companion: both states are the member itself, and nothing folds.  Two
    equal coordinates are refused.

    A wall block is read off its regular companion.  Every weight of it is
    fixed by exactly one reflection s_{e_i + e_j}: the shifted weight
    carries one pair x_i = -x_j = a > 0, with the positive member first.
    Translation onto/off that wall identifies the block with a regular
    linkage class, the companion, whose tokens are the wall tokens with the
    doubled value a split into a+1 (token t_hi) and a (token t_lo), every
    larger token raised by one.  A wall weight has two companion lifts: the
    upper one puts the positive member of the pair on t_hi, the lower one on
    t_lo.  The multiplicity dictionary reads the standard index at the lower
    (dominance-lower) lift and the tilting index at the upper one:

        (T(mu) : M(lam))  =  (T(lift_hi(mu)) : M(lift_lo(lam))).

    (The two-weight wall blocks reachable at r = 3 cannot tell this apart
    from the hi/hi reading; four-weight blocks at r = 4 pin it — the hi/hi
    reading loses the corner entry the diagram oracle demands.)

    So the basis and kept states are a member's two lifts, and each support
    entry folds onto the wall by the codes of t_hi and t_lo alone.  Equal
    signs cross a Levi wall and vanish under translation; otherwise the sign
    of t_hi says which lift the entry is, and only the representative the
    dictionary reads is kept.  A support decoded off the wall inverts the
    lift: t_hi and t_lo both read a, larger tokens drop by one.
    """
    scale = block.scale
    x0 = block.numerators[0]
    # the basis index plays the tilting role under "direct" (expand at the
    # upper lift, keep supports at lower lifts) and the standard role under
    # "mirror" (expand at the lower lift, keep supports at upper lifts)
    basis_upper = convention == "direct"
    wall = singular_pairs(x0)
    lifts = []  # per member: its basis lift, then its kept lift (itself when regular)
    if not wall:
        if len(set(x0)) < len(x0):
            raise _unsupported(x0, scale, _TIED_COORDINATES)
        for x in block.numerators:
            lifts += (x, x)
    else:
        a = abs(x0[wall[0][0]])
        hi, lo = a + scale, a  # the companion tokens t_hi and t_lo
        for x in block.numerators:
            found = singular_pairs(x)
            if len(found) != 1:
                reason = "wall reduction supports exactly one vanishing pairing"
                raise _unsupported(x, scale, f"{reason}, found {len(found)}")
            if len(set(x)) < len(x):
                raise _unsupported(x, scale, _TIED_COORDINATES)
            ((i, j),) = found
            if x[i] < 0:
                raise _unsupported(x, scale, _NEGATIVE_FIRST)
            if x[i] != a:
                values = ", ".join(str(Fraction(b, scale)) for b in sorted((a, x[i])))
                raise ValueError(f"wall block mixes doubled values [{values}]")
            lift = [c + scale if c > a else c - scale if c < -a else c for c in x]
            for upper in (basis_upper, not basis_upper):
                lift[i], lift[j] = (hi, -lo) if upper else (lo, -hi)
                lifts.append(tuple(lift))
    engine = CanonicalBasisEngine(block.ctx, lifts[0], scale, cores)
    packed = [engine._state_id(lift) for lift in lifts]
    kept = dict(zip(packed[1::2], block.numerators))
    if wall:
        t_hi, t_lo = engine._index[hi], engine._index[lo]

    out: dict[tuple[Numerators, Numerators], int] = {}
    for s, w in zip(packed[::2], block.numerators):
        for z, p in engine._element(s).items():
            refused = False
            if wall:
                # every state places both tokens, each with one sign (code & 1)
                hi_code, lo_code = engine._field(z, t_hi), engine._field(z, t_lo)
                if not (hi_code ^ lo_code) & 1:
                    continue  # both on one side: crosses a Levi wall, killed by translation
                hi_positive = not hi_code & 1
                # a negative member first sits in an earlier Levi block (within
                # one the positive comes first): its code 2 * block + 1 is smaller
                refused = (lo_code < hi_code) == hi_positive
                if not refused and hi_positive == basis_upper:
                    continue  # the other coset representative: not part of the dictionary
            val = p.evaluate_at_one()
            y = kept.get(z)
            if refused or (y is None and basis_upper and val):
                # decoded to name a refusal or a direct row outside the block
                y = engine._numerators(z)
                if wall:  # the lift inverted (no companion token lies in (t_lo, t_hi))
                    y = tuple(c - scale if c > a else c + scale if c < -a else c for c in y)
                if refused:
                    raise _unsupported(y, scale, _NEGATIVE_FIRST)
            if val and y is not None:  # "direct": w plays mu, y lam; "mirror": the reverse
                out[(y, w) if basis_upper else (w, y)] = val
    return out


# perfbench/traced_cli.py rebinds this name, so it stays bound to the one table function
singular_reduction_table = tilting_table
