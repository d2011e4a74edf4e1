"""Canonical-basis engine: frozen Coxeter tables, involutions, conventions.

The two D_4 fixtures below were computed by an independent brute force over
honest signed-permutation words (minimal coset representatives for the full
type-A Levi, genuine bar involution, canonical basis by degree completion)
and frozen here; the engine must reproduce them coefficient for coefficient.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import accumulate
from math import lcm

import pytest

import brauer_kl
from brauer_kl import kl, pipeline
from brauer_kl.cli import main
from brauer_kl.laurent import LaurentPoly
from brauer_kl.params import build_config, extend_parameters, u_from_delta
from brauer_kl.weights import (
    Block,
    WeightContext,
    canonical_form,
    context_of,
    dominance_less,
    dominance_sort_key,
    family_table,
    partition_into_blocks,
    rho,
)
from verify_routes import BarInvolution, delta, lambda_c, numerators, reference_family, shift

F = Fraction

D4 = WeightContext(4, (0, 4))


def freeze(entries):
    """{x: {support: poly-dict}} with the diagonal 1 left implicit."""
    return {
        tuple(map(F, x)): {tuple(map(F, z)): LaurentPoly(p) for z, p in row.items()}
        for x, row in entries.items()
    }


def numerate(table):
    """The common denominator of a frozen table and the table on the
    numerators over it, the engine's weights."""
    scale = lcm(*(a.denominator for x in table for a in x))

    def nums(x):
        return tuple(int(a * scale) for a in x)

    return scale, {nums(x): {nums(z): p for z, p in row.items()} for x, row in table.items()}


# canonical basis of the W(D_4) antispherical zero orbit, x = mu + rho over
# tokens {3, 2, 1, 0}; states listed by increasing length
D4_INTEGER_TABLE = freeze(
    {
        (3, 2, 1, 0): {},
        (3, 2, 0, -1): {(3, 2, 1, 0): {1: 1}},
        (3, 1, 0, -2): {(3, 2, 0, -1): {1: 1}},
        (2, 1, 0, -3): {(3, 1, 0, -2): {1: 1}},
        (3, 0, -1, -2): {(3, 1, 0, -2): {1: 1}},
        (2, 0, -1, -3): {
            (3, 1, 0, -2): {2: 1},
            (2, 1, 0, -3): {1: 1},
            (3, 0, -1, -2): {1: 1},
        },
        (1, 0, -2, -3): {
            (3, 2, 0, -1): {2: 1},
            (3, 1, 0, -2): {1: 1},
            (2, 0, -1, -3): {1: 1},
        },
        (0, -1, -2, -3): {
            (3, 2, 1, 0): {2: 1},
            (3, 2, 0, -1): {1: 1},
            (1, 0, -2, -3): {1: 1},
        },
    }
)

# the odd-flip-parity orbit over tokens {7/2, 5/2, 3/2, 1/2} (no zero token,
# so the parity is pinned by the seed rather than hidden on a zero)
H = (F(7, 2), F(5, 2), F(3, 2), F(1, 2))
D4_HALF_INTEGER_TABLE = freeze(
    {
        (H[0], H[1], H[2], -H[3]): {},
        (H[0], H[1], H[3], -H[2]): {(H[0], H[1], H[2], -H[3]): {1: 1}},
        (H[0], H[2], H[3], -H[1]): {(H[0], H[1], H[3], -H[2]): {1: 1}},
        (H[1], H[2], H[3], -H[0]): {(H[0], H[2], H[3], -H[1]): {1: 1}},
        (H[0], -H[3], -H[2], -H[1]): {(H[0], H[2], H[3], -H[1]): {1: 1}},
        (H[1], -H[3], -H[2], -H[0]): {
            (H[0], H[2], H[3], -H[1]): {2: 1},
            (H[1], H[2], H[3], -H[0]): {1: 1},
            (H[0], -H[3], -H[2], -H[1]): {1: 1},
        },
        (H[2], -H[3], -H[1], -H[0]): {
            (H[0], H[1], H[3], -H[2]): {2: 1},
            (H[0], H[2], H[3], -H[1]): {1: 1},
            (H[1], -H[3], -H[2], -H[0]): {1: 1},
        },
        (H[3], -H[2], -H[1], -H[0]): {
            (H[0], H[1], H[2], -H[3]): {2: 1},
            (H[0], H[1], H[3], -H[2]): {1: 1},
            (H[2], -H[3], -H[1], -H[0]): {1: 1},
        },
    }
)


# two integrality classes at once: tokens {5/2, 3/2, 1/2} and {13/6, 7/6, 1/6}
# in two Levi blocks of three, so dominance needs the common denominator 6.
# Computed by the Fraction-placement engine that the integer token states
# replaced; half[i] and sixth[j] are the four placements of each class in its
# Levi block.
MIXED = WeightContext(6, (0, 3, 6))
half = [
    (F(5, 2), F(3, 2), F(1, 2)),
    (F(5, 2), F(-1, 2), F(-3, 2)),
    (F(3, 2), F(-1, 2), F(-5, 2)),
    (F(1, 2), F(-3, 2), F(-5, 2)),
]
sixth = [
    (F(13, 6), F(7, 6), F(1, 6)),
    (F(13, 6), F(-1, 6), F(-7, 6)),
    (F(7, 6), F(-1, 6), F(-13, 6)),
    (F(1, 6), F(-7, 6), F(-13, 6)),
]
MIXED_RESIDUE_TABLE = freeze(
    {
        half[0] + sixth[0]: {},
        half[0] + sixth[1]: {
            half[0] + sixth[0]: {1: 1},
        },
        half[0] + sixth[2]: {
            half[0] + sixth[1]: {1: 1},
        },
        half[0] + sixth[3]: {
            half[0] + sixth[2]: {1: 1},
        },
        half[1] + sixth[0]: {
            half[0] + sixth[0]: {1: 1},
        },
        half[1] + sixth[1]: {
            half[0] + sixth[1]: {1: 1},
            half[1] + sixth[0]: {1: 1},
            half[0] + sixth[0]: {2: 1},
        },
        half[1] + sixth[2]: {
            half[0] + sixth[2]: {1: 1},
            half[1] + sixth[1]: {1: 1},
            half[0] + sixth[1]: {2: 1},
        },
        half[1] + sixth[3]: {
            half[0] + sixth[3]: {1: 1},
            half[1] + sixth[2]: {1: 1},
            half[0] + sixth[2]: {2: 1},
        },
        half[2] + sixth[0]: {
            half[1] + sixth[0]: {1: 1},
        },
        half[2] + sixth[1]: {
            half[1] + sixth[1]: {1: 1},
            half[2] + sixth[0]: {1: 1},
            half[1] + sixth[0]: {2: 1},
        },
        half[2] + sixth[2]: {
            half[1] + sixth[2]: {1: 1},
            half[2] + sixth[1]: {1: 1},
            half[1] + sixth[1]: {2: 1},
        },
        half[2] + sixth[3]: {
            half[1] + sixth[3]: {1: 1},
            half[2] + sixth[2]: {1: 1},
            half[1] + sixth[2]: {2: 1},
        },
        half[3] + sixth[0]: {
            half[2] + sixth[0]: {1: 1},
        },
        half[3] + sixth[1]: {
            half[2] + sixth[1]: {1: 1},
            half[3] + sixth[0]: {1: 1},
            half[2] + sixth[0]: {2: 1},
        },
        half[3] + sixth[2]: {
            half[2] + sixth[2]: {1: 1},
            half[3] + sixth[1]: {1: 1},
            half[2] + sixth[1]: {2: 1},
        },
        half[3] + sixth[3]: {
            half[2] + sixth[3]: {1: 1},
            half[3] + sixth[2]: {1: 1},
            half[2] + sixth[2]: {2: 1},
        },
    }
)

ORBITS = {
    "integer": (D4, D4_INTEGER_TABLE),
    "half-integer": (D4, D4_HALF_INTEGER_TABLE),
    "mixed-residue": (MIXED, MIXED_RESIDUE_TABLE),
}


def prefix_below(x, z):
    """x < z in the engine's order: every prefix sum of z - x is >= 0."""
    return x != z and all(d >= 0 for d in accumulate(b - a for a, b in zip(x, z)))


def reference_move(ctx, x, high, low, negate):
    """The token move on Fraction placements: token -> [Levi block, sign]."""
    place = {}
    for bi, (i, j) in enumerate(ctx.blocks()):
        for c in x[i:j]:
            place[abs(c)] = [bi, -1 if c < 0 else 1]
    if 0 in place:  # the hidden zero sign completes the integral class to even parity
        minus = sum(1 for t, (_, sg) in place.items() if t.denominator == 1 and sg < 0)
        place[0][1] = (-1) ** minus
    (bh, sh), (bl, sl) = place[high], place[low]
    flip = -1 if negate else 1
    place[high], place[low] = [bl, flip * sl], [bh, flip * sh]
    out = []
    for bi in range(ctx.k):
        out.extend(sorted((sg * t for t, (b, sg) in place.items() if b == bi), reverse=True))
    return tuple(out)


@pytest.fixture(params=list(ORBITS))
def frozen_orbit(request):
    ctx, table = ORBITS[request.param]
    scale, table = numerate(table)
    return kl.CanonicalBasisEngine(ctx, next(iter(table)), scale, {}), table


def test_engine_matches_frozen_coxeter_tables(frozen_orbit):
    engine, table = frozen_orbit
    for x, row in table.items():
        expected = dict(row)
        expected[x] = LaurentPoly.one()
        assert engine.basis_element(x) == expected


def test_every_frozen_element_is_bar_invariant(frozen_orbit):
    engine, table = frozen_orbit
    bar = BarInvolution(engine)
    for x in table:
        assert bar.is_invariant(engine.basis_element(x))


def test_bar_of_standard_is_an_involution(frozen_orbit):
    engine, table = frozen_orbit
    bar = BarInvolution(engine)
    for x in table:
        twice = bar(bar({x: LaurentPoly.one()}))
        assert twice == {x: LaurentPoly.one()}


def test_ascent_vanishes_only_at_the_top(frozen_orbit):
    engine, table = frozen_orbit
    tops = [x for x in table if engine._ascent(engine._state_id(x)) is None]
    assert len(tops) == 1
    assert not table[tops[0]]  # the maximal state has a trivial element


def test_supports_climb_the_dominance_order(frozen_orbit):
    engine, table = frozen_orbit
    for x in table:
        for z, p in engine.basis_element(x).items():
            if z == x:
                assert p == LaurentPoly.one()
            else:
                assert prefix_below(x, z)
                assert p.in_positive_part()


def test_engine_rejects_singular_seed():
    with pytest.raises(ValueError, match="singular"):
        kl.CanonicalBasisEngine(D4, (3, 2, 1, -1), 1, {})


def test_budget_violation_raises(monkeypatch):
    monkeypatch.setattr(kl, "MAX_WEIGHTS", 0)
    engine = kl.CanonicalBasisEngine(D4, (3, 2, 1, 0), 1, {})
    engine.basis_element((3, 2, 1, 0))  # first element is free
    text = "touched more than 0 weights; the block enumeration is likely wrong"
    with pytest.raises(kl.ClosedWorldViolation, match=text):
        engine.basis_element((3, 2, 0, -1))


def test_budget_counts_every_engine_of_a_shared_core(monkeypatch):
    # (5, 3, 1, 0) has the shape of (3, 2, 1, 0): one class with a zero token
    cores = {}
    first = kl.CanonicalBasisEngine(D4, (3, 2, 1, 0), 1, cores=cores)
    for x in ((3, 2, 1, 0), (3, 2, 0, -1), (3, 1, 0, -2)):
        first.basis_element(x)
    monkeypatch.setattr(kl, "MAX_WEIGHTS", 2)
    second = kl.CanonicalBasisEngine(D4, (5, 3, 1, 0), 1, cores=cores)
    assert second._b is first._b
    with pytest.raises(kl.ClosedWorldViolation, match="more than 2 weights"):
        second.basis_element((3, 1, 0, -5))  # three elements of the core are the first's
    alone = kl.CanonicalBasisEngine(D4, (5, 3, 1, 0), 1, {})
    assert len(alone.basis_element((3, 1, 0, -5))) == 2


def test_canonical_form_separates_parity_without_zero():
    # same |values|, opposite flip parity -> different linkage classes
    # (numerators over the common denominator 2)
    plus = (7, 5, 3, 1)
    minus = (7, 5, 3, -1)
    assert canonical_form(plus, 2) != canonical_form(minus, 2)
    # with a zero token the parity is absorbed
    a = (3, 2, 1, 0)
    b = (3, 2, -1, 0)
    b_sorted = tuple(sorted(b, reverse=True))
    assert canonical_form(a, 1) == canonical_form(b_sorted, 1)


def test_canonical_form_groups_by_residue_class():
    x = (5, 4, 2, 1)  # (5/2, 2, 1, 1/2) over the denominator 2
    key = canonical_form(x, 2)
    assert len(key) == 2  # one integral class, one half-integral class
    residues = [res for res, _, _ in key]
    assert residues == sorted(residues)


def test_singular_pairs():
    assert kl.singular_pairs((F(4), F(0), F(-1), F(-4))) == [(0, 3)]
    assert kl.singular_pairs((F(3), F(2), F(1), F(0))) == []
    assert kl.singular_pairs((F(2), F(1), F(-1), F(-2))) == [(0, 3), (1, 2)]


# -- the wall reduction's lift and collapse on Fraction weights, kept as the
# reference the integer fold of kl.singular_reduction_table is checked against


def lift_from_wall(x, pair, upper):
    """One of the two regular weights translating onto the wall weight x.

    x has x_i = -x_j = a > 0; the companion regular linkage class splits the
    doubled |value| a into {a, a+1}, shifting every |value| > a up by one.
    ``upper`` raises the positive member of the pair (giving the
    dominance-higher lift); otherwise the negative member is lowered.
    """
    i, j = pair
    a = x[i]
    if not (a > 0 and x[j] == -a):
        raise ValueError(f"not a wall pair: x[{i}] = {a}, x[{j}] = {x[j]}")
    out = list(x)
    for idx, c in enumerate(x):
        if idx == i:
            out[idx] = a + 1 if upper else a
        elif idx == j:
            out[idx] = -a if upper else -(a + 1)
        elif c > a:
            out[idx] = c + 1
        elif c < -a:
            out[idx] = c - 1
    return tuple(out)


def collapse_to_wall(x_reg, a):
    """Inverse of :func:`lift_from_wall`: merge |values| {a, a+1} back to a.

    Returns None when the two merged coordinates carry the same sign: such a
    regular weight crosses a Levi wall under translation and contributes
    nothing on the singular side.
    """
    merged_signs = [1 if c > 0 else -1 for c in x_reg if abs(c) in (a, a + 1)]
    if len(merged_signs) != 2 or merged_signs[0] == merged_signs[1]:
        return None
    out = []
    for c in x_reg:
        if abs(c) in (a, a + 1):
            out.append(a if c > 0 else -a)
        elif c > a + 1:
            out.append(c - 1)
        elif c < -(a + 1):
            out.append(c + 1)
        else:
            out.append(c)
    return tuple(out)


@pytest.mark.parametrize("upper", [True, False])
def test_lift_collapse_roundtrip(upper):
    x = (F(4), F(0), F(-1), F(-4))
    pair = (0, 3)
    lifted = lift_from_wall(x, pair, upper)
    assert kl.singular_pairs(lifted) == []
    assert collapse_to_wall(lifted, F(4)) == x
    # the two lifts are distinct and comparable
    other = lift_from_wall(x, pair, not upper)
    assert other != lifted


def test_lift_shifts_higher_values_past_the_gap():
    x = (F(5), F(2), F(-2), F(-3))
    lifted = lift_from_wall(x, (1, 2), True)
    assert lifted == (F(6), F(3), F(-2), F(-4))


def test_collapse_rejects_same_sign_merge():
    # |values| {2, 3} both positive: crosses a Levi wall
    assert collapse_to_wall((F(5), F(3), F(2), F(-1)), F(2)) is None


def reference_wall_table(block, convention, drops, cores):
    """The singular reduction by lift and collapse on Fraction weights.

    Reads an engine on the store ``cores`` at the boundary (numerators in
    and out), counts each dropped support entry in ``drops`` by its reason,
    and checks the invariants that make two of the old checks impossible:
    every companion state carries exactly two coordinates of |value| a or
    a+1, and every collapsed support has exactly one vanishing pairing.
    Returns the table keyed by numerators, or raises the old refusals.
    """
    scale = block.scale

    def nums(x):
        return tuple(int(a * scale) for a in x)

    pairs = {}
    for mu in block.weights:
        x = shift(mu)
        found = kl.singular_pairs(x)
        if len(found) != 1:
            raise kl.UnsupportedBlock(mu, "wall reduction supports exactly one vanishing pairing", "")
        if len(set(x)) < len(x):
            raise kl.UnsupportedBlock(mu, kl._TIED_COORDINATES, "")
        if x[found[0][0]] < 0:
            raise kl.UnsupportedBlock(mu, kl._NEGATIVE_FIRST, "")
        pairs[mu] = found[0]
    doubled = {abs(shift(mu)[i]) for mu, (i, _) in pairs.items()}
    assert len(doubled) == 1
    a = doubled.pop()
    basis_upper = convention == "direct"
    lifts = [nums(lift_from_wall(shift(mu), pairs[mu], basis_upper)) for mu in block.weights]
    engine = kl.CanonicalBasisEngine(block.ctx, lifts[0], scale, cores=cores)
    out = {}
    for w, lift in zip(block.numerators, lifts):
        for z, p in engine.basis_element(lift).items():
            x_reg = tuple(F(c, scale) for c in z)
            assert sum(1 for c in x_reg if abs(c) in (a, a + 1)) == 2
            wall_x = collapse_to_wall(x_reg, a)
            if wall_x is None:
                drops["levi"] += 1
                continue
            wall_pairs = kl.singular_pairs(wall_x)
            assert len(wall_pairs) == 1
            if x_reg != lift_from_wall(wall_x, wall_pairs[0], not basis_upper):
                drops["coset"] += 1
                continue
            val = p.evaluate_at_one()
            if val:
                key = (nums(wall_x), w) if convention == "direct" else (w, nums(wall_x))
                out[key] = val
    return out


# k = 1 at five parameters and r <= 6, and a level-two half-integral pair
WALL_GRID = [((u,), r) for u in ("3/2", "1/2", "0", "-1/2", "5/2") for r in range(1, 7)] + [
    (("0", "1/2"), r) for r in range(1, 4)
]


@pytest.mark.parametrize("convention", ["mirror", "direct"])
def test_wall_fold_matches_the_lift_collapse_reference(convention):
    drops, blocks, refused = Counter(), 0, 0
    for u, r in WALL_GRID:
        family = family_table(build_config([F(x) for x in u], r))
        for block in partition_into_blocks(family):
            if block.is_singleton or not kl.singular_pairs(block.numerators[0]):
                continue
            cores = {}
            try:
                expected = reference_wall_table(block, convention, drops, cores)
            except kl.UnsupportedBlock as exc:
                refusals = []
                # tilting_table, the one table entry point, routes a wall block here
                for read in (kl.singular_reduction_table, kl.tilting_table):
                    with pytest.raises(kl.UnsupportedBlock) as caught:
                        read(block, convention, {})
                    refusals.append(str(caught.value))
                assert caught.value.reason.startswith(exc.reason)
                assert refusals[0] == refusals[1]
                refused += 1
                continue
            blocks += 1
            table = kl.singular_reduction_table(block, convention, cores)
            assert list(kl.tilting_table(block, convention, cores).items()) == list(table.items())
            if convention == "mirror":  # only member keys: the peel reads no other
                members = set(block.numerators)
                expected = {key: v for key, v in expected.items() if key[1] in members}
            # same kept supports and wall weights, in the same order; both
            # engines read one core, so the drops are the same too
            assert list(table.items()) == list(expected.items()), (u, r, block.key)
    assert blocks == 22 and refused == 13  # refused: two or more vanishing pairings
    # both kinds of drop occur (on this grid "mirror" meets no Levi crossing)
    assert drops["coset"] > 0
    assert drops["levi"] > 0 or convention == "mirror"


# every level-one point oracle-compare can run: r <= 5, delta in Z/2, |delta| <= 12
DELTA_SWEEP = [((u_from_delta(F(twice, 2)),), r) for r in range(1, 6) for twice in range(-24, 25)]


@pytest.mark.parametrize(
    "grid, tables, refused",
    [
        (DELTA_SWEEP, 72, 10),
        ([(tuple(F(x) for x in u), r) for u, r in WALL_GRID], 146, 26),
    ],
    ids=["delta-sweep", "wall-grid"],
)
def test_tilting_table_values_are_positive(grid, tables, refused):
    # a table stores nonzero values only, and antispherical KL polynomials
    # have nonnegative coefficients, so every entry of either reading is at
    # least 1: a "direct" row outside its block can never be cancelled, and
    # the peel refuses it as it reads it
    counts, values = Counter(), Counter()
    for u, r in grid:
        family = family_table(build_config(u, r))
        for block in partition_into_blocks(family):
            if block.is_singleton:
                continue
            for convention in ("direct", "mirror"):
                try:
                    table = kl.tilting_table(block, convention, family.cores)
                except kl.UnsupportedBlock:
                    counts["refused"] += 1
                    continue
                counts["tables"] += 1
                values.update(table.values())
    assert (counts["tables"], counts["refused"]) == (tables, refused)
    assert values and min(values) >= 1


def test_tilting_table_refuses_tied_coordinates():
    # decompose --k 2 --r 1 --u 0,0 --assume-saturated: the first member
    # ties two coordinates, and its pair (-1, 1) puts the negative member
    # first; the tie is the refusal
    family = family_table(build_config([F(0), F(0)], 1))
    (wall,) = [b for b in partition_into_blocks(family) if not b.is_singleton]
    # a tie across Levi blocks and no wall pair at all
    tied = Block(WeightContext(4, (0, 2, 4)), (), ((3, 1, 3, 2), (3, 2, 3, 1)), 1, (0, 1))
    for block in (wall, tied):
        for convention in ("mirror", "direct"):
            with pytest.raises(kl.UnsupportedBlock) as caught:
                kl.tilting_table(block, convention, {})
            assert caught.value.reason == kl._TIED_COORDINATES
            assert caught.value.weight == block.numerators[0]


def test_fold_refuses_a_support_with_its_negative_member_first():
    # two Levi blocks: the member (2, -2 | 3, 1) is a wall weight with its
    # positive member first, but its companion's canonical basis reaches
    # (3, -2 | 2, 1), the pair's negative member in the earlier Levi block,
    # where the old route's lift failed with "not a wall pair"
    ctx = WeightContext(4, (0, 2, 4))
    x = (2, -2, 3, 1)
    block = Block(ctx, (), (x,), 1, (0,))
    for convention in ("mirror", "direct"):
        with pytest.raises(ValueError, match="not a wall pair"):
            reference_wall_table(block, convention, Counter(), {})
        with pytest.raises(kl.UnsupportedBlock) as caught:
            kl.singular_reduction_table(block, convention, {})
        assert caught.value.reason == kl._NEGATIVE_FIRST
        assert caught.value.weight == (3, -2, 2, 1)
        assert str(caught.value).endswith(" at (0,-4,1,1)")


def test_partition_into_blocks_generic_is_singletons():
    cfg = build_config([F(1, 3)], 2)
    family = family_table(cfg)
    blocks = partition_into_blocks(family)
    assert all(b.is_singleton for b in blocks)
    assert sum(len(b.weights) for b in blocks) == len(family)


def test_partition_into_blocks_groups_linked_weights():
    cfg = extend_parameters([F(0)], [10], 3)
    family = family_table(cfg)
    blocks = partition_into_blocks(family)
    assert any(not b.is_singleton for b in blocks)
    for b in blocks:
        keys = {canonical_form(family.numerators[i], family.scale) for i in b.positions}
        assert keys == {b.key}
        assert b.weights == tuple(reference_family(cfg)[i] for i in b.positions)
        assert b.numerators == tuple(family.numerators[i] for i in b.positions)
        assert b.scale == family.scale


def test_two_element_block_entry_is_v():
    # adjacent linked pair: the lower weight's element has coefficient v at
    # the higher weight
    engine = kl.CanonicalBasisEngine(D4, (3, 2, 1, 0), 1, {})
    lo, hi = (3, 2, 0, -1), (3, 2, 1, 0)
    b_lo, b_hi = engine.basis_element(lo), engine.basis_element(hi)
    assert b_lo[hi] == LaurentPoly.v()
    assert not b_hi.get(lo, LaurentPoly.zero())
    assert b_lo[hi].evaluate_at_one() == 1
    assert b_lo[lo] == LaurentPoly.one()


def test_kl_table_is_upper_unitriangular_in_dominance():
    engine = kl.CanonicalBasisEngine(D4, (3, 2, 1, 0), 1, {})
    _, orbit = numerate(D4_INTEGER_TABLE)
    weights = tuple(sorted(orbit, key=dominance_sort_key))
    elements = {x: engine.basis_element(x) for x in weights}
    touched = set(weights).union(*elements.values())
    assert touched == set(weights)
    assert tuple(sorted(touched, key=dominance_sort_key)) == weights
    for x in weights:
        for z in weights:
            p = elements[x].get(z)
            if p and x != z:
                assert dominance_less(x, z, 1)


def test_resolve_convention_pin_and_override(monkeypatch):
    assert pipeline.resolve_convention("direct") == "direct"
    assert pipeline.resolve_convention(None) == pipeline.PINNED_KL_CONVENTION
    monkeypatch.setattr(pipeline, "PINNED_KL_CONVENTION", "direct")
    assert pipeline.resolve_convention(None) == "direct"  # the pin is read at call time
    assert pipeline.resolve_convention("mirror") == "mirror"
    for convention in ("transpose", "Mirror", ""):
        with pytest.raises(ValueError, match="unknown tilting convention"):
            pipeline.resolve_convention(convention)


def test_pinned_conventions_are_frozen():
    assert pipeline.PINNED_KL_CONVENTION == "mirror"
    assert pipeline.PINNED_CONJUGATE_CONVENTION == "transpose"


def test_tilting_table_conventions_are_transposes():
    _, orbit = numerate(D4_INTEGER_TABLE)
    xs = tuple(sorted(orbit, key=dominance_sort_key))
    block = Block(D4, canonical_form(xs[0], 1), xs, 1, tuple(range(len(xs))))
    cores = {}
    direct = kl.tilting_table(block, "direct", cores)
    mirror = kl.tilting_table(block, "mirror", cores)
    assert len(cores) == 1
    assert {(b, a): v for (a, b), v in direct.items()} == mirror
    # mirror keys (lam, mu) are supported on lam <= mu, as a Verma flag of a
    # tilting module must be
    for (lam, mu), val in mirror.items():
        if val and lam != mu:
            assert dominance_less(lam, mu, 1)
    # regular family blocks whose supports leave the block: "direct" keeps
    # the rows outside it, "mirror" keys members alone
    for u, r in (("1/2", 5), ("0,1/2", 3)):
        family = family_table(build_config([F(x) for x in u.split(",")], r))
        blocks = [b for b in partition_into_blocks(family) if not b.is_singleton]
        assert blocks and not any(kl.singular_pairs(b.numerators[0]) for b in blocks)
        for block in blocks:
            direct = kl.tilting_table(block, "direct", cores)
            mirror = kl.tilting_table(block, "mirror", cores)
            members = set(block.numerators)
            assert any(lam not in members for lam, _ in direct)
            assert all(lam in members and mu in members for lam, mu in mirror)
            assert {(b, a): v for (a, b), v in direct.items() if a in members} == mirror
    # the pipeline resolves the reading once; the tables take it as given
    with pytest.raises(ValueError, match="unknown tilting convention: 'sideways'"):
        pipeline.tilting_decomposition(family, "sideways")


def test_singular_reduction_frozen_wall_block():
    # delta = -2, r = 3: the two-weight wall block {e1, e1+e2+e3}
    cfg = extend_parameters([u_from_delta(F(-2))], [16], 3)
    ctx = context_of(cfg)
    r4 = rho(ctx.n)
    family = family_table(cfg)
    wall_blocks = [
        b
        for b in partition_into_blocks(family)
        if not b.is_singleton
        and kl.singular_pairs(tuple(a + c for a, c in zip(b.weights[0], r4)))
    ]
    assert len(wall_blocks) == 1
    block = wall_blocks[0]
    assert len(block.weights) == 2
    # table keys are the members' numerators, looked up by their shifts
    weights = reference_family(cfg)
    by_shift = {delta(weights[i], cfg): family.numerators[i] for i in block.positions}
    lam = by_shift[(1,) + (0,) * 15]
    mu = by_shift[(1, 1, 1) + (0,) * 13]
    table = kl.singular_reduction_table(block, "mirror", {})
    assert table[(lam, lam)] == 1
    assert table[(mu, mu)] == 1
    assert table[(lam, mu)] == 1  # (T(e1+e2+e3) : M(e1)) = 1
    assert (mu, lam) not in table
    # the direct reading keys nothing inside the block: structurally unusable
    direct = kl.singular_reduction_table(block, "direct", {})
    members = set(block.numerators)
    assert not any(a in members and b in members for (a, b) in direct)


def test_singular_reduction_rejects_multi_wall_weights():
    # a doubly-singular weight has no single companion class
    cfg = extend_parameters([u_from_delta(F(-2))], [16], 3)
    ctx = context_of(cfg)
    lc = lambda_c(cfg)
    d = (2, 1) + (0,) * 14
    mu = tuple(a + s for a, s in zip(lc, d))
    scale = family_table(cfg).scale
    block = Block(ctx, (), (numerators(mu, scale),), scale, (0,))
    with pytest.raises(ValueError, match="exactly one"):
        kl.singular_reduction_table(block, "mirror", {})


def recording_moves(patch):
    """Wrap ``apply_move`` through ``patch``.  Returns, per core (keyed by
    the id of its element memo), the moves any of its engines was asked
    for: {(packed state, generator index): entry}."""
    asked = {}
    apply_move = kl.CanonicalBasisEngine.apply_move

    def recording(self, s, g):
        entry = apply_move(self, s, g)
        asked.setdefault(id(self._b), {})[s, g] = entry
        return entry

    patch.setattr(kl.CanonicalBasisEngine, "apply_move", recording)
    return asked


def exponents_checked(engine, entries):
    """Check every non-fixing move in ``entries`` (as ``recording_moves``
    keeps them), decoded with the engine's values: its exponent is the one
    the values give, between strictly comparable states.  Returns the number
    of moves checked."""
    numerators = {}

    def decode(s):
        x = numerators.get(s)
        if x is None:
            x = numerators[s] = engine._numerators(s)
        return x

    checked = 0
    for (s, _), entry in entries.items():
        if entry is None:
            continue
        x, y = decode(s), decode(entry[0])
        below = prefix_below(y, x)
        assert entry[1] == (1 if below else -1), (x, y)
        assert below or prefix_below(x, y)
        checked += 1
    return checked


@pytest.mark.parametrize("orbit", list(ORBITS))
def test_move_table_matches_the_weight_level_moves(monkeypatch, orbit):
    ctx, table = ORBITS[orbit]
    scale, _ = numerate(table)

    def nums(x):
        return tuple(int(c * scale) for c in x)

    # the same shape at other values: the k-th smallest token of each class
    # rises by k, which keeps the classes, the token order and a zero token
    tokens = sorted({abs(c) for c in next(iter(table))})
    rise = {t: sum(1 for u in tokens if u < t and (t - u).denominator == 1) for t in tokens}

    def moved(x):
        return tuple(c + rise[c] if c >= 0 else c - rise[-c] for c in x)

    cores, engines = {}, []
    asked = recording_moves(monkeypatch)
    for orbit_table in (table, {moved(x): None for x in table}):
        engine = kl.CanonicalBasisEngine(ctx, nums(next(iter(orbit_table))), scale, cores=cores)
        engines.append(engine)
        for x in orbit_table:
            sid = engine._state_id(nums(x))
            for gi, g in enumerate(engine.moves):
                high, low = (F(engine.tokens[i], scale) for i in (g.high, g.low))
                y = reference_move(ctx, x, high, low, g.negate)
                entry = engine.apply_move(sid, gi)
                # asked again: the same entry
                assert engine.apply_move(sid, gi) == entry
                if y == x:
                    assert entry is None, (x, g)
                    continue
                assert y in orbit_table  # the orbit is closed under the moves
                assert engine._numerators(entry[0]) == nums(y), (x, g)
    assert len(cores) == 1  # both engines read one core
    # the exponents read off the moved tokens' codes are the ones both
    # engines' values give; the sharing grid widens this to every core
    assert all(exponents_checked(engine, asked[id(engine._b)]) for engine in engines)


@pytest.mark.parametrize("p, seed, scale", [
    ((0, 2, 4), (3, 1, 2, 0), 1),
    ((0, 2, 4), (4, 1, 3, 2), 1),
    ((0, 2, 4), (7, 3, 5, 1), 2),
    ((0, 2, 4), (6, 1, 3, 2), 2),
    ((0, 2, 4, 5), (4, 1, 3, 0, 2), 1),
    ((0, 2, 5), (4, 1, 3, 2, 0), 1),
])
def test_moves_across_levi_blocks_have_the_exponent_the_values_give(monkeypatch, p, seed, scale):
    # integrality classes spread over several Levi blocks, so moves carry
    # tokens between blocks, which no family of the sharing grid does
    ctx = WeightContext(p[-1], p)
    engine = kl.CanonicalBasisEngine(ctx, seed, scale, {})
    entries = recording_moves(monkeypatch).setdefault(id(engine._b), {})
    todo = [engine._state_id(seed)]
    seen = set(todo)
    while todo:
        sid = todo.pop()
        x = tuple(F(c, scale) for c in engine._numerators(sid))
        for gi, g in enumerate(engine.moves):
            high, low = (F(engine.tokens[i], scale) for i in (g.high, g.low))
            y = reference_move(ctx, x, high, low, g.negate)
            entry = engine.apply_move(sid, gi)
            assert (entry is None) == (y == x), (x, g)
            if entry is not None:
                assert engine._numerators(entry[0]) == tuple(int(c * scale) for c in y)
                if entry[0] not in seen:
                    seen.add(entry[0])
                    todo.append(entry[0])
    moves = engine.moves
    assert any(
        engine._field(s, moves[g].high) >> 1 != engine._field(s, moves[g].low) >> 1
        for (s, g), entry in entries.items()
        if entry is not None
    )
    assert exponents_checked(engine, entries)


def test_memoised_elements_compute_no_move(monkeypatch):
    engines, asked, calls = [], [], [0]
    init = kl.CanonicalBasisEngine.__init__
    apply_move = kl.CanonicalBasisEngine.apply_move
    element = kl.CanonicalBasisEngine._element

    def recording_init(self, *args, **kwargs):
        engines.append(self)
        init(self, *args, **kwargs)

    def counting_move(self, s, g):
        calls[0] += 1
        return apply_move(self, s, g)

    def recording_element(self, sid):
        asked.append(sid)
        return element(self, sid)

    monkeypatch.setattr(kl.CanonicalBasisEngine, "__init__", recording_init)
    monkeypatch.setattr(kl.CanonicalBasisEngine, "apply_move", counting_move)
    monkeypatch.setattr(kl.CanonicalBasisEngine, "_element", recording_element)
    # B_3(-2): one wall block; the tables ask for elements by packed state
    pipeline.decomposition_report(family_table(build_config([u_from_delta(F(-2))], 3)))
    (engine,) = engines
    assert asked and calls[0]
    before = calls[0]
    for sid in list(asked):
        engine._element(sid)
    assert calls[0] == before


@pytest.mark.parametrize("argv", [
    "--k 1 --r 6 --u 3/2",  # wall blocks
    "--k 1 --r 6 --u 0",  # regular blocks
    "--k 2 --r 3 --u 0,1/2",  # regular blocks of a two-Levi shape
])
def test_a_successful_decompose_decodes_no_state(monkeypatch, capsys, argv):
    # the pinned reading keys the tables by member ids: a state is decoded
    # only for a "direct" row outside the block or to name a refusal
    calls = [0]
    numerators = kl.CanonicalBasisEngine._numerators

    def counting(self, sid):
        calls[0] += 1
        return numerators(self, sid)

    monkeypatch.setattr(kl.CanonicalBasisEngine, "_numerators", counting)
    assert main(["decompose", *argv.split()]) == 0
    report = json.loads(capsys.readouterr().out)
    assert not report["flags"]["generic"]
    assert bool(report["flags"]["singular_reduced"]) == argv.endswith("3/2")
    assert calls[0] == 0


# blocks of one Coxeter shape at many values: k = 1 at four parameters and
# r <= 6 (one of them to r = 8), at two more and r <= 5, and two level-two
# parameter pairs; every oracle-compare point at r <= 5 for delta in
# {1, 2, -2, 0, 1/2} is here
SHARING_GRID = [((u,), r) for u in ("3/2", "0", "1/2", "5/2") for r in range(1, 7)] + [
    *((("3/2",), r) for r in (7, 8)),
    *((("0", "1/2"), r) for r in range(1, 6)),
    *((("0", "1/3"), r) for r in range(1, 4)),
    *(((u,), r) for u in ("-1/2", "1/4") for r in range(1, 6)),
]
# the convention that reads a store first -> the order both read it in
ORDERS = {"mirror": ("mirror", "direct"), "direct": ("direct", "mirror")}


def table_or_refusal(block, convention, cores):
    try:
        return list(kl.tilting_table(block, convention, cores).items())
    except kl.UnsupportedBlock as exc:
        return exc.reason


def grid_blocks(u, r):
    family = family_table(build_config([F(x) for x in u], r))
    return [b for b in partition_into_blocks(family) if not b.is_singleton]


@cache
def private_tables(u, r, convention):
    """The tables (or refusals) of a grid point's blocks, each on its own store."""
    return [table_or_refusal(block, convention, {}) for block in grid_blocks(u, r)]


@cache
def shared_grid(first):
    """Per SHARING_GRID point its non-singleton blocks and, per convention in
    the order ``ORDERS[first]``, their tables (or refusals), all read on one
    core store per point, as ``oracle-compare`` reads them; the number of
    cores, every engine those reads built, and the moves asked of each core
    (as ``recording_moves`` keeps them)."""
    engines, runs = [], []
    init = kl.CanonicalBasisEngine.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        engines.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kl.CanonicalBasisEngine, "__init__", recording_init)
        asked = recording_moves(patch)
        for u, r in SHARING_GRID:
            blocks, cores = grid_blocks(u, r), {}
            tables = {
                convention: [table_or_refusal(block, convention, cores) for block in blocks]
                for convention in ORDERS[first]
            }
            runs.append((u, r, blocks, tables, len(cores)))
    return runs, engines, asked


@pytest.mark.parametrize("first", list(ORDERS))
def test_a_shared_core_gives_the_tables_of_private_ones(first):
    # the second convention reads the cores the first one filled
    reused, refused = 0, 0
    runs, _, _ = shared_grid(first)
    for u, r, blocks, tables, cores in runs:
        for convention, shared in tables.items():
            assert shared == private_tables(u, r, convention), (u, r, convention)
            refused += sum(isinstance(table, str) for table in shared)
        reused += 2 * len(blocks) - cores  # table reads that found their core built
    assert reused == 300 and refused == 26  # of 173 blocks, each read twice


@pytest.mark.parametrize("first", list(ORDERS))
def test_every_shared_move_entry_has_the_exponent_the_values_give(first):
    # each engine decodes every move asked of its core with its own values
    _, engines, asked = shared_grid(first)
    checked = sum(exponents_checked(engine, asked[id(engine._b)]) for engine in engines)
    assert len(engines) == 320 and checked > 160_000  # on 46 cores


def memo_keys_pack_back(engine) -> set:
    """Check that every key of the engine's core whose decoding with the
    engine's values lies in the engine's linkage class packs back to
    itself.  Returns those keys."""
    packed = set()
    for s in engine._b:
        x = engine._numerators(s)
        if canonical_form(x, engine.scale) == engine.key:
            assert engine._state_id(x) == s, s
            packed.add(s)
    return packed


def test_every_memo_key_of_the_sharing_grid_packs_back():
    # a core serves engines of both flip parities, so a key lies in the
    # linkage class of some of its engines; every key packs back through each
    # of those, and each is packed back by at least one
    _, engines, _ = shared_grid("mirror")
    cores, packed = {}, {}
    for engine in engines:
        cores[id(engine._b)] = engine._b
        packed.setdefault(id(engine._b), set()).update(memo_keys_pack_back(engine))
    assert {core: set(memo) for core, memo in cores.items()} == packed
    assert sum(map(len, cores.values())) > 1_900  # on 46 cores


def orbit_elements(engine, seed):
    """Compute the canonical basis element at every state of the seed's
    orbit under the engine's moves."""
    todo = [engine._state_id(seed)]
    seen = set(todo)
    while todo:
        s = todo.pop()
        engine._element(s)
        for g in range(len(engine.moves)):
            entry = engine.apply_move(s, g)
            if entry is not None and entry[0] not in seen:
                seen.add(entry[0])
                todo.append(entry[0])
    return seen


def test_packed_states_at_three_bits_per_token_pack_back():
    # four Levi blocks: codes 0..7, so a token's field is three bits wide
    engine = kl.CanonicalBasisEngine(WeightContext(4, (0, 1, 2, 3, 4)), (3, 2, 1, 0), 1, {})
    orbit = orbit_elements(engine, (3, 2, 1, 0))
    assert memo_keys_pack_back(engine) == orbit and len(orbit) == 192  # W(D_4)
    assert {engine._field(s, i) for s in orbit for i in range(4)} == set(range(8))


def test_packed_states_past_one_machine_word_pack_back():
    # 66 tokens at two bits each: 63 of them alone in their integrality
    # class, so the orbit is W(D_3) acting on the class of 100, 200 and 300
    tokens = sorted([101 * i for i in range(1, 64)] + [100, 200, 300], reverse=True)
    blocks = ([], [])
    for i, t in enumerate(tokens):
        blocks[i % 2].append(-t if i % 3 == 0 else t)
    seed = tuple(sorted(blocks[0], reverse=True) + sorted(blocks[1], reverse=True))
    engine = kl.CanonicalBasisEngine(WeightContext(66, (0, 33, 66)), seed, 100, {})
    orbit = orbit_elements(engine, seed)
    assert memo_keys_pack_back(engine) == orbit and len(orbit) > 1
    assert max(s.bit_length() for s in orbit) > 128


def engines_and_cores(monkeypatch, u, r):
    """The engines one decompose run builds, and its distinct cores."""
    engines = []
    init = kl.CanonicalBasisEngine.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        engines.append(self)

    monkeypatch.setattr(kl.CanonicalBasisEngine, "__init__", recording_init)
    pipeline.decomposition_report(family_table(build_config([F(x) for x in u.split(",")], r)))
    cores = {id(engine._b): engine._b for engine in engines}
    return engines, list(cores.values())


def test_blocks_of_one_shape_build_one_core(monkeypatch):
    # each core's elements, as counted when a core also interned its states
    engines, cores = engines_and_cores(monkeypatch, "1", 11)
    assert len(engines) == 117
    assert [len(memo) for memo in cores] == [254]
    engines, cores = engines_and_cores(monkeypatch, "0,1/2", 4)
    assert [len(memo) for memo in cores] == [107, 31, 77, 46, 46, 31, 46]


def test_boundary_input_is_refused():
    engine = kl.CanonicalBasisEngine(D4, (3, 2, 1, 0), 1, {})
    with pytest.raises(ValueError, match=r"off the linkage class: \(1,0,0,0\)$"):
        engine.basis_element((4, 2, 1, 0))
    with pytest.raises(ValueError, match="not sorted"):
        engine.basis_element((2, 3, 1, 0))
    with pytest.raises(ValueError, match="off the linkage class"):
        BarInvolution(engine)({(7, 5, 3, 1): LaurentPoly.one()})
    with pytest.raises(ValueError, match="not a wall pair"):
        lift_from_wall((F(3), F(2), F(1), F(0)), (0, 3), True)
    # two wall weights doubling different values are not one linkage class
    xs = ((3, 1, 0, -3), (2, 1, 0, -2))
    block = Block(D4, (), xs, 1, (0, 1))
    with pytest.raises(ValueError, match=r"mixes doubled values \[2, 3\]"):
        kl.singular_reduction_table(block, "mirror", {})


def test_off_class_state_is_refused_under_python_O():
    src = os.path.dirname(os.path.dirname(brauer_kl.__file__))
    code = (
        "from brauer_kl import kl\n"
        "from brauer_kl.weights import WeightContext\n"
        "engine = kl.CanonicalBasisEngine(WeightContext(4, (0, 4)), (3, 2, 1, 0), 1, {})\n"
        "try:\n"
        "    engine.basis_element((4, 2, 1, 0))\n"
        "except ValueError as exc:\n"
        "    print('refused:', exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("refused: state off the linkage class")


# the engine workload's linkage blocks -> the generators of their engines, in
# the order the engine builds them: per integrality class, classes in order
# of their largest token
WORKLOAD_MOVES = {
    "--k 1 --r 3 --u 3/2": [
        (0, 1, False), (1, 2, False), (2, 3, False), (3, 4, False), (4, 5, False), (4, 5, True),
    ],
    "--k 2 --r 3 --u 0,1/3": [
        (0, 2, False), (2, 4, False), (4, 6, False), (4, 6, True),
        (1, 3, False), (3, 5, False), (5, 7, False), (5, 7, True),
    ],
}


@pytest.mark.parametrize("argv", list(WORKLOAD_MOVES))
def test_engine_workload_generators_are_frozen(monkeypatch, argv):
    *_, r, _, u = argv.split()
    engines, _ = engines_and_cores(monkeypatch, u, int(r))
    assert [engine.moves for engine in engines] == [tuple(WORKLOAD_MOVES[argv])]


def test_engine_generators_follow_the_linkage_key(monkeypatch):
    # merge the key's two integrality classes: the engine's generators must
    # follow, since weights.canonical_form is the one grouping of the values
    family = family_table(build_config([F(0), F(1, 3)], 3))
    (block,) = [b for b in partition_into_blocks(family) if not b.is_singleton]
    assert len(block.key) == 2

    def merged(x, scale):
        (res, values, parity), (_, more, _) = canonical_form(x, scale)
        return ((res, tuple(sorted(values + more)), parity),)

    monkeypatch.setattr(kl, "canonical_form", merged)
    engine = kl.CanonicalBasisEngine(block.ctx, block.numerators[0], block.scale, {})
    assert engine.moves == (*[(i, i + 1, False) for i in range(7)], (6, 7, True))
