"""Canonical-basis engine: frozen Coxeter tables, involutions, conventions.

The two D_4 fixtures below were computed by an independent brute force over
honest signed-permutation words (minimal coset representatives for the full
type-A Levi, genuine bar involution, canonical basis by degree completion)
and frozen here; the engine must reproduce them coefficient for coefficient.
"""

from fractions import Fraction

import pytest

from brauer_kl import kl
from brauer_kl.laurent import LaurentPoly
from brauer_kl.params import build_config, u_from_delta
from brauer_kl.weights import (
    WeightContext,
    context_of,
    dominance_less,
    enumerate_F,
    lambda_c,
    rho,
)

F = Fraction

D4 = WeightContext(4, (0, 4))
RHO4 = rho(4)


def to_mu(x):
    return tuple(F(a) - b for a, b in zip(x, RHO4))


def freeze(entries):
    """{x: {support: poly-dict}} with the diagonal 1 left implicit."""
    return {
        tuple(map(F, x)): {tuple(map(F, z)): LaurentPoly(p) for z, p in row.items()}
        for x, row in entries.items()
    }


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


@pytest.fixture(params=["integer", "half-integer"])
def frozen_orbit(request):
    table = D4_INTEGER_TABLE if request.param == "integer" else D4_HALF_INTEGER_TABLE
    seed = to_mu(next(iter(table)))
    return kl.CanonicalBasisEngine(D4, seed), table


def test_engine_matches_frozen_coxeter_tables(frozen_orbit):
    engine, table = frozen_orbit
    for x, row in table.items():
        expected = dict(row)
        expected[x] = LaurentPoly.one()
        assert engine.basis_element(x) == expected


def test_every_frozen_element_is_bar_invariant(frozen_orbit):
    engine, table = frozen_orbit
    for x in table:
        assert engine.is_bar_invariant(engine.basis_element(x))


def test_bar_of_standard_is_an_involution(frozen_orbit):
    engine, table = frozen_orbit
    for x in table:
        twice = engine.bar_vector(engine.bar_vector({x: LaurentPoly.one()}))
        assert twice == {x: LaurentPoly.one()}


def test_ascent_vanishes_only_at_the_top(frozen_orbit):
    engine, table = frozen_orbit
    tops = [x for x in table if engine.ascent(x) is None]
    assert len(tops) == 1
    assert not table[tops[0]]  # the maximal state has a trivial element


def test_supports_climb_the_dominance_order(frozen_orbit):
    engine, table = frozen_orbit
    for x in table:
        for z, p in engine.basis_element(x).items():
            if z == x:
                assert p == LaurentPoly.one()
            else:
                assert kl._dominance_below(x, z)
                assert p.in_positive_part()


def test_engine_rejects_singular_seed():
    with pytest.raises(ValueError, match="singular"):
        kl.CanonicalBasisEngine(D4, to_mu((3, 2, 1, -1)))


def test_budget_violation_raises():
    engine = kl.CanonicalBasisEngine(D4, to_mu((3, 2, 1, 0)), max_weights=0)
    engine.basis_element((F(3), F(2), F(1), F(0)))  # first element is free
    with pytest.raises(kl.ClosedWorldViolation):
        engine.basis_element((F(3), F(2), F(0), F(-1)))


def test_canonical_form_separates_parity_without_zero():
    # same |values|, opposite flip parity -> different linkage classes
    plus = (F(7, 2), F(5, 2), F(3, 2), F(1, 2))
    minus = (F(7, 2), F(5, 2), F(3, 2), F(-1, 2))
    assert kl.canonical_form(plus) != kl.canonical_form(minus)
    # with a zero token the parity is absorbed
    a = (F(3), F(2), F(1), F(0))
    b = (F(3), F(2), F(-1), F(0))
    b_sorted = tuple(sorted(b, reverse=True))
    assert kl.canonical_form(a) == kl.canonical_form(b_sorted)


def test_canonical_form_groups_by_residue_class():
    x = (F(5, 2), F(2), F(1), F(1, 2))
    key = kl.canonical_form(x)
    assert len(key) == 2  # one integral class, one half-integral class
    residues = [res for res, _, _ in key]
    assert residues == sorted(residues)


def test_singular_pairs():
    assert kl.singular_pairs((F(4), F(0), F(-1), F(-4))) == [(0, 3)]
    assert kl.singular_pairs((F(3), F(2), F(1), F(0))) == []
    assert kl.singular_pairs((F(2), F(1), F(-1), F(-2))) == [(0, 3), (1, 2)]


@pytest.mark.parametrize("upper", [True, False])
def test_lift_collapse_roundtrip(upper):
    x = (F(4), F(0), F(-1), F(-4))
    pair = (0, 3)
    lifted = kl.lift_from_wall(x, pair, upper)
    assert kl.singular_pairs(lifted) == []
    assert kl.collapse_to_wall(lifted, F(4)) == x
    # the two lifts are distinct and comparable
    other = kl.lift_from_wall(x, pair, not upper)
    assert other != lifted


def test_lift_shifts_higher_values_past_the_gap():
    x = (F(5), F(2), F(-2), F(-3))
    lifted = kl.lift_from_wall(x, (1, 2), True)
    assert lifted == (F(6), F(3), F(-2), F(-4))


def test_collapse_rejects_same_sign_merge():
    # |values| {2, 3} both positive: crosses a Levi wall
    assert kl.collapse_to_wall((F(5), F(3), F(2), F(-1)), F(2)) is None


def test_partition_into_blocks_generic_is_singletons():
    cfg = build_config([F(1, 3)], 2)
    ctx = context_of(cfg)
    family = enumerate_F(2, cfg)
    blocks = kl.partition_into_blocks(family, ctx)
    assert all(b.is_singleton for b in blocks)
    assert sum(len(b.weights) for b in blocks) == len(family)


def test_partition_into_blocks_groups_linked_weights():
    cfg = build_config([F(0)], 3, q=[10])
    ctx = context_of(cfg)
    family = enumerate_F(3, cfg)
    blocks = kl.partition_into_blocks(family, ctx)
    assert any(not b.is_singleton for b in blocks)
    for b in blocks:
        r4 = rho(ctx.n)
        keys = {kl.canonical_form(tuple(a + c for a, c in zip(mu, r4))) for mu in b.weights}
        assert keys == {b.key}


def test_two_element_block_entry_is_v():
    # adjacent linked pair: the lower weight's element has coefficient v at
    # the higher weight
    engine = kl.CanonicalBasisEngine(D4, to_mu((3, 2, 1, 0)))
    lo, hi = to_mu((3, 2, 0, -1)), to_mu((3, 2, 1, 0))
    block = kl.Block(ctx=D4, key=engine.key, weights=(lo, hi))
    table = kl.canonical_basis(block, engine)
    assert table.entry(lo, hi) == LaurentPoly.v()
    assert table.entry(hi, lo).is_zero()
    assert table.composition_multiplicity(lo, hi) == 1
    assert table.entry(lo, lo) == LaurentPoly.one()


def test_kl_table_is_upper_unitriangular_in_dominance():
    engine = kl.CanonicalBasisEngine(D4, to_mu((3, 2, 1, 0)))
    weights = tuple(sorted((to_mu(x) for x in D4_INTEGER_TABLE), key=kl.dominance_sort_key))
    block = kl.Block(ctx=D4, key=engine.key, weights=weights)
    table = kl.canonical_basis(block, engine)
    assert set(table.weights) == set(weights)
    assert block.extended == table.weights
    for mu in weights:
        for lam in weights:
            p = table.entry(mu, lam)
            if p and mu != lam:
                assert dominance_less(mu, lam)


def test_resolve_convention_pin_and_override(monkeypatch):
    assert kl.resolve_convention("direct") == "direct"
    assert kl.resolve_convention(None) == kl.PINNED_KL_CONVENTION
    monkeypatch.setattr(kl, "PINNED_KL_CONVENTION", None)
    with pytest.raises(kl.ConventionUnpinned):
        kl.resolve_convention(None)
    assert kl.resolve_convention("mirror") == "mirror"


def test_pinned_conventions_are_frozen():
    assert kl.PINNED_KL_CONVENTION == "mirror"
    assert kl.PINNED_CONJUGATE_CONVENTION == "transpose"


def test_tilting_table_conventions_are_transposes():
    engine = kl.CanonicalBasisEngine(D4, to_mu((3, 2, 1, 0)))
    weights = tuple(sorted((to_mu(x) for x in D4_INTEGER_TABLE), key=kl.dominance_sort_key))
    block = kl.Block(ctx=D4, key=engine.key, weights=weights)
    direct = kl.tilting_table(block, "direct", engine)
    mirror = kl.tilting_table(block, "mirror", engine)
    assert {(b, a): v for (a, b), v in direct.items()} == mirror
    # mirror keys (lam, mu) are supported on lam <= mu, as a Verma flag of a
    # tilting module must be
    for (lam, mu), val in mirror.items():
        if val and lam != mu:
            assert dominance_less(lam, mu)
    with pytest.raises(ValueError, match="convention"):
        kl.tilting_table(block, "sideways", engine)


def test_singular_reduction_frozen_wall_block():
    # delta = -2, r = 3: the two-weight wall block {e1, e1+e2+e3}
    cfg = build_config([u_from_delta(F(-2))], 3)
    ctx = context_of(cfg)
    family = enumerate_F(3, cfg)
    r4 = rho(ctx.n)
    wall_blocks = [
        b
        for b in kl.partition_into_blocks(family, ctx)
        if not b.is_singleton
        and kl.singular_pairs(tuple(a + c for a, c in zip(b.weights[0], r4)))
    ]
    assert len(wall_blocks) == 1
    block = wall_blocks[0]
    assert len(block.weights) == 2
    lc = lambda_c(cfg)

    def shift(mu):
        return tuple(int(a - b) for a, b in zip(mu, lc))

    by_shift = {shift(mu): mu for mu in block.weights}
    lam = by_shift[(1,) + (0,) * 15]
    mu = by_shift[(1, 1, 1) + (0,) * 13]
    table = kl.singular_reduction_table(block, "mirror")
    assert table[(lam, lam)] == 1
    assert table[(mu, mu)] == 1
    assert table[(lam, mu)] == 1  # (T(e1+e2+e3) : M(e1)) = 1
    assert (mu, lam) not in table
    # the direct reading keys nothing inside the block: structurally unusable
    direct = kl.singular_reduction_table(block, "direct")
    members = set(block.weights)
    assert not any(a in members and b in members for (a, b) in direct)


def test_singular_reduction_rejects_multi_wall_weights():
    # a doubly-singular weight has no single companion class
    cfg = build_config([u_from_delta(F(-2))], 3)
    ctx = context_of(cfg)
    lc = lambda_c(cfg)
    d = (2, 1) + (0,) * 14
    mu = tuple(a + s for a, s in zip(lc, d))
    block = kl.Block(ctx=ctx, key=(), weights=(mu,))
    with pytest.raises(ValueError, match="exactly one"):
        kl.singular_reduction_table(block, "mirror")
