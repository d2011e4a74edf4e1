"""The family table and its integer codec against the ``Fraction`` routines
they replace.

The reference functions below are the weight-keyed forms the pipeline used
before the family table: the linkage key on ``Fraction`` coordinates, the
grouping of weights into blocks, the dominance test and sort key, and the
two standard-flag routines; the weights mu themselves come from the
``Fraction`` codec in ``verify_routes`` (the chamber weight plus a label's
shift).  The table's integer forms must name, group, order and count exactly
as they do.
"""

from fractions import Fraction

import pytest

from brauer_kl import combinat, kl
from brauer_kl.params import build_config
from brauer_kl.weights import (
    context_of,
    dominance_leq,
    dominance_sort_key,
    enumerate_F,
    family_table,
    is_singular,
    partition_into_blocks,
    shifted_chamber,
    tilde,
    weight_name,
)
from test_params import SELECTION_GRID
from verify_routes import (
    delta,
    enumerate_lambda_by_recursion as reference_enumerate_lambda,
    lambda_c,
    numerators,
    reference_family,
    reference_hat,
    reference_tilde,
    shift,
)

F = Fraction


def reference_canonical_form(x):
    classes = {}
    for a in x:
        f = Fraction(abs(a))
        classes.setdefault(f - f.__floor__(), []).append(a)
    key = []
    for res in sorted(classes):
        members = classes[res]
        abs_sorted = tuple(sorted(abs(a) for a in members))
        if any(a == 0 for a in members):
            parity = None
        else:
            parity = sum(1 for a in members if a < 0) % 2
        key.append((res, abs_sorted, parity))
    return tuple(key)


def reference_sort_key(x):
    prefix = Fraction(0)
    key = []
    for val in x:
        prefix += val
        key.append(prefix)
    return tuple(key)


def reference_blocks(family):
    grouped = {}
    for mu in family:
        grouped.setdefault(reference_canonical_form(shift(mu)), []).append(mu)
    return [tuple(sorted(set(members), key=reference_sort_key)) for members in grouped.values()]


def reference_dominance_leq(lam, mu):
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


def reference_in_F_rk(mu, cfg):
    try:
        d = delta(mu, cfg)
    except ValueError:
        return False
    total = 0
    for start, end in context_of(cfg).blocks():
        block = d[start:end]
        if any(block[i] < block[i + 1] for i in range(len(block) - 1)):
            return False
        total += sum(abs(x) for x in block)
    return all(x >= 0 for x in d) and total <= cfg.r and (cfg.r - total) % 2 == 0


def reference_verma_flag(cfg):
    table = combinat.updown_count_table(2 * cfg.k, cfg.r)
    return {mu: table.get(reference_tilde(mu, cfg).shape, 0) for mu in reference_family(cfg)}


def reference_truncated_verma_flag(cfg):
    table = combinat.updown_count_table(cfg.k, cfg.r)
    return {
        mu: table.get(reference_tilde(mu, cfg).shape[: cfg.k], 0)
        for mu in reference_family(cfg)
        if reference_in_F_rk(mu, cfg)
    }


# residues 0, 1/2, 1/3, 2/3 and 1/6, with negative values, at k <= 3, r <= 4
# (r <= 3 at k = 3)
GRID = [
    ((u,), r)
    for u in ("0", "1/2", "1/3", "2/3", "1/6", "-1/2", "-4/3", "-5/6", "-2")
    for r in (1, 2, 3, 4)
] + [
    (pair, r)
    for pair in (("0", "1/2"), ("1/3", "-1/6"), ("2/3", "1/2"), ("-1/3", "0"), ("1/6", "-2/3"))
    for r in (1, 2, 3, 4)
] + [
    (triple, r)
    for triple in (("0", "1/3", "1/2"), ("-1/6", "2/3", "-2"))
    for r in (1, 2, 3)
]


@pytest.fixture(params=GRID, ids=[f"{','.join(u)}-r{r}" for u, r in GRID])
def cfg(request):
    u, r = request.param
    return build_config([F(x) for x in u], r)


def test_table_rows_match_the_weights(cfg):
    family = family_table(cfg)
    weights = reference_family(cfg)
    assert family.numerators == tuple(enumerate_F(cfg, family.labels))
    assert list(family.labels) == [reference_tilde(mu, cfg) for mu in weights]
    chamber = numerators(lambda_c(cfg), family.scale)
    for mu, nums in zip(weights, family.numerators, strict=True):
        assert nums == numerators(mu, family.scale)
        assert [a - c for a, c in zip(nums, chamber)] == [family.scale * d for d in delta(mu, cfg)]
        assert is_singular(nums) == is_singular(shift(mu))


def test_integer_linkage_key_groups_as_the_fraction_key(cfg):
    family = family_table(cfg)
    weights = reference_family(cfg)
    blocks = partition_into_blocks(family)
    assert [b.weights for b in blocks] == reference_blocks(weights)
    for b in blocks:
        assert b.weights == tuple(weights[i] for i in b.positions)


def test_integer_dominance_and_order_match_the_fraction_forms(cfg):
    family = family_table(cfg)
    nums, weights = family.numerators, reference_family(cfg)
    n = len(family)
    by_key = sorted(range(n), key=lambda i: dominance_sort_key(nums[i]))
    assert by_key == sorted(range(n), key=lambda i: reference_sort_key(weights[i]))
    for i in range(0, n, max(1, n // 24)):  # all pairs up to 24 weights
        for j in range(n):
            expected = reference_dominance_leq(weights[i], weights[j])
            assert dominance_leq(nums[i], nums[j], family.scale) == expected, (i, j)


def test_table_flags_match_the_flag_routines(cfg):
    family = family_table(cfg)
    weights = reference_family(cfg)
    assert dict(zip(weights, family.flag)) == reference_verma_flag(cfg)
    level = {weights[i]: m for i, m in family.level_flag.items()}
    assert level == reference_truncated_verma_flag(cfg)
    assert list(family.level_flag) == sorted(family.level_flag)  # family order


def test_engine_accepts_exactly_its_block(cfg):
    # the engine keys states with the same function, at its own scale
    family = family_table(cfg)
    blocks = partition_into_blocks(family)
    for block in blocks:
        if block.is_singleton or is_singular(block.numerators[0]):
            continue
        engine = kl.CanonicalBasisEngine(block.ctx, block.numerators[0], block.scale, {})
        for x in block.numerators:
            engine._state_id(x)
        for other in blocks[:12]:
            if other is not block:
                with pytest.raises(ValueError, match="off the linkage class"):
                    engine._state_id(other.numerators[0])


@pytest.mark.parametrize("u, r", [(("1/3",), 4), (("0", "1/2"), 3), (("0", "1/3", "1/2"), 2)])
def test_family_table_walks_each_level_once(monkeypatch, u, r):
    # the labels and flags come off the level-2k walk table and the level
    # flag off the level-k one; no other shape enumeration runs, and the
    # numerators come from one enumerate_F call on the table's labels
    cfg = build_config([F(x) for x in u], r)
    walked, rows = [], []
    walk = combinat.updown_count_table

    def counted_walk(a, r):
        walked.append((a, r))
        return walk(a, r)

    def counted_rows(cfg, labels):
        rows.append(labels)
        return enumerate_F(cfg, labels)

    def refuse(*args):
        raise AssertionError("a second shape enumeration")

    monkeypatch.setattr(combinat, "updown_count_table", counted_walk)
    monkeypatch.setattr(combinat, "enumerate_lambda", refuse)
    monkeypatch.setattr("brauer_kl.weights.enumerate_F", counted_rows)
    family = family_table(cfg)
    assert walked == [(2 * cfg.k, r), (cfg.k, r)]
    assert rows == [family.labels]
    assert list(family.labels) == reference_enumerate_lambda(2 * cfg.k, r)


# -- the integer codec: tilde and enumerate_F on numerators ---------------


@pytest.mark.parametrize(
    "u, r", SELECTION_GRID, ids=[f"{','.join(u)}-r{r}" for u, r in SELECTION_GRID]
)
def test_integer_codec_matches_the_fraction_route(u, r):
    cfg = build_config([F(x) for x in u], r)
    scale, _ = shifted_chamber(cfg.u, cfg.q)
    labels = list(combinat.enumerate_lambda(2 * cfg.k, r))
    rows = enumerate_F(cfg, labels)
    assert rows == [numerators(reference_hat(idx, cfg), scale) for idx in labels]
    assert [enumerate_F(cfg, [idx])[0] for idx in labels] == rows  # one label at a time
    assert [tilde(x, cfg) for x in rows] == labels
    assert tuple(rows) == family_table(cfg).numerators


def test_tilde_refuses_with_the_weight_named():
    cfg = build_config([F(1, 3)], 2)
    scale, chamber = shifted_chamber(cfg.u, cfg.q)
    assert scale == 6
    off_grid = (chamber[0] + 3,) + chamber[1:]  # a shift of 1/2 in the first coordinate
    with pytest.raises(ValueError) as exc:
        tilde(off_grid, cfg)
    assert str(exc.value) == (
        "weight is not an integral shift of the chamber weight: " + weight_name(off_grid, scale)
    )
    rising = chamber[:-1] + (chamber[-1] + 2 * scale,)  # the last entry passes its neighbour
    too_far = (chamber[0] + 3 * scale,) + chamber[1:]  # a shift of size 3 > r
    for x in (rising, too_far, chamber[:-1]):
        with pytest.raises(ValueError) as exc:
            tilde(x, cfg)
        assert str(exc.value) == "weight is not in the r-shift family: " + weight_name(x, scale)
        assert "Fraction(" not in str(exc.value)
