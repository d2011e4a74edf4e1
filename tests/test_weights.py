"""Type-D weight combinatorics for the parabolic category."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import brauer_kl
from brauer_kl.combinat import LambdaIndex, double_factorial, enumerate_lambda
from brauer_kl.params import (
    build_config,
    doubly_regular_reflection,
    extend_parameters,
    phiA_condition,
)
from brauer_kl.weights import (
    Root,
    WeightContext,
    blockwise_decreasing,
    context_of,
    dominance_leq,
    dominance_less,
    dominance_sort_key,
    enumerate_F,
    family_table,
    is_singular,
    pairing,
    rho,
    shifted_chamber,
    tilde,
    weight_of,
)
from verify_routes import (
    block_of,
    blockwise_regular,
    delta,
    in_F_r,
    in_F_rk,
    lambda_c,
    numerators,
    positive_roots,
    psi_sets,
    reflect,
    reference_tilde,
)

F = Fraction


def test_rho():
    assert rho(3) == (F(2), F(1), F(0))
    assert rho(1) == (F(0),)


def test_positive_roots_count():
    # type D_n: n(n-1) positive roots
    for n in (2, 3, 4):
        assert len(list(positive_roots(n))) == n * (n - 1)


def test_pairing_and_reflect():
    x = (F(3), F(1), F(-2))
    plus01 = Root(0, 1, "plus")
    minus01 = Root(0, 1, "minus")
    assert pairing(x, minus01) == 2  # x_i - x_j
    assert pairing(x, plus01) == 4  # x_i + x_j
    assert reflect(x, minus01) == (F(1), F(3), F(-2))
    assert reflect(x, plus01) == (F(-1), F(-3), F(-2))
    # reflections are involutions
    for beta in positive_roots(3):
        assert reflect(reflect(x, beta), beta) == x


@st.composite
def coordinates_with_collisions(draw):
    """Small rational tuples, with copies, negations and zeros planted."""
    x = draw(st.lists(st.fractions(-2, 2, max_denominator=2), min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 2))):
        a = draw(st.sampled_from(x))
        x.insert(draw(st.integers(0, len(x))), draw(st.sampled_from([a, -a, F(0)])))
    return tuple(x)


@settings(max_examples=300)
@given(coordinates_with_collisions())
@example((F(0),))
@example((F(0), F(0)))
@example((F(1, 2), F(-1, 2)))
@example((F(3, 2), F(1, 2), F(0)))
def test_is_singular_means_some_root_pairs_to_zero(x):
    expected = any(pairing(x, beta) == 0 for beta in positive_roots(len(x)))
    assert is_singular(x) == expected


def test_weight_context_blocks():
    ctx = WeightContext(10, (0, 4, 10))
    assert ctx.k == 2
    assert list(ctx.blocks()) == [(0, 4), (4, 10)]
    assert block_of(ctx, 0) == 0 and block_of(ctx, 4) == 1 and block_of(ctx, 9) == 1


def test_lambda_c_level_one_example():
    cfg = extend_parameters([F(0)], [10], 3)
    assert lambda_c(cfg) == (F(-19, 2),) * 10


def test_lambda_c_is_blockwise_constant():
    cfg = build_config([F(1, 3), F(7, 2)], 2)
    lc = lambda_c(cfg)
    for t, (start, end) in enumerate(context_of(cfg).blocks()):
        assert len({lc[i] for i in range(start, end)}) == 1
        assert lc[start] == cfg.c[t]


def test_blockwise_predicates():
    ctx = WeightContext(4, (0, 2, 4))
    assert blockwise_decreasing((F(3), F(1), F(5), F(2)), ctx)
    assert not blockwise_decreasing((F(1), F(3), F(5), F(2)), ctx)
    assert blockwise_regular((F(1), F(3), F(5), F(2)), ctx)
    assert not blockwise_regular((F(3), F(3), F(5), F(2)), ctx)


def test_psi_sets_empty_at_chamber_weight():
    cfg = extend_parameters([F(0)], [10], 3)
    ctx = context_of(cfg)
    psi, psi_pp = psi_sets(lambda_c(cfg), ctx)
    assert psi == set() and psi_pp == set()
    assert not doubly_regular_reflection(cfg.u, cfg.q)
    assert phiA_condition(cfg.u, cfg.q)


def test_psi_sets_positive_pairing_without_double_regularity():
    # u = 5/2: x = lambda_c + rho has x_1 + x_2 = 2u - 2 = 3 > 0 integral,
    # so e_1 + e_2 is positively paired; its reflection collides inside the
    # block, so it is not doubly regular.
    cfg = build_config([F(5, 2)], 3)
    ctx = context_of(cfg)
    x = tuple(a + b for a, b in zip(lambda_c(cfg), rho(cfg.n)))
    beta = Root(0, 1, "plus")
    assert pairing(x, beta) == 3
    psi, psi_pp = psi_sets(lambda_c(cfg), ctx)
    assert beta in psi
    assert beta not in psi_pp
    assert psi_pp == set()
    # the same-block plus form: sigma = 2u = 5 falls short of q + 1 = 9
    assert cfg.q == (8,) and not doubly_regular_reflection(cfg.u, cfg.q)
    # at q = 4, sigma = q + 1 with q even: the block holds 0, and the root
    # joins it to the top entry 2
    cfg = extend_parameters([F(5, 2)], [4], 3)
    assert psi_sets(lambda_c(cfg), context_of(cfg))[1] == {Root(0, 2, "plus")}
    assert doubly_regular_reflection(cfg.u, cfg.q)


def test_phiA_vacuous_at_level_one():
    for u, q in ((F(5, 2), 8), (F(0), 2), (F(-3), 12)):
        assert phiA_condition([u], [q]) is True
    # two blocks, d = u_1 - u_2 = -1: the largest cross-block minus pairing
    # d + q_2 - 1 is 0 at q_2 = 2 and 1 at q_2 = 3
    assert phiA_condition([F(0), F(1)], [4, 2]) is True
    assert phiA_condition([F(0), F(1)], [4, 3]) is False


def test_delta_of_chamber_weight_is_zero():
    cfg = build_config([F(0)], 2)
    assert delta(lambda_c(cfg), cfg) == (0,) * cfg.n


def test_hat_tilde_examples():
    cfg = extend_parameters([F(0)], [10], 3)
    scale, _ = shifted_chamber(cfg.u, cfg.q)
    lc = lambda_c(cfg)
    mu = tuple(lc[i] + (1 if i < 3 else 0) for i in range(10))
    assert tilde(numerators(mu, scale), cfg) == LambdaIndex(0, ((1, 1, 1), ()))
    assert enumerate_F(cfg, [LambdaIndex(0, ((1, 1, 1), ()))]) == [numerators(mu, scale)]
    nu = tuple(lc[i] + (1 if i == 0 else 0) - (1 if i >= 8 else 0) for i in range(10))
    assert tilde(numerators(nu, scale), cfg) == LambdaIndex(0, ((1,), (1, 1)))
    assert reference_tilde(nu, cfg) == LambdaIndex(0, ((1,), (1, 1)))


def family_rows(cfg):
    """The family's numerators in label order, by one ``enumerate_F`` call."""
    return enumerate_F(cfg, enumerate_lambda(2 * cfg.k, cfg.r))


def test_hat_tilde_roundtrip_over_F():
    cfg = build_config([F(1, 3)], 3)
    for idx in enumerate_lambda(2 * cfg.k, cfg.r):
        assert tilde(enumerate_F(cfg, [idx])[0], cfg) == idx
    for mu in family_rows(cfg):
        assert enumerate_F(cfg, [tilde(mu, cfg)]) == [mu]


def test_hat_tilde_roundtrip_level_two():
    cfg = build_config([F(1, 3), F(7, 2)], 2)
    for idx in enumerate_lambda(2 * cfg.k, cfg.r):
        assert tilde(enumerate_F(cfg, [idx])[0], cfg) == idx


def test_F_family_sizes_level_one():
    cfg = extend_parameters([F(0)], [10], 3)
    scale, _ = shifted_chamber(cfg.u, cfg.q)
    family = [weight_of(x, scale) for x in family_rows(cfg)]
    assert len(family) == 12
    assert len(set(family)) == 12
    assert sum(1 for mu in family if in_F_rk(mu, cfg)) == 4
    assert all(in_F_r(mu, cfg) for mu in family)


def test_F_1_members():
    cfg = build_config([F(1, 3)], 1)
    scale, _ = shifted_chamber(cfg.u, cfg.q)
    lc = lambda_c(cfg)
    family = set(family_rows(cfg))
    up = list(lc)
    up[0] += 1
    down = list(lc)
    down[-1] -= 1
    assert family == {numerators(tuple(up), scale), numerators(tuple(down), scale)}
    assert in_F_rk(tuple(up), cfg)
    assert not in_F_rk(tuple(down), cfg)


def test_chamber_weight_in_F_iff_r_even():
    for r in (1, 2, 3, 4):
        cfg = build_config([F(1, 3)], r)
        assert in_F_r(lambda_c(cfg), cfg) == (r % 2 == 0)


def test_family_size_matches_index_count():
    for k, u, r in [(1, [F(0)], 2), (1, [F(1, 3)], 3), (2, [F(1, 3), F(7, 2)], 2)]:
        cfg = build_config(u, r)
        assert len(family_table(cfg)) == len(enumerate_lambda(2 * k, r))


def test_dominance_examples():
    a = (2, 1, 0)
    b = (1, 1, 1)
    # a - b = (1, 0, -1) = e1 - e3: a dominates b
    assert dominance_leq(b, a, 1)
    assert not dominance_leq(a, b, 1)
    assert dominance_less(b, a, 1)
    assert not dominance_less(a, a, 1)
    assert dominance_leq(a, a, 1)
    # over scale 2, (2, 0, -2) is e1 - e3 and (1, 0, -1) is not integral
    assert dominance_less((0, 0, 0), (2, 0, -2), 2)
    assert not dominance_leq((0, 0, 0), (1, 0, -1), 2)
    assert not dominance_leq((1, 0, -1), (0, 0, 0), 2)


def test_dominance_includes_sign_drops():
    # e_{n-1} + e_n is a positive root in type D: lowering both last entries
    # by 1/2 each... integral variant: mu - (0, 1, 1) <= mu
    mu = (5, 3, 2)
    lower = (5, 2, 1)
    assert dominance_leq(lower, mu, 1)
    assert not dominance_leq(mu, lower, 1)


def test_dominance_sort_key_is_linear_extension():
    family = family_table(extend_parameters([F(0)], [10], 3))
    ordered = sorted(family.numerators, key=dominance_sort_key)
    for i, lo in enumerate(ordered):
        for hi in ordered[i + 1 :]:
            assert not dominance_less(hi, lo, family.scale)


@settings(deadline=None, max_examples=20)
@given(st.sampled_from([F(0), F(1, 3), F(5, 2)]), st.integers(min_value=1, max_value=3))
def test_enumerate_F_members_pass_membership(u1, r):
    cfg = build_config([u1], r)
    scale, _ = shifted_chamber(cfg.u, cfg.q)
    for x in family_rows(cfg):
        assert in_F_r(weight_of(x, scale), cfg)
        assert blockwise_decreasing(x, context_of(cfg))


# each call breaks one guard: the checks are ValueErrors, not asserts
GUARDED_CALLS = (
    ("WeightContext(4, (0, 5))", "block boundaries"),
    ("WeightContext(4, (0, 2, 2, 4))", "block boundaries"),
    ("enumerate_F(cfg, [LambdaIndex(0, ((2,),))])", "expected a level-2 multipartition"),
    ("enumerate_F(cfg, [LambdaIndex(0, ((1,), ()))])", "does not have size r - 2f"),
    ("dominance_leq((1,), (1, 0), 1)", "different lengths"),
)


@pytest.mark.parametrize("call, message", GUARDED_CALLS)
def test_weight_guards_raise_value_errors(call, message):
    cfg = build_config([F(1, 3)], 2)
    scope = dict(globals(), cfg=cfg)
    with pytest.raises(ValueError, match=message):
        eval(call, scope)


def test_weight_guards_survive_python_O():
    src = os.path.dirname(os.path.dirname(brauer_kl.__file__))
    code = (
        "from fractions import Fraction as F\n"
        "from brauer_kl.combinat import LambdaIndex\n"
        "from brauer_kl.params import build_config\n"
        "from brauer_kl.weights import WeightContext, dominance_leq, enumerate_F\n"
        "cfg = build_config([F(1, 3)], 2)\n"
        f"for call in {[call for call, _ in GUARDED_CALLS]!r}:\n"
        "    try:\n"
        "        eval(call)\n"
        "    except ValueError as exc:\n"
        "        print('refused:', exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == len(GUARDED_CALLS)
    for line, (_, message) in zip(lines, GUARDED_CALLS):
        assert line.startswith("refused: ") and message in line
