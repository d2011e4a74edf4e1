"""Parameter admissibility and the disjoint block-size extension."""

import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

import brauer_kl
from brauer_kl import weights
from brauer_kl.kl import UnsupportedBlock
from brauer_kl.params import (
    MAX_BLOCK_SIZE,
    BlockSizesTooLarge,
    ParamConfig,
    _even_ceil,
    build_config,
    doubly_regular_reflection,
    extend_parameters,
    omega_series,
    phiA_condition,
    select_block_sizes,
    simple_param_condition,
    u_from_delta,
    verify_block_sizes,
)
from brauer_kl.pipeline import SaturationNotEstablished, decomposition_report
from brauer_kl.weights import family_table
from verify_routes import (
    is_r_disjoint,
    lambda_c,
    numerators,
    omega_series_by_convolution,
    polynomial_route,
    psi_sets,
    verify_disjoint_extension,
)

F = Fraction

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


def fraction_route_verifies(u, q, r):
    """The block-size check on Fraction weights: psi_sets over every root
    and r-disjointness of the extended parameters."""
    cfg = extend_parameters(u, q, r)
    _, psi_pp = psi_sets(lambda_c(cfg), weights.context_of(cfg))
    return not psi_pp and verify_disjoint_extension(cfg)


def linkage_classes(u):
    """Group parameter indices whose sums or differences are integral.

    u_s - u_t is integral iff frac(u_s) = frac(u_t), and u_s + u_t iff
    frac(u_s) = frac(-u_t); so u_s and u_t are linked exactly when they
    share the key min(frac(u), frac(-u)), and linkage is an equivalence.
    """
    groups = {}
    for i, x in enumerate(u):
        groups.setdefault(min(x % 1, -x % 1), []).append(i)
    return list(groups.values())


def reference_block_sizes(u, r):
    """The block sizes at the largest base the selection tries, kept as an
    independent reference: base 2r + 4 + 2 * (largest integral positive
    parameter sum), staggered across each class of parameters linked by an
    integral sum or difference (a coarser stagger than the selection's, which
    links integral differences only), checked to verify on the Fraction
    route."""
    u = [F(x) for x in u]
    k = len(u)
    int_sum_bound = max(
        [int(u[s] + u[t]) for s in range(k) for t in range(s, k)
         if (u[s] + u[t]).denominator == 1 and u[s] + u[t] > 0],
        default=0,
    )
    q = [2 * r + 4 + 2 * int_sum_bound] * k
    for group in linkage_classes(u):
        members = sorted(group, key=lambda i: (u[i], i))
        for pos in range(1, len(members)):
            idx, prev = members[pos], members[pos - 1]
            q[idx] = q[prev] + _even_ceil(u[idx] - u[prev] + r + 2)
    assert fraction_route_verifies(u, q, r), (u, q, r)
    return q


@given(
    st.lists(st.fractions(min_value=-30, max_value=30, max_denominator=8), min_size=1, max_size=5)
)
@example([F(1, 3), F(2, 3), F(4, 3), F(1, 2)])
def test_linkage_classes_link_integral_sums_and_differences(u):
    cls = {i: n for n, group in enumerate(linkage_classes(u)) for i in group}
    assert sorted(cls) == list(range(len(u)))
    for s in range(len(u)):
        for t in range(s + 1, len(u)):
            linked = (u[s] - u[t]).denominator == 1 or (u[s] + u[t]).denominator == 1
            assert (cls[s] == cls[t]) == linked, (u, s, t)


def test_omega_series_single_parameter_examples():
    assert omega_series([F(3, 2)], 0) == [F(4)]
    assert omega_series([F(0)], 0) == [F(1)]


def test_omega_series_level_one_closed_form():
    # k = 1, e = -1/2: omega_0 = 2u + 1 and omega_a = 2 u^a (u + 1/2) for a >= 1
    u = F(5, 2)
    series = omega_series([u], 3)
    assert series[0] == 2 * u + 1
    # (x - e)(x+u)/(x-u) - x + 1/2 with e = -1/2: omega_a = 2 u^a (u + 1/2), a >= 1
    for a in (1, 2, 3):
        assert series[a] == 2 * u**a * (u + F(1, 2))


def test_omega_series_depth_prefix_consistency():
    v = [F(1, 3), F(7, 2)]
    assert omega_series(v, 1) == omega_series(v, 4)[:2]


@given(st.lists(rationals | st.just(F(0)), min_size=1, max_size=4), st.integers(0, 12))
@example([F(1, 2), F(1, 3), F(7, 5)], 12)
def test_omega_series_recurrence_matches_the_convolution(v, N):
    assert omega_series(v, N) == omega_series_by_convolution(v, N)


@pytest.mark.parametrize("v, N", [([], 2), ([F(1)], -1)])
def test_omega_series_refuses_an_empty_list_or_negative_N(v, N):
    with pytest.raises(ValueError):
        omega_series(v, N)


def test_is_r_disjoint_examples():
    assert is_r_disjoint(F(1, 3), F(1, 2), 5)
    assert is_r_disjoint(F(5), F(1), 3)
    assert not is_r_disjoint(F(2), F(1), 3)


def test_is_r_disjoint_is_symmetric_and_sign_blind():
    assert is_r_disjoint(F(1), F(5), 3)
    assert not is_r_disjoint(F(-2), F(1), 3)  # sum -1 is integral, |.| < 3


def test_simple_param_condition_level_one():
    assert simple_param_condition([F(1, 2)], 1) is False
    assert simple_param_condition([F(0)], 1) is True
    assert simple_param_condition([F(1, 3)], 1) is True


def test_simple_param_condition_level_two():
    # omega_0 of the twisted parameters = 2(u_1 + u_2)... nonzero generically
    assert simple_param_condition([F(1, 3), F(7, 2)], 2) is True


@given(st.lists(rationals, min_size=1, max_size=3))
@example(["1/3", "7/2"])
@example(["0", "1/2", "1/4"])
@example(["0", "1/3", "2/3"])
@example(["1", "2", "3"])
@example(["5", "1", "0"])
@example(["1/2", "-1/2", "3/2"])
@example(["2", "-1", "1/3"])
@example(["1/5", "9/7", "2/11"])
def test_simple_param_condition_routes_agree(u):
    # the omega series against the polynomial identity, at levels one to
    # three; the examples are the level-two case above and K3_SLICE's triples
    u = [F(x) for x in u]
    assert simple_param_condition(u, len(u)) == polynomial_route(u, len(u))


def test_select_block_sizes_examples():
    # the walk starts at the even ceiling of r, and only parameters with an
    # integral difference are staggered
    assert select_block_sizes([F(0)], 3) == [4]
    assert select_block_sizes([F(1, 3)], 2) == [2]
    assert select_block_sizes([F(4, 3), F(-4, 3)], 4) == [4, 4]  # an integral sum only
    assert select_block_sizes([F(0), F(1)], 1) == [2, 6]  # u_2 - u_1 = 1: staggered by 4


# (u, r) whose first verified choice has a block of MAX_BLOCK_SIZE exactly ->
# one whose walk reaches a block past it first
AT_THE_BOUND = {
    (("9999",), 2): (("10000",), 2),  # an integer u first verifies at q = 2u + 2
    (("0",), 20000): (("0",), 20001),  # the walk starts at the even ceiling of r
    (("-19994", "0"), 2): (("-19995", "0"), 2),  # base 2; u_2 is staggered by 19998
}


def test_only_a_walk_that_passes_the_bound_is_refused():
    # base0 = 2r + 4 + 2M = 20004 here, but the walk verifies long before it
    assert select_block_sizes([F(4999)], 2) == [10000]


@pytest.mark.parametrize("at", list(AT_THE_BOUND), ids=str)
def test_block_sizes_are_refused_just_past_the_bound(at):
    (u, r), (past_u, past_r) = at, AT_THE_BOUND[at]
    assert max(select_block_sizes([F(x) for x in u], r)) == MAX_BLOCK_SIZE
    with pytest.raises(BlockSizesTooLarge, match=f"past {MAX_BLOCK_SIZE} coordinates"):
        select_block_sizes([F(x) for x in past_u], past_r)


def test_extend_parameters_examples():
    cfg = extend_parameters([F(1, 3)], [8], 2)
    assert cfg.u_ext == (F(1, 3), F(23, 3))
    cfg = extend_parameters([F(0)], [10], 3)
    assert cfg.u_ext == (F(0), F(10))  # q_1 - u_1


def test_extend_parameters_invariants():
    cfg = build_config([F(0)], 3)
    assert cfg.n == 4 and cfg.p == (0, 4)
    assert cfg.omega[0] == 2 * cfg.n
    assert cfg.c == (F(-7, 2),)
    assert verify_disjoint_extension(cfg)


def test_omega_zero_check_survives_python_O():
    src = os.path.dirname(os.path.dirname(brauer_kl.__file__))
    code = (
        "from fractions import Fraction as F\n"
        "from brauer_kl import params\n"
        "series = params.omega_series\n"
        "params.omega_series = lambda v, N: [w + 1 for w in series(v, N)]\n"
        "try:\n"
        "    params.extend_parameters([F(0)], [4], 2)\n"
        "except AssertionError as exc:\n"
        "    print('refused:', exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "refused: omega_0 = 9 != 2n = 8\n"


def test_extend_parameters_rejects_bad_boundaries():
    # the boundaries are the prefix sums of q: an empty block would repeat one
    with pytest.raises(ValueError, match="q must be 1 positive block size"):
        extend_parameters([F(0)], [0], 2)


def test_guards_raise_value_error_under_python_O():
    src = os.path.dirname(os.path.dirname(brauer_kl.__file__))
    code = (
        "from fractions import Fraction as F\n"
        "from brauer_kl import oracle, params, specht\n"
        "guarded = [\n"
        "    lambda: params.extend_parameters([F(0)], [0], 2),\n"
        "    lambda: params.extend_parameters([F(0)], [4, 4], 2),\n"
        "    lambda: oracle.multiply((1, 0, 3, 2), (1, 0)),\n"
        "    lambda: specht.specht_module((1, 2)),\n"
        "]\n"
        "for call in guarded:\n"
        "    try:\n"
        "        call()\n"
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
    assert proc.stdout.splitlines() == [
        "refused: q must be 1 positive block size(s), got (0,)",
        "refused: q must be 1 positive block size(s), got (4, 4)",
        "refused: diagrams must share r",
        "refused: not a partition: (1, 2)",
    ]


def test_serialize_is_json_ready():
    cfg = build_config([F(1, 3)], 2)
    data = cfg.serialize()
    assert data["k"] == 1 and data["r"] == 2
    assert data["u"] == ["1/3"]
    assert data["q"] == [2] and data["p"] == [0, 2]
    assert data["u_ext"] == ["1/3", "5/3"]
    import json

    json.dumps(data)  # everything plain


def test_config_is_hashable_and_frozen():
    cfg = build_config([F(0)], 2)
    hash(cfg)
    with pytest.raises(Exception):
        cfg.n = 5  # type: ignore[misc]


@settings(deadline=None)
@given(rationals, st.integers(min_value=1, max_value=3))
def test_selected_blocks_always_verify(u1, r):
    q = select_block_sizes([u1], r)
    cfg = extend_parameters([u1], q, r)
    assert q[0] >= r and q[0] % 2 == 0
    assert q[0] <= reference_block_sizes([u1], r)[0]
    assert cfg.n % 2 == 0
    assert cfg.omega[0] == 2 * cfg.n
    assert verify_disjoint_extension(cfg)
    family_table(cfg)  # every label fits its blocks


@settings(deadline=None, max_examples=25)
@given(rationals, rationals, st.integers(min_value=1, max_value=2))
def test_selected_blocks_verify_level_two(u1, u2, r):
    q = select_block_sizes([u1, u2], r)
    cfg = extend_parameters([u1, u2], q, r)
    assert all(qi >= r and qi % 2 == 0 for qi in q)
    reference = reference_block_sizes([u1, u2], r)
    assert all(qi <= ri for qi, ri in zip(q, reference))
    assert cfg.n % 2 == 0
    assert cfg.omega[0] == 2 * cfg.n
    assert verify_disjoint_extension(cfg)
    family_table(cfg)  # every label fits its blocks


@given(
    st.lists(rationals, min_size=1, max_size=3),
    st.integers(min_value=2, max_value=8),
    st.data(),
)
def test_no_block_below_r_verifies(u, r, data):
    # q_l is the integral sum of the extended parameters u_l and q_l - u_l,
    # so a block smaller than r is never r-disjoint: the walk may start at r
    q = data.draw(st.lists(st.integers(1, 3 * r), min_size=len(u), max_size=len(u)))
    short = data.draw(st.integers(0, len(u) - 1))
    q[short] = data.draw(st.integers(1, r - 1))
    assert not verify_block_sizes(u, q, r)


# (u, r, assume_saturated): level one over integers, half-integers and
# thirds, with wall blocks, an unsupported block and cell-data-only cases;
# level two over linked pairs, with and without the saturation waiver; and
# levels two and three over parameters linked by an integral sum alone
Q_INVARIANCE_GRID = [
    ((u,), r, False)
    for r in (1, 2, 3, 4)
    for u in ("-2", "0", "1", "1/2", "3/2", "5/2", "1/3")
    if (u, r) != ("3/2", 4)  # 2.9 s under the reference rule
] + [
    (pair, r, saturated)
    for r in (1, 2)
    for pair in (
        ("5", "1"), ("1", "0"), ("2", "1"), ("0", "0"), ("1/2", "-1/2"),
        ("0", "1/3"), ("3/2", "1/3"), ("1/5", "9/7"),
    )
    for saturated in (False, True)
] + [(("1", "1/2"), 1, True), (("0", "1/2"), 2, True)] + [
    (u, r, saturated)
    for u, rs in (
        # parameters linked by an integral sum alone, which the selection
        # does not stagger; each at the r <= 2 where the reference runs in
        # under 1 s (it takes 4.8 s for (4/3, -4/3) at r = 2)
        (("1/3", "2/3"), (1, 2)), (("4/3", "-4/3"), (1,)), (("15/4", "-11/4"), (1, 2)),
        (("18/5", "-18/5", "-7/3"), (1,)),
    )
    for r in rs
    for saturated in (False, True)
]


def report_outcome(u, r, q, assume_saturated):
    """The report without its ``params`` block, or the refusal it ends in."""
    cfg = extend_parameters(u, q, r)
    try:
        report = decomposition_report(family_table(cfg), assume_saturated=assume_saturated)
    except (SaturationNotEstablished, UnsupportedBlock) as exc:
        return type(exc).__name__, str(exc)
    except ValueError as exc:  # its message lists q-dependent coordinates
        return type(exc).__name__
    del report["params"]
    return report


@pytest.mark.parametrize(
    "u, r, assume_saturated",
    Q_INVARIANCE_GRID,
    ids=[f"{','.join(u)}-r{r}{'-saturated' * s}" for u, r, s in Q_INVARIANCE_GRID],
)
def test_reports_do_not_depend_on_the_block_sizes(u, r, assume_saturated):
    u = [F(x) for x in u]
    q = select_block_sizes(u, r)
    reference = reference_block_sizes(u, r)
    assert all(qi <= ri for qi, ri in zip(q, reference))
    assert report_outcome(u, r, q, assume_saturated) == report_outcome(
        u, r, reference, assume_saturated
    )


# (u, r): level three, over linked and unlinked triples
K3_SLICE = [
    (triple, r)
    for r in (1, 2, 3)
    for triple in (
        ("0", "1/2", "1/4"), ("0", "1/3", "2/3"), ("1", "2", "3"), ("5", "1", "0"),
        ("1/2", "-1/2", "3/2"), ("2", "-1", "1/3"), ("1/5", "9/7", "2/11"),
    )
]
SELECTION_GRID = list(dict.fromkeys([(u, r) for u, r, _ in Q_INVARIANCE_GRID] + K3_SLICE))


@pytest.fixture(scope="module")
def tried_candidates():
    """Every (u, q, r) the selection checks over the selection grid."""
    tried = []
    check = verify_block_sizes
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            brauer_kl.params, "verify_block_sizes",
            lambda u, q, r: tried.append((u, q, r)) or check(u, q, r),
        )
        for u, r in SELECTION_GRID:
            select_block_sizes([F(x) for x in u], r)
    return tried


def test_integer_verdict_matches_the_fraction_route(tried_candidates):
    # on every candidate: the chamber numerators are scale * (lambda_c + rho),
    # the closed forms give psi_sets' verdicts (a doubly-regular reflection,
    # a positively paired cross-block minus root), and the verdict is the
    # Fraction route's
    verdicts = Counter()
    for u, q, r in tried_candidates:
        cfg = extend_parameters(u, q, r)
        scale, x = weights.shifted_chamber(u, q)
        assert x == numerators(lambda_c(cfg), scale)
        assert scale == lcm(*(c.denominator for c in cfg.c))
        psi, psi_pp = psi_sets(lambda_c(cfg), weights.context_of(cfg))
        assert doubly_regular_reflection(u, q) == bool(psi_pp)
        assert phiA_condition(u, q) == all(b.kind == "plus" for b in psi)
        verdict = verify_block_sizes(u, q, r)
        assert verdict == fraction_route_verifies(u, q, r)
        verdicts[verdict, bool(psi_pp)] += 1
    # candidates fail both ways: a doubly-regular reflection, and
    # parameters that are not r-disjoint
    assert verdicts.keys() == {(True, False), (False, True), (False, False)}


def test_closed_forms_match_psi_sets_on_a_seeded_grid():
    # 500 (u, q) with the seed fixed: k <= 4, u = a/b with b <= 6 and
    # |u| <= 8, and any q_j in 1..12, staggered or not
    rng = random.Random(22)
    verdicts = Counter()
    for _ in range(500):
        k = rng.randint(1, 4)
        u = [F(rng.randint(-8 * b, 8 * b), b) for b in (rng.randint(1, 6) for _ in range(k))]
        q = [rng.randint(1, 12) for _ in range(k)]
        cfg = extend_parameters(u, q, 1)
        psi, psi_pp = psi_sets(lambda_c(cfg), weights.context_of(cfg))
        regular, saturated = doubly_regular_reflection(u, q), phiA_condition(u, q)
        assert regular == bool(psi_pp), (u, q)
        assert saturated == all(b.kind == "plus" for b in psi), (u, q)
        verdicts[regular, saturated] += 1
    assert len(verdicts) == 4


@pytest.mark.parametrize(
    "u, r",
    SELECTION_GRID + [(("30",), 3)],
    ids=[f"{','.join(u)}-r{r}" for u, r in SELECTION_GRID + [(("30",), 3)]],
)
def test_the_largest_base_always_verifies(u, r):
    # the reference rule asserts that its base verifies on the Fraction
    # route; the selection stops there at the latest
    u = [F(x) for x in u]
    reference = reference_block_sizes(u, r)
    assert verify_block_sizes(u, reference, r)
    assert all(qi <= ri for qi, ri in zip(select_block_sizes(u, r), reference))


def test_delta_u_dictionary():
    assert u_from_delta(F(1)) == 0
    assert u_from_delta(F(-2)) == F(3, 2)
    for d in (F(1), F(2), F(-2), F(7, 3)):
        assert 1 - 2 * u_from_delta(d) == d  # delta = 1 - 2 u_1
