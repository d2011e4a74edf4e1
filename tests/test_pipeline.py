"""Verma flags, content cross-check, tilting peel, and report assembly."""

import hashlib
import json
import random
import re
from collections import Counter
from fractions import Fraction
from functools import cache
from math import factorial, prod

import pytest

from brauer_kl import kl, pipeline, weights
from brauer_kl.combinat import LambdaIndex, enumerate_lambda, family_label, level_label, transpose
from brauer_kl.params import build_config, extend_parameters, omega_series, u_from_delta
from brauer_kl.pipeline import (
    NegativeResidual,
    SaturationNotEstablished,
    content_mismatches,
    decomposition_report,
    report_to_csv,
    simple_dimensions,
    tilting_decomposition,
)
from brauer_kl.weights import family_table, tilde
from verify_routes import (
    in_F_rk,
    rank,
    reference_family,
    updown_count,
    walk_content_mismatches,
)

F = Fraction

# flag multiplicities for k = 1, r = 3, q = (10), keyed by (f, shape)
FROZEN_FLAG_K1_R3 = {
    (0, ((3,), ())): 1,
    (0, ((2, 1), ())): 2,
    (0, ((1, 1, 1), ())): 1,
    (0, ((2,), (1,))): 3,
    (0, ((1, 1), (1,))): 3,
    (0, ((1,), (2,))): 3,
    (0, ((1,), (1, 1))): 3,
    (0, ((), (3,))): 1,
    (0, ((), (2, 1))): 2,
    (0, ((), (1, 1, 1))): 1,
    (1, ((1,), ())): 6,
    (1, ((), (1,))): 6,
}


def test_verma_flag_frozen_k1_r3():
    cfg = extend_parameters([F(0)], [10], 3)
    family = family_table(cfg)
    labeled = {tuple(tilde(x, cfg)): m for x, m in zip(family.numerators, family.flag)}
    assert labeled == FROZEN_FLAG_K1_R3
    assert sorted(family.flag) == [1, 1, 1, 1, 2, 2, 3, 3, 3, 3, 6, 6]


def test_flag_counts_walks_of_the_double_level():
    cfg = build_config([F(1, 3)], 2)
    family = family_table(cfg)
    for x, m in zip(family.numerators, family.flag):
        idx = tilde(x, cfg)
        assert m == updown_count(2, 2, idx.shape)


def test_truncated_flag_equals_level_k_walk_counts():
    cfg = extend_parameters([F(0)], [10], 3)
    family = family_table(cfg)
    t = family.level_flag
    assert set(t) == {i for i, mu in enumerate(reference_family(cfg)) if in_F_rk(mu, cfg)}
    labeled = {tuple(tilde(family.numerators[i], cfg)): m for i, m in t.items()}
    assert labeled == {
        (0, ((3,), ())): 1,
        (0, ((2, 1), ())): 2,
        (0, ((1, 1, 1), ())): 1,
        (1, ((1,), ())): 3,
    }
    assert sum(t.values()) == sum(
        updown_count(1, 3, idx.shape) for idx in enumerate_lambda(1, 3)
    )


@pytest.mark.parametrize("u, r", [([F(0)], 1), ([F(0)], 2), ([F(0)], 3), ([F(1, 3)], 3)])
def test_content_consistency_level_one(u, r):
    assert content_mismatches(build_config(u, r)) == []


def test_content_consistency_level_two():
    assert content_mismatches(build_config([F(1, 3), F(7, 2)], 2)) == []


def test_content_mismatches_empty_means_consistent():
    cfg = build_config([F(1, 3)], 2)
    assert content_mismatches(cfg) == []


# (u, r) for the edge-versus-walk comparison: levels 1, 2 and 3
EDGE_CHECK_CONFIGS = [
    (("0",), 4), (("1/2",), 4), (("0", "1/2"), 3), (("1/5", "9/7"), 3), (("0", "1/2", "1/4"), 2),
]


def _row_two_off_by_one(layout):
    """A faulty layout: each component's second row sits on the coordinate
    below its own (a head's further from its block's start, a tail's nearer
    its block's end)."""

    def faulty(shape, cfg):
        d = list(layout(shape, cfg))
        for t, (start, end) in enumerate(zip(cfg.p, cfg.p[1:])):
            head, tail = shape[t], shape[2 * cfg.k - t - 1]
            if len(head) > 1:
                d[start + 1] -= head[1]
                d[start + 2] += head[1]
            if len(tail) > 1:
                d[end - 2] += tail[1]
                d[end - 1] -= tail[1]
        return tuple(d)

    return faulty


@pytest.mark.parametrize(
    "u, r", EDGE_CHECK_CONFIGS, ids=[f"{','.join(u)}-r{r}" for u, r in EDGE_CHECK_CONFIGS]
)
@pytest.mark.parametrize(
    "fault", ["first u_ext + 1", "last u_ext - 1/2", "u_ext reversed", "row 2 off by one"]
)
def test_edge_check_flags_the_walks_failing_edges(u, r, fault, monkeypatch):
    cfg = build_config([F(x) for x in u], r)
    ext = list(cfg.u_ext)
    if fault == "first u_ext + 1":
        ext[0] += 1
    elif fault == "last u_ext - 1/2":
        ext[-1] -= F(1, 2)
    elif fault == "u_ext reversed":
        ext.reverse()
    else:
        # both routes read weights.layout: the fault reaches each of them
        monkeypatch.setattr(weights, "layout", _row_two_off_by_one(weights.layout))
    cfg = cfg._replace(u_ext=tuple(ext))
    edges = content_mismatches(cfg)
    walks = walk_content_mismatches(cfg)
    assert walks, "the fault must show"
    flagged = {(rec["shape"], rec["node"]): rec for rec in edges}
    assert len(flagged) == len(edges)  # one record per edge
    assert flagged.keys() == {(rec["shape"], rec["node"]) for rec in walks}
    for rec in walks:
        edge = flagged[rec["shape"], rec["node"]]
        assert (edge["content"], edge["weight_side"]) == (rec["content"], rec["weight_side"])


# (u, r range): 46 configurations, far past what the walk route can reach
CONTENT_GRID = [
    (u, r)
    for u, top in [
        (("0",), 11), (("1/2",), 11), (("3/2",), 11),
        (("0", "1/2"), 5), (("1/5", "9/7"), 5), (("0", "1/2", "1/4"), 3),
    ]
    for r in range(1, top + 1)
]


def test_content_identity_holds_on_a_grid():
    assert len(CONTENT_GRID) == 46
    for u, r in CONTENT_GRID:
        assert content_mismatches(build_config([F(x) for x in u], r)) == [], (u, r)


def test_generic_decomposition_is_the_flag():
    # all singleton blocks: every Verma is simple and tilting
    cfg = build_config([F(1, 3)], 2)
    res = tilting_decomposition(family_table(cfg))
    assert all(b.is_singleton for b in res.family.blocks)
    assert res.multiplicities == {i: m for i, m in enumerate(res.family.flag) if m}
    assert set(res.multiplicities.values()) == {1, 2}  # walk counts at r = 2


def test_generic_k1_r2_simple_dimensions_are_ones():
    # semisimple case: the three level cells are the simples, each of walk
    # count one, so the solved dimensions come out all 1
    cfg = build_config([F(1, 3)], 2)
    res = tilting_decomposition(family_table(cfg))
    dims = simple_dimensions(res)
    assert sorted(dims.values()) == [1, 1, 1]
    assert set(dims) == {i for i, mu in enumerate(reference_family(cfg)) if in_F_rk(mu, cfg)}


def test_peel_computes_each_sort_key_once(monkeypatch):
    # the tilting peel passes down each block's member order, which
    # partition_into_blocks sorted, so it keys no weight; the simple
    # dimensions sort the level positions once, one key per position
    keyed = []
    key = pipeline.dominance_sort_key
    monkeypatch.setattr(
        pipeline, "dominance_sort_key", lambda d: keyed.append(d) or key(d)
    )
    for u in ([u_from_delta(F(1))], [F(1, 5), F(9, 7)]):  # linked blocks; generic
        keyed.clear()
        result = tilting_decomposition(family_table(build_config(u, 3)))
        assert keyed == []
        assert len(simple_dimensions(result)) > 1
        level = [result.family.numerators[i] for i in result.family.level_flag]
        assert sorted(keyed) == sorted(level)


@pytest.mark.parametrize(
    "u, r", [([F(3, 2)], 7), ([F(0), F(1, 3)], 3)], ids=["3/2-r7", "0,1/3-r3"]
)
def test_columns_hold_family_positions_only(u, r):
    # every column and every row of the peel is a family position
    result = tilting_decomposition(family_table(build_config(u, r)))
    size = len(result.family)
    assert any(not b.is_singleton for b in result.family.blocks)
    assert all(mu < size for mu in result.columns)
    assert all(lam < size for col in result.columns.values() for lam in col)


@pytest.mark.parametrize(
    "u, r", [([F(3, 2)], 3), ([F(0), F(1, 3)], 3)], ids=["3/2-r3", "0,1/3-r3"]
)
def test_successful_peel_names_no_weight(monkeypatch, u, r):
    # the engine workload's two configurations: a weight is formatted only
    # when an error names one outside the family
    calls = []
    name = pipeline.weight_name
    monkeypatch.setattr(pipeline, "weight_name", lambda *args: calls.append(args) or name(*args))
    result = tilting_decomposition(family_table(build_config(u, r)))
    assert any(not b.is_singleton for b in result.family.blocks)
    assert calls == []
    # a peel that escapes the family names the weight it escapes at
    with pytest.raises(NegativeResidual, match="escapes the weight family"):
        tilting_decomposition(family_table(build_config([F(1, 2)], 4)), convention="direct")
    assert len(calls) == 1


FROZEN_TILTING_DELTA1_R3 = {
    (0, ((3,), ())): 1,
    (0, ((2, 1), ())): 2,
    (0, ((1, 1, 1), ())): 1,
    (0, ((2,), (1,))): 3,
    (0, ((1, 1), (1,))): 3,
    (0, ((1,), (2,))): 3,
    (0, ((1,), (1, 1))): 3,
    (0, ((), (3,))): 1,
    (0, ((), (2, 1))): 2,
    (0, ((), (1, 1, 1))): 1,
    (1, ((1,), ())): 4,  # the flag value 6 loses two copies to T at (2,1)
    (1, ((), (1,))): 6,
}


def test_delta_one_r3_tilting_multiplicities_frozen():
    cfg = build_config([u_from_delta(F(1))], 3)
    res = tilting_decomposition(family_table(cfg))
    labeled = {tuple(tilde(res.family.numerators[i], cfg)): m for i, m in res.multiplicities.items()}
    assert labeled == FROZEN_TILTING_DELTA1_R3


def test_peel_errors_name_family_weights_by_cell_label(monkeypatch):
    # with no tilting columns the first weight peeled lacks its unit diagonal
    monkeypatch.setattr(kl, "tilting_table", lambda block, convention, cores: {})
    with pytest.raises(NegativeResidual) as exc:
        tilting_decomposition(family_table(build_config([u_from_delta(F(1))], 3)))
    assert re.fullmatch(r"tilting column at f\d+:[-\d,|]+ lacks a unit diagonal", str(exc.value))


def test_peel_refuses_a_residual_outside_the_family(monkeypatch):
    # a nonzero table row off the block is refused as soon as the table is
    # read, and named as a tuple of rationals
    table = kl.tilting_table

    def with_outside_row(block, convention, cores):
        top = block.numerators[-1]
        outside = tuple(a - 7 * block.scale for a in top)
        return {(outside, top): -1, **table(block, convention, cores)}

    monkeypatch.setattr(kl, "tilting_table", with_outside_row)
    with pytest.raises(NegativeResidual, match=r"escapes the weight family at \((-?[\d/]+,)+-?[\d/]+\)$"):
        tilting_decomposition(family_table(build_config([u_from_delta(F(1))], 3)))


def test_a_column_reaching_above_its_weight_is_refused(monkeypatch):
    # a column at a block's lowest member with a row at its top member
    # breaks the unitriangular shape the one-pass peel relies on
    table = kl.tilting_table

    def with_row_above(escape):
        def tilting(block, convention, cores):
            low, top = block.numerators[0], block.numerators[-1]
            rows = {(tuple(a - 7 * block.scale for a in top), top): -1} if escape else {}
            return {(top, low): 1, **table(block, convention, cores), **rows}

        return tilting

    monkeypatch.setattr(kl, "tilting_table", with_row_above(False))
    family = family_table(build_config([u_from_delta(F(1))], 3))
    (block, *_) = [b for b in weights.partition_into_blocks(family) if not b.is_singleton]
    low, top = (family_label(family.labels[i]) for i in (block.positions[0], block.positions[-1]))
    with pytest.raises(NegativeResidual) as exc:
        tilting_decomposition(family)
    assert str(exc.value) == f"tilting column at {low} reaches above it at {top}"
    # a row outside the block is refused first, even one read after it
    monkeypatch.setattr(kl, "tilting_table", with_row_above(True))
    with pytest.raises(NegativeResidual, match="^residual escapes the weight family at"):
        tilting_decomposition(family)


@pytest.mark.parametrize("member", [True, False], ids=["member", "outside"])
def test_unsupported_block_names_a_member_by_its_cell_label(monkeypatch, member):
    # the wall fold may refuse a support outside the block
    # (test_kl::test_fold_refuses_a_support_with_its_negative_member_first):
    # kl's own name for it stands, and only a member is renamed
    def refuse(block, convention, cores):
        top = block.numerators[-1]
        weight = top if member else tuple(a - 7 * block.scale for a in top)
        raise kl.UnsupportedBlock(weight, "refused", "(kl's name)")

    monkeypatch.setattr(kl, "tilting_table", refuse)
    with pytest.raises(kl.UnsupportedBlock) as caught:
        tilting_decomposition(family_table(build_config([u_from_delta(F(1))], 3)))
    named = r"refused at f\d+:[-\d,|]+" if member else r"refused at \(kl's name\)"
    assert re.fullmatch(named, str(caught.value))


FROZEN_SIMPLE_DIMS = {
    # delta -> dims over level rows [f0:3, f0:2,1, f0:1,1,1, f1:1]
    F(1): [1, 2, 1, 1],
    F(-2): [1, 2, 1, 2],
    F(2): [1, 2, 1, 3],
}


@pytest.mark.parametrize("delta", sorted(FROZEN_SIMPLE_DIMS))
def test_simple_dimensions_frozen_r3(delta):
    cfg = build_config([u_from_delta(delta)], 3)
    rep = decomposition_report(family_table(cfg))
    assert rep["simple_dims"]["labels"] == ["f0:3", "f0:2,1", "f0:1,1,1", "f1:1"]
    assert rep["simple_dims"]["dims"] == FROZEN_SIMPLE_DIMS[delta]


@pytest.mark.parametrize("delta", [F(1), F(-2)])
def test_simple_dimensions_match_oracle_gram_ranks(delta):
    # the simple of a cell module is the quotient by the Gram radical, so
    # its dimension is the rank of the Gram form
    from brauer_kl.oracle import CellModule

    cfg = build_config([u_from_delta(delta)], 3)
    res = tilting_decomposition(family_table(cfg))
    dims = simple_dimensions(res)
    for i, d in dims.items():
        idx = tilde(res.family.numerators[i], cfg)
        cell = CellModule(3, idx.f, transpose(idx.shape[0]), delta)
        assert rank(cell.gram_matrix()) == d


def test_matrix_entry_orientation():
    cfg = build_config([u_from_delta(F(1))], 3)
    res = tilting_decomposition(family_table(cfg))
    nums = res.family.numerators
    lam = next(i for i, x in enumerate(nums) if tilde(x, cfg) == LambdaIndex(1, ((1,), ())))
    mu_t = next(i for i, x in enumerate(nums) if tilde(x, cfg) == LambdaIndex(0, ((2, 1), ())))
    assert res.columns[mu_t][lam] == 1  # (T(2,1) : M(f=1, (1)))
    assert mu_t not in res.columns[lam]
    assert res.columns[lam][lam] == 1


def _dense_entries(result, rows, cols):
    """The report's [i, j, value] cells by probing every (lam, mu) pair."""
    entries = []
    for i, lam in enumerate(rows):
        for j, mu in enumerate(cols):
            val = 1 if lam == mu else result.columns.get(mu, {}).get(lam, 0)
            if val:
                entries.append([i, j, val])
    return entries


@pytest.mark.parametrize(
    "u, r",
    [
        ([F(3, 2)], 3),  # B_3(-2): a wall block
        ([u_from_delta(F(1))], 3),
        ([F(0), F(1, 3)], 2),
        ([F(1, 3)], 2),  # generic
    ],
)
def test_sparse_matrices_match_a_dense_probe(u, r):
    cfg = build_config(u, r)
    res = tilting_decomposition(family_table(cfg))
    rep = decomposition_report(family_table(cfg))
    rows = list(range(len(res.family)))
    cols = list(res.multiplicities)
    assert rep["matrix_full"]["entries"] == _dense_entries(res, rows, cols)
    weights = reference_family(cfg)
    rows = [i for i in rows if in_F_rk(weights[i], cfg)]
    cols = [i for i in cols if in_F_rk(weights[i], cfg)]
    assert rep["matrix_level"]["entries"] == _dense_entries(res, rows, cols)


def test_report_structure_and_frozen_level_matrix():
    cfg = build_config([u_from_delta(F(1))], 3)
    rep = decomposition_report(family_table(cfg))
    assert rep["schema"] == "brauer-kl/1"
    assert rep["kl_convention"] == "mirror"
    assert rep["conjugate_convention"] == "transpose"
    assert rep["flags"]["omega_condition"] is True
    assert rep["flags"]["phiA_ok"] is True
    assert rep["flags"]["saturated"] is True
    assert rep["flags"]["generic"] is False
    assert rep["flags"]["cell_data_only"] is False
    assert rep["matrix_level"]["rows"] == ["f0:3", "f0:2,1", "f0:1,1,1", "f1:1"]
    assert rep["matrix_level"]["entries"] == [
        [0, 0, 1],
        [1, 1, 1],
        [2, 2, 1],
        [3, 1, 1],
        [3, 3, 1],
    ]
    assert rep["verma_flag"] == [FROZEN_FLAG_K1_R3[tuple(_parse(lab))] for lab in rep["family"]]


def _parse(label):
    """family labels look like 'f0:2,1|-'; invert them to (f, shape)."""
    head, _, body = label.partition(":")
    comps = body.split("|")
    shape = tuple(
        tuple(int(c) for c in comp.split(",")) if comp not in ("", "-") else ()
        for comp in comps
    )
    return int(head[1:]), shape


def test_generic_report_matrix_is_identity():
    cfg = build_config([F(1, 3)], 2)
    rep = decomposition_report(family_table(cfg))
    assert rep["flags"]["generic"] is True
    n = len(rep["matrix_level"]["rows"])
    assert n == 3
    assert rep["matrix_level"]["entries"] == [[i, i, 1] for i in range(n)]


def test_level_matrix_is_a_submatrix_of_the_full_one():
    cfg = build_config([u_from_delta(F(1))], 3)
    rep = decomposition_report(family_table(cfg))
    full = rep["matrix_full"]
    level = rep["matrix_level"]
    full_dense = {(full["rows"][i], full["cols"][j]): v for i, j, v in full["entries"]}
    for i, j, v in level["entries"]:
        row = level["rows"][i] + "|-"
        col = level["cols"][j] + "|-"
        assert full_dense.get((row, col), 0) == v


def test_reports_are_deterministic():
    cfg = build_config([u_from_delta(F(1))], 3)
    a = json.dumps(decomposition_report(family_table(cfg)), sort_keys=True)
    b = json.dumps(decomposition_report(family_table(cfg)), sort_keys=True)
    assert a == b


def test_singular_reduction_appears_at_delta_minus_two():
    cfg = build_config([u_from_delta(F(-2))], 3)
    rep = decomposition_report(family_table(cfg))
    assert rep["flags"]["singular_blocks"]  # wall weights exist
    assert any("reduced" in s for s in rep["flags"]["singular_reduced"])


def test_saturation_gate_level_two():
    # u_1 - u_2 integral: cross-block hyperplanes are integral, Phi_A fails
    cfg = build_config([F(5), F(1)], 2)
    with pytest.raises(SaturationNotEstablished):
        decomposition_report(family_table(cfg))
    rep = decomposition_report(family_table(cfg), assume_saturated=True)
    assert rep["flags"]["phiA_ok"] is False
    assert rep["flags"]["saturated"] is True


def test_level_one_never_needs_saturation_waiver():
    for delta in (F(1), F(2), F(-2)):
        cfg = build_config([u_from_delta(delta)], 2)
        rep = decomposition_report(family_table(cfg))  # must not raise
        assert rep["flags"]["phiA_ok"] is True


def test_report_to_csv_shape():
    cfg = build_config([F(1, 3)], 2)
    rep = decomposition_report(family_table(cfg))
    text = report_to_csv(rep)
    lines = text.strip().split("\n")
    assert lines[0].startswith("cell\\tilting,")
    assert len(lines) == 1 + len(rep["matrix_level"]["rows"])
    assert lines[1].split(",")[1] == "1"  # identity diagonal


def test_level_label_format():
    assert level_label(LambdaIndex(0, ((2, 1), ())), 1) == "f0:2,1"
    assert level_label(LambdaIndex(1, ((), ())), 1) == "f1:-"


# sha256 of json.dumps(report, indent=2), params included, recorded before
# the pipeline was keyed by family position: (u, r, assume_saturated).  The
# reports whose block sizes shrank when the selection began at the even
# ceiling of r were re-recorded then, each checked unchanged without params
GOLDEN_REPORT_SHA256 = {
    ("1/5,9/7", 5, False): "4b7d67f0c5a43e9c383fe727fde91b25074bb724cedcf777d44eb8c97eef20b6",
    ("1/5,9/7,2/11", 3, False): "200a9e0158c253daf8dc2298433ef2b546d01a854744f1581553e0084a41d2ec",
    ("1/3", 6, False): "4963ac363cf9e62be79ddcf2a4553d939329be8d2dae9b6eee6e5bce5065db07",
    ("1/5,9/7", 4, False): "afffe0876d24e8b93973e15ab31529a75018493678df5f941d5cb3641a97b20b",
    ("3/2", 3, False): "3ea443b7d03fd66bc000c0484eda4456bfa5973bd73b3d7a7a0778346a1613e3",
    ("0,1/3", 3, False): "f5f43c8a43f14169fe2b4c41be2178e09e81139c5174f5939500ebffdc98d470",
    ("0", 5, False): "abb76b2728443cedb91aeb122129a7b0669937c6c2f0733b52cbdeb1e185ef9e",
    ("0,1/2", 3, False): "09769b962dd2715a8a807ccb7af6be886c7b75e1f0466be99ac6e4d93e2512d5",
    ("5,1", 2, True): "d7417781e4b81f8d9a24ffced018e4b2906194f5578708af787abf69a98bcd11",
    ("1/2,-1/2", 1, True): "f52c92a7cbf33dceae7753a00f9255699d0d04c122688a483ee1b5ca17595d3a",
    # wall reports, recorded before the wall reduction ran on numerator tuples
    ("3/2", 4, False): "48f61958c6991041bfbdab46f889af7e6635cbeb07057c72734ba13346bc9cd2",
    ("3/2", 5, False): "711a7e96e2dccc71c655e295e7eb75c1ad311f39ade414986e7f49b9b8ca4284",
    ("3/2", 6, False): "a0ea4509cdc5b02f37b93f9e17505c9a462d4dec551114f08b24c93d2d2c3e42",
    ("1/2", 5, False): "e729fb3d6b2e200cce9101c9b9176c07a97b4ceb9612d1215ddf8bd012c41ff2",
    ("0,1/2", 4, False): "a6813c78d40da6db2b6478684a967583c8f56a132bc3cc09df0e0cb9dbd85761",
    # many blocks of one Coxeter shape, recorded before those blocks shared
    # one engine core
    ("3/2", 7, False): "1da707019f1f8f710659053cf940f07e994c24d12fd840100ccd5bf3c1638592",
    ("3/2", 8, False): "73bd98f0a0dc9f4df75bcc92c0f902f05a465f1899c76f3f445fd1ff5fc7f96c",
    ("0", 8, False): "64390dd586d23f9b647d90abfdd55c5b695a2bf800ebb314e001a271e67deeb2",
    # a level-three report (15,525 moves) and block-size selection at a large
    # integral u, both recorded while move exponents still compared rank-key
    # prefix sums and psi_sets still checked every coordinate of a reflection
    ("0,1/2,1/4", 3, False): "c66834ea42ca8aacb89de3bd35eb3edd322731b35272169fd5e1f2428024bbda",
    ("30", 3, False): "7591a1d067008702d2f435a5832289a31108432a6a9b611104483aeef373a3b2",
    # block-size selection at u = 100 (q = 204), recorded while the psi++
    # verdict and the saturation test still paired Fraction weights
    ("100", 3, False): "bbc9ef45121df2e7820abe9bbb9161ef6447f0b5b040e34450553eb150430723",
    # block-size selection at u = 500 and 1000 (q = 1002 and 2002), recorded
    # while each candidate base was decided by a scan over the chamber
    # weight's roots
    ("500", 2, False): "c74230e2563d4d4ab83d076c40500b6b53e246ca26cb31e636225cc4408a491e",
    ("1000", 2, False): "3422d0c05484895306e501e865a1d0a36a46d26a6e74e7ef08ea0d48a84a253d",
}


@pytest.mark.parametrize("u, r, assume_saturated", sorted(GOLDEN_REPORT_SHA256))
def test_reports_are_byte_identical_to_the_golden_hashes(u, r, assume_saturated):
    cfg = build_config([F(x) for x in u.split(",")], r)
    report = decomposition_report(family_table(cfg), assume_saturated=assume_saturated)
    digest = hashlib.sha256(json.dumps(report, indent=2).encode()).hexdigest()
    assert digest == GOLDEN_REPORT_SHA256[(u, r, assume_saturated)]


@cache
def report_or_refusal(u: tuple, r: int):
    """The report of B_{k,r}(u) on a default run, or the name of its refusal."""
    try:
        return decomposition_report(family_table(build_config(list(u), r)))
    except (kl.UnsupportedBlock, NegativeResidual, SaturationNotEstablished) as exc:
        return type(exc).__name__


def standard_tableaux(shape) -> int:
    """f^shape, the number of standard tableaux, by the hook-length formula."""
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            below = sum(1 for lower in shape[i + 1:] if lower > j)
            hooks *= row - j + below
    return factorial(sum(shape)) // hooks


def contains(outer, inner) -> bool:
    """The Young diagram of each ``inner`` component lies inside ``outer``'s."""
    return all(
        len(b) <= len(a) and all(q <= p for p, q in zip(a, b)) for a, b in zip(outer, inner)
    )


# level one at r <= 10 and u in (1/2)Z with |u| <= 7/2
LEVEL_ONE_GRID = [(F(a, 2), r) for a in range(-7, 8) for r in range(1, 11)]


def test_level_one_reports_have_the_structural_properties():
    # 0/1 entries, f = 0 simple dimensions f^mu (the f = 0 quotient is the
    # group algebra of S_r), and every nonzero entry's row label inside its
    # column label, on a seeded third of the grid
    refused, reports, dimensioned = Counter(), 0, 0
    for u, r in random.Random(32).sample(LEVEL_ONE_GRID, 50):
        report = report_or_refusal((u,), r)
        if isinstance(report, str):
            refused[report] += 1
            continue
        reports += 1
        level = report["matrix_level"]
        for i, j, value in level["entries"]:
            row, col = level["rows"][i], level["cols"][j]
            assert value in (0, 1), (u, r, row, col)
            assert contains(_parse(col)[1], _parse(row)[1]), (u, r, row, col)
        if report["simple_dims"] is None:  # r even with every omega_i zero
            continue
        dims = dict(zip(report["simple_dims"]["labels"], report["simple_dims"]["dims"]))
        for label in level["rows"]:
            f, (shape,) = _parse(label)
            if f == 0:
                assert dims.get(label) == standard_tableaux(shape), (u, r, label)
        dimensioned += 1
    assert (reports, dimensioned, refused) == (45, 44, {"UnsupportedBlock": 5})


def specht_dimension(shape) -> int:
    """r! / prod |lambda^(i)|! * prod f^lambda^(i): the dimension of the
    Specht module of a multipartition over a semisimple Hecke algebra."""
    sizes = [sum(part) for part in shape]
    return (
        factorial(sum(sizes))
        // prod(map(factorial, sizes))
        * prod(map(standard_tableaux, shape))
    )


def test_f_zero_block_is_the_identity_at_non_integral_differences():
    # the f = 0 quotient is the degenerate cyclotomic Hecke algebra H_{k,r}(u)
    # (Ariki-Mathas-Rui, Nagoya Math. J. 182, 2006), which is semisimple
    # when no two u_i differ by an integer: the f = 0 rows and columns of
    # matrix_level form the identity, and each f = 0 simple module is a
    # Specht module; the draws take distinct residues mod 1
    rng = random.Random(33)
    residues = (F(0), F(1, 2), F(1, 3), F(1, 4), F(1, 5))
    reports, dimensioned, refused = 0, 0, Counter()
    for k, max_r, draws in ((2, 5, 40), (3, 4, 20)):
        for _ in range(draws):
            u = tuple(rng.randint(-2, 2) + c for c in rng.sample(residues, k))
            r = rng.randint(1, max_r)
            report = report_or_refusal(u, r)
            if isinstance(report, str):
                refused[report] += 1
                continue
            reports += 1
            level = report["matrix_level"]
            rows = [i for i, label in enumerate(level["rows"]) if _parse(label)[0] == 0]
            cols = [j for j, label in enumerate(level["cols"]) if _parse(label)[0] == 0]
            assert [level["rows"][i] for i in rows] == [level["cols"][j] for j in cols], (u, r)
            block = {(i, j): v for i, j, v in level["entries"] if i in rows and j in cols}
            assert block == {(i, j): 1 for i, j in zip(rows, cols)}, (u, r)
            if report["simple_dims"] is None:  # r even with every omega_i zero
                continue
            dims = dict(zip(report["simple_dims"]["labels"], report["simple_dims"]["dims"]))
            for i in rows:
                label = level["rows"][i]
                assert dims.get(label) == specht_dimension(_parse(label)[1]), (u, r, label)
                dimensioned += 1
    assert (reports, dimensioned, refused) == (58, 951, {"UnsupportedBlock": 2})


def lowered(label: str) -> str:
    """The label (f - 1, lambda) of a label (f, lambda) with f >= 1."""
    head, _, body = label.partition(":")
    return f"f{int(head[1:]) - 1}:{body}"


def level_entries(report: dict) -> dict[tuple[str, str], int]:
    level = report["matrix_level"]
    return {(level["rows"][i], level["cols"][j]): v for i, j, v in level["entries"]}


def stability_inputs() -> list[tuple[tuple, int]]:
    """Level one at 3 <= r <= 7 and u in (1/2)Z with |u| <= 7/2, then seeded
    draws at k = 2 (r <= 5) and k = 3 (r <= 4), whose parameters take
    distinct residues mod 1 so that every draw is saturated.  Most seeds
    draw a level-three input whose engine alone takes seconds (such as
    u = (0, 3/2, 1/4) at r = 4); this one draws none."""
    inputs = [((F(a, 2),), r) for a in range(-7, 8) for r in range(3, 8)]
    rng = random.Random(40)
    residues = (F(0), F(1, 2), F(1, 3), F(1, 4))
    for k, max_r, draws in ((2, 5, 30), (3, 4, 12)):
        for _ in range(draws):
            u = tuple(rng.randint(-2, 2) + c for c in rng.sample(residues, k))
            inputs.append((u, rng.randint(3, max_r)))
    return inputs


def test_f_positive_entries_are_the_entries_at_r_minus_2():
    # for omega_0 != 0, e B_{k,r} e ~ B_{k,r-2} (Ariki-Mathas-Rui, Nagoya
    # Math. J. 182, 2006): the f >= 1 block of matrix_level at r is the
    # whole matrix at r - 2, one level of f down; omega_0 is read off the
    # sign-twisted parameters, as simple_param_condition reads it
    compared, off_diagonal, excluded, refused = Counter(), Counter(), 0, Counter()
    for u, r in stability_inputs():
        if omega_series([(-1) ** len(u) * x for x in u], 0)[0] == 0:
            excluded += 1
            continue
        upper, lower = report_or_refusal(u, r), report_or_refusal(u, r - 2)
        if isinstance(upper, str) or isinstance(lower, str):
            refused[upper if isinstance(upper, str) else lower] += 1
            continue
        shifted = {
            (lowered(row), lowered(col)): v
            for (row, col), v in level_entries(upper).items()
            if _parse(row)[0] and _parse(col)[0]
        }
        assert shifted == level_entries(lower), (u, r)
        compared[len(u)] += 1
        off_diagonal[len(u)] += any(row != col for row, col in shifted)
    assert compared[1] >= 60 and compared[2] >= 25 and compared[3] >= 10
    assert off_diagonal[1] >= 10 and off_diagonal[2] >= 3 and off_diagonal[3] >= 1
    assert (excluded, refused) == (5, {"UnsupportedBlock": 11})  # u = 1/2: omega_0 = delta = 0
