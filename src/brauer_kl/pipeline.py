"""End-to-end decomposition pipeline.

The chain: pick block sizes for the given parameters, build the chamber
weight, enumerate the weight family, attach standard-flag multiplicities
(walk counts), run the canonical-basis engine per linkage class, peel the
flagged module into indecomposable tilting summands, and assemble the
decomposition matrices — the full one (rows the whole family) and the
level-truncated one (rows and columns with empty tail parts).

Exactness is enforced, not assumed: the peel keeps an integer residual ledger
over every weight it touches and raises ``NegativeResidual`` the moment the
bookkeeping would need a negative multiplicity, and the final residual must
vanish identically.  Saturation of the weight family (no linkage escaping
through cross-block hyperplanes) holds automatically when the chamber weight
pairs non-integrally with all cross-block roots; otherwise the caller must
opt in via ``assume_saturated`` or the report is refused with
``SaturationNotEstablished``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import combinat
from .combinat import LambdaIndex
from .kl import (
    PINNED_CONJUGATE_CONVENTION,
    Block,
    ConventionUnpinned,
    UnsupportedBlock,
    partition_into_blocks,
    resolve_convention,
    singular_pairs,
    singular_reduction_table,
    tilting_table,
)
from .params import ParamConfig, simple_param_condition
from .weights import (
    Weight,
    context_of,
    dominance_less,
    dominance_sort_key,
    enumerate_F,
    in_F_rk,
    is_singular,
    lambda_c,
    phiA_condition,
    shift,
    tilde,
)


class NegativeResidual(Exception):
    """The tilting peel would need a negative multiplicity."""


class SaturationNotEstablished(Exception):
    """Cross-block linkage cannot be ruled out and was not waived."""


def verma_flag(cfg: ParamConfig) -> dict[Weight, int]:
    """Standard-flag multiplicity of each family weight: the number of
    down-up walks of the prescribed length from the empty shape."""
    table = combinat.updown_count_table(2 * cfg.k, cfg.r)
    out: dict[Weight, int] = {}
    for mu in enumerate_F(cfg.r, cfg):
        idx = tilde(mu, cfg)
        out[mu] = table.get(idx.shape, 0)
    return out


# -- content / Casimir cross-check ---------------------------------------


def _node_coordinate(node: tuple[int, int, int], cfg: ParamConfig) -> tuple[int, int]:
    """Map a cell (row, col, component) to (0-based weight coordinate, sign).

    Components 1..k are head rows counted from the top of their block;
    components k+1..2k are tail rows of the mirrored block, counted from the
    bottom, and grow the weight downward.
    """
    l, _h, t = node
    k = cfg.k
    if t <= k:
        i = cfg.p[t - 1] + l  # 1-based
        return i - 1, +1
    tp = 2 * k - t + 1
    i = cfg.p[tp] - l + 1
    return i - 1, -1


def content_mismatches(cfg: ParamConfig, shapes: list | None = None) -> list[dict]:
    """Compare multipartition contents against the weight-walk eigenvalues.

    For every walk, the content of the cell toggled at step m (with its sign)
    must equal  sigma * nu_i + sigma * (n - i) + 1/2  computed from the weight
    nu before the step, where i is the 1-based coordinate the step moves and
    sigma the direction it moves in.  Returns a list of mismatch records;
    empty means consistent.
    """
    a = 2 * cfg.k
    lc = lambda_c(cfg)
    mismatches: list[dict] = []
    if shapes is None:
        shapes = [idx.shape for idx in combinat.enumerate_lambda(a, cfg.r)]
    for shape in shapes:
        for t in combinat.updown_tableaux(a, cfg.r, shape):
            contents = combinat.content_sequence(t, cfg.u_ext)
            nu = list(lc)
            for m in range(cfg.r):
                node, sign = combinat.step_node(t[m], t[m + 1])
                i0, direction = _node_coordinate(node, cfg)
                sigma = direction if sign > 0 else -direction
                a_val = sigma * nu[i0] + sigma * (cfg.n - (i0 + 1)) + Fraction(1, 2)
                if a_val != contents[m]:
                    mismatches.append(
                        {
                            "shape": shape,
                            "step": m,
                            "node": node,
                            "content": contents[m],
                            "weight_side": a_val,
                        }
                    )
                nu[i0] += sigma
    return mismatches


def content_consistency_check(cfg: ParamConfig) -> bool:
    """True iff every step of every walk passes the content cross-check."""
    return not content_mismatches(cfg)


def truncated_verma_flag(cfg: ParamConfig) -> dict[Weight, int]:
    """Flag multiplicities counting only all-nonnegative paths.

    A walk whose tail components stay empty throughout is the same thing as a
    walk on the head components alone, so the count at a tail-free weight is
    the level-k walk count of its head shape.
    """
    table = combinat.updown_count_table(cfg.k, cfg.r)
    out: dict[Weight, int] = {}
    for mu in enumerate_F(cfg.r, cfg):
        if not in_F_rk(mu, cfg):
            continue
        idx = tilde(mu, cfg)
        out[mu] = table.get(idx.shape[: cfg.k], 0)
    return out


# -- tilting peel ---------------------------------------------------------


@dataclass
class DecompositionResult:
    """Peel output: tilting multiplicities and the supporting tables.

    ``columns[mu][lam]`` is the nonzero cell (T(mu) : M(lam)), the standard
    lam inside the tilting mu: one dict per matrix column.  Every support
    weight has a column with diagonal entry 1 (a singleton's is {mu: 1}).
    """

    cfg: ParamConfig
    convention: str
    family: tuple[Weight, ...]
    flag: dict[Weight, int]
    multiplicities: dict[Weight, int]
    support: tuple[Weight, ...]
    columns: dict[Weight, dict[Weight, int]]
    blocks: list[Block]
    singular_weights: tuple[Weight, ...]
    reduced_blocks: tuple[tuple[Weight, ...], ...] = ()


def _greedy_peel(
    residual: dict[Weight, int],
    column: Callable[[Weight], dict[Weight, int]],
    check: Callable[[Weight, int], None],
    reverse_ties: bool = False,
) -> dict[Weight, int]:
    """Greedy descent shared by the tilting peel and the simple dimensions.

    Repeatedly take a dominance-maximal weight with nonzero residual m, let
    ``check(weight, m)`` refuse it, record m, and subtract m copies of
    ``column(weight)``.  The sort key extends dominance linearly, so the
    live weight with the largest key is maximal; ``reverse_ties`` instead
    scans for the maximal set and takes its smallest key, a different
    maximal element when several are incomparable.  Each weight's sort key
    is computed once.  Returns the recorded multiplicities.
    """
    residual = dict(residual)
    keys = {w: dominance_sort_key(w) for w in residual}
    out: dict[Weight, int] = {}
    while True:
        live = [w for w, val in residual.items() if val != 0]
        if not live:
            return out
        if reverse_ties:
            maximal = [
                c for c in live if not any(dominance_less(c, d) for d in live if d != c)
            ]
            lam0 = min(maximal, key=keys.__getitem__)
        else:
            lam0 = max(live, key=keys.__getitem__)
        m = residual[lam0]
        check(lam0, m)
        out[lam0] = m
        for mu, val in column(lam0).items():
            if mu not in residual:
                residual[mu] = 0
                keys[mu] = dominance_sort_key(mu)
            residual[mu] -= m * val


def tilting_decomposition(
    cfg: ParamConfig, convention: str | None = None
) -> DecompositionResult:
    """Peel the standard-flagged module into indecomposable tilting summands.

    Each non-singleton linkage block's tilting table is built once and
    peeled by greedy descent: repeatedly take a dominance-maximal weight with
    nonzero residual, record its multiplicity, and subtract that many copies
    of the corresponding tilting column.  The same table is then peeled again
    with incomparable ties broken the other way; the two peels must agree,
    or ``NegativeResidual`` is raised.  ``convention`` None uses the frozen
    pin.
    """
    convention = resolve_convention(convention)
    ctx = context_of(cfg)
    flag = verma_flag(cfg)
    family = tuple(enumerate_F(cfg.r, cfg))
    family_set = set(family)
    blocks = partition_into_blocks(list(family), ctx)
    n_out: dict[Weight, int] = {}
    columns: dict[Weight, dict[Weight, int]] = {}
    singular: list[Weight] = []
    reduced: list[tuple[Weight, ...]] = []
    for block in blocks:
        singular.extend(mu for mu in block.weights if is_singular(shift(mu)))
        if block.is_singleton:
            lam = block.weights[0]
            m = flag.get(lam, 0)
            if m < 0:
                raise NegativeResidual(f"negative flag multiplicity at {lam}")
            if m:
                n_out[lam] = m
            columns[lam] = {lam: 1}
            continue
        try:
            if singular_pairs(shift(block.weights[0])):
                table = singular_reduction_table(block, convention)
                reduced.append(block.weights)
            else:
                table = tilting_table(block, convention)
        except UnsupportedBlock as exc:  # name the weight by its cell label
            raise UnsupportedBlock(
                exc.weight, exc.reason, family_label(tilde(exc.weight, cfg))
            ) from None
        # linkage blocks touch disjoint weights: their columns never collide
        for (lam, mu), val in table.items():
            if val:
                columns.setdefault(mu, {})[lam] = val
        residual = {mu: flag.get(mu, 0) for mu in block.weights}

        def check(lam0: Weight, m: int) -> None:
            if lam0 not in family_set:
                raise NegativeResidual(
                    f"residual escapes the weight family at {lam0}"
                )
            if m < 0:
                raise NegativeResidual(f"negative residual {m} at {lam0}")
            if columns.get(lam0, {}).get(lam0) != 1:
                raise NegativeResidual(
                    f"tilting column at {lam0} lacks a unit diagonal"
                )

        column = columns.__getitem__
        peeled = _greedy_peel(residual, column, check)
        if _greedy_peel(residual, column, check, reverse_ties=True) != peeled:
            raise NegativeResidual("peel order changed the tilting multiplicities")
        n_out.update(peeled)
    support = tuple(mu for mu in family if n_out.get(mu, 0) != 0)
    return DecompositionResult(
        cfg=cfg,
        convention=convention,
        family=family,
        flag=flag,
        multiplicities={mu: n_out.get(mu, 0) for mu in family if n_out.get(mu, 0)},
        support=support,
        columns=columns,
        blocks=blocks,
        singular_weights=tuple(singular),
        reduced_blocks=tuple(reduced),
    )


def simple_dimensions(result: DecompositionResult) -> dict[Weight, int]:
    """Dimensions of the simple modules of the level-k algebra.

    The level-k cell module at a tail-free weight has dimension equal to the
    level-k walk count, and its composition factors are counted by the
    level-truncated decomposition matrix, so the simple dimensions solve
    ``truncated_flag = matrix_level * dims`` by the same greedy descent as
    the tilting peel.  Only meaningful when ``r`` is odd or some ``omega_i``
    is nonzero; the report suppresses this block otherwise.
    """
    flag = truncated_verma_flag(result.cfg)

    def check(lam0: Weight, m: int) -> None:
        if m < 0:
            raise NegativeResidual(f"negative simple dimension {m} at {lam0}")
        if result.multiplicities.get(lam0, 0) == 0:
            raise NegativeResidual(
                f"level residual escapes the tilting support at {lam0}"
            )

    def column(lam0: Weight) -> dict[Weight, int]:
        return {mu: v for mu, v in result.columns[lam0].items() if mu in flag}

    return _greedy_peel(flag, column, check)


# -- report assembly -------------------------------------------------------


def level_label(idx: LambdaIndex, k: int) -> str:
    """Compact string form of a level-k cell label."""
    parts = ["," .join(str(c) for c in comp) or "-" for comp in idx.shape[:k]]
    return f"f{idx.f}:" + "|".join(parts)


def family_label(idx: LambdaIndex) -> str:
    """Compact string form of a full (doubled-level) cell label."""
    parts = ["," .join(str(c) for c in comp) or "-" for comp in idx.shape]
    return f"f{idx.f}:" + "|".join(parts)


def _sparse_entries(
    columns: dict[Weight, dict[Weight, int]], rows: list[Weight], cols: list[Weight]
) -> list[list[int]]:
    """Nonzero cells [i, j, value] of the matrix on ``rows`` x ``cols``,
    read off the sparse tilting columns, sorted by row and then column."""
    row_index = {lam: i for i, lam in enumerate(rows)}
    return sorted(
        [row_index[lam], j, val]
        for j, mu in enumerate(cols)
        for lam, val in columns[mu].items()
        if lam in row_index
    )


def decomposition_report(
    cfg: ParamConfig,
    convention: str | None = None,
    conjugate_convention: str | None = None,
    assume_saturated: bool = False,
) -> dict:
    """Full decomposition report as a JSON-serializable dictionary.

    Runs :func:`tilting_decomposition` once (its tie-order check included)
    and reads both matrices and the simple dimensions off that one result.
    ``None`` conventions resolve through the frozen pins;
    ``conjugate_convention`` only labels the report.  Raises
    ``SaturationNotEstablished`` when the chamber weight admits integral
    cross-block pairings and the caller did not waive the check, and
    ``NegativeResidual`` when the peel fails.
    """
    convention = resolve_convention(convention)
    if conjugate_convention is None:
        if PINNED_CONJUGATE_CONVENTION is None:
            raise ConventionUnpinned(
                "no conjugate convention pinned; run the oracle cross-check or pass one explicitly"
            )
        conjugate_convention = PINNED_CONJUGATE_CONVENTION
    phi_ok = phiA_condition(lambda_c(cfg), context_of(cfg))
    if not phi_ok and not assume_saturated:
        raise SaturationNotEstablished(
            "cross-block hyperplanes are integral for these parameters; "
            "pass assume_saturated to proceed"
        )
    result = tilting_decomposition(cfg, convention=convention)

    labels = {mu: tilde(mu, cfg) for mu in result.family}
    rows_full = list(result.family)
    cols_full = list(result.support)
    level = {mu for mu in rows_full if in_F_rk(mu, cfg)}
    rows_level = [mu for mu in rows_full if mu in level]
    cols_level = [mu for mu in cols_full if mu in level]

    omega_ok = simple_param_condition(cfg.u, cfg.k)
    flags = {
        "omega_condition": omega_ok,
        "phiA_ok": phi_ok,
        "r_parity": cfg.r % 2,
        "saturated": phi_ok or assume_saturated,
        "generic": all(b.is_singleton for b in result.blocks),
        "singular_blocks": [family_label(labels[mu]) for mu in result.singular_weights],
        "singular_reduced": [
            "singular: reduced " + "+".join(family_label(labels[mu]) for mu in blk)
            for blk in result.reduced_blocks
        ],
        "cell_data_only": cfg.r % 2 == 0 and not omega_ok,
    }
    if flags["cell_data_only"]:
        simple_block = None
    else:
        dims = simple_dimensions(result)
        dim_weights = [mu for mu in rows_level if dims.get(mu)]
        simple_block = {
            "labels": [level_label(labels[mu], cfg.k) for mu in dim_weights],
            "dims": [dims[mu] for mu in dim_weights],
        }
    return {
        "schema": "brauer-kl/1",
        "params": cfg.serialize(),
        "kl_convention": convention,
        "conjugate_convention": conjugate_convention,
        "flags": flags,
        "family": [family_label(labels[mu]) for mu in rows_full],
        "verma_flag": [result.flag.get(mu, 0) for mu in rows_full],
        "tilting": {
            "labels": [family_label(labels[mu]) for mu in cols_full],
            "multiplicities": [result.multiplicities[mu] for mu in cols_full],
        },
        "matrix_full": {
            "rows": [family_label(labels[mu]) for mu in rows_full],
            "cols": [family_label(labels[mu]) for mu in cols_full],
            "entries": _sparse_entries(result.columns, rows_full, cols_full),
        },
        "matrix_level": {
            "rows": [level_label(labels[mu], cfg.k) for mu in rows_level],
            "cols": [level_label(labels[mu], cfg.k) for mu in cols_level],
            "entries": _sparse_entries(result.columns, rows_level, cols_level),
        },
        "simple_dims": simple_block,
    }


def report_to_csv(report: dict, which: str = "level") -> str:
    """Dense CSV rendering of one of the report matrices."""
    import csv
    import io

    mat = report["matrix_level" if which == "level" else "matrix_full"]
    dense: dict[tuple[int, int], int] = {(i, j): v for i, j, v in mat["entries"]}
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["cell\\tilting", *mat["cols"]])
    for i, row_label in enumerate(mat["rows"]):
        writer.writerow([row_label, *[dense.get((i, j), 0) for j in range(len(mat["cols"]))]])
    return buf.getvalue()
