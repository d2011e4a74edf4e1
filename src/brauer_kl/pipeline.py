"""End-to-end decomposition pipeline.

The chain starts from a family table (``weights.family_table``: labels,
integer numerators, standard-flag multiplicities, the linkage blocks,
partitioned once, and the engine-core store), which the command builds
once from its parameters: run the canonical-basis engine per non-singleton
block on the family's cores, peel every block, along one path, into
indecomposable tilting summands, and assemble the decomposition matrices —
the full one (rows the whole family) and the level-truncated one (rows and
columns with empty tail parts).  The peel, the matrices and the report
are keyed by family position; labels are read off the table.  Both KL
conventions may read one family: they share its blocks and cores, so the
family is partitioned once and each canonical basis element is computed
once.  The convention pins live here; only a block of two or more weights
imports ``kl``.

Exactness is enforced, not assumed: the peel passes once down each block's
member order over an integer residual ledger and raises ``NegativeResidual``
the moment the bookkeeping would need a negative multiplicity; a table entry
above its column is refused first, so the residual ends at zero.  Saturation
of the weight family (no linkage escaping through cross-block hyperplanes)
holds automatically when the chamber weight pairs non-integrally with all
cross-block roots; otherwise the caller must opt in via ``assume_saturated``
or the report is refused with ``SaturationNotEstablished``.

Off the report path, ``content_mismatches`` (run by ``kl-selftest``) checks
that tableau contents equal the Casimir scalars of the weight walk, once per
edge of the walk graph, on the cell layout the family's weights are built
from (``weights.layout``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Callable, Iterable, NamedTuple, Sequence

from . import combinat, weights
from .combinat import family_label, level_label
from .params import ParamConfig, phiA_condition, simple_param_condition
from .weights import Family, dominance_sort_key, is_singular, shifted_chamber, weight_name


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


class NegativeResidual(Exception):
    """The tilting peel would need a negative multiplicity."""

    exit_code = 6


class SaturationNotEstablished(Exception):
    """Cross-block linkage cannot be ruled out and was not waived."""

    exit_code = 3


# -- content / Casimir cross-check ---------------------------------------


def content_mismatches(cfg: ParamConfig) -> list[dict]:
    """Compare multipartition contents against the weight-walk eigenvalues.

    A shape's weight has the numerators x = chamber + scale * layout, with
    its cells placed by ``weights.layout``, the layout the family's weights
    are built from.  A step toggles one node, and the layouts of the shape
    it leaves and the shape it reaches differ at one coordinate i, by sigma,
    the direction the step moves x_i in.  The content of that node, with the
    step's sign, must equal sigma * x_i / scale + 1/2.

    The check reads only the shape a step leaves and the shape it reaches,
    so it runs once per edge of the walk graph, not once per walk.  The
    steps of the length-r walks are exactly the steps out of the shapes of
    size below r, so level m holds the shapes of size m, and every step out
    of them is checked, for m = 0, ..., r - 1; the add steps give the next
    level.  Each shape is laid out once, and no numerators are carried.
    Returns one record per failing edge (the shape it leaves, its node, the
    content and the weight side); empty means consistent.
    """
    scale, chamber = shifted_chamber(cfg.u, cfg.q)
    place = cache(lambda shape: weights.layout(shape, cfg))
    mismatches: list[dict] = []
    level: dict = {((),) * (2 * cfg.k): None}
    for _ in range(cfg.r):
        nxt: dict = {}
        for shape in level:
            d = place(shape)
            for node, sign, after in combinat.steps(shape):
                l, h, comp = node
                moved = [(i, b - a) for i, (a, b) in enumerate(zip(d, place(after))) if a != b]
                ((i, sigma),) = moved  # one row gains or loses one cell
                content = sign * (cfg.u_ext[comp - 1] + h - l)
                weight_side = Fraction(2 * sigma * (chamber[i] + scale * d[i]) + scale, 2 * scale)
                if weight_side != content:
                    mismatches.append(
                        {
                            "shape": shape,
                            "node": node,
                            "content": content,
                            "weight_side": weight_side,
                        }
                    )
                if sign > 0:
                    nxt[after] = None
        level = nxt
    return mismatches


# -- tilting peel ---------------------------------------------------------


class DecompositionResult(NamedTuple):
    """Peel output: tilting multiplicities and the supporting tables.

    Keys are family positions: ``columns[mu][lam]`` is the nonzero cell
    (T(mu) : M(lam)), the standard lam inside the tilting mu, one dict per
    matrix column.  ``multiplicities`` holds the nonzero multiplicities in
    position order; its keys are the support, and each has a column with
    diagonal entry 1 (a singleton's is {mu: 1}).  No key lies past the
    family's end.  The linkage blocks are the family's (``Family.blocks``).
    """

    family: Family
    multiplicities: dict[int, int]
    columns: dict[int, dict[int, int]]


def _peel(
    residual: dict[int, int],
    order: Iterable[int],
    column: Callable[[int], dict[int, int]],
    check: Callable[[int, int], None],
) -> dict[int, int]:
    """One pass down a unitriangular system: the tilting peel and the
    simple dimensions.

    At each id of ``order`` with nonzero residual m, let ``check(id, m)``
    refuse it, record m, and subtract m copies of ``column(id)``.  An id is
    a family position, ``order`` runs down a linear extension of dominance,
    and each column is 1 at its own id and 0 above it, so no visited id is
    touched again and the residual ends at zero.  Returns the recorded
    multiplicities.
    """
    residual = dict(residual)
    out: dict[int, int] = {}
    for top in order:
        m = residual[top]
        if m:
            check(top, m)
            out[top] = m
            for i, val in column(top).items():
                residual[i] -= m * val
    return out


def tilting_decomposition(family: Family, convention: str | None = None) -> DecompositionResult:
    """Peel the standard-flagged module into indecomposable tilting summands.

    Every linkage block of ``family.blocks`` is peeled by one pass of
    ``_peel`` down its member order, from the top, block by block: a
    singleton's column is {i: 1}, and a linked block's tilting table is
    built once, read and checked before its peel.  A canonical basis element
    is unitriangular, so each column is 1 on its own weight and 0 above it,
    and the pass has one result.
    ``convention`` None uses the frozen pin, and a name other than
    ``"direct"`` or ``"mirror"`` is a ``ValueError``; the tables take it as
    resolved here.  Only non-singleton blocks reach ``kl.tilting_table``,
    which reads a wall block off its regular companion; the engines of one
    Coxeter shape share one core of ``family.cores``.  A block's table,
    keyed by numerators and holding nonzero values only, is read into family
    positions through one block-local dict.  A row that is not a member is
    refused as it is read: only a ``"direct"`` table has one, and its
    entries are positive (antispherical KL polynomials have nonnegative
    coefficients), so no peel could cancel it.  Once every row is read, a
    row above its column in the member order is refused.
    """
    convention = resolve_convention(convention)
    flag = family.flag
    n_out: dict[int, int] = {}
    columns: dict[int, dict[int, int]] = {}

    def name(i: int) -> str:
        return family_label(family.labels[i])

    def check(top: int, m: int) -> None:
        if m < 0:
            raise NegativeResidual(f"negative residual {m} at {name(top)}")
        if columns.get(top, {}).get(top) != 1:
            raise NegativeResidual(f"tilting column at {name(top)} lacks a unit diagonal")

    for block in family.blocks:
        if block.is_singleton:
            (i,) = block.positions
            columns[i] = {i: 1}
        else:
            from .kl import UnsupportedBlock, tilting_table  # only a linked block loads the engine

            position = dict(zip(block.numerators, block.positions))
            try:
                table = tilting_table(block, convention, family.cores)
            except UnsupportedBlock as exc:  # name a member by its cell label
                if exc.weight not in position:
                    raise  # kl named the weight by its numerators
                raise UnsupportedBlock(exc.weight, exc.reason, name(position[exc.weight])) from None
            # linkage blocks touch disjoint weights: their columns never collide
            for (lam, mu), val in table.items():
                if lam not in position:
                    where = weight_name(lam, family.scale)
                    raise NegativeResidual(f"residual escapes the weight family at {where}")
                columns.setdefault(position[mu], {})[position[lam]] = val
            rank = {x: j for j, x in enumerate(block.numerators)}
            for lam, mu in table:
                if rank[lam] > rank[mu]:
                    where = f"{name(position[mu])} reaches above it at {name(position[lam])}"
                    raise NegativeResidual(f"tilting column at {where}")
        residual = {i: flag[i] for i in block.positions}
        n_out.update(_peel(residual, reversed(block.positions), columns.__getitem__, check))
    return DecompositionResult(
        family=family,
        multiplicities={i: n_out[i] for i in sorted(n_out)},
        columns=columns,
    )


def simple_dimensions(result: DecompositionResult) -> dict[int, int]:
    """Dimensions of the simple modules of the level-k algebra, by position.

    The level-k cell module at a tail-free weight has dimension equal to the
    level-k walk count, and its composition factors are counted by the
    level-truncated decomposition matrix, so the simple dimensions solve
    ``truncated_flag = matrix_level * dims`` by the tilting peel's one pass,
    run down all level positions sorted by ``dominance_sort_key`` from the
    top, so a negative dimension is named at the largest key first.  Only
    meaningful when ``r`` is odd or some ``omega_i`` is nonzero; the report
    suppresses this block otherwise.
    """
    family = result.family
    flag = family.level_flag

    def check(top: int, m: int) -> None:
        label = family_label(family.labels[top])
        if m < 0:
            raise NegativeResidual(f"negative simple dimension {m} at {label}")
        if result.multiplicities.get(top, 0) == 0:
            raise NegativeResidual(f"level residual escapes the tilting support at {label}")

    def column(top: int) -> dict[int, int]:
        return {i: v for i, v in result.columns[top].items() if i in flag}

    order = sorted(flag, key=lambda i: dominance_sort_key(family.numerators[i]), reverse=True)
    return _peel(flag, order, column, check)


# -- report assembly -------------------------------------------------------


def _sparse_entries(
    columns: dict[int, dict[int, int]], rows: Sequence[int], cols: Sequence[int]
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
    family: Family,
    convention: str | None = None,
    assume_saturated: bool = False,
) -> dict:
    """Full decomposition report of a family table, as a JSON-serializable dict.

    Runs :func:`tilting_decomposition` once and reads both matrices and the
    simple dimensions off that one result, with every label read off the
    family table by position.  ``convention`` None uses the frozen pin; the
    conjugate convention only labels the report, which carries the frozen
    one.  Raises ``SaturationNotEstablished`` when the chamber weight admits
    integral cross-block pairings and the caller did not waive the check,
    and ``NegativeResidual`` when the peel fails.
    """
    convention = resolve_convention(convention)
    cfg = family.cfg
    phi_ok = phiA_condition(cfg.u, cfg.q)
    if not phi_ok and not assume_saturated:
        raise SaturationNotEstablished(
            "cross-block hyperplanes are integral for these parameters; "
            "pass --assume-saturated to proceed"
        )
    result = tilting_decomposition(family, convention)
    # members of a block share their |values|: one test per block
    singular = [b for b in family.blocks if is_singular(b.numerators[0])]
    names = [family_label(idx) for idx in family.labels]
    rows_full = range(len(family))
    cols_full = list(result.multiplicities)
    levels = {i: level_label(family.labels[i], cfg.k) for i in family.level_flag}
    rows_level = list(levels)
    cols_level = [i for i in cols_full if i in levels]

    omega_ok = simple_param_condition(cfg.u, cfg.k)
    flags = {
        "omega_condition": omega_ok,
        "phiA_ok": phi_ok,
        "r_parity": cfg.r % 2,
        "saturated": phi_ok or assume_saturated,
        "generic": all(b.is_singleton for b in family.blocks),
        "singular_blocks": [names[i] for b in singular for i in b.positions],
        "singular_reduced": [
            "singular: reduced " + "+".join(names[i] for i in b.positions)
            for b in singular
            if not b.is_singleton  # only these reach kl.tilting_table's wall reduction
        ],
        "cell_data_only": cfg.r % 2 == 0 and not omega_ok,
    }
    if flags["cell_data_only"]:
        simple_block = None
    else:
        dims = simple_dimensions(result)
        dim_rows = [i for i in rows_level if dims.get(i)]
        simple_block = {
            "labels": [levels[i] for i in dim_rows],
            "dims": [dims[i] for i in dim_rows],
        }
    return {
        "schema": "brauer-kl/1",
        "params": cfg.serialize(),
        "kl_convention": convention,
        "conjugate_convention": PINNED_CONJUGATE_CONVENTION,
        "flags": flags,
        "family": names,
        "verma_flag": list(family.flag),
        "tilting": {
            "labels": [names[i] for i in cols_full],
            "multiplicities": [result.multiplicities[i] for i in cols_full],
        },
        "matrix_full": {
            "rows": names,
            "cols": [names[i] for i in cols_full],
            "entries": _sparse_entries(result.columns, rows_full, cols_full),
        },
        "matrix_level": {
            "rows": [levels[i] for i in rows_level],
            "cols": [levels[i] for i in cols_level],
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
