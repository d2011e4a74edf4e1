"""The ``kl-selftest`` battery: bijections and the family table, content
identity, peel stability.

Only ``kl-selftest`` imports this module, so no report command compiles it.
``content_mismatches`` checks that tableau contents equal the Casimir
scalars of the weight walk, once per edge of the walk graph, on the cell
layout the family's weights are built from (``weights.layout``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from . import combinat, params, pipeline, weights

# (u as --u text, r): the text is what each case's line prints
SELFTEST_BATTERY = (("0", 3), ("1/3", 2), ("3/2", 2), ("1/5,9/7", 2))


def content_mismatches(cfg: params.ParamConfig) -> list[dict]:
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
    scale, chamber = weights.shifted_chamber(cfg.u, cfg.q)
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


def run_battery() -> int:
    """Run every case of ``SELFTEST_BATTERY``.  Each failed or raising check
    prints one reason line; returns 0 if every case passed, else 1."""

    def bijection(cfg, table):
        # row i is enumerate_F of labels[i], so tilde inverts it where they agree
        for i, x in enumerate(table.numerators):
            idx = weights.tilde(x, cfg)
            if table.labels[i] != idx:
                shown, label = (combinat.family_label(j) for j in (table.labels[i], idx))
                return f"family table reads {shown} at position {i}, tilde gives {label}"

    def content(cfg, table):
        mismatches = content_mismatches(cfg)
        if mismatches:
            return f"{len(mismatches)} walk step(s) fail the content cross-check"

    def peel(cfg, table):
        pipeline.tilting_decomposition(table)  # raises if a column reaches above its weight

    failures = 0
    for u_text, r in SELFTEST_BATTERY:
        cfg = params.build_config(tuple(Fraction(part) for part in u_text.split(",")), r)
        table = weights.family_table(cfg)
        reasons = []
        for check in (bijection, content, peel):
            try:
                reason = check(cfg, table)
            except Exception as exc:
                reason = f"{type(exc).__name__}: {exc}"
            if reason:
                reasons.append(reason)
        failures += 1 if reasons else 0
        head = f"{'FAIL' if reasons else 'ok'}: u=({u_text}) r={r} family={len(table)}"
        print("\n".join([head, *(f"  {reason}" for reason in reasons)]))
    return 0 if failures == 0 else 1
