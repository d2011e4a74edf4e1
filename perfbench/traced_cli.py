"""Run one ``brauer-kl`` command with per-layer spans and counters.

    python3 perfbench/traced_cli.py STATS_FD COMMAND ARGS...

``brauer_kl`` must be importable (``PYTHONPATH=src``).  The script wraps the
public functions of each layer, runs ``brauer_kl.cli.main`` on the remaining
arguments exactly as the ``brauer-kl`` entry point would, and when the
command ends writes one JSON object to the inherited file descriptor
STATS_FD:

    {"total_s": seconds in spans, "spans": {name: self seconds},
     "counts": {name: n}, "maxima": {name: n}}

A span's self time is its duration minus the time of the spans it called.
Coarse calls are timed; hot calls (``pairing``, ``apply_move``,
``LaurentPoly`` arithmetic, ``basis_element``) are only counted, because a
clock read around each would cost more than the call.

Modules bind imported functions at import time (``pipeline`` imports
``tilting_table``, ``enumerate_F``, ``tilde`` and others by name), so a
wrapper replaces every module-level name that is bound to the original
function, not only the one in the defining module.
"""

from __future__ import annotations

import json
import os
import sys
from collections import defaultdict
from time import perf_counter

from brauer_kl import cli, combinat, kl, laurent, linalg, oracle, params, pipeline, specht, weights

MODULES = (cli, combinat, kl, laurent, linalg, oracle, params, pipeline, specht, weights)


class Tracer:
    """Self-time spans and call counters for one process."""

    def __init__(self) -> None:
        self.spans: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        # time spent in child spans, one entry per open span (plus the root)
        self._child_time = [0.0]
        self._blocks_seen: set = set()
        self._families: dict = {}

    def timed(self, span: str, fn, on_result=None):
        def wrapper(*args, **kwargs):
            self._child_time.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = self._child_time.pop()
                self.spans[span] += elapsed - children
                self._child_time[-1] += elapsed
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def counted(self, counter: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- work counts read off results ---------------------------------------

    def _record_config(self, cfg) -> None:
        self.counts["params.n"] += sum(cfg.q)

    def _record_family(self, family) -> None:
        # every peel re-enumerates the same family; count each one once
        key = tuple(family[:1]) + (len(family),)
        self._families[key] = len(family)

    def _record_blocks(self, blocks) -> None:
        for block in blocks:
            if block.key in self._blocks_seen:
                continue
            self._blocks_seen.add(block.key)
            x0 = tuple(a + b for a, b in zip(block.weights[0], weights.rho(block.ctx.n)))
            if block.is_singleton:
                kind = "singleton"
            elif kl.singular_pairs(x0):
                kind = "wall"
            else:
                kind = "regular"
            self.counts[f"kl.blocks.{kind}"] += 1
            self.maxima["kl.block_max"] = max(self.maxima["kl.block_max"], len(block.weights))

    def _record_radical(self, basis) -> None:
        self.counts["oracle.radical_dim"] += len(basis)

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        def rebind(original, wrapper, modules=MODULES):
            for mod in modules:
                for name, obj in list(vars(mod).items()):
                    if obj is original:
                        setattr(mod, name, wrapper)

        def wrap_method(cls, name, wrapper_of):
            setattr(cls, name, wrapper_of(getattr(cls, name)))

        timed, counted = self.timed, self.counted
        rebind(params.build_config,
               timed("params.select", params.build_config, self._record_config))
        rebind(combinat.updown_count_table,
               timed("combinat.walk_table", combinat.updown_count_table))
        rebind(weights.enumerate_F,
               timed("weights.enumerate", weights.enumerate_F, self._record_family))
        rebind(weights.tilde,
               counted("weights.tilde_calls", timed("weights.tilde", weights.tilde)))
        rebind(kl.partition_into_blocks,
               timed("kl.partition", kl.partition_into_blocks, self._record_blocks))
        for fn in (kl.tilting_table, kl.singular_reduction_table):
            rebind(fn, timed("kl.engine", fn))
        engine = kl.CanonicalBasisEngine
        wrap_method(engine, "__init__", lambda f: counted("kl.engines_built", f))
        wrap_method(engine, "apply_move", lambda f: counted("kl.apply_move_calls", f))
        wrap_method(engine, "basis_element", lambda f: counted("kl.basis_element_calls", f))
        for op in ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "bar"):
            wrap_method(laurent.LaurentPoly, op, lambda f: counted("laurent.ops", f))
        # only the peel's own bindings: the engine also calls pairing
        rebind(weights.pairing, counted("pipeline.pairing_calls", weights.pairing), (pipeline,))
        rebind(weights.dominance_less,
               counted("pipeline.dominance_calls", weights.dominance_less), (pipeline,))
        rebind(pipeline.tilting_decomposition,
               timed("pipeline.peel", pipeline.tilting_decomposition))
        rebind(pipeline.simple_dimensions,
               timed("pipeline.simple_dims", pipeline.simple_dimensions))
        rebind(pipeline.decomposition_report,
               timed("pipeline.assembly", pipeline.decomposition_report))
        rebind(pipeline.report_to_csv, timed("cli.serialize", pipeline.report_to_csv))
        json.dumps = timed("cli.serialize", json.dumps)
        rebind(oracle.oracle_decomposition_matrix,
               timed("oracle.matrix", oracle.oracle_decomposition_matrix))
        wrap_method(oracle.CellModule, "gram_matrix", lambda f: timed("oracle.gram", f))
        wrap_method(oracle.CellModule, "character", lambda f: timed("oracle.character", f))
        # the action on radical vectors is what the radical-character loop spends
        wrap_method(oracle.CellModule, "act", lambda f: timed("oracle.radical", f))
        rebind(oracle.compare, timed("oracle.compare", oracle.compare))
        rebind(linalg.solve, counted("linalg.solve_calls", timed("linalg.solve", linalg.solve)))
        rebind(linalg.nullspace,
               timed("linalg.nullspace", linalg.nullspace, self._record_radical))
        rebind(specht.specht_module, timed("specht.module", specht.specht_module))
        cli.main = timed("cli.main", cli.main)

    def report(self) -> dict:
        counts = dict(self.counts)
        counts["weights.family_size"] = sum(self._families.values())
        return {
            "total_s": self._child_time[0],
            "spans": dict(self.spans),
            "counts": counts,
            "maxima": dict(self.maxima),
        }


def main() -> int:
    stats_fd = int(sys.argv[1])
    dumps = json.dumps
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(sys.argv[2:])
    finally:
        with os.fdopen(stats_fd, "w") as out:
            out.write(dumps(tracer.report()))


if __name__ == "__main__":
    sys.exit(main())
