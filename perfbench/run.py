"""brauer-kl benchmark: cold ``brauer-kl`` CLI runs, checked against seed outputs.

    python3 perfbench/run.py --workload engine --seed 1 --seconds 34 --trace 0
    python3 perfbench/run.py --record    # rewrite perfbench/reference/ from this tree

Run from the repository root.  Each case runs the CLI of ``src/brauer_kl`` in
a fresh child process, one at a time (a closed loop with one client).  The
seed permutes the case order within each pass.

``--trace 0`` repeats passes over the workload's cases while the next pass is
predicted to end inside ``--seconds``, always at least one, and reports the
end-to-end metrics: medians over passes of the per-pass sums, the largest
child RSS, the median of several cold ``brauer-kl --help`` runs, and the share
of cases that passed.  Times are rescaled to a reference CPU speed sampled
throughout each pass (see ``SpeedProbe``); the run record keeps the raw
times.  ``--trace 1`` makes one untraced and one traced pass
and reports the per-layer metrics of the traced pass (see
``perfbench/traced_cli.py``) plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the run record (interpreter, CPU count, git revision, per-case timeout,
seed and every case outcome).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference"

CASE_TIMEOUT_S = 60.0
# every run must end well inside three minutes, whatever the cases do
RUN_DEADLINE_S = 165.0
SETUP_SAMPLES = 7
# The speed of the 2-core box this was written on drifts by up to 1.7x over
# seconds to minutes, with CPU time drifting along with wall time, so
# reported times are rescaled to a reference speed: SpeedProbe times a fixed
# loop every SAMPLE_PERIOD_S on the children's CPU, and a pass's times are
# multiplied by REFERENCE_SAMPLE_S over the mean sample.
SAMPLE_PERIOD_S = 0.5
SAMPLE_ITERATIONS = 4_000
REFERENCE_SAMPLE_S = 0.03
ENTRY = "import sys; from brauer_kl.cli import main; sys.exit(main())"


@dataclass(frozen=True)
class Case:
    name: str
    argv: tuple[str, ...]

    @property
    def is_report(self) -> bool:
        """A JSON decomposition report, compared without its ``params`` block."""
        return self.argv[0] == "decompose" and "csv" not in self.argv

    @property
    def reference(self) -> Path:
        suffix = ".json" if self.is_report else ".csv" if "csv" in self.argv else ".txt"
        return REFERENCE / (self.name + suffix)


def _case(name: str, command: str) -> Case:
    return Case(name, tuple(command.split()))


WORKLOADS: dict[str, list[Case]] = {
    # the canonical-basis engine does nearly all the work
    "engine": [
        _case("b3_u3_2", "decompose --k 1 --r 3 --u 3/2"),
        _case("k2_r3_u0_1_3", "decompose --k 2 --r 3 --u 0,1/3"),
    ],
    # every block a singleton: no engine, the peel and report assembly dominate
    "generic": [
        _case("k2_r5_generic", "decompose --k 2 --r 5 --u 1/5,9/7"),
        _case("k3_r3_generic", "decompose --k 3 --r 3 --u 1/5,9/7,2/11"),
        _case("k1_r6_generic", "decompose --k 1 --r 6 --u 1/3"),
        _case("k2_r4_generic_csv", "decompose --k 2 --r 4 --u 1/5,9/7 --format csv --matrix full"),
    ],
    # the diagram oracle, linalg and specht, plus repeated engine builds
    "oracle": [
        *(
            _case(f"oracle_r4_delta_{d.replace('/', '_')}", f"oracle-compare --r 4 --delta={d}")
            for d in ("-6", "-3", "-1", "1/2", "3", "5")
        ),
        _case("oracle_r3_delta_1", "oracle-compare --r 3 --delta=1"),
        _case("oracle_r4_delta_1", "oracle-compare --r 4 --delta=1"),
    ],
}

# (metric, unit, better)
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
    ("ok_frac", "frac", "higher"),
]

# (metric, unit, source): source "span:<name>" is a summed self time,
# "count:<name>" a summed counter, "max:<name>" the largest value seen, and
# "derived" a value computed in per_layer_metrics
PER_LAYER = [
    ("params.select_s", "s", "span:params.select"),
    ("params.n", "count", "count:params.n"),
    ("combinat.walk_table_s", "s", "span:combinat.walk_table"),
    ("weights.enumerate_s", "s", "span:weights.enumerate"),
    ("weights.tilde_s", "s", "span:weights.tilde"),
    ("weights.tilde_calls", "count", "count:weights.tilde_calls"),
    ("weights.family_size", "count", "count:weights.family_size"),
    ("kl.partition_s", "s", "span:kl.partition"),
    ("kl.engine_s", "s", "span:kl.engine"),
    ("kl.engines_built", "count", "count:kl.engines_built"),
    ("kl.apply_move_calls", "count", "count:kl.apply_move_calls"),
    ("kl.basis_element_calls", "count", "count:kl.basis_element_calls"),
    ("kl.blocks.singleton", "count", "count:kl.blocks.singleton"),
    ("kl.blocks.regular", "count", "count:kl.blocks.regular"),
    ("kl.blocks.wall", "count", "count:kl.blocks.wall"),
    ("kl.block_max", "count", "max:kl.block_max"),
    ("kl.self_share", "frac", "derived"),
    ("laurent.ops", "count", "count:laurent.ops"),
    ("pipeline.peel_s", "s", "span:pipeline.peel"),
    ("pipeline.pairing_calls", "count", "count:pipeline.pairing_calls"),
    ("pipeline.dominance_calls", "count", "count:pipeline.dominance_calls"),
    ("pipeline.simple_dims_s", "s", "span:pipeline.simple_dims"),
    ("pipeline.assembly_s", "s", "span:pipeline.assembly"),
    ("cli.main_s", "s", "span:cli.main"),
    ("cli.serialize_s", "s", "span:cli.serialize"),
    ("cli.output_bytes", "bytes", "derived"),
    ("oracle.matrix_s", "s", "span:oracle.matrix"),
    ("oracle.gram_s", "s", "span:oracle.gram"),
    ("oracle.character_s", "s", "span:oracle.character"),
    ("oracle.radical_s", "s", "span:oracle.radical"),
    ("oracle.compare_s", "s", "span:oracle.compare"),
    ("oracle.radical_dim", "count", "count:oracle.radical_dim"),
    ("linalg.solve_s", "s", "span:linalg.solve"),
    ("linalg.solve_calls", "count", "count:linalg.solve_calls"),
    ("linalg.nullspace_s", "s", "span:linalg.nullspace"),
    ("specht.module_s", "s", "span:specht.module"),
    ("trace.total_s", "s", "derived"),
    ("trace.overhead_s", "s", "derived"),
]

# counters a later change may cite as counts: they must repeat exactly
EXACT_COUNTERS = (
    "kl.engines_built",
    "kl.apply_move_calls",
    "kl.basis_element_calls",
    "pipeline.pairing_calls",
    "params.n",
    "weights.family_size",
    "linalg.solve_calls",
)


@dataclass
class Outcome:
    case: str
    status: str  # "ok", or why the case failed
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    output_bytes: int = 0
    speed: float = 1.0  # multiplier to the reference speed
    stats: dict | None = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def record(self) -> dict:
        return {
            "case": self.case,
            "status": self.status,
            "wall_s": round(self.wall_s, 4),
            "cpu_s": round(self.cpu_s, 4),
            "rss_mb": round(self.rss_mb, 2),
            "speed": round(self.speed, 4),
        }


@dataclass
class Child:
    exit_code: int | None  # None: killed at the timeout
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes
    stats: bytes


class SpeedProbe:
    """Samples the current CPU speed every SAMPLE_PERIOD_S.

    A sample times a fixed loop of exact arithmetic and hashing.  A running
    child is stopped for the sample, since it shares the CPU, and the pause
    is left out of the child's wall time.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.next_at = time.perf_counter()

    def due_in(self) -> float:
        return self.next_at - time.perf_counter()

    def sample(self, pid: int | None = None) -> float:
        """Take one sample, stopping ``pid`` meanwhile; return the pause."""
        start = time.perf_counter()
        if pid is not None:
            os.kill(pid, signal.SIGSTOP)
            # returns once the child is stopped, or has exited (not reaped)
            os.waitid(os.P_PID, pid, os.WSTOPPED | os.WEXITED | os.WNOWAIT)
        loop_start = time.perf_counter()
        seen: dict = {}
        third = Fraction(1, 3)
        for i in range(SAMPLE_ITERATIONS):
            key = (i % 7, Fraction(i % 97, 1 + i % 13) + third)
            seen[key] = seen.get(key, 0) + 1
        self.samples.append(time.perf_counter() - loop_start)
        if pid is not None:
            os.kill(pid, signal.SIGCONT)
        end = time.perf_counter()
        self.next_at = end + SAMPLE_PERIOD_S
        return end - start

    def speed(self) -> float:
        """Multiplier that takes times measured so far to reference speed."""
        return REFERENCE_SAMPLE_S / statistics.mean(self.samples)


def run_child(
    argv: tuple[str, ...], timeout_s: float, probe: SpeedProbe | None, traced: bool = False
) -> Child:
    """Run one CLI command in a fresh interpreter; collect output and usage.

    With a ``probe``, the child is stopped for each speed sample that falls
    due while it runs.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    pass_fds: tuple[int, ...] = ()
    if traced:
        stats_r, stats_w = os.pipe()
        cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(stats_w), *argv]
        pass_fds = (stats_w,)
    else:
        cmd = [sys.executable, "-c", ENTRY, *argv]
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT, pass_fds=pass_fds
    )
    streams = {proc.stdout.fileno(): [], proc.stderr.fileno(): []}
    if traced:
        os.close(stats_w)
        streams[stats_r] = []
    timed_out = False
    paused = 0.0
    try:
        with selectors.DefaultSelector() as sel:
            for fd in streams:
                sel.register(fd, selectors.EVENT_READ)
            while sel.get_map():
                left = start + paused + timeout_s - time.perf_counter()
                if left <= 0:
                    timed_out = True
                    proc.kill()
                    break
                if probe is not None:
                    if probe.due_in() <= 0:
                        paused += probe.sample(proc.pid)
                        continue
                    left = min(left, probe.due_in())
                for key, _ in sel.select(left):
                    chunk = os.read(key.fd, 1 << 16)
                    if chunk:
                        streams[key.fd].append(chunk)
                    else:
                        sel.unregister(key.fd)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start - paused
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if proc.returncode is None:  # interrupted: leave no child running
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
        if traced:
            os.close(stats_r)
    out = [b"".join(chunks) for chunks in streams.values()]
    return Child(
        exit_code=None if timed_out else proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,
        stdout=out[0],
        stderr=out[1],
        stats=out[2] if traced else b"",
    )


def _without_params(report: dict) -> dict:
    return {key: value for key, value in report.items() if key != "params"}


def output_mismatch(case: Case, stdout: bytes) -> str | None:
    """Why ``stdout`` differs from the case's seed reference, or None."""
    try:
        expected = case.reference.read_bytes()
    except FileNotFoundError:
        return "no reference output"
    if not case.is_report:
        return None if stdout == expected else "output differs from reference"
    try:
        got = json.loads(stdout)
    except ValueError:
        return "output is not JSON"
    if not isinstance(got, dict):
        return "output is not a JSON object"
    if _without_params(got) != _without_params(json.loads(expected)):
        return "report differs from reference"
    return None


def run_case(case: Case, deadline: float, probe: SpeedProbe | None, traced: bool) -> Outcome:
    timeout = min(CASE_TIMEOUT_S, deadline - time.perf_counter())
    if timeout <= 0:
        return Outcome(case.name, "not run: run deadline reached")
    child = run_child(case.argv, timeout, probe, traced)
    outcome = Outcome(
        case.name,
        "ok",
        wall_s=child.wall_s,
        cpu_s=child.cpu_s,
        rss_mb=child.rss_mb,
        output_bytes=len(child.stdout),
    )
    if child.exit_code is None:
        outcome.status = f"timeout after {timeout:.0f} s"
    elif child.exit_code != 0:
        tail = child.stderr.decode(errors="replace").strip().splitlines()[-1:]
        outcome.status = f"exit {child.exit_code}: {' '.join(tail)}"[:300]
    else:
        outcome.status = output_mismatch(case, child.stdout) or "ok"
    if traced:
        try:
            outcome.stats = json.loads(child.stats)
        except ValueError:
            if outcome.ok:
                outcome.status = "no trace statistics"
    return outcome


def run_pass(cases: list[Case], rng: random.Random, deadline: float, traced: bool = False) -> list[Outcome]:
    order = list(cases)
    rng.shuffle(order)
    probe = SpeedProbe()
    outcomes = []
    for case in order:
        if probe.due_in() <= 0:
            probe.sample()
        # a traced child's spans would count its pauses: sample between cases
        outcomes.append(run_case(case, deadline, None if traced else probe, traced))
    speed = probe.speed()
    for outcome in outcomes:
        outcome.speed = speed
    return outcomes


def measure_setup(samples: int, deadline: float) -> list[float]:
    """Wall seconds at reference speed of cold ``brauer-kl --help`` children.

    One unrecorded run first compiles the package's bytecode cache, which an
    installed package already has.
    """
    probe = SpeedProbe()
    times = []
    for i in range(samples + 1):
        probe.sample()
        child = run_child(("--help",), min(CASE_TIMEOUT_S, deadline - time.perf_counter()), probe)
        if child.exit_code != 0 or not child.stdout.startswith(b"usage: brauer-kl"):
            raise RuntimeError(f"brauer-kl --help failed: {child.stderr.decode(errors='replace')}")
        if i:
            times.append(child.wall_s)
    return [t * probe.speed() for t in times]


def pass_sums(outcomes: list[Outcome]) -> tuple[float, float]:
    """Summed wall and CPU seconds of a pass, at reference speed."""
    return (
        sum(o.wall_s * o.speed for o in outcomes),
        sum(o.cpu_s * o.speed for o in outcomes),
    )


def end_to_end_metrics(passes: list[list[Outcome]], setup: list[float]) -> dict:
    flat = [o for outcomes in passes for o in outcomes]
    sums = [pass_sums(outcomes) for outcomes in passes]
    values = {
        "wall_s": statistics.median(w for w, _ in sums),
        "cpu_s": statistics.median(c for _, c in sums),
        "peak_rss_mb": max(o.rss_mb for o in flat),
        "setup_s": statistics.median(setup),
        "ok_frac": sum(o.ok for o in flat) / len(flat),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}


def per_layer_metrics(untraced: list[Outcome], traced: list[Outcome]) -> dict:
    spans: dict[str, float] = {}
    counts: dict[str, int] = {}
    maxima: dict[str, int] = {}
    total = 0.0
    for outcome in traced:
        stats = outcome.stats or {}
        total += stats.get("total_s", 0.0)
        for name, value in stats.get("spans", {}).items():
            spans[name] = spans.get(name, 0.0) + value
        for name, value in stats.get("counts", {}).items():
            counts[name] = counts.get(name, 0) + value
        for name, value in stats.get("maxima", {}).items():
            maxima[name] = max(maxima.get(name, 0), value)
    kl_self = spans.get("kl.partition", 0.0) + spans.get("kl.engine", 0.0)
    derived = {
        "kl.self_share": kl_self / total if total else 0.0,
        "cli.output_bytes": sum(o.output_bytes for o in traced),
        "trace.total_s": total,
        "trace.overhead_s": sum(o.wall_s for o in traced) - sum(o.wall_s for o in untraced),
    }
    sources = {"span": spans, "count": counts, "max": maxima}
    metrics = {}
    for name, unit, source in PER_LAYER:
        if source == "derived":
            value = derived[name]
        else:
            kind, key = source.split(":", 1)
            value = sources[kind].get(key, 0)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown: not a git checkout"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=dict(os.environ, GIT_DIR=str(ROOT / ".git")),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown: {exc}"
    return done.stdout.strip() or "unknown"


def run_record(args: argparse.Namespace, passes: list[list[Outcome]], traced_pass: int | None) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "pinned_to_cpus": sorted(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        "case_timeout_s": CASE_TIMEOUT_S,
        "passes": [
            {"traced": i == traced_pass, "cases": [o.record() for o in outcomes]}
            for i, outcomes in enumerate(passes)
        ],
    }


def benchmark(args: argparse.Namespace) -> dict:
    # children inherit the CPU, so the speed probe samples the CPU they run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    started = time.perf_counter()
    deadline = started + RUN_DEADLINE_S
    cases = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    setup = measure_setup(SETUP_SAMPLES if not args.trace else 0, deadline)
    passes: list[list[Outcome]] = []
    if args.trace:
        passes.append(run_pass(cases, rng, deadline))
        passes.append(run_pass(cases, rng, deadline, traced=True))
        metrics = per_layer_metrics(passes[0], passes[1])
    else:
        window_end = time.perf_counter() + args.seconds
        while True:
            pass_start = time.perf_counter()
            passes.append(run_pass(cases, rng, deadline))
            took = time.perf_counter() - pass_start
            if time.perf_counter() + took > min(window_end, deadline):
                break
        metrics = end_to_end_metrics(passes, setup)
    flat = [o for outcomes in passes for o in outcomes]
    failed = sum(not o.ok for o in flat)
    record = run_record(args, passes, 1 if args.trace else None)
    record["failed_frac"] = failed / len(flat)
    return {
        "record": record,
        "result": {"correct": failed == 0, "attempted": len(flat), "failed": failed, "metrics": metrics},
    }


def record_references() -> int:
    """Rewrite every reference output from the current tree's CLI."""
    REFERENCE.mkdir(exist_ok=True)
    for cases in WORKLOADS.values():
        for case in cases:
            child = run_child(case.argv, CASE_TIMEOUT_S * 5, None)
            if child.exit_code != 0:
                print(f"{case.name}: exit {child.exit_code}", file=sys.stderr)
                return 1
            case.reference.write_bytes(child.stdout)
            print(f"{case.name}: {child.wall_s:.2f} s -> {case.reference.relative_to(ROOT)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite the reference outputs")
    args = parser.parse_args(argv)
    # a terminated run still kills and reaps its child on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "brauer_kl" / "cli.py").is_file():
        print(f"error: no brauer_kl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record:
        return record_references()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        out = benchmark(args)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = out["result"]
    for name, metric in result["metrics"].items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"# failed_frac = {out['record']['failed_frac']:.6g} ({result['failed']}/{result['attempted']})")
    print(json.dumps({"run_record": out["record"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
