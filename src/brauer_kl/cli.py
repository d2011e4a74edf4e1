"""Command-line interface.

Subcommands: admissible | enumerate | decompose | oracle-compare | kl-selftest.
All arithmetic is exact; rationals are written "p/q" on both input and
output (``Fraction``'s own text form, read with ``Fraction`` and printed with
``str``), and a negative one is passed with "=", as in ``--u=-1/2``.
``decompose`` is a function of its parameters (k, r, u) alone: the block
sizes are the first verified choice of ``params.select_block_sizes``, and
the KL and conjugate conventions are the pins frozen in ``pipeline``; only
``oracle-compare`` tries both KL readings, and it takes no ``--k``: the
diagram oracle exists at level one only.  Each of the two builds one
family table (``weights.family_table``); ``oracle-compare`` checks the
diagram budget first, then builds the family, both readings' reports,
which share the family's engine cores, and the oracle matrix last, so a
refusal never pays for the oracle.  ``decompose --out FILE`` writes
the report to FILE; ``--out DIR`` writes it to
``DIR/decomp_k{k}_r{r}_{h}.{json|csv}``, where h is the first 8 hex digits
of the SHA-256 of the ``--u`` text as given.  The module level imports only
``argparse``, ``os`` and ``sys``, and a command imports what it runs:
``--help`` loads nothing else of the package and neither ``fractions`` nor
``decimal``; ``admissible`` loads ``params`` (and with it ``fractions``) but
not ``combinat``; ``enumerate`` loads ``combinat`` alone, without
``fractions``; the peel loads only for the commands that run it, the KL
engine and ``laurent`` only for a family with a block of two or more weights,
``hashlib`` only to name such a file, ``json`` only for a JSON report, the
diagram oracle only for ``oracle-compare``.

Exit codes: 0 success, 1 a failed self-check (``kl-selftest`` with any
``FAIL`` line, or ``enumerate`` when the sum of squared walk counts is not
k^r (2r-1)!!) or an exception without an exit code, whose traceback
propagates, 4 an oracle mismatch (``oracle-compare`` lists the
differences), and argparse's own usage errors exit 2.  Every other refusal
is an exception that declares its ``exit_code``, and ``main`` is the one
handler: it prints ``error: {exception}`` as one line and returns the code.

* 2 ``UsageError`` (a zero denominator, a malformed rational, a count of
  ``--u`` values other than ``--k``, an unwritable ``--out``) and
  ``oracle.DimensionTooLarge``;
* 3 ``pipeline.SaturationNotEstablished`` (saturation not waived);
* 5 ``kl.UnsupportedBlock``, ``kl.ClosedWorldViolation`` (a canonical-basis
  recursion past its weight bound) and ``params.BlockSizesTooLarge``;
* 6 ``pipeline.NegativeResidual`` (a tilting peel that fails), which
  ``oracle-compare`` lists as a difference of its reading instead.
"""

import argparse
import os
import sys


class UsageError(Exception):
    """Input that argparse accepts but the command cannot read."""

    exit_code = 2


def _int_at_least(minimum: int):
    """argparse type: an integer no smaller than ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


def _parse_rational(text: str):
    """The exact rational ``text`` names, as a ``Fraction``."""
    from fractions import Fraction

    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise UsageError(f"zero denominator in {text.strip()!r}") from None
    except ValueError as exc:
        raise UsageError(exc) from None


def _parse_u(text: str, k: int) -> tuple:
    """k comma-separated rationals, as a tuple of ``Fraction``s."""
    u = tuple(_parse_rational(part) for part in text.split(","))
    if len(u) != k:
        raise UsageError(f"expected {k} rational(s), got {len(u)}")
    return u


def cmd_admissible(args: argparse.Namespace) -> int:
    from . import params

    u = _parse_u(args.u, args.k)
    N = args.N if args.N is not None else args.k
    series = params.omega_series(u, N)
    for a, value in enumerate(series):
        print(f"omega_{a} = {value}")
    verdict = params.simple_param_condition(u, args.k)
    print(f"simple_param_condition = {'true' if verdict else 'false'}")
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    from . import combinat

    table = combinat.updown_count_table(args.k, args.r)
    labels = combinat.labels_of(table, args.r)
    total = 0
    for idx in labels:
        count = table[idx.shape]
        total += count * count
        print(f"{combinat.family_label(idx)}  walks={count}")
    expected = args.k**args.r * combinat.double_factorial(2 * args.r - 1)
    print(f"labels={len(labels)} sum_of_squares={total} expected={expected}")
    return 0 if total == expected else 1


def cmd_decompose(args: argparse.Namespace) -> int:
    from . import params, pipeline, weights

    family = weights.family_table(params.build_config(_parse_u(args.u, args.k), args.r))
    report = pipeline.decomposition_report(family, assume_saturated=args.assume_saturated)
    if args.format == "json":
        import json  # only a JSON report needs it

        text = json.dumps(report, indent=2) + "\n"
    else:
        text = pipeline.report_to_csv(report, which=args.matrix)
    out_path = args.out
    if out_path is None:
        sys.stdout.write(text)
        return 0
    if os.path.isdir(out_path):
        import hashlib  # only a file name needs it (OpenSSL costs MBs per process)

        digest = hashlib.sha256(args.u.encode()).hexdigest()[:8]
        out_path = os.path.join(out_path, f"decomp_k{args.k}_r{args.r}_{digest}.{args.format}")
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {out_path}: {exc.strerror}") from None
    print(out_path)
    return 0


def cmd_oracle_compare(args: argparse.Namespace) -> int:
    from . import oracle  # only this command runs the diagram oracle
    from . import params, pipeline, weights

    delta = _parse_rational(args.delta)
    oracle.check_budget(args.r)
    cfg = params.build_config((params.u_from_delta(delta),), args.r)
    family = weights.family_table(cfg)  # both conventions' reports share its engine cores
    levels: dict = {}  # per KL convention: its report's level matrix, or its failure as a diff
    for kl_conv in ("direct", "mirror"):
        try:
            levels[kl_conv] = pipeline.decomposition_report(family, kl_conv)["matrix_level"]
        except pipeline.NegativeResidual as exc:  # a wrong convention may fail its peel
            levels[kl_conv] = [{"kind": "error", "detail": str(exc)}]
    matrix = oracle.oracle_decomposition_matrix(args.r, delta)  # last: a refusal skips it
    passing: list[tuple[str, str]] = []
    diffs_by_pair = {}
    for kl_conv, level in levels.items():
        # the conjugation only relabels the oracle's cells inside oracle.compare
        for conj_conv in ("identity", "transpose"):
            diff = level if isinstance(level, list) else oracle.compare(level, matrix, conj_conv)
            diffs_by_pair[(kl_conv, conj_conv)] = diff
            if not diff:
                passing.append((kl_conv, conj_conv))
    if passing:
        for kl_conv, conj_conv in passing:
            print(f"match: kl={kl_conv} conjugate={conj_conv}")
        return 0
    print("no convention pair reconciles the oracle:", file=sys.stderr)
    for pair, diff in diffs_by_pair.items():
        print(f"  {pair}: {len(diff)} difference(s); first: {diff[0]}", file=sys.stderr)
    return 4


# (u as --u text, r): text, so that loading the CLI builds no Fraction
SELFTEST_BATTERY = (("0", 3), ("1/3", 2), ("3/2", 2), ("1/5,9/7", 2))


def cmd_kl_selftest(args: argparse.Namespace) -> int:
    """Built-in battery: bijections and the family table, content identity,
    peel stability.  Each failed or raising check prints one reason line."""
    from . import combinat, params, pipeline, weights

    def bijection(cfg, table):
        # row i is enumerate_F of labels[i], so tilde inverts it where they agree
        for i, x in enumerate(table.numerators):
            idx = weights.tilde(x, cfg)
            if table.labels[i] != idx:
                shown, label = (combinat.family_label(j) for j in (table.labels[i], idx))
                return f"family table reads {shown} at position {i}, tilde gives {label}"

    def content(cfg, table):
        mismatches = pipeline.content_mismatches(cfg)
        if mismatches:
            return f"{len(mismatches)} walk step(s) fail the content cross-check"

    def peel(cfg, table):
        pipeline.tilting_decomposition(table)  # raises if a column reaches above its weight

    failures = 0
    for u_text, r in SELFTEST_BATTERY:
        cfg = params.build_config(_parse_u(u_text, u_text.count(",") + 1), r)
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="brauer-kl",
        description="Exact decomposition matrices for cyclotomic Brauer algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    positive = _int_at_least(1)
    p = sub.add_parser("admissible", help="print the omega series and the parameter condition")
    p.add_argument("--k", type=positive, required=True)
    p.add_argument("--u", type=str, required=True, help='comma-separated rationals, e.g. "1/2,-3"')
    p.add_argument("--N", type=_int_at_least(0), default=None, help="highest omega index to print")
    p.set_defaults(func=cmd_admissible)

    p = sub.add_parser("enumerate", help="list cell labels with walk counts")
    p.add_argument("--k", type=positive, required=True)
    p.add_argument("--r", type=_int_at_least(0), required=True)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("decompose", help="write a decomposition report")
    p.add_argument("--k", type=positive, required=True)
    p.add_argument("--r", type=positive, required=True)
    p.add_argument("--u", type=str, required=True)
    p.add_argument("--assume-saturated", action="store_true")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--matrix", choices=["level", "full"], default="level", help="csv payload")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("oracle-compare", help="pin conventions against the diagram oracle")
    p.add_argument("--r", type=positive, required=True)
    p.add_argument("--delta", type=str, required=True, help='loop scalar, e.g. "1" or "-2"')
    p.set_defaults(func=cmd_oracle_compare)

    p = sub.add_parser("kl-selftest", help="run the built-in consistency battery")
    p.set_defaults(func=cmd_kl_selftest)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        if not hasattr(exc, "exit_code"):
            raise  # a fault of the program, not a refusal
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
