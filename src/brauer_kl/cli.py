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
which share the family's engine cores (one report serves both when every
linkage block is a singleton), and the oracle matrix last, so a refusal
never pays for the oracle.  ``decompose --out FILE`` writes
the report to FILE; ``--out DIR`` writes it to
``DIR/decomp_k{k}_r{r}_{h}.{json|csv}``, where h is the first 8 hex digits
of the SHA-256 of the ``--u`` text as given.

Every option is declared once, in ``COMMANDS``.  ``main`` reads a
well-formed command line straight off that table, without importing
``argparse``; anything the table parse cannot decide exactly as argparse
would (``-h``/``--help``, an empty argv, an unknown, abbreviated or repeated
option, ``--``, a separate value that starts with "-", a switch given a
value, a failed minimum or choice, a missing required option) goes to an
argparse parser built from the same table, which renders help and usage
errors.  The module level imports only ``os``, ``sys`` and ``types``, and
a command imports what it runs: ``--help`` loads nothing else of the
package and neither ``fractions`` nor ``decimal``; ``admissible`` loads
``params`` (and with it ``fractions``) but not ``combinat``; ``enumerate``
loads ``combinat`` alone, without ``fractions``; the peel loads only for
the commands that run it, the KL engine and ``laurent`` only for a family
with a block of two or more weights, ``hashlib`` only to name such a file,
``json`` only for a JSON report, the diagram oracle only for
``oracle-compare``, and the self-check battery (``selftest``) only for
``kl-selftest``.

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

import os
import sys
from types import SimpleNamespace


class UsageError(Exception):
    """Input that argparse accepts but the command cannot read."""

    exit_code = 2


def _int_at_least(minimum: int):
    """argparse type: an integer no smaller than ``minimum``."""
    from argparse import ArgumentTypeError  # only argparse calls this, so it is loaded

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < minimum:
            raise ArgumentTypeError(f"must be at least {minimum}, got {value}")
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


def cmd_admissible(args: SimpleNamespace) -> int:
    from . import params

    u = _parse_u(args.u, args.k)
    N = args.N if args.N is not None else args.k
    series = params.omega_series(u, N)
    for a, value in enumerate(series):
        print(f"omega_{a} = {value}")
    verdict = params.simple_param_condition(u, args.k)
    print(f"simple_param_condition = {'true' if verdict else 'false'}")
    return 0


def cmd_enumerate(args: SimpleNamespace) -> int:
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


def cmd_decompose(args: SimpleNamespace) -> int:
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


def cmd_oracle_compare(args: SimpleNamespace) -> int:
    from . import oracle  # only this command runs the diagram oracle
    from . import params, pipeline, weights

    delta = _parse_rational(args.delta)
    oracle.check_budget(args.r)
    cfg = params.build_config((params.u_from_delta(delta),), args.r)
    family = weights.family_table(cfg)  # both conventions' reports share its engine cores
    levels: dict = {}  # per KL convention: its report's level matrix, or its failure as a diff
    # only a block of two or more weights reads the convention, in its tilting table
    linked = any(not b.is_singleton for b in family.blocks)
    for kl_conv in ("direct", "mirror") if linked else ("direct",):
        try:
            levels[kl_conv] = pipeline.decomposition_report(family, kl_conv)["matrix_level"]
        except pipeline.NegativeResidual as exc:  # a wrong convention may fail its peel
            levels[kl_conv] = [{"kind": "error", "detail": str(exc)}]
    levels.setdefault("mirror", levels["direct"])
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


def cmd_kl_selftest(args: SimpleNamespace) -> int:
    from . import selftest  # only this command compiles the battery

    return selftest.run_battery()


class Option:
    """One option of a subcommand, as the table parse reads it and argparse
    declares it: an integer when ``minimum`` is set, a switch when
    ``switch``, and otherwise text, checked against ``choices`` if given."""

    def __init__(self, flag, *, minimum=None, choices=None, required=False, default=None,
                 switch=False, help=None):
        self.flag, self.dest = flag, flag[2:].replace("-", "_")
        self.minimum, self.choices, self.required, self.help = minimum, choices, required, help
        self.switch, self.default = switch, False if switch else default

    def read(self, text: str):
        """The value argparse stores for ``text``; ValueError where it refuses it."""
        if self.choices is not None and text not in self.choices:
            raise ValueError(text)
        if self.minimum is None:
            return text
        value = int(text)
        if value < self.minimum:
            raise ValueError(text)
        return value


# name: (help, handler, options); the one declaration of every option
COMMANDS = {
    "admissible": ("print the omega series and the parameter condition", cmd_admissible, (
        Option("--k", minimum=1, required=True),
        Option("--u", required=True, help='comma-separated rationals, e.g. "1/2,-3"'),
        Option("--N", minimum=0, help="highest omega index to print"),
    )),
    "enumerate": ("list cell labels with walk counts", cmd_enumerate, (
        Option("--k", minimum=1, required=True),
        Option("--r", minimum=0, required=True),
    )),
    "decompose": ("write a decomposition report", cmd_decompose, (
        Option("--k", minimum=1, required=True),
        Option("--r", minimum=1, required=True),
        Option("--u", required=True),
        Option("--assume-saturated", switch=True),
        Option("--format", choices=("json", "csv"), default="json"),
        Option("--matrix", choices=("level", "full"), default="level", help="csv payload"),
        Option("--out"),
    )),
    "oracle-compare": ("pin conventions against the diagram oracle", cmd_oracle_compare, (
        Option("--r", minimum=1, required=True),
        Option("--delta", required=True, help='loop scalar, e.g. "1" or "-2"'),
    )),
    "kl-selftest": ("run the built-in consistency battery", cmd_kl_selftest, ()),
}


def _parse_by_table(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse makes of a well-formed ``argv``, read off
    ``COMMANDS``; None for any argv whose reading argparse must decide."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, func, options = COMMANDS[argv[0]]
    by_flag = {option.flag: option for option in options}
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, text = token.partition("=")
        option = by_flag.get(flag)  # None for -h, --help, --, an abbreviation or junk
        if option is None or option.dest in given or option.switch and eq:
            return None
        if option.switch:
            given[option.dest] = True
            continue
        if not eq:
            text = next(tokens, "-")  # a missing value reads as one that starts with "-"
            if text.startswith("-"):
                return None
        try:
            given[option.dest] = option.read(text)
        except ValueError:
            return None
    if any(option.required and option.dest not in given for option in options):
        return None
    values = {option.dest: given.get(option.dest, option.default) for option in options}
    return SimpleNamespace(command=argv[0], **values, func=func)


def _argparse_parser():
    """argparse's parser for ``COMMANDS``: it renders help and usage errors."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="brauer-kl",
        description="Exact decomposition matrices for cyclotomic Brauer algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for option in options:
            spec = {"required": option.required, "default": option.default, "help": option.help}
            if option.switch:
                spec["action"] = "store_true"
            elif option.minimum is not None:
                spec["type"] = _int_at_least(option.minimum)
            elif option.choices is not None:
                spec["choices"] = option.choices
            p.add_argument(option.flag, **spec)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_by_table(argv) or SimpleNamespace(**vars(_argparse_parser().parse_args(argv)))
    try:
        return args.func(args)
    except Exception as exc:
        if not hasattr(exc, "exit_code"):
            raise  # a fault of the program, not a refusal
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
