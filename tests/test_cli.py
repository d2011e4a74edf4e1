"""Exit codes and output formats of the command-line front end."""

import ast
import contextlib
import hashlib
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import brauer_kl
from brauer_kl import cli, combinat, kl, oracle, params, pipeline, selftest, weights
from brauer_kl.cli import _parse_rational, main
from brauer_kl.selftest import SELFTEST_BATTERY
from brauer_kl.weights import family_table

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import run as bench  # noqa: E402  the benchmark's case grid and reference check


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_admissible_level_one_chamber(capsys):
    code, out, _ = run(capsys, "admissible", "--k", "1", "--u", "0", "--N", "2")
    assert code == 0
    assert out.splitlines() == [
        "omega_0 = 1",
        "omega_1 = 0",
        "omega_2 = 0",
        "simple_param_condition = true",
    ]


def test_rationals_print_as_the_cli_reads_them():
    # Fraction's own text form is the one rationals are read and printed in
    for text in ["0", "3", "-2", "1/3", "-19/2"]:
        assert params.build_config((_parse_rational(text),), 2).serialize()["u"] == [text]
    assert _parse_rational(" 2/4 ") == Fraction(1, 2)


def test_admissible_half_is_excluded(capsys):
    code, out, _ = run(capsys, "admissible", "--k", "1", "--u", "1/2")
    assert code == 0
    assert "simple_param_condition = false" in out


def test_admissible_rational_output_is_exact(capsys):
    code, out, _ = run(capsys, "admissible", "--k", "1", "--u", "1/3", "--N", "1")
    assert code == 0
    assert "omega_0 = 5/3" in out  # 2u + 1
    assert "omega_1 = 5/9" in out  # 2u(u + 1/2)


def test_admissible_malformed_rational(capsys):
    code, _, err = run(capsys, "admissible", "--k", "1", "--u", "one")
    assert code == 2
    assert "error" in err


def test_admissible_wrong_arity(capsys):
    code, _, err = run(capsys, "admissible", "--k", "2", "--u", "1/3")
    assert code == 2
    assert "expected 2 rational(s)" in err


def test_enumerate_square_sum(capsys):
    code, out, _ = run(capsys, "enumerate", "--k", "2", "--r", "2")
    assert code == 0
    assert out.strip().splitlines()[-1] == "labels=6 sum_of_squares=12 expected=12"


def test_enumerate_exits_1_when_the_square_sum_fails(capsys, monkeypatch):
    # the labels and counts come off one walk table; doubling its counts
    # breaks the identity sum walks^2 = k^r (2r-1)!!
    walk = combinat.updown_count_table
    walked = []

    def doubled(a, r):
        walked.append((a, r))
        return {shape: 2 * count for shape, count in walk(a, r).items()}

    monkeypatch.setattr(combinat, "updown_count_table", doubled)
    code, out, err = run(capsys, "enumerate", "--k", "2", "--r", "2")
    assert (code, err, walked) == (1, "", [(2, 2)])
    assert out.strip().splitlines()[-1] == "labels=6 sum_of_squares=48 expected=12"


def test_decompose_generic_identity(capsys):
    code, out, _ = run(capsys, "decompose", "--k", "1", "--r", "2", "--u", "1/3")
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == "brauer-kl/1"
    level = report["matrix_level"]
    assert len(level["rows"]) == 3
    assert level["entries"] == [[i, i, 1] for i in range(3)]


def test_decompose_is_byte_identical(capsys):
    args = ("decompose", "--k", "1", "--r", "3", "--u", "3/2")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_decompose_csv_format(capsys):
    code, out, _ = run(capsys, "decompose", "--k", "1", "--r", "2", "--u", "1/3",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("cell\\tilting,")
    assert len(lines) == 4  # header + three level weights


def test_decompose_writes_named_file(capsys, tmp_path):
    digest = hashlib.sha256(b"1/3").hexdigest()[:8]
    code, out, _ = run(capsys, "decompose", "--k", "1", "--r", "2", "--u", "1/3",
                       "--out", str(tmp_path))
    assert code == 0
    path = out.strip()
    assert path == os.path.join(str(tmp_path), f"decomp_k1_r2_{digest}.json")
    report = json.loads(open(path, encoding="utf-8").read())
    assert report["flags"]["generic"] is True
    code, out, _ = run(capsys, "decompose", "--k", "1", "--r", "2", "--u", "1/3",
                       "--format", "csv", "--out", str(tmp_path))
    assert code == 0
    assert out.strip() == os.path.join(str(tmp_path), f"decomp_k1_r2_{digest}.csv")


def test_decompose_unwritable_out_is_one_error_line(capsys, tmp_path):
    path = str(tmp_path / "missing" / "x.json")
    code, out, err = run(capsys, "decompose", "--k", "1", "--r", "3", "--u", "3/2", "--out", path)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1


def test_decompose_saturation_gate(capsys):
    code, _, _ = run(capsys, "decompose", "--k", "2", "--r", "2", "--u", "5,1")
    assert code == 3  # test_saturation_refusal_names_the_flag_to_pass pins its line
    code, out, _ = run(capsys, "decompose", "--k", "2", "--r", "2", "--u", "5,1",
                       "--assume-saturated")
    assert code == 0
    assert json.loads(out)["flags"]["phiA_ok"] is False


@pytest.mark.parametrize("argv", [
    ("decompose", "--k", "2", "--r", "2", "--u", "5,1"),
    ("decompose", "--k", "2", "--r", "1", "--u=1/2,1/2"),
])
def test_saturation_refusal_names_the_flag_to_pass(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == (
        "error: cross-block hyperplanes are integral for these parameters; "
        "pass --assume-saturated to proceed\n"
    )


def test_decompose_malformed_u(capsys):
    code, _, err = run(capsys, "decompose", "--k", "1", "--r", "2", "--u", "one")
    assert code == 2
    assert "error" in err


MULTI_WALL = "wall reduction supports exactly one vanishing pairing"
TIED = "the engine supports no weight with two equal coordinates"
NEGATIVE_FIRST = "wall reduction supports no wall pair with its negative member first"
UNSUPPORTED = {  # argv -> the reason its error line gives
    ("decompose", "--k", "1", "--r", "4", "--u", "5/2"): MULTI_WALL,  # B_4(-4)
    ("decompose", "--k", "2", "--r", "3", "--u", "1,0", "--assume-saturated"): MULTI_WALL,
    ("oracle-compare", "--r", "4", "--delta=-4"): MULTI_WALL,
    ("decompose", "--k", "2", "--r", "1", "--u", "0,0", "--assume-saturated"): TIED,
    ("decompose", "--k", "2", "--r", "2", "--u", "1/2,-1/2", "--assume-saturated"): TIED,
    ("decompose", "--k", "3", "--r", "3", "--u", "0,1/3,2/3", "--assume-saturated"):
        NEGATIVE_FIRST,
}


@pytest.mark.parametrize("argv", list(UNSUPPORTED))
def test_unsupported_block_exits_5_with_one_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 5
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {UNSUPPORTED[argv]}")
    assert re.search(r" at f\d+:[-\d,|]+$", err.rstrip())  # a cell label, not a tuple
    assert len(err) < 200


# argv -> its one error line under the direct convention: the first table
# row outside its block, refused as it is read; it lies outside the weight
# family, so the line names it as a tuple of rationals
FAILED_PEEL = {
    ("decompose", "--k", "1", "--r", "4", "--u", "1/2"):
        "error: residual escapes the weight family at (-2,-2,-2,-2,-5,-5)\n",
    ("decompose", "--k", "2", "--r", "3", "--u", "0,1/3"):
        "error: residual escapes the weight family at "
        "(-7/2,-7/2,-7/2,-9/2,-19/6,-19/6,-19/6,-19/6)\n",
}


@pytest.mark.parametrize("argv", list(FAILED_PEEL))
def test_failed_peel_exits_6_with_one_error_line(capsys, monkeypatch, argv):
    monkeypatch.setattr(pipeline, "PINNED_KL_CONVENTION", "direct")
    assert run(capsys, *argv) == (6, "", FAILED_PEEL[argv])


def test_a_default_run_exits_6_at_a_negative_simple_dimension(capsys):
    # B_12(1) under the pinned reading: the level-one KL matrix implies a
    # negative simple dimension, which the descent refuses
    assert run(capsys, "decompose", "--k", "1", "--r", "12", "--u", "0") == (
        6, "", "error: negative simple dimension -32594 at f4:2,2|-\n"
    )


def over_the_weight_bound(*args):
    raise kl.ClosedWorldViolation("canonical-basis recursion touched more than 9 weights")


@pytest.mark.parametrize(
    "argv",
    [("decompose", "--k", "1", "--r", "3", "--u", "0"), ("oracle-compare", "--r", "3", "--delta=1")],
)
def test_weight_bound_exits_5_with_one_error_line(capsys, monkeypatch, argv):
    monkeypatch.setattr(kl, "tilting_table", over_the_weight_bound)
    assert run(capsys, *argv) == (
        5, "", "error: canonical-basis recursion touched more than 9 weights\n"
    )


# parameters whose block-size search would reach past params.MAX_BLOCK_SIZE;
# each used to run without end
HUGE = [
    ("decompose", "--k", "1", "--r", "2", "--u=1e400"),
    ("oracle-compare", "--r", "2", "--delta=-1e400"),
]


@pytest.mark.parametrize("argv", HUGE, ids=" ".join)
def test_huge_parameters_exit_5_with_one_error_line(argv):
    # a subprocess with a timeout: a search that does not end fails here
    src = os.path.dirname(os.path.dirname(brauer_kl.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "brauer_kl.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=10,
    )
    assert (proc.returncode, proc.stdout) == (5, "")
    assert proc.stderr == (
        "error: block-size selection at r=2 would try blocks past "
        f"{params.MAX_BLOCK_SIZE} coordinates, the largest supported\n"
    )


def test_decompose_imports_no_oracle():
    src = os.path.dirname(os.path.dirname(brauer_kl.__file__))
    code = (
        "import sys\n"
        "import brauer_kl.cli\n"
        "code = brauer_kl.cli.main(['decompose', '--k', '1', '--r', '3', '--u', '3/2'])\n"
        "loaded = [m for m in ('oracle', 'specht', 'linalg') if 'brauer_kl.' + m in sys.modules]\n"
        "print(code, loaded, file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0
    assert proc.stderr == "0 []\n"
    assert json.loads(proc.stdout)["schema"] == "brauer-kl/1"


# per command: modules it must not import; hashlib maps OpenSSL, dataclasses
# pulls in inspect, only a JSON report needs json, only the commands that
# peel need the pipeline, only a family with a block of two or more weights
# needs the KL engine, enumerate labels cells from combinat alone, --help
# compiles the CLI module and nothing else of the package, no report command
# compiles the self-check battery, and a well-formed command line is read off
# the option table, so argparse (with gettext and locale) loads only for help
# and usage errors
KL = ("brauer_kl.kl", "brauer_kl.laurent")
ENGINE = ("brauer_kl.pipeline", *KL)
ARGPARSE = ("argparse", "gettext", "locale")
SELFTEST = "brauer_kl.selftest"
PACKAGE_BUT_CLI = tuple(
    "brauer_kl." + name[:-3]
    for name in sorted(os.listdir(os.path.dirname(brauer_kl.__file__)))
    if name.endswith(".py") and name not in ("__init__.py", "cli.py")
)
FOOTPRINT = {
    "decompose --k 1 --r 3 --u 3/2": ("hashlib", "_hashlib", "dataclasses", "inspect", SELFTEST,
                                      *ARGPARSE),
    "decompose --k 2 --r 4 --u 1/5,9/7 --format csv --matrix full": (
        "hashlib", "_hashlib", "dataclasses", "inspect", "json", *KL, SELFTEST, *ARGPARSE),
    # {tmp} is a fresh directory: the report is named by a hash of --u
    "decompose --k 1 --r 3 --u 3/2 --out {tmp}": ("dataclasses", "inspect", "brauer_kl.oracle",
                                                  SELFTEST, *ARGPARSE),
    "oracle-compare --r 3 --delta=1": ("hashlib", "_hashlib", "dataclasses", "inspect", "json",
                                       SELFTEST, *ARGPARSE),
    "--help": ("hashlib", "_hashlib", "dataclasses", "inspect", "fractions", "decimal",
               *PACKAGE_BUT_CLI),
    "admissible --k 1 --u 1/3": ("hashlib", "_hashlib", "dataclasses", "inspect", *ENGINE,
                                 "brauer_kl.combinat", *ARGPARSE),
    "enumerate --k 1 --r 2": (*ENGINE, "brauer_kl.weights", "brauer_kl.params", "fractions",
                              *ARGPARSE),
    "kl-selftest": ("hashlib", "_hashlib", "dataclasses", "inspect", "json", "brauer_kl.oracle",
                    *ARGPARSE),
    # generic parameters: every linkage block a singleton, so no engine
    "decompose --k 1 --r 6 --u 1/3": (*KL, SELFTEST, *ARGPARSE),
    "oracle-compare --r 4 --delta=3": (*KL, SELFTEST, *ARGPARSE),
}


def loaded_by(command: str, modules: tuple, as_module: bool = False) -> tuple[int, list[str]]:
    """The exit code of a fresh interpreter that runs ``command`` through
    ``cli.main``, and the sorted list of ``modules`` the command loaded.
    With ``as_module`` the child runs the CLI as ``python -m brauer_kl.cli``
    does: through ``runpy``, under the name ``__main__``."""
    src = os.path.dirname(os.path.dirname(brauer_kl.__file__))
    argv = command.split()
    entry = (
        f"sys.argv[1:] = {argv!r}; runpy.run_module('brauer_kl.cli', run_name='__main__')"
        if as_module
        else f"import brauer_kl.cli; code = brauer_kl.cli.main({argv!r})"
    )
    code = (
        "import runpy, sys\n"
        "before = set(sys.modules)\n"
        "try:\n"
        f"    {entry}\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        f"print(code, sorted(m for m in {modules!r} if m in set(sys.modules) - before),\n"
        "      file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    exit_code, loaded = proc.stderr.splitlines()[-1].split(" ", 1)
    return int(exit_code), ast.literal_eval(loaded)


@pytest.mark.parametrize("command", list(FOOTPRINT))
def test_command_imports_only_what_it_runs(command, tmp_path):
    assert loaded_by(command.format(tmp=tmp_path), FOOTPRINT[command]) == (0, [])


def test_the_module_entry_point_reads_a_command_without_argparse():
    command = "decompose --k 1 --r 3 --u 3/2"
    assert loaded_by(command, FOOTPRINT[command], as_module=True) == (0, [])


@pytest.mark.parametrize(
    "command, exit_code",
    [("--help", 0), ("", 2), ("decompose --k 1 --r 0 --u 1/3", 2)],
    ids=["help", "empty", "malformed"],
)
@pytest.mark.parametrize("as_module", [False, True], ids=["main", "module"])
def test_help_and_usage_errors_go_through_argparse(command, exit_code, as_module):
    assert loaded_by(command, ARGPARSE, as_module) == (exit_code, sorted(ARGPARSE))


def test_a_linked_block_loads_the_kl_engine():
    # the peel's import of kl inside its non-singleton branch is reached
    assert loaded_by("decompose --k 1 --r 3 --u 3/2", KL) == (0, sorted(KL))


def test_kl_selftest_loads_the_battery():
    # the handler's import of selftest is reached, and --help lists its module
    assert SELFTEST in PACKAGE_BUT_CLI
    assert loaded_by("kl-selftest", (SELFTEST,)) == (0, [SELFTEST])


def test_decompose_output_is_the_same_under_python_O():
    src = os.path.dirname(os.path.dirname(brauer_kl.__file__))
    argv = ["-m", "brauer_kl.cli", "decompose", "--k", "1", "--r", "3", "--u", "3/2"]
    outputs = [
        subprocess.run(
            [sys.executable, *flags, *argv],
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        for flags in ([], ["-O"])
    ]
    assert [proc.returncode for proc in outputs] == [0, 0]
    assert outputs[0].stdout == outputs[1].stdout


def test_oracle_compare_generic_r2(capsys):
    code, out, _ = run(capsys, "oracle-compare", "--r", "2", "--delta", "1/3")
    assert code == 0
    assert "match: kl=mirror conjugate=transpose" in out


@pytest.mark.parametrize("delta, evaluated", [("3", False), ("1", True)])
def test_oracle_compare_evaluates_characters_only_off_a_semisimple_point(
    capsys, monkeypatch, delta, evaluated
):
    # B_4(3) has nondegenerate cell forms, so its matrix is read off them;
    # B_4(1) has a radical, so its matrix is solved from characters
    calls = []
    character = oracle.CellModule.character
    monkeypatch.setattr(
        oracle.CellModule, "character", lambda self, d: calls.append(d) or character(self, d)
    )
    assert run(capsys, "oracle-compare", "--r", "4", f"--delta={delta}")[0] == 0
    assert bool(calls) is evaluated


def test_oracle_compare_delta_one_r3(capsys):
    code, out, _ = run(capsys, "oracle-compare", "--r", "3", "--delta", "1")
    assert code == 0
    assert "match: kl=mirror conjugate=transpose" in out


def test_oracle_compare_delta_minus_two_r3_pins_the_pair(capsys):
    # (3) vs (1,1,1) are not self-conjugate, so this run separates the
    # conjugate conventions; only the frozen pin survives
    code, out, _ = run(capsys, "oracle-compare", "--r", "3", "--delta", "-2")
    assert code == 0
    assert out.splitlines() == ["match: kl=mirror conjugate=transpose"]


def test_oracle_compare_rejects_level_two(capsys):
    # the diagram oracle exists at level one only, so the command takes no --k
    with pytest.raises(SystemExit) as exc:
        main(["oracle-compare", "--k", "2", "--r", "2", "--delta", "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: unrecognized arguments: --k 2" in captured.err


def test_oracle_compare_rejects_large_r(capsys):
    code, _, err = run(capsys, "oracle-compare", "--r", "6", "--delta", "1")
    assert code == 2
    assert "r <= 5" in err


def test_oracle_compare_over_budget_is_one_error_line(capsys):
    code, out, err = run(capsys, "oracle-compare", "--r", "6", "--delta=1")
    assert code == 2
    assert out == ""
    assert err == "error: r=6 exceeds the brute-force budget of 945 diagrams (r <= 5)\n"


# delta -> the vanishing pairings its multi-wall block has at r = 5
R5_MULTI_WALL = {"-4": 2, "-6": 3}


@pytest.mark.parametrize("delta", [str(d) for d in range(-6, 7)] + ["1/2", "-1/2"])
def test_oracle_compare_r5_sweep(capsys, delta):
    code, out, err = run(capsys, "oracle-compare", "--r", "5", f"--delta={delta}")
    if delta in R5_MULTI_WALL:
        assert (code, out) == (5, "")
        assert err.startswith(f"error: {MULTI_WALL}, found {R5_MULTI_WALL[delta]} at f")
        return
    assert (code, err) == (0, "")
    assert "match: kl=mirror conjugate=transpose" in out.splitlines()


def matches(*pairs):
    return "".join(f"match: kl={kl_conv} conjugate={conj}\n" for kl_conv, conj in pairs)


EVERY_PAIR = matches(*[(k, c) for k in ("direct", "mirror") for c in ("identity", "transpose")])
PIN = matches(("mirror", "transpose"))
BOTH_MIRROR = matches(("mirror", "identity"), ("mirror", "transpose"))
# (r, delta) -> (exit code, stdout) wherever oracle-compare does not match
# all four convention pairs; frozen from the run before compare read the
# report's label text
VERDICT_EXCEPTIONS = {
    (2, "0"): (4, ""),
    (3, "-2"): (0, PIN),
    (3, "0"): (0, BOTH_MIRROR),
    (3, "1"): (0, BOTH_MIRROR),
    (4, "-4"): (5, ""),
    (4, "-2"): (0, PIN),
    (4, "0"): (4, ""),
    (4, "1"): (0, BOTH_MIRROR),
    (4, "2"): (0, PIN),
    (5, "-6"): (5, ""),
    (5, "-4"): (5, ""),
    (5, "-2"): (0, PIN),
    (5, "-1"): (0, PIN),
    (5, "0"): (0, BOTH_MIRROR),
    (5, "1"): (0, BOTH_MIRROR),
    (5, "2"): (0, PIN),
    (5, "3"): (0, PIN),
}


@pytest.mark.parametrize("r", range(1, 6))
def test_oracle_compare_verdicts_are_frozen(capsys, r):
    # every delta in Z/2 with |delta| <= 12: 49 points per r, 245 in all
    for twice in range(-24, 25):
        delta = str(Fraction(twice, 2))
        code, out, _ = run(capsys, "oracle-compare", "--r", str(r), f"--delta={delta}")
        assert (code, out) == VERDICT_EXCEPTIONS.get((r, delta), (0, EVERY_PAIR)), delta


@pytest.mark.parametrize(
    "delta, reports, out", [("3", 1, EVERY_PAIR), ("1", 2, BOTH_MIRROR)], ids=["3", "1"]
)
def test_oracle_compare_builds_one_report_when_no_block_is_linked(
    capsys, monkeypatch, delta, reports, out
):
    # every block of B_4(3)'s family is a singleton, whose peel never reads
    # the KL convention; B_4(1)'s family has a linked block
    calls = []
    report = pipeline.decomposition_report
    monkeypatch.setattr(
        pipeline, "decomposition_report", lambda *a, **kw: calls.append(a) or report(*a, **kw)
    )
    assert run(capsys, "oracle-compare", "--r", "4", f"--delta={delta}") == (0, out, "")
    assert len(calls) == reports


def test_oracle_compare_mismatch_names_weights_without_fraction_reprs(capsys):
    # the direct convention's peel escapes the family: the weight it names
    # is off the family, so it prints as a rational tuple; the other
    # records write cell labels as the report does
    code, out, err = run(capsys, "oracle-compare", "--r", "4", "--delta=0")
    assert code == 4
    assert out == ""
    assert "Fraction(" not in err
    assert re.search(r"residual escapes the weight family at \(-?\d+(,-?[\d/]+)*\)'", err)
    assert "'kind': 'col-labels', 'oracle': ['f0:4', " in err


# command -> the layer (module, name) it runs that a test makes raise
LAYERS = {
    ("decompose", "--k", "1", "--r", "3", "--u", "3/2"): (weights, "family_table"),
    ("admissible", "--k", "1", "--u", "1/3"): (params, "omega_series"),
    ("oracle-compare", "--r", "3", "--delta=1"): (oracle, "oracle_decomposition_matrix"),
}


def raising(exc):
    def layer(*args, **kwargs):
        raise exc

    return layer


def test_oracle_compare_lets_a_program_fault_propagate(capsys, monkeypatch):
    # only a failed peel is a convention's difference; any other error in a
    # reading is a fault of the program, even when the other reading matches
    report = pipeline.decomposition_report

    def faulty(family, convention=None, **kwargs):
        if convention == "direct":
            raise RuntimeError("fault in the direct reading")
        return report(family, convention, **kwargs)

    monkeypatch.setattr(pipeline, "decomposition_report", faulty)
    with pytest.raises(RuntimeError, match="fault in the direct reading"):
        main(["oracle-compare", "--r", "3", "--delta=1"])
    monkeypatch.undo()
    # an exception without an exit code leaves every command's main as it is
    for argv, (module, name) in LAYERS.items():
        with monkeypatch.context() as patch:
            patch.setattr(module, name, raising(RuntimeError(f"fault in {name}")))
            with pytest.raises(RuntimeError, match=f"fault in {name}"):
                main(list(argv))
    assert capsys.readouterr() == ("", "")


def test_a_refusal_raised_in_a_layer_is_one_error_line_with_its_code(capsys):
    # cli.main reads the code off the exception, whichever layer raised it
    refusals = [
        params.BlockSizesTooLarge("too large"),
        pipeline.SaturationNotEstablished("not saturated"),
        pipeline.NegativeResidual("negative residual"),
        oracle.DimensionTooLarge("too many diagrams"),
    ]
    for argv, (module, name) in LAYERS.items():
        for exc in refusals:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(module, name, raising(exc))
                assert run(capsys, *argv) == (exc.exit_code, "", f"error: {exc}\n")


def test_oracle_compare_malformed_delta(capsys):
    code, _, err = run(capsys, "oracle-compare", "--r", "2", "--delta", "x")
    assert code == 2


def test_kl_selftest(capsys):
    code, out, _ = run(capsys, "kl-selftest")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert all(line.startswith("ok:") for line in lines)


def test_kl_selftest_says_why_a_case_failed(capsys, monkeypatch):
    def broken(cfg):
        raise pipeline.NegativeResidual("peel order changed the tilting multiplicities")

    monkeypatch.setattr(pipeline, "tilting_decomposition", broken)
    code, out, _ = run(capsys, "kl-selftest")
    assert code == 1
    lines = out.strip().splitlines()
    assert len(lines) == 8
    assert all(line.startswith("FAIL:") for line in lines[::2])
    assert set(lines[1::2]) == {
        "  NegativeResidual: peel order changed the tilting multiplicities"
    }


def boom(*args):
    raise ValueError("boom")


@pytest.mark.parametrize("module, name", [(weights, "tilde"), (selftest, "content_mismatches")])
def test_kl_selftest_reports_a_check_that_raises(capsys, monkeypatch, module, name):
    monkeypatch.setattr(module, name, boom)
    code, out, _ = run(capsys, "kl-selftest")
    assert code == 1
    lines = out.strip().splitlines()
    assert len(lines) == 8
    assert all(line.startswith("FAIL:") for line in lines[::2])
    assert set(lines[1::2]) == {"  ValueError: boom"}


def test_kl_selftest_builds_one_family_table_per_case(capsys, monkeypatch):
    # the three checks read one table, built before them: a table that
    # cannot be built stops the battery, as its numerators always did
    built = []
    table = weights.family_table
    monkeypatch.setattr(weights, "family_table", lambda cfg: built.append(cfg) or table(cfg))
    assert run(capsys, "kl-selftest")[0] == 0
    assert len(built) == len(set(built)) == 4
    monkeypatch.setattr(weights, "family_table", boom)
    with pytest.raises(ValueError, match="boom"):
        main(["kl-selftest"])


def test_kl_selftest_checks_the_family_table(capsys, monkeypatch):
    table = weights.family_table

    def reversed_labels(cfg):
        f = table(cfg)
        return weights.Family(f.cfg, f.labels[::-1], f.scale, f.numerators, f.flag, f.level_flag)

    monkeypatch.setattr(weights, "family_table", reversed_labels)
    code, out, _ = run(capsys, "kl-selftest")
    assert code == 1
    lines = out.strip().splitlines()
    assert len(lines) == 8
    assert all(line.startswith("FAIL:") for line in lines[::2])
    # each case's first mismatch is position 0, which now reads the last label
    expected = []
    for u, r in SELFTEST_BATTERY:
        labels = table(params.build_config([Fraction(x) for x in u.split(",")], r)).labels
        first, last = (combinat.family_label(labels[i]) for i in (0, -1))
        expected.append(f"  family table reads {last} at position 0, tilde gives {first}")
    assert lines[1::2] == expected


def test_kl_selftest_counts_content_mismatches(capsys, monkeypatch):
    monkeypatch.setattr(selftest, "content_mismatches", lambda cfg: [{}, {}, {}])
    code, out, _ = run(capsys, "kl-selftest")
    assert code == 1
    lines = out.strip().splitlines()
    assert len(lines) == 8
    assert all(line.startswith("FAIL:") for line in lines[::2])
    assert set(lines[1::2]) == {"  3 walk step(s) fail the content cross-check"}


@pytest.fixture
def engines_built(monkeypatch):
    """Counts CanonicalBasisEngine constructions."""
    count = [0]
    init = kl.CanonicalBasisEngine.__init__

    def counting(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(kl.CanonicalBasisEngine, "__init__", counting)
    return count


def test_decompose_builds_each_block_engine_once(capsys, engines_built):
    code, _, _ = run(capsys, "decompose", "--k", "1", "--r", "3", "--u", "3/2")
    assert code == 0
    assert engines_built[0] == 1  # one wall block


def test_oracle_compare_builds_one_engine_per_block_and_convention(capsys, engines_built):
    cfg = params.build_config((params.u_from_delta(Fraction(1)),), 3)
    blocks = weights.partition_into_blocks(family_table(cfg))
    non_singleton = sum(not b.is_singleton for b in blocks)
    code, _, _ = run(capsys, "oracle-compare", "--r", "3", "--delta", "1")
    assert code == 0
    assert 0 < engines_built[0] <= 2 * non_singleton


@pytest.mark.parametrize(
    "argv", ["oracle-compare --r 4 --delta=1", "decompose --k 1 --r 3 --u 3/2"]
)
def test_a_command_partitions_its_family_once(capsys, monkeypatch, argv):
    # both KL readings of oracle-compare read the one family's blocks; every
    # module binding of the function is counted, as the benchmark tracer does
    partitioned = []
    partition = weights.partition_into_blocks

    def counting(family):
        partitioned.append(len(family))
        return partition(family)

    for module in (weights, pipeline, kl):
        for name, obj in list(vars(module).items()):
            if obj is partition:
                monkeypatch.setattr(module, name, counting)
    assert run(capsys, *argv.split())[0] == 0
    assert len(partitioned) == 1


# oracle-compare arguments -> the canonical basis elements the command computes
ELEMENTS = {"--r 3 --delta=1": 7, "--r 4 --delta=1": 14, "--r 5 --delta=-2": 33,
            "--r 5 --delta=0": 16}


@pytest.mark.parametrize("argv", list(ELEMENTS))
def test_oracle_compare_computes_each_element_once(capsys, monkeypatch, argv):
    # both KL conventions read one family's cores; an element is keyed by its
    # core's shape and its state, so a second core of one shape repeats it
    computed = []
    element = kl.CanonicalBasisEngine._element

    def recording(self, s):
        if s not in self._b:  # a memo miss
            computed.append(((self.ctx, self.moves, self._zero_class), s))
        return element(self, s)

    monkeypatch.setattr(kl.CanonicalBasisEngine, "_element", recording)
    assert run(capsys, "oracle-compare", *argv.split())[0] == 0
    assert len(set(computed)) == len(computed) == ELEMENTS[argv]


# per command: the counters the benchmark tracer must read off it
TRACED = {
    ("decompose", "--k", "1", "--r", "3", "--u", "3/2"): {
        "weights.family_size": 12, "kl.blocks.wall": 1, "kl.engines_built": 1,
    },
    ("oracle-compare", "--r", "3", "--delta=1"): {
        "weights.family_size": 12, "kl.blocks.regular": 1, "kl.engines_built": 2,
    },
}


@pytest.mark.parametrize("argv", list(TRACED), ids=[" ".join(argv) for argv in TRACED])
def test_benchmark_tracer_runs_the_command(capsys, argv):
    # perfbench/traced_cli.py wraps package functions by name: a rename
    # that breaks it shows here, not only in the benchmark's own tests
    src = os.path.dirname(os.path.dirname(brauer_kl.__file__))
    tracer = os.path.join(os.path.dirname(src), "perfbench", "traced_cli.py")
    read_end, write_end = os.pipe()
    try:
        proc = subprocess.run(
            [sys.executable, tracer, str(write_end), *argv],
            capture_output=True,
            text=True,
            pass_fds=(write_end,),
            env=dict(os.environ, PYTHONPATH=src),
        )
    finally:
        os.close(write_end)
    with os.fdopen(read_end) as stats_file:
        stats = json.loads(stats_file.read())
    assert proc.returncode == 0, proc.stderr
    code, out, _ = run(capsys, *argv)
    assert code == 0 and proc.stdout == out
    counts = stats["counts"]
    assert {name: counts.get(name) for name in TRACED[argv]} == TRACED[argv]


@pytest.mark.parametrize(
    "case", [c for cases in bench.WORKLOADS.values() for c in cases], ids=lambda c: c.name
)
def test_benchmark_case_matches_its_reference(capsys, case):
    # the benchmark refuses a run whose output differs from its reference;
    # that refusal shows here first
    code, out, err = run(capsys, *case.argv)
    assert code == 0, err
    assert bench.output_mismatch(case, out.encode()) is None


MALFORMED = [
    ("decompose", "--k", "1", "--r", "0", "--u", "1/3"),
    ("decompose", "--k", "1", "--r", "-1", "--u", "1/3"),
    ("decompose", "--k", "1", "--r", "2", "--u", "1/0"),
    # --q is no longer an option of decompose: argparse refuses it
    ("decompose", "--k", "1", "--r", "2", "--u", "1/3", "--q", "4,4"),
    ("decompose", "--k", "1", "--r", "2", "--u", "1/3", "--q", "0"),
    ("enumerate", "--k", "0", "--r", "2"),
    ("admissible", "--k", "1", "--u", "1/0"),
    ("admissible", "--k", "1", "--u", "0", "--N", "-1"),
    ("oracle-compare", "--r", "0", "--delta", "1"),
    ("oracle-compare", "--r", "2", "--delta", "1/0"),
]


@pytest.mark.parametrize("argv", MALFORMED, ids=" ".join)
def test_malformed_input_exits_2_with_a_message(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects bad option values itself
        code = exc.code
    assert code == 2
    assert "error" in capsys.readouterr().err


REMOVED_FLAGS = [("--q", "4"), ("--convention", "direct"), ("--conjugate", "identity")]


@pytest.mark.parametrize("flag", REMOVED_FLAGS, ids=lambda flag: flag[0])
def test_decompose_refuses_the_removed_overrides(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--k", "1", "--r", "3", "--u", "3/2", *flag])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: unrecognized arguments: {' '.join(flag)}" in captured.err


def test_decompose_help_lists_no_override(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--assume-saturated" in out
    assert all(flag not in out for flag, _ in REMOVED_FLAGS)


def test_malformed_input_check_survives_python_O():
    src = os.path.dirname(os.path.dirname(brauer_kl.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "brauer_kl.cli", *MALFORMED[0]],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 2
    assert "must be at least 1" in proc.stderr


def test_unknown_command_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# argparse's texts as the argparse-only parser printed them before the option
# table, at 80 columns: the help of the program and of each command, and the
# stderr and exit code of every usage error above, an unknown command and an
# empty argv
GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text(encoding="utf-8"))


def test_the_recorded_texts_cover_help_and_every_usage_error():
    removed = [["decompose", "--k", "1", "--r", "3", "--u", "3/2", *f] for f in REMOVED_FLAGS]
    assert [case["argv"] for case in GOLDEN] == [
        ["--help"],
        *([name, "--help"] for name in cli.COMMANDS),
        *map(list, MALFORMED),
        *removed,
        ["frobnicate"],
        [],
    ]


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"]) or "(empty)")
def test_help_and_usage_errors_print_the_recorded_text(capsys, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(case["argv"])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (case["exit"], case["stdout"], case["stderr"])


def test_the_benchmark_and_readme_commands_are_read_off_the_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    argvs = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("brauer-kl ")]
    argvs += [list(case.argv) for cases in bench.WORKLOADS.values() for case in cases]
    assert [argv for argv in argvs if cli._parse_by_table(argv) is None] == []


# The table parse against argparse, on command lines drawn from the option
# vocabulary: exact and abbreviated names, "--opt=value" and separate values
# (some starting with "-"), repeats, switches given "=value", "--", -h and junk.
FLAGS = sorted({option.flag for _, _, options in cli.COMMANDS.values() for option in options})
NAMES = [*FLAGS, *sorted({flag[:n] for flag in FLAGS for n in (3, 4, 5) if n < len(flag)}),
         "-h", "--help", "--", "-k", "--q", "x", ""]
VALUES = ["0", "1", "2", "-1", " 3", "1_0", "x", "", "1/3", "-1/2", "json", "csv", "full", "--k",
          "-h"]
TAKES_VALUE = ["separate", "equals"]


def option_tokens(flag: str, value: str, form: str) -> list[str]:
    return {"bare": [flag], "separate": [flag, value], "equals": [f"{flag}={value}"]}[form]


@st.composite
def command_lines(draw) -> list[str]:
    """A command's options with plausible values in any order (a required
    one dropped at times), plus up to three groups from the vocabulary."""
    command = draw(st.sampled_from([*cli.COMMANDS, *cli.COMMANDS, "frobnicate", "-h", "--help"]))
    options = cli.COMMANDS.get(command, (None, None, ()))[2]
    groups = []
    for option in options:
        if draw(st.booleans()) or option.required and draw(st.booleans()):
            if option.switch:
                groups.append([option.flag])
                continue
            plausible = option.choices or (["1", "2", " 3", "+2"] if option.minimum is not None
                                           else ["1/3", "0,1/2", "-1/2", "", "x y"])
            value, form = draw(st.sampled_from(plausible)), draw(st.sampled_from(TAKES_VALUE))
            groups.append(option_tokens(option.flag, value, form))
    own = [option.flag for option in options]
    names = st.sampled_from(NAMES) | st.sampled_from(own or NAMES)  # half from this command
    values, forms = st.sampled_from(VALUES), st.sampled_from(["bare", *TAKES_VALUE])
    groups += draw(st.lists(st.builds(option_tokens, names, values, forms), max_size=3))
    return [command, *(token for group in draw(st.permutations(groups)) for token in group)]


def outcome(call) -> tuple:
    """The exit code, stdout and stderr of ``call()``, which may exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call()
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def echo(name: str):
    """A stand-in handler: it prints what it was given instead of running."""

    def handler(args) -> int:
        print(name, sorted((key, value) for key, value in vars(args).items() if key != "func"))
        return 0

    return handler


ECHOES = {name: (text, echo(name), options) for name, (text, _, options) in cli.COMMANDS.items()}


DECOMPOSE = ["decompose", "--k", "1", "--r", "2", "--u", "1/3"]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(argv=command_lines())
@example(argv=[])
@example(argv=[*DECOMPOSE, "-h"])
@example(argv=[*DECOMPOSE, "--form", "csv"])  # abbreviated
@example(argv=[*DECOMPOSE, "--out", "a", "--out", "b"])  # repeated
@example(argv=[*DECOMPOSE, "--", "--out", "a"])
@example(argv=[*DECOMPOSE, "--out", "-"])  # a separate value that starts with "-"
@example(argv=["decompose", "--k", "1", "--r", "2", "--u", "-1"])
@example(argv=[*DECOMPOSE, "--assume-saturated=1"])  # a switch given a value
@example(argv=[*DECOMPOSE, "--format", "xml"])  # a failed choice
@example(argv=["decompose", "--k", "1", "--r", "0", "--u", "1/3"])  # a failed minimum
@example(argv=["decompose", "--k", "1", "--u", "1/3"])  # a missing required option
def test_the_table_parse_reads_what_argparse_reads(argv):
    # where the table reads argv, it reads argparse's namespace; where it
    # declines, main's output and exit code are argparse's
    with mock.patch.dict(cli.COMMANDS, ECHOES):
        parser = cli._argparse_parser()
        table = cli._parse_by_table(argv)
        if table is not None:
            assert vars(table) == vars(parser.parse_args(argv))
        else:

            def by_argparse():
                args = parser.parse_args(argv)
                return args.func(args)

            assert outcome(lambda: main(argv)) == outcome(by_argparse)


def test_readme_cli_block_runs(capsys):
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    text = open(readme, encoding="utf-8").read()
    block = text.split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("brauer-kl ")]
    assert len(commands) == 7
    for argv in commands:
        code, _, err = run(capsys, *argv)
        assert (argv, code, err) == (argv, 0, "")


# The seeded decompose sweep: 240 draws, fixed before the first run.  k is
# drawn from 1..3, r from 1 up to SWEEP_MAX_R[k], each u_i = a/b with
# 1 <= b <= 6 and |u_i| <= 4, and every second input waives saturation.
SWEEP_SEED, SWEEP_SIZE = 30, 240
SWEEP_MAX_R = {1: 6, 2: 4, 3: 3}


def sweep_inputs() -> list[list[str]]:
    rng = random.Random(SWEEP_SEED)
    inputs = []
    for i in range(SWEEP_SIZE):
        k = rng.choice(sorted(SWEEP_MAX_R))
        r = rng.randint(1, SWEEP_MAX_R[k])
        u = []
        for _ in range(k):
            b = rng.randint(1, 6)
            u.append(Fraction(rng.randint(-4 * b, 4 * b), b))
        argv = ["decompose", "--k", str(k), "--r", str(r), "--u=" + ",".join(map(str, u))]
        inputs.append(argv + ["--assume-saturated"] * (i % 2))
    return inputs


def test_seeded_decompose_sweep_ends_in_a_report_or_one_refusal_line(capsys):
    # every input either writes its report with a silent stderr, or is
    # refused with one error line: saturation (3) or an unsupported block (5)
    faults = []
    for argv in sweep_inputs():
        try:
            code = main(argv)
        except Exception as exc:  # a traceback, which no input may end in
            code = f"{type(exc).__name__}: {exc}"
        err = capsys.readouterr().err
        refused_once = err.startswith("error: ") and err.count("\n") == 1
        if not (code == 0 and err == "" or code in (3, 5) and refused_once):
            faults.append((argv, code, err))
    assert faults == []
