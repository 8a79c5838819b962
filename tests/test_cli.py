import hashlib
import io
import json
import os
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import tq.cli
import tq.lseries
from helpers import even_table_that_is_no_character, src_env
from test_golden_output import PARSE_COMMANDS
from test_invariant import SWEEP_3000_JSON_SHA256
from tq.cli import COMMANDS, CONDUCTOR_MAX, SWEEP_MAX, main, parse_args
from tq.errors import ContractViolationError
from tq.invariant import sweep
from tq.relk0 import HomRep


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compute_vanishing_field(capsys):
    code, out, _ = run(capsys, "compute", "--d1", "5", "--d2", "13")
    assert code == 0
    assert "vanishes" in out
    assert "full decomposition" in out


def test_compute_inadmissible(capsys):
    code, out, _ = run(capsys, "compute", "--d1", "2", "--d2", "5")
    assert code == 2
    assert "inadmissible" in out


def test_compute_nonzero(capsys):
    code, out, _ = run(capsys, "compute", "--d1", "3", "--d2", "11")
    assert code == 3
    assert "nonzero" in out


def test_compute_json(capsys):
    code, out, _ = run(capsys, "compute", "--d1", "5", "--d2", "13", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "vanishes"
    assert data["torsion"] == 1
    assert data["ts_rep"]["1"] == "65/48"


def test_compute_options(capsys):
    code, out, _ = run(capsys, "compute", "--d1", "5", "--d2", "13",
                       "--m", "2", "--sign", "minus", "--extra-s", "3,7")
    assert code == 0
    assert "3" in out  # extra prime shows up in the S list


def test_compute_input_error(capsys):
    code, _, err = run(capsys, "compute", "--d1", "4", "--d2", "3")
    assert code == 4
    assert "input error" in err


def test_compute_bad_extra_s_is_input_error(capsys):
    code, _, err = run(capsys, "compute", "--d1", "5", "--d2", "13",
                       "--extra-s", "3,x")
    assert code == 4
    assert err.startswith("input error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["compute", "--d1", "5", "--d2", "abc"],
    ["compute", "--d1", "5"],
    ["lemma38", "--tol", "nan"],
    ["lemma38", "--tol", "-1"],
    ["lemma38", "--tol", "inf"],
    ["compute", "--d1", "5", "--d2", "13", "--m", "3859", "--json"],
], ids=["d2-abc", "d2-missing", "tol-nan", "tol-negative", "tol-inf",
        "m-too-large"])
def test_bad_arguments_are_input_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 4
    assert err.startswith("input error: ")
    assert "Traceback" not in err
    assert out == ""


def test_compute_rejects_imaginary(capsys):
    """A negative d is an input error, and so is the retired
    --allow-imaginary, which no longer names an option."""
    for argv in (["--d1", "-3", "--d2", "5"], ["--d1", "5", "--d2", "-3", "--json"],
                 ["--d1", "-3", "--d2", "5", "--allow-imaginary"],
                 ["--d1", "5", "--d2", "13", "--allow-imaginary"]):
        code, out, err = run(capsys, "compute", *argv)
        assert code == 4, argv
        assert err.startswith("input error: "), argv
        assert "Traceback" not in err
        assert out == ""


def test_sweep_text_and_json(capsys):
    code, out, _ = run(capsys, "sweep", "--max", "15")
    assert "pairs scanned" in out
    code_json, out_json, _ = run(capsys, "sweep", "--max", "15", "--json")
    data = json.loads(out_json)
    assert data["dmax"] == 15
    assert sum(data["counts"].values()) == data["n_fields"]


def test_sweep_surfaces_nonzero_fields(capsys):
    code, out, _ = run(capsys, "sweep", "--max", "20")
    assert code == 3
    assert "NONZERO TORSION FIELDS" in out
    assert "d1 = 3, d2 = 11" in out


def test_sweep_json_is_what_the_standard_encoder_prints(capsys):
    """`tq sweep --json` writes its pairs by template; its stdout is what
    the standard encoder prints for the summary, an empty pair list
    included (every N < 11)."""
    for n in [*range(3, 151), 400, 1000]:
        code, out, _ = run(capsys, "sweep", "--max", str(n), "--json")
        summary = sweep(n)
        assert code == (3 if summary.nonzero_fields else 0), n
        assert out == json.dumps(summary.to_json_dict(), indent=2) + "\n", n


def test_sweep_3000_cli_json_is_pinned(capsys):
    """The CLI's `--max 3000 --json` stdout, less its final newline, has
    the hash that pins the library's `sweep(3000)` JSON."""
    _, out, _ = run(capsys, "sweep", "--max", "3000", "--json")
    assert out.endswith("}\n")
    assert hashlib.sha256(out[:-1].encode()).hexdigest() == SWEEP_3000_JSON_SHA256


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") >= 6


def _flipped_route(p, loc, lat):
    """The closed form times (3, 1, 1, 1): a local class whose torsion is
    the closed form's times 3."""
    return tq.cli.local_term_closed_form(p, loc, lat) * HomRep((3, 1, 1, 1))


def _misjudged(pair):
    """omega_loc_torsion, with a wrong verdict at `pair` only."""
    real = tq.cli.omega_loc_torsion

    def fake(d1, d2):
        verdict = "wrong" if (d1, d2) == pair else real(d1, d2).verdict
        return SimpleNamespace(verdict=verdict)
    return fake


TAME = "tame complex determinants, p in 3..19"
ROUTES = "closed form vs determinant route agree mod 4"
WORKED = "worked field examples incl. (2,17) quotient 17/1024"


@pytest.mark.parametrize("name, replacement, failing", [
    ("class_representative", lambda cplx, iso: HomRep((1, 1, 1, 1)), TAME),
    ("local_term_via_complex", _flipped_route, ROUTES),
    ("omega_loc_torsion", _misjudged((5, 13)), WORKED),
    ("omega_loc_torsion", _misjudged((13, 17)), WORKED),
    ("omega_loc_torsion", _misjudged((2, 5)), WORKED),
], ids=["tame", "routes", "worked-5-13", "worked-13-17", "worked-2-5"])
def test_selftest_failing_check_exits_3(monkeypatch, capsys, name, replacement,
                                        failing):
    monkeypatch.setattr(tq.cli, name, replacement)
    code, out, err = run(capsys, "selftest")
    assert code == 3
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        f"FAIL  {failing}"]
    assert err == ""


def test_selftest_check_raising_tq_error_fails_with_its_message(monkeypatch, capsys):
    def broken(p, a):
        raise ContractViolationError(f"broken at {p}")
    monkeypatch.setattr(tq.cli, "verify_residue_resolution", broken)
    code, out, err = run(capsys, "selftest")
    assert code == 3
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL  residue resolution identities, p <= 50 [broken at 3]"]
    assert err == ""


def test_lemma38_failing_check_exits_3(monkeypatch, capsys):
    real = tq.cli.leading_ratio_check

    def fake(label, f, tol):
        check = real(label, f, tol=tol)
        return check._replace(abs_error_squared=1.0) if check.conductor == 12 else check
    monkeypatch.setattr(tq.cli, "leading_ratio_check", fake)
    code, out, err = run(capsys, "lemma38", "--conductor-max", "13")
    assert code == 3
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL  conductor   12 (d =   3)  |ratio^2 - 4/f| = 1.000e+00"]
    assert out.endswith("4 characters checked, 1 failures (tol 1e-08)\n")
    assert err == ""



def test_lemma38_fails_on_an_even_table_that_is_no_character(monkeypatch, capsys):
    # the table of test_lseries'
    # test_class_number_formula_rejects_an_even_table_that_is_no_character
    # in place of chi_101's: the check reads L'(0, chi) from the reduced
    # forms, not from the table, so the ratio misses 2/sqrt(101)
    real = tq.lseries.quad_char_values
    table = even_table_that_is_no_character(101)
    monkeypatch.setattr(tq.lseries, "quad_char_values",
                        lambda disc: table if disc == 101 else real(disc))
    code, out, err = run(capsys, "lemma38", "--conductor-max", "200")
    assert code == 3
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(fails) == 1 and fails[0].startswith("FAIL  conductor  101 (d = 101)  ")
    assert out.endswith("60 characters checked, 1 failures (tol 1e-08)\n")
    assert err == ""


def test_tq_error_exits_1_without_traceback(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ContractViolationError("composite map is singular")
    monkeypatch.setattr(tq.cli, "omega_loc_torsion", broken)
    code, out, err = run(capsys, "compute", "--d1", "5", "--d2", "13", "--json")
    assert (code, out, err) == (1, "", "error: composite map is singular\n")


def test_analytic_ratio_command(capsys):
    code, out, _ = run(capsys, "lemma38", "--conductor-max", "30",
                       "--tol", "1e-8")
    assert code == 0
    assert "0 failures" in out


@pytest.mark.parametrize("n", ["-5", "0", "4"])
def test_lemma38_below_the_least_conductor_is_input_error(capsys, n):
    """No even quadratic character has conductor below 5 (that of Q(sqrt 5)):
    such a bound would check nothing and pass, so it exits 4."""
    code, out, err = run(capsys, "lemma38", "--conductor-max", n)
    assert code == 4
    assert err == ("input error: --conductor-max must be at least 5, the least "
                   f"conductor of an even quadratic character, got {n}\n")
    assert out == ""
    code, out, _ = run(capsys, "lemma38", "--conductor-max", "5")
    assert code == 0
    assert out.endswith("1 characters checked, 0 failures (tol 1e-08)\n")


ALL_PROGS = ["tq", "tq compute", "tq sweep", "tq selftest", "tq lemma38"]


@pytest.mark.parametrize("argv, progs", [
    (["compute", "--d1", "5", "--d2", "13", "--json"], []),
    (["sweep", "-h"], ALL_PROGS),
    (["lemma38", "--tol", "nan"], []),
    ([], ALL_PROGS),
    (["-h"], ALL_PROGS),
    (["bogus"], ALL_PROGS),
    (["comp", "--d1", "5"], ALL_PROGS),
    (["--", "compute"], ALL_PROGS),
], ids=["compute", "sweep-help", "lemma38", "empty", "help", "bogus",
        "abbreviated", "double-dash"])
def test_main_builds_a_parser_only_when_the_plain_read_declines(monkeypatch, capsys,
                                                                argv, progs):
    """A plain command line, read from `COMMANDS`, builds no parser; any
    other builds the top-level parser and all four commands'."""
    built = []
    init = tq.cli._Parser.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)
    monkeypatch.setattr(tq.cli._Parser, "__init__", counted)
    with pytest.raises(SystemExit) if "-h" in argv else nullcontext():
        main(argv)
    capsys.readouterr()
    assert built == progs


def test_main_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv",
                        ["tq", "compute", "--d1", "5", "--d2", "13", "--json"])
    assert main() == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "vanishes"


def test_commands_declare_only_what_the_plain_read_interprets():
    """Each option of `COMMANDS` is one that `_plain_args` reads as argparse
    does: a long flag with a type of int, float or str, or a `store_true`
    one, and no string default but through `str`."""
    for _help, _func, options in COMMANDS.values():
        for flag, kwargs in options.items():
            assert flag.startswith("--") and not flag.startswith("---"), flag
            # no dest, nargs, metavar or any other keyword
            assert set(kwargs) <= {"type", "required", "default", "choices",
                                   "action", "help"}, flag
            assert kwargs.get("type", str) in (int, float, str), flag
            assert kwargs.get("action", "store_true") == "store_true", flag
            if isinstance(kwargs.get("default"), str):
                assert kwargs.get("type", str) is str, flag


# Words that a flag of each type takes on a plain line: none starts with `-`
PLAIN_WORDS = {
    int: st.integers(0, 10 ** 6).map(str)
    | st.sampled_from(["+5", " 7 ", "1_000", " -7", "0"]),
    float: st.floats(min_value=0, allow_nan=False).map(str)
    | st.sampled_from(["nan", "inf", "+1.5", " 2 ", "1e-3", "1_0.5"]),
    str: st.text(max_size=8).filter(lambda w: not w.startswith("-")),
}


def plain_values(kwargs):
    """Words that the option `kwargs` takes: none for a `store_true` flag."""
    if kwargs.get("action") == "store_true":
        return st.just(())
    if "choices" in kwargs:
        words = st.sampled_from(kwargs["choices"])
    else:
        words = PLAIN_WORDS[kwargs.get("type", str)]
    return words.map(lambda word: (word,))


@st.composite
def plain_argv(draw):
    """A plain command line: the command, then its flags spelled out, in any
    order, repeats included, the required ones at least once."""
    name = draw(st.sampled_from(sorted(COMMANDS)))
    options = COMMANDS[name][2]
    flags = [flag for flag, kwargs in options.items() if kwargs.get("required")]
    flags += draw(st.lists(st.sampled_from(sorted(options)), max_size=6)
                  if options else st.just([]))
    argv = [name]
    for flag in draw(st.permutations(flags)):
        argv += [flag, *draw(plain_values(options[flag]))]
    return argv


def comparable(args):
    """vars(args) without `command`, each value by its repr (nan == nan)."""
    return {k: repr(v) for k, v in vars(args).items() if k != "command"}


@settings(max_examples=300, deadline=None)
@given(plain_argv())
def test_plain_read_is_the_full_parsers_read(argv):
    plain = tq.cli._plain_args(argv)
    assert plain is not None, argv
    assert comparable(plain) == comparable(tq.cli.build_parser().parse_args(argv)), argv


@pytest.mark.parametrize("argv", [
    ["compute", "--d1", "5", "--d2", "13", "-h"],
    ["compute", "--d", "5", "--d2", "13"],
    ["compute", "--d1=5", "--d2", "13"],
    ["compute", "--", "--d1", "5", "--d2", "13"],
    ["compute", "--d1", "-5", "--d2", "13"],
    ["compute", "--d1", "5"],
    ["compute", "--d1", "5", "--d2", "13", "--sign", "x"],
    ["compute", "--d1", "5", "--d2", "13", "--m", "abc"],
    ["compute", "--d1", "5", "--d2", "13", "--json", "stray"],
    ["compute", "--d1", "5", "--d2"],
    ["sweep", "--max", "10", "--json", "--", "--json"],
    ["selftest", "--"],
    ["lemma38", "--tol", "-1"],
], ids=" ".join)
def test_plain_read_declines(argv):
    """Lines that argparse could read differently are left to the full
    parser."""
    assert tq.cli._plain_args(argv) is None


def run_subprocess(*argv):
    return subprocess.run([sys.executable, "-m", "tq.cli", *argv],
                          capture_output=True, text=True, timeout=30, env=src_env())


# a reader takes one line and closes the pipe (`| head -1`); each output is
# far more than a pipe buffer holds: `sweep --max 400` writes only 58 KB
HEAD_1 = [["sweep", "--max", "2000"], ["sweep", "--max", "3000"],
          ["sweep", "--max", "3000", "--json"]]
# the pipe's read end is closed before the command starts: no reader from the
# first write on, so even the one flush of a short output fails
NO_READER = [["compute", "--d1", "5", "--d2", "13", "--json"],
             ["compute", "--d1", "5", "--d2", "13"], ["selftest"],
             ["lemma38", "--conductor-max", "300"], ["sweep", "--max", "10"]]


@pytest.mark.parametrize("argv, head_1",
                         [pytest.param(argv, True, id=" ".join(argv)) for argv in HEAD_1]
                         + [pytest.param(argv, False, id=" ".join(argv))
                            for argv in NO_READER])
def test_closed_stdout_exits_1_without_traceback(argv, head_1):
    """A closed stdout ends the command with exit 1 (`main`'s
    `BrokenPipeError` branch), and with nothing on stderr, whether it is
    closed mid-output (`HEAD_1`) or before the command writes (`NO_READER`)."""
    command = [sys.executable, "-m", "tq.cli", *argv]
    if head_1:
        with subprocess.Popen(command, env=src_env(),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read().decode()
            assert proc.wait(timeout=30) == 1, err
    else:
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(command, env=src_env(), stdout=write_end,
                                  stderr=subprocess.PIPE, timeout=30)
        finally:
            os.close(write_end)
        err = proc.stderr.decode()
        assert proc.returncode == 1, err
    assert err == ""


def test_compute_large_prime_pair_finishes():
    """d1 and d2 are factored separately, never their product (~1e18)."""
    proc = run_subprocess("compute", "--d1", "1000000007", "--d2", "998244353")
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


def test_compute_prime_near_bound_finishes():
    """A prime d just below 10^18 is factored in bounded time."""
    proc = run_subprocess("compute", "--d1", "999999999999999989", "--d2", "5")
    assert proc.returncode in (0, 2, 3), proc.stderr
    assert "Traceback" not in proc.stderr


def test_compute_beyond_d_bound_is_input_error():
    proc = run_subprocess("compute", "--d1", "1000000000000000003", "--d2", "5")
    assert proc.returncode == 4, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("input error: ")


def test_compute_large_extra_prime_finishes():
    """An extra prime near 1e18 is tested by Miller-Rabin, not trial division."""
    proc = run_subprocess("compute", "--d1", "5", "--d2", "13",
                          "--extra-s", "999999999999999989")
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "999999999999999989" in proc.stdout


def test_compute_extra_prime_beyond_bound_is_input_error(capsys):
    code, out, err = run(capsys, "compute", "--d1", "5", "--d2", "13",
                         "--extra-s", "3317044064679887385961981")
    assert code == 4
    assert err.startswith("input error: ")
    assert out == ""


@pytest.mark.parametrize("argv", [["sweep", "--max", str(SWEEP_MAX + 1)],
                                  ["lemma38", "--conductor-max", str(CONDUCTOR_MAX + 1)]])
def test_bound_plus_one_is_input_error_at_once(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 4
    assert err.startswith("input error: ")
    assert out == ""


def numbers(lo, hi):
    return st.integers(lo, hi).map(str)


GARBAGE = st.text(max_size=8)
# (flag, values) per subcommand: integers inside and beyond the accepted
# ranges, and garbage in every slot
COMPUTE_FLAGS = [
    ("--d1", numbers(-60, 60) | numbers(-10 ** 19, 10 ** 19)),
    ("--d2", numbers(-60, 60) | numbers(-10 ** 19, 10 ** 19)),
    ("--m", numbers(-3, 103)),
    ("--sign", st.sampled_from(["plus", "minus"])),
    ("--extra-s", st.lists(numbers(-10, 10 ** 19), max_size=3).map(",".join)),
    ("--json", st.just(None)),
]
SWEEP_FLAGS = [("--max", numbers(-5, 60) | numbers(SWEEP_MAX + 1, 10 ** 19)),
               ("--json", st.just(None))]
LEMMA38_FLAGS = [
    ("--conductor-max", numbers(-5, 200) | numbers(CONDUCTOR_MAX + 1, 10 ** 19)),
    ("--tol", st.floats().map(str)),
]


@st.composite
def cli_argv(draw):
    command, flags = draw(st.sampled_from([("compute", COMPUTE_FLAGS),
                                           ("sweep", SWEEP_FLAGS),
                                           ("lemma38", LEMMA38_FLAGS)]))
    argv = [command]
    for flag, values in draw(st.lists(st.sampled_from(flags), max_size=len(flags))):
        value = draw(values | GARBAGE)
        argv += [flag] if value is None else [flag, value]
    return argv + draw(st.lists(GARBAGE, max_size=1))


@settings(max_examples=180, deadline=None)
@given(cli_argv())
def test_cli_fuzz_exits_cleanly_and_fast(argv):
    """Any bounded or malformed compute/sweep/lemma38 command line ends in
    a documented exit code within a second, with no traceback."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's --help
            code = exc.code
    assert time.perf_counter() - start < 1.0, argv
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


def run_main_with(parse, argv):
    """main(argv) with `parse` in place of `tq.cli.parse_args`, at a fixed
    terminal width: its exit code, stdout, stderr, and the namespace that
    parse gave, without `command`, a NaN in it (`--tol nan`) written as
    the string "nan", as NaN is unequal to itself."""
    parsed = {}

    def recording(argv):
        args = parse(argv)
        parsed.update(vars(args))
        parsed.pop("command", None)
        return args
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(tq.cli, "parse_args", recording), \
            mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's --help
            code = exc.code
    parsed = {k: "nan" if v != v else v for k, v in parsed.items()}
    return code, out.getvalue(), err.getvalue(), parsed


def assert_parsers_agree(argv):
    """`parse_args`, which reads a plain command line from `COMMANDS` and
    hands any other line to the full parser, acts as the full parser
    alone: the same exit code, stdout, stderr and namespace."""
    assert argv and argv[0] in COMMANDS
    full = run_main_with(lambda argv: tq.cli.build_parser().parse_args(argv), argv)
    assert run_main_with(parse_args, argv) == full, argv


NAMED_COMMAND_LINES = [
    *(argv for argv in PARSE_COMMANDS.values() if argv and argv[0] in COMMANDS),
    ["compute", "--d1", "5", "--d2", "13", "-h"],
    ["compute", "--d1", "5", "--d2", "13", "--js"],
    ["compute", "--", "--d1", "5", "--d2", "13"],
    ["compute", "--d1", "-3", "--d2", "5", "--json"],
    ["sweep", "--max", "10", "--json", "--", "--json"],
    ["sweep", "-h", "bogus"],
    ["sweep", "bogus", "-h"],
    ["selftest"],
    ["selftest", "--"],
    ["lemma38", "--conductor-max", "5", "--tol", "1e-3"],
    ["lemma38", "--con", "5", "stray", "--tol", "x"],
    ["lemma38", "--conductor-max", "0", "--tol", "nan"],
]


@pytest.mark.parametrize("argv", NAMED_COMMAND_LINES, ids=" ".join)
def test_command_parser_acts_as_the_full_parser(argv):
    """`parse_args` on a named line that starts with a command: plain
    lines, help, abbreviations, `--` and parse errors."""
    assert_parsers_agree(argv)


# Words that parse differently at different places on a command line:
# options of every command, abbreviated ones, help, `--`, command names
NOISE = st.sampled_from([
    "--", "-h", "--help", "-x", "--js", "--d", "--ma", "--con", "--d1=5",
    "--max=10", "-5", *COMMANDS]) | GARBAGE


@st.composite
def named_command_argv(draw):
    argv = draw(cli_argv() | st.just(["selftest"]))
    for _ in range(draw(st.integers(0, 3))):
        argv.insert(draw(st.integers(1, len(argv))), draw(NOISE))
    return argv


@settings(max_examples=150, deadline=None)
@given(named_command_argv())
def test_command_parser_fuzz_acts_as_the_full_parser(argv):
    """`parse_args` on a command line with words that parse differently
    at different places inserted after its command."""
    assert_parsers_agree(argv)
