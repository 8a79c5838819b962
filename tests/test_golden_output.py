"""Byte-exact output of `tq compute` and `tq sweep` (JSON and text),
`tq selftest`, `tq lemma38`, and the help and parse errors of the command
line (stderr included), pinned in fixtures/golden_output.json.

A refactor that is meant to leave behaviour alone must keep every case
byte-identical.  When an output change is intended, regenerate the fixture
with

    PYTHONPATH=src python tests/test_golden_output.py

and review the diff of the fixture.
"""

import contextlib
import io
import json
import os
from pathlib import Path
from unittest import mock

import pytest

from tq.cli import main

FIXTURE = Path(__file__).parent / "fixtures" / "golden_output.json"

COMMANDS = {
    "compute-5-13": ["compute", "--d1", "5", "--d2", "13", "--json"],
    "compute-3-11": ["compute", "--d1", "3", "--d2", "11", "--json"],
    "compute-2-5": ["compute", "--d1", "2", "--d2", "5", "--json"],
    "compute-2-17": ["compute", "--d1", "2", "--d2", "17", "--json"],
    "compute-33-42": ["compute", "--d1", "33", "--d2", "42", "--json"],
    "compute-minus3-5": ["compute", "--d1", "-3", "--d2", "5", "--json"],
    "compute-5-13-options": ["compute", "--d1", "5", "--d2", "13", "--json",
                             "--m", "2", "--sign", "minus", "--extra-s", "3,7"],
    "compute-3-11-options": ["compute", "--d1", "3", "--d2", "11", "--m", "3",
                             "--sign", "minus", "--extra-s", "5,7", "--json"],
    "compute-7-15-extras-in-s": ["compute", "--d1", "7", "--d2", "15",
                                 "--extra-s", "3,5", "--json"],
    "compute-2-5-extras": ["compute", "--d1", "2", "--d2", "5", "--extra-s", "3,7",
                           "--json"],
    "compute-10005-10065": ["compute", "--d1", "10005", "--d2", "10065", "--json"],
    "compute-21-33-every-sign-branch": ["compute", "--d1", "21", "--d2", "33",
                                        "--extra-s", "5", "--m", "3", "--sign",
                                        "minus", "--json"],
    "compute-21-33-extra-5-text": ["compute", "--d1", "21", "--d2", "33",
                                   "--extra-s", "5"],
    "compute-2-17-text": ["compute", "--d1", "2", "--d2", "17"],
    "compute-33-42-text": ["compute", "--d1", "33", "--d2", "42"],
    "compute-3-11-text": ["compute", "--d1", "3", "--d2", "11"],
    "compute-2-5-text": ["compute", "--d1", "2", "--d2", "5"],
    "sweep-60": ["sweep", "--max", "60", "--json"],
    "sweep-60-text": ["sweep", "--max", "60"],
    "sweep-200": ["sweep", "--max", "200", "--json"],
    "sweep-10": ["sweep", "--max", "10", "--json"],
    "sweep-10-text": ["sweep", "--max", "10"],
    "selftest": ["selftest"],
    "lemma38-200": ["lemma38", "--conductor-max", "200"],
}

# Help and parse errors, whose stderr is pinned too: with argparse's
# wording, prog strings, abbreviations and usage lines.
PARSE_COMMANDS = {
    "parse-no-command": [],
    "parse-help": ["-h"],
    "parse-bogus-command": ["bogus"],
    "parse-abbreviated-command": ["comp", "--d1", "5", "--d2", "13"],
    "parse-compute-help": ["compute", "-h"],
    "parse-sweep-help": ["sweep", "-h"],
    "parse-selftest-help": ["selftest", "-h"],
    "parse-lemma38-help": ["lemma38", "-h"],
    "parse-compute-missing-d2": ["compute", "--d1", "5", "--json"],
    "parse-compute-unrecognized": ["compute", "--d1", "5", "--d2", "13", "--bogus"],
    "parse-sweep-abbreviated-max": ["sweep", "--ma", "30"],
    "parse-compute-ambiguous-d": ["compute", "--d", "5"],
    "parse-compute-bad-sign": ["compute", "--d1", "5", "--d2", "13", "--sign", "foo"],
    "parse-compute-equals": ["compute", "--d1=5", "--d2=13", "--json"],
    "parse-compute-stray": ["compute", "--d1", "5", "--d2", "13", "stray"],
    "parse-compute-then-command": ["compute", "--d1", "5", "--d2", "13", "sweep"],
    "parse-sweep-double-dash": ["sweep", "--max", "10", "--", "x"],
    "parse-selftest-extra": ["selftest", "extra"],
    "parse-lemma38-unknown-short": ["lemma38", "-x"],
}


def run_command(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


def run_parse_command(argv: list[str]) -> dict:
    """`run_command` with stderr, under a fixed terminal width (argparse
    wraps help to $COLUMNS), and with the SystemExit of -h caught."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def current_output(name: str) -> dict:
    if name in PARSE_COMMANDS:
        return run_parse_command(PARSE_COMMANDS[name])
    return run_command(COMMANDS[name])


CASES = [*COMMANDS, *PARSE_COMMANDS]


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", CASES)
def test_output_is_byte_identical(golden, name):
    assert current_output(name) == golden[name]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps({name: current_output(name) for name in CASES},
                                  indent=1) + "\n")
