"""Hash the output of a fixed set of `tq` command lines, to show that a
change to `src` leaves every report, sweep and check byte-identical
(notes/decisions.md, "A report's values have one JSON writer").

Run from the repository root:

    PYTHONPATH=src python notes/output_hash.py

It runs 3277 command lines through `tq.cli.main`, all in this one
process: `compute --json` on every squarefree pair 1 < d1 < d2 < 90,
plain and with `--m 2 --sign minus --extra-s 3,7`; text `compute` on
every such pair with d2 < 40; `compute --json` on two primes near 10**18
and on (10009, 20001); `sweep --max 400`, JSON and text; `selftest`;
`lemma38 --conductor-max 300`; and `compute` on the imaginary pair
(-3, 5), an input error.  It prints the number of lines and one SHA-256
over each line's stdout, stderr and exit code, in order.  It has no
options.
"""

import contextlib
import hashlib
import io

from tq.arith import is_squarefree
from tq.cli import main


def pairs(bound: int) -> list[tuple[int, int]]:
    """The squarefree pairs 1 < d1 < d2 < bound, by d2 then d1."""
    ds = [d for d in range(2, bound) if is_squarefree(d)]
    return [(d1, d2) for i, d2 in enumerate(ds) for d1 in ds[:i]]


def command_lines() -> list[list[str]]:
    lines = []
    for options in ([], ["--m", "2", "--sign", "minus", "--extra-s", "3,7"]):
        lines += [["compute", "--d1", str(d1), "--d2", str(d2), "--json", *options]
                  for d1, d2 in pairs(90)]
    lines += [["compute", "--d1", str(d1), "--d2", str(d2)] for d1, d2 in pairs(40)]
    return lines + [
        ["compute", "--d1", "999999999999999989", "--d2", "999999999999999877", "--json"],
        ["compute", "--d1", "10009", "--d2", "20001", "--json"],
        ["sweep", "--max", "400", "--json"],
        ["sweep", "--max", "400"],
        ["selftest"],
        ["lemma38", "--conductor-max", "300"],
        ["compute", "--d1", "-3", "--d2", "5", "--json"],
    ]


def run() -> str:
    digest = hashlib.sha256()
    lines = command_lines()
    for argv in lines:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        digest.update(f"{out.getvalue()}\0{err.getvalue()}\0{code}\0".encode())
    return f"{len(lines)} command lines, sha256 {digest.hexdigest()}"


if __name__ == "__main__":
    print(run())
