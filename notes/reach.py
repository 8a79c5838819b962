"""List the functions and methods of `tq` that no `tq` command reaches, for
notes/decisions.md ("src holds what a command runs").

Run from the repository root:

    PYTHONPATH=src python notes/reach.py

It imports `tq.cli`, which imports every `tq` module, and runs the
command lines in LINES through `tq.cli.main`, all in this one process and
under `sys.setprofile`, and checks that each line exits with its recorded
code.  It then prints, one per line and sorted, every function and method
defined at module or class level in `src/tq` (properties and class
methods included) whose code neither the import nor any line called.
Methods that `namedtuple` generates have their code outside `src/tq` and
are not listed.  The count of functions reached goes to stderr.  It exits
1 when a line exits with another code.
"""

import contextlib
import importlib
import io
import sys
import types
from pathlib import Path

# (argv, exit code): every command, each exit path, text and JSON output,
# the lattice options, a negative d (an input error), d near 10**18, and a
# semiprime d whose factors both lie above arith.TRIAL_BOUND, so that
# Pollard-Brent runs.
LINES = [
    (["compute", "--d1", "5", "--d2", "13", "--json"], 0),
    (["compute", "--d1", "21", "--d2", "33", "--extra-s", "5", "--m", "3",
      "--sign", "minus"], 3),
    (["compute", "--d1", "3", "--d2", "11", "--json"], 3),
    (["compute", "--d1", "2", "--d2", "5"], 2),
    (["compute", "--d1", "2", "--d2", "17", "--json"], 0),
    (["compute", "--d1", "33", "--d2", "42"], 3),
    (["compute", "--d1", "10009", "--d2", "20001", "--json"], 0),
    (["compute", "--d1", "-3", "--d2", "5", "--json"], 4),
    (["compute", "--d1", "999999999999999989", "--d2", "999999999999999877",
      "--json"], 0),
    (["compute", "--d1", "5", "--d2", "1000036000099", "--json"], 2),
    (["sweep", "--max", "60", "--json"], 3),
    (["sweep", "--max", "100"], 3),
    (["selftest"], 0),
    (["lemma38"], 0),
    (["compute", "--d1", "4", "--d2", "5"], 4),
    (["sweep", "--max", "7001"], 4),
    (["compute", "--d1", "5"], 4),
]


def defined_code(src: Path) -> dict[types.CodeType, str]:
    """Each function and method defined in a `tq` module of `src`, by its
    code, named `module.qualname`."""
    found = {}
    for path in sorted(src.glob("*.py")):
        name = "tq" if path.stem == "__init__" else f"tq.{path.stem}"
        module = importlib.import_module(name)
        objects = []
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if isinstance(obj, type):
                for attr in vars(obj).values():
                    if isinstance(attr, property):
                        objects += [attr.fget, attr.fset, attr.fdel]
                    else:
                        objects.append(getattr(attr, "__func__", attr))
            else:
                objects.append(obj)
        for fn in objects:
            code = getattr(fn, "__code__", None)
            if code is not None and Path(code.co_filename).resolve().parent == src:
                found[code] = f"{path.stem}.{fn.__qualname__}"
    return found


def reached_code() -> tuple[set[types.CodeType], list[str]]:
    """The code of every Python function that importing `tq.cli` and
    running LINES call, and the lines that exit with a code other than
    their recorded one."""
    reached = set()

    def profile(frame, event, _arg):
        if event == "call":
            reached.add(frame.f_code)

    wrong = []
    sys.setprofile(profile)
    try:
        cli = importlib.import_module("tq.cli")
        for argv, expected in LINES:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            if code != expected:
                wrong.append(f"tq {' '.join(argv)}: exit {code}, expected {expected}")
    finally:
        sys.setprofile(None)
    return reached, wrong


def main() -> int:
    reached, wrong = reached_code()
    defined = defined_code(Path(sys.modules["tq"].__file__).resolve().parent)
    unreached = sorted(name for code, name in defined.items() if code not in reached)
    print("\n".join(unreached))
    print(f"{len(defined) - len(unreached)} of {len(defined)} functions and methods "
          f"in src/tq reached by {len(LINES)} command lines", file=sys.stderr)
    for line in wrong:
        print(line, file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
