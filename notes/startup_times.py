"""Time how long a `tq` process takes to start and run, for
notes/decisions.md.

Run from the repository root, with one or more `src` directories to
compare (the repository's own `src` when none is given):

    python3 notes/startup_times.py [-n 21] [-S] [SRC ...]

It runs N rounds.  In each round every `src` directory, in turn (the
order reversed on every other round, so neither side always goes first),
gets one fresh interpreter per measure:

- `import tq.cli`: the seconds that `import tq.cli` takes, timed inside
  the interpreter.  It imports every `tq` module, as every `tq` command
  does, in this `src` and in an older one alike.  A bare `import tq`
  would not compare like with like: the package root imports no module
  now, while an older root imported them all;
- `compute`: the wall time of `python3 -m tq.cli compute --d1 10009
  --d2 20001 --json`;
- `sweep`: the wall time of `python3 -m tq.cli sweep --max 100 --json`.

Each round also times four floors, once, in fresh interpreters that do
not import `tq`: the wall time of `python3 -c "import argparse, json"`,
what `tq sweep` imports today, and of `import json`, what it cannot do
without; of `import argparse, json, fractions`, what `tq compute` imports
today, and of `import json, fractions`, what it cannot do without (a plain
command line builds no parser).  With `-S`, every interpreter runs under
`python3 -S`, so that no `.pth` file of `site` imports modules whose cost
would then be hidden in both `tq` and the floors.

One untimed run of each measure per directory comes first, so that every
timed run reads written bytecode.  It prints the min and median in
milliseconds per measure and directory, then one line per command and
directory with the command's gap above each of its two floors (the
command's min less the floor's min, and its median less the floor's
median), and exits 1 when two directories give a command a different
exit code or output.
"""

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

IMPORT_PROBE = ("import time\n"
                "t = time.perf_counter()\n"
                "import tq.cli\n"
                "print(time.perf_counter() - t)\n")
COMMANDS = {
    "compute": ["-m", "tq.cli", "compute", "--d1", "10009", "--d2", "20001", "--json"],
    "sweep": ["-m", "tq.cli", "sweep", "--max", "100", "--json"],
}
MEASURES = ("import tq.cli", *COMMANDS)
FLOORS = {f: ["-c", f] for f in ("import argparse, json", "import json",
                                   "import argparse, json, fractions",
                                   "import json, fractions")}
# the floors each command's start-up gap is measured above: with argparse,
# which it imports today, and without
GAPS = {"sweep": ("import argparse, json", "import json"),
        "compute": ("import argparse, json, fractions", "import json, fractions")}


def run(src: Path | None, measure: str,
        flags: list[str]) -> tuple[float, tuple[int, str]]:
    """Seconds taken, and (exit code, stdout) for a command, in a fresh
    interpreter started with `flags` that imports `tq` from `src` (a
    floor runs with no `src`)."""
    env = dict(os.environ, PYTHONPATH=str(src or ""))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    args = (["-c", IMPORT_PROBE] if measure == "import tq.cli"
            else FLOORS.get(measure) or COMMANDS[measure])
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *flags, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - start
    if proc.returncode and measure not in COMMANDS:
        raise SystemExit(f"{measure} failed from {src}:\n{proc.stderr}")
    if measure == "import tq.cli":
        return float(proc.stdout), (0, "")
    return wall, (proc.returncode, proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("-n", type=int, default=21, help="timed rounds (default 21)")
    parser.add_argument("-S", action="store_true", dest="no_site",
                        help="run every interpreter under python3 -S")
    parser.add_argument("src", nargs="*", type=Path, default=[ROOT / "src"],
                        help="src directories holding tq (default: this repository's)")
    args = parser.parse_args(argv)
    if args.n < 1:
        parser.error("-n must be at least 1")
    flags = ["-S"] if args.no_site else []
    srcs = [s.resolve() for s in args.src]
    runs = [(s, m) for s in srcs for m in MEASURES] + [(None, m) for m in FLOORS]
    outputs = {key: run(*key, flags)[1] for key in runs}
    times = {key: [] for key in runs}
    for i in range(args.n):
        for s in (srcs if i % 2 == 0 else srcs[::-1]):
            for m in MEASURES:
                times[s, m].append(run(s, m, flags)[0])
        for m in FLOORS:
            times[None, m].append(run(None, m, flags)[0])
    stats = {key: (min(ts) * 1000, statistics.median(ts) * 1000)
             for key, ts in times.items()}
    print(f"{args.n} rounds{' under python3 -S' if flags else ''}; min / median ms")
    for m in (*MEASURES, *FLOORS):
        for s in (srcs if m in MEASURES else [None]):
            print(f"{m:<42} {stats[s, m][0]:8.1f} / {stats[s, m][1]:8.1f}"
                  f"  {s or 'floor'}")
    for m, floors in GAPS.items():
        for s in srcs:
            lo, mid = stats[s, m]
            gaps = "".join(f" {lo - stats[None, f][0]:8.1f} / {mid - stats[None, f][1]:8.1f}"
                           for f in floors)
            print(f"{m + ' - ' + ' | '.join(floors):<66}{gaps}  {s}")
    differ = [m for m in COMMANDS if len({outputs[s, m] for s in srcs}) > 1]
    for m in differ:
        print(f"{m}: exit code or output differs between the src directories")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
