"""Time `tq sweep` and `tq lemma38` at their caps, for README.md, the
`tq.cli` docstring and notes/decisions.md.

Run from the repository root, with one or more `src` directories to
compare (the repository's own `src` when none is given):

    python3 notes/cap_times.py [-n 3] [--sweep-max 7000] [--conductor-max 7000] [SRC ...]

It runs N rounds.  In each round every `src` directory, in turn (the
order reversed on every other round, so neither side always goes first),
gets one fresh interpreter per command, timed by its wall time:

- `sweep`: `python3 -m tq.cli sweep --max SWEEP_MAX --json`;
- `lemma38`: `python3 -m tq.cli lemma38 --conductor-max CONDUCTOR_MAX`.

One untimed run of each command per directory comes first, so that every
timed run reads written bytecode.  It prints the min and median in seconds
per command and directory, and exits 1 when any two runs of a command,
in one directory or in two, give a different exit code or output.  Lower
caps (`--sweep-max 30 --conductor-max 60`) make a quick check that the
script runs.
"""

import argparse
import hashlib
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run(src: Path, args: list[str]) -> tuple[float, tuple[int, str]]:
    """Seconds taken, and (exit code, SHA-256 of stdout), for `tq` with
    `args` in a fresh interpreter that imports `tq` from `src`."""
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "tq.cli", *args], env=env, cwd=ROOT,
                          capture_output=True, timeout=600)
    wall = time.perf_counter() - start
    return wall, (proc.returncode, hashlib.sha256(proc.stdout).hexdigest())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("-n", type=int, default=3, help="timed rounds (default 3)")
    parser.add_argument("--sweep-max", type=int, default=7000,
                        help="the N of sweep --max N (default 7000, the cap)")
    parser.add_argument("--conductor-max", type=int, default=7000,
                        help="the N of lemma38 --conductor-max N (default 7000, the cap)")
    parser.add_argument("src", nargs="*", type=Path, default=[ROOT / "src"],
                        help="src directories holding tq (default: this repository's)")
    args = parser.parse_args(argv)
    if args.n < 1:
        parser.error("-n must be at least 1")
    commands = {
        "sweep": ["sweep", "--max", str(args.sweep_max), "--json"],
        "lemma38": ["lemma38", "--conductor-max", str(args.conductor_max)],
    }
    srcs = [s.resolve() for s in args.src]
    outputs = {m: {run(s, a)[1] for s in srcs} for m, a in commands.items()}
    times = {(s, m): [] for s in srcs for m in commands}
    for i in range(args.n):
        for s in (srcs if i % 2 == 0 else srcs[::-1]):
            for m, a in commands.items():
                wall, out = run(s, a)
                times[s, m].append(wall)
                outputs[m].add(out)
    print(f"{args.n} rounds; min / median s")
    for (s, m), ts in times.items():
        print(f"{' '.join(commands[m]):<36} {min(ts):7.2f} / {statistics.median(ts):7.2f}  {s}")
    differ = [m for m in commands if len(outputs[m]) > 1]
    for m in differ:
        print(f"{m}: exit code or output differs between runs")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
