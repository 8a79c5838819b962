"""Benchmark for `tq`: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run from the repository root.  `tq` is imported from `src/` next to this
directory.  Load comes from this one process and thread: each op is issued
after the previous one returns.  The last line of standard output is one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`:
with `--trace 0` the end-to-end metrics, with `--trace 1` the per-layer
metrics from a traced run.  The lines before it carry the run metadata and
the details behind the metrics; the same is written to `perfbench/out/`.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 21
WARMUP_S = 0.5
# p99 is not used: on a shared machine it measures other tenants' bursts
# shorter than the speed probe's sampling interval (complex_route's scaled
# p99 ranged over 4.4-9.2 ms in ten runs whose medians agreed within 1.5%).
# With too few ops for p90 the median is used, not a percentile between
# them: that one would move with the number of ops a run gets through.
TAIL_PERCENTILE = 90.0
TAIL_SAMPLES_BEYOND = 10
MAX_TRACEBACKS = 3

# Run in a fresh interpreter: time `import tq`, then the speed reference.
IMPORT_PROBE = ("import sys, time\n"
                "t = time.perf_counter()\n"
                "import tq\n"
                "t = time.perf_counter() - t\n"
                "sys.path.insert(0, sys.argv[1])\n"
                "import speed\n"
                "refs = sorted(speed.time_reference() for _ in range(7))\n"
                "print(repr(t))\n"
                "print(repr(refs[3]))\n"
                "print(tq.__file__)\n")


class BenchError(Exception):
    """The benchmark cannot run here: no `tq` sources, or a `tq` from
    somewhere else."""


def load_tq():
    """Import `tq` from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "tq" / "__init__.py").is_file():
        raise BenchError(f"no tq sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tq
    if Path(tq.__file__).resolve().parent != SRC / "tq":
        raise BenchError(f"imported tq from {tq.__file__}, not from {SRC}")
    return tq


def git_revision() -> str:
    """The checked-out commit, read from `.git` without leaving the
    checkout; "unknown" when the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_metadata(args, tq, workload_classes) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(),
        "tq_version": tq.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "input_size": {name: cls.size() for name, cls in workload_classes.items()},
        "load": "closed loop, 1 process, 1 thread",
    }


def measure_setup() -> tuple[float, list[float]]:
    """Median seconds for a fresh interpreter to `import tq`, over
    SETUP_REPEATS interpreters after one that warms the bytecode cache,
    each scaled by that interpreter's own speed reference; and the raw
    import times."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    scaled, raw = [], []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(HERE)],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        seconds, ref, path = proc.stdout.split("\n")[:3]
        if Path(path).resolve().parent != SRC / "tq":
            raise BenchError(f"setup probe imported tq from {path}")
        if i:
            raw.append(float(seconds))
            scaled.append(float(seconds) * speed.NOMINAL_S / float(ref))
    return statistics.median(scaled), raw


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value) at TAIL_PERCENTILE (nearest rank) when at least
    TAIL_SAMPLES_BEYOND samples lie beyond it, else at the median."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(0, math.ceil(n * TAIL_PERCENTILE / 100) - 1)
    if n - 1 - rank >= TAIL_SAMPLES_BEYOND:
        return TAIL_PERCENTILE, ordered[rank]
    return 50.0, statistics.median(ordered)


class Counter:
    """Ops attempted and failed, with the first few failure tracebacks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def settle(self, wl, inp, out, err) -> bool:
        self.attempted += 1
        ok = False
        if err is None:
            try:
                ok = wl.check(inp, out)
            except Exception as exc:  # a malformed output is a failed op
                err = exc
        if not ok:
            self.failed += 1
            if self.failed <= MAX_TRACEBACKS:
                detail = ("".join(traceback.format_exception(err)) if err
                          else f"output disagrees with the oracle: {inp!r}")
                print(f"op failed: {detail}", file=sys.stderr)
        return ok


def timed(wl, inp):
    """Run one op; returns (seconds, output, exception)."""
    t0 = time.perf_counter()
    try:
        out, err = wl.op(inp), None
    except Exception as exc:  # counted against failed_ratio, reported above
        out, err = None, exc
    return time.perf_counter() - t0, out, err


def warm_up(wl) -> None:
    """Run ops from a separate input stream so that lazy set-up inside the
    interpreter is done before timing; their results are not counted."""
    deadline = time.perf_counter() + WARMUP_S
    for inp in wl.inputs(stream=1):
        wl.prepare()
        timed(wl, inp)
        if time.perf_counter() >= deadline:
            break


def latency_stats(latencies: list[float], items: int, prefix: str = "") -> dict:
    pct, tail_s = tail(latencies)
    return {f"{prefix}items_per_s": items / sum(latencies),
            f"{prefix}op_p50_ms": statistics.median(latencies) * 1e3,
            f"{prefix}op_tail_ms": tail_s * 1e3}


def run_untraced(wl, seconds: float, counter: Counter) -> dict:
    """Time ops for `seconds`.  Each op's latency is scaled by the speed
    probe sampled between ops; the unscaled figures are kept as raw_*."""
    warm_up(wl)
    probe = speed.SpeedProbe()
    probe.sample(speed.WINDOW)
    latencies: list[float] = []
    raw: list[float] = []
    items = 0
    deadline = time.perf_counter() + seconds
    for inp in wl.inputs(stream=0):
        wl.prepare()
        probe.maybe_sample()
        dt, out, err = timed(wl, inp)
        # a sample after the op as well, so that a slow spell that starts
        # during a long op is seen by its scale
        probe.maybe_sample()
        raw.append(dt)
        latencies.append(dt * probe.scale())
        if counter.settle(wl, inp, out, err):
            items += wl.items(inp)
        if time.perf_counter() >= deadline:
            break
    pct, _ = tail(latencies)
    return {
        **latency_stats(latencies, items),
        "op_tail_percentile": pct,
        "samples": len(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **latency_stats(raw, items, "raw_"),
        "reference_median_ms": statistics.median(probe.samples) * 1e3,
    }


def run_traced(wl, seconds: float, counter: Counter, span_path: Path) -> dict:
    """Run passes of the next `wl.trace_ops` inputs, each pass once
    untraced and once traced, until `seconds` have passed (at least one
    pass).  Per-layer figures are per traced op; the overhead compares the
    same ops with and without tracing.  Times are scaled by the speed
    probe, sampled before each half pass while nothing is wrapped."""
    from spans import Tracer

    warm_up(wl)
    stream = wl.inputs(stream=0)
    tracer = Tracer()
    probe = speed.SpeedProbe()
    untraced_s = traced_s = traced_raw_s = 0.0
    traced_ops = 0
    deadline = time.perf_counter() + seconds
    while ops := list(itertools.islice(stream, wl.trace_ops)):
        probe.sample(speed.WINDOW)
        scale = probe.scale()
        for inp in ops:
            wl.prepare()
            dt, out, err = timed(wl, inp)
            untraced_s += dt * scale
            counter.settle(wl, inp, out, err)
        probe.sample(speed.WINDOW)
        scale = probe.scale()
        for inp in ops:
            wl.prepare()
            tracer.op = traced_ops
            tracer.install()
            try:
                dt, out, err = timed(wl, inp)
            finally:
                tracer.uninstall()
            traced_s += dt * scale
            traced_raw_s += dt
            traced_ops += 1
            counter.settle(wl, inp, out, err)
        if time.perf_counter() >= deadline:
            break
    tracer.write_spans(span_path)
    metrics = tracer.layer_metrics(
        traced_ops, speed.NOMINAL_S / statistics.median(probe.samples))
    metrics["invariant.ts_representative.calls_per_admissible_field"] = (
        tracer.calls[tracer.names.index("invariant.ts_representative")]
        / tracer.admissible_fields if tracer.admissible_fields else 0.0)
    metrics["invariant.inadmissible_report_share"] = (
        tracer.inadmissible_per_prime_s / traced_raw_s)
    metrics["trace.coverage"] = tracer.below_root_s / traced_raw_s
    metrics["trace.overhead"] = traced_s / untraced_s
    metrics["traced_ops"] = traced_ops
    metrics["spans_kept"] = len(tracer.spans)
    metrics["spans_dropped"] = tracer.dropped_spans
    return metrics


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        tq = load_tq()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads  # imports tq, so only after load_tq
    args = parse_args(argv, sorted(workloads.WORKLOADS))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = workloads.WORKLOADS[args.workload](args.seed)
    meta = run_metadata(args, tq, workloads.WORKLOADS)
    print(json.dumps({"meta": meta}))

    counter = Counter()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            details = run_traced(wl, args.seconds, counter, OUT / f"{stem}.spans.jsonl")
            wanted = spec["per_layer"]
        else:
            setup_s, setup_raw = measure_setup()
            details = run_untraced(wl, args.seconds, counter)
            details["setup_s"] = setup_s
            details["raw_setup_s"] = statistics.median(setup_raw)
            details["raw_setup_samples_s"] = setup_raw
            wanted = spec["end_to_end"]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    details["failed_ratio"] = counter.failed / counter.attempted
    metrics = {m["name"]: {"value": details[m["name"]], "unit": m["unit"]}
               for m in wanted}
    result = {"correct": counter.failed == 0, "attempted": counter.attempted,
              "failed": counter.failed, "metrics": metrics}
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"meta": meta, "details": details, "result": result}, indent=1))
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
