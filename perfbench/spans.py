"""Span tracing of `tq` from outside the package.

`Tracer.install` replaces each traced public function by a wrapper in
every `tq` namespace that binds it (so `tq.invariant.local_galois` is
wrapped as well as `tq.biquadratic.local_galois`), and each traced method
on its class.  `uninstall` puts the originals back.  Every wrapped call is
a span (name, start, end, parent, op id).  Calls and self time (duration
minus the time covered by child spans) are summed for every span; the
first SPAN_CAP span records are kept in memory and written out at the end,
and the rest are counted as dropped.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from fractions import Fraction
from importlib import import_module

# "<module under tq>.<attribute path>" of every traced function and method
TRACED = [
    "cli.main",
    "invariant.sweep",
    "invariant.omega_loc_torsion",
    "invariant.delta1_term",
    "invariant.ts_representative",
    "invariant.resolvent_factor_check",
    "invariant.leading_ratio_check",
    "biquadratic.field_data",
    "biquadratic.ramified_set",
    "biquadratic.local_galois",
    "biquadratic.euler_factor",
    "biquadratic.frob_det_quotient",
    "arith.is_squarefree",
    "arith.squarefree_kernel",
    "arith.prime_factors",
    "arith.is_prime",
    "arith.kronecker_symbol",
    "relk0.HomRep.from_char_function",
    "relk0.HomRep.__mul__",
    "relk0.HomRep.inverse",
    "relk0.torsion_class",
    "localterms.local_term_closed_form",
    "localterms.local_term_via_complex",
    "localterms.build_tame_complex",
    "localterms.valuation_iso",
    "perfectcomplex.char_specialize",
    "perfectcomplex.cohomology_basis",
    "perfectcomplex.class_representative",
    "linalg.rref",
    "linalg.det",
    "grouprings.GroupRingMatrix.__matmul__",
    "grouprings.apply_char_matrix",
    "lseries.quad_char_values",
    "lseries.l_one_logsin",
    "lseries.l_prime_zero_lgamma",
]

MODULES = sorted({name.split(".")[0] for name in TRACED})

FIELD_SPAN = "invariant.omega_loc_torsion"
# Spans that build the per-prime part of a report.  `local_galois` at 2 is
# left out: it decides admissibility, so it is not waste on an
# inadmissible field.
PER_PRIME_SPANS = {
    "invariant.delta1_term": lambda args: True,
    "biquadratic.euler_factor": lambda args: True,
    "biquadratic.local_galois": lambda args: len(args) > 1 and args[1] != 2,
}
INADMISSIBLE = "inadmissible"
# One traced `tq sweep --max 100` op makes about 120k spans.
SPAN_CAP = 150_000


class Tracer:
    """Span recorder for one benchmark process.  Not thread-safe: the
    benchmark drives `tq` from one thread."""

    def __init__(self):
        self.names = list(TRACED)
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.fraction_new = 0
        self.below_root_s = 0.0
        self.admissible_fields = 0
        self.inadmissible_per_prime_s = 0.0
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.op = -1
        self._next_id = 0
        self._stack: list[list] = []
        self._restore: list[tuple] = []

    # -- wrapping -----------------------------------------------------

    def _wrap(self, idx: int, fn):
        tracer = self
        stack = self._stack
        calls, self_s, spans = self.calls, self.self_s, self.spans
        clock = time.perf_counter
        name = self.names[idx]
        per_prime = PER_PRIME_SPANS.get(name)
        is_field = name == FIELD_SPAN
        field_idx = self.names.index(FIELD_SPAN)

        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1] if stack else None
            # [child seconds, span id, name index, per-prime child seconds]
            frame = [0.0, sid, idx, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                calls[idx] += 1
                self_s[idx] += dur - frame[0]
                if parent is not None:
                    parent[0] += dur
                    if len(stack) == 1:  # a child of the entry span
                        tracer.below_root_s += dur
                if len(spans) < SPAN_CAP:
                    spans.append((sid, parent[1] if parent else -1, idx,
                                  start, end, tracer.op))
                else:
                    tracer.dropped_spans += 1
            if (per_prime is not None and parent is not None
                    and parent[2] == field_idx and per_prime(args)):
                parent[3] += dur
            if is_field:
                if result.verdict == INADMISSIBLE:
                    tracer.inadmissible_per_prime_s += frame[3]
                else:
                    tracer.admissible_fields += 1
            return result

        return functools.wraps(fn)(wrapper)

    def _count_fraction_new(self, orig):
        tracer = self

        def new(cls, *args, **kwargs):
            tracer.fraction_new += 1
            return orig(cls, *args, **kwargs)

        return new

    def install(self) -> None:
        """Wrap every traced function and method, and count
        `Fraction.__new__`.  Undone by `uninstall`."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        for mod in MODULES:
            import_module(f"tq.{mod}")
        tq_modules = [m for name, m in list(sys.modules.items())
                      if m is not None and (name == "tq" or name.startswith("tq."))]
        try:
            for idx, name in enumerate(TRACED):
                mod, attr = name.split(".", 1)
                module = import_module(f"tq.{mod}")
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(idx, raw.__func__))
                    else:
                        new = self._wrap(idx, raw)
                    self._restore.append((cls, meth, raw))
                    setattr(cls, meth, new)
                    continue
                orig = getattr(module, attr)
                wrapper = self._wrap(idx, orig)
                for m in tq_modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            self._restore.append((m, key, orig))
                            setattr(m, key, wrapper)
            raw_new = Fraction.__dict__["__new__"]
            self._restore.append((Fraction, "__new__", raw_new))
            Fraction.__new__ = staticmethod(self._count_fraction_new(raw_new.__func__))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._restore:
            owner, key, orig = self._restore.pop()
            setattr(owner, key, orig)

    # -- results ------------------------------------------------------

    def layer_metrics(self, n_ops: int, scale: float) -> dict[str, float]:
        """Per-op calls and self milliseconds (times `scale`) of every
        traced function, the per-module self-time roll-ups and the Fraction
        construction count."""
        out: dict[str, float] = {}
        modules = dict.fromkeys(MODULES, 0.0)
        for name, calls, self_s in zip(self.names, self.calls, self.self_s):
            out[f"{name}.calls"] = calls / n_ops
            out[f"{name}.self_ms"] = self_s * scale * 1e3 / n_ops
            modules[name.split(".")[0]] += self_s
        for mod, self_s in modules.items():
            out[f"{mod}.self_ms"] = self_s * scale * 1e3 / n_ops
        out["fractions.Fraction.new.calls"] = self.fraction_new / n_ops
        return out

    def write_spans(self, path) -> None:
        """Write the kept span records as JSON lines."""
        with open(path, "w") as fh:
            for sid, parent, idx, start, end, op in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent,
                                     "name": self.names[idx], "start": start,
                                     "end": end, "op": op}) + "\n")
