"""The four workloads.  Each one generates its op inputs from the seed,
runs one op through a public `tq` entry point, and checks the op's output
against `oracle`.

`tq` is reached only through the modules in `sys.modules` at call time
(`tq_module("cli").main`, not a name imported from it), so that the
tracer's wrappers are the ones called and so that `fresh_tq` takes effect.

No op sees state that `tq` kept from an earlier op: the CLI workloads
import `tq` afresh before every op (`prepare`), as a new `tq`
process would, and the library workloads never repeat an input within a
run.  A cache across calls can therefore not turn later ops into lookups.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterator

import oracle

# Cost ranges that `stratified` orders the heterogeneous workloads by.
STRATA = 64

def tq_module(name: str):
    """The module `tq.<name>` as currently imported."""
    return sys.modules[f"tq.{name}"]


def fresh_tq() -> None:
    """Drop every `tq` module and import the package again, so that no
    state `tq` keeps between calls survives; then collect the dropped
    modules so that their collection does not fall into a timed op."""
    for name in [n for n in sys.modules if n == "tq" or n.startswith("tq.")]:
        del sys.modules[name]
    importlib.import_module("tq.cli")
    gc.collect()


importlib.import_module("tq.cli")  # with `tq`, every module `tq_module` hands out


def stratified(items: list, key, rng: random.Random) -> list:
    """`items` in a seeded order in which every STRATA consecutive items
    take one from each of STRATA equal ranges of `key`, so that the mix of
    `key`, and with it the cost of an op, is the same however far a run
    gets and whatever the seed."""
    ordered = sorted(items, key=key)
    n = len(ordered)
    groups = [ordered[i * n // STRATA:(i + 1) * n // STRATA] for i in range(STRATA)]
    for group in groups:
        rng.shuffle(group)
    out = []
    for i in range(max(map(len, groups))):
        row = [group[i] for group in groups if i < len(group)]
        rng.shuffle(row)
        out.extend(row)
    return out


@dataclass(frozen=True)
class Outcome:
    """What one op returned: the CLI's exit code and standard output, or
    the return value of the public function called."""

    value: Any
    exit_code: int | None = None


def _run_cli(argv: list[str]) -> Outcome:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = tq_module("cli").main(argv)
    return Outcome(buf.getvalue(), code)


class Sweep:
    """`tq sweep --max 100 --json` over every squarefree pair
    1 < d1 < d2 <= 100, with `tq` imported afresh before each op: the bulk
    path of a `tq sweep` process.  At N = 100, 63.8% of the pairs are
    inadmissible (62.5% at N = 200).  The input is the range alone, so the
    seed does not change it."""

    name = "sweep"
    dmax = 100
    trace_ops = 1

    def prepare(self) -> None:
        """Untimed, before each op: a fresh `tq`, as in a new process."""
        fresh_tq()

    def __init__(self, seed: int):
        self.expected = oracle.expected_sweep(self.dmax)

    @classmethod
    def size(cls) -> dict:
        expected = oracle.expected_sweep(cls.dmax)
        n = expected["n_fields"]
        return {"dmax": cls.dmax, "pairs_per_op": n, "verdicts": expected["counts"],
                "inadmissible_share": round(expected["counts"][oracle.INADMISSIBLE] / n, 4)}

    def inputs(self, stream: int) -> Iterator[int]:
        while True:
            yield self.dmax

    def op(self, dmax: int) -> Outcome:
        return _run_cli(["sweep", "--max", str(dmax), "--json"])

    def items(self, dmax: int) -> int:
        return self.expected["n_fields"]

    def check(self, dmax: int, out: Outcome) -> bool:
        expected_code = 3 if self.expected["nonzero_fields"] else 0
        return out.exit_code == expected_code and json.loads(out.value) == self.expected


class WideFields:
    """`tq compute --d1 D1 --d2 D2 --json` on distinct real fields with
    d1, d2 = 1 mod 4 squarefree in [1e4, 3e5], with `tq` imported afresh
    before each op: every field is admissible and 2 is unramified; trial
    division of d1*d2 dominates."""

    name = "wide_fields"
    d_min, d_max = 10_000, 300_000
    pool = 3_000
    trace_ops = 50

    def prepare(self) -> None:
        """Untimed, before each op: a fresh `tq`, as in a new process."""
        fresh_tq()

    def __init__(self, seed: int):
        self.seed = seed
        self.pairs = self._draw_pairs()

    @classmethod
    def size(cls) -> dict:
        return {"d_range": [cls.d_min, cls.d_max], "d_mod_4": 1,
                "pairs": cls.pool, "fields_per_op": 1}

    def _draw_d(self, rng: random.Random) -> int:
        while True:
            d = rng.randrange(self.d_min, self.d_max) | 1
            if d % 4 == 1 and oracle.is_squarefree(d):
                return d

    def _draw_pairs(self) -> list[tuple[int, int]]:
        rng = random.Random(f"{self.name}:{self.seed}")
        pairs = set()
        while len(pairs) < self.pool:
            d1, d2 = self._draw_d(rng), self._draw_d(rng)
            if d1 != d2 and oracle.verdict(d1, d2) != oracle.INADMISSIBLE:
                pairs.add((min(d1, d2), max(d1, d2)))
        return sorted(pairs)

    @staticmethod
    def trial_division_steps(pair: tuple[int, int]) -> int:
        """About how far trial division of d1*d2 runs: up to the second
        largest prime factor, or the root of the largest."""
        primes = sorted(set(oracle.odd_prime_factors(pair[0])
                            + oracle.odd_prime_factors(pair[1])))
        return max(primes[-2] if len(primes) > 1 else 0, math.isqrt(primes[-1]))

    def inputs(self, stream: int) -> Iterator[tuple[int, int]]:
        """Stream 0 walks the pairs, stratified by trial-division length,
        from the front, any other stream from the back, so that the
        warm-up and the timed ops do not share a pair."""
        order = stratified(self.pairs, self.trial_division_steps,
                           random.Random(f"{self.name}:{self.seed}:order"))
        if stream:
            order.reverse()
        yield from order

    def op(self, pair: tuple[int, int]) -> Outcome:
        d1, d2 = pair
        return _run_cli(["compute", "--d1", str(d1), "--d2", str(d2), "--json"])

    def items(self, pair) -> int:
        return 1

    def check(self, pair: tuple[int, int], out: Outcome) -> bool:
        d1, d2 = pair
        verdict = oracle.verdict(d1, d2)
        doc = json.loads(out.value)
        primes = sorted(set(oracle.odd_prime_factors(d1) + oracle.odd_prime_factors(d2)))
        return (out.exit_code == (0 if verdict == oracle.VANISHES else 3)
                and doc["verdict"] == verdict
                and doc["torsion"] == (1 if verdict == oracle.VANISHES else 3)
                and doc["field"]["d3"] == oracle.third_subfield(d1, d2)
                and doc["s_f"] == primes)


@dataclass(frozen=True)
class ComplexCase:
    d1: int
    d2: int
    p: int
    local: Any
    lat: Any


class ComplexRoute:
    """One case (field, odd prime with full decomposition, m, sign) runs
    `local_term_via_complex` and `local_term_closed_form`: the only
    workload that reaches grouprings, linalg and perfectcomplex.  The prime
    is drawn from [1e3, 1e6), so that a run of a few thousand cases
    repeats a prime in only a few percent of them."""

    name = "complex_route"
    p_min, p_max = 1_000, 1_000_000
    small_d_max = 1_000
    m_values = (1, 2, 3)
    trace_ops = 100

    def prepare(self) -> None:
        """Untimed, before each op: nothing, no input repeats."""

    def __init__(self, seed: int):
        self.seed = seed
        self.a = tq_module("grouprings").V4_A
        self.b = tq_module("grouprings").V4_B
        self.small_d = [d for d in range(2, self.small_d_max + 1)
                        if oracle.is_squarefree(d)]

    @classmethod
    def size(cls) -> dict:
        return {"p_range": [cls.p_min, cls.p_max], "small_d_max": cls.small_d_max,
                "m": list(cls.m_values), "sign": [1, -1], "cases_per_op": 1}

    def inputs(self, stream: int) -> Iterator[ComplexCase]:
        """A prime p and a small squarefree d, the field of p and d in
        either order, and the local data at p when p is fully decomposed
        (inert in Q(sqrt(d))).  d1 and d2 each take the unramified place in
        about half the cases."""
        rng = random.Random(f"{self.name}:{self.seed}:{stream}")
        biquadratic = tq_module("biquadratic")
        while True:
            p = rng.randrange(self.p_min, self.p_max) | 1
            if not oracle.is_prime(p):
                continue
            d1, d2 = rng.sample((p, rng.choice(self.small_d)), 2)
            loc = biquadratic.local_galois(biquadratic.field_data(d1, d2), p)
            if not loc.full_decomposition:
                continue
            lat = tq_module("localterms").LatticeExponent(rng.choice(self.m_values),
                                                          rng.choice((1, -1)))
            yield ComplexCase(d1, d2, p, loc, lat)

    def op(self, case: ComplexCase) -> Outcome:
        localterms = tq_module("localterms")
        via = localterms.local_term_via_complex(case.p, case.local, case.lat)
        closed = localterms.local_term_closed_form(case.p, case.local, case.lat)
        return Outcome((via.as_tuple(), closed.as_tuple()))

    def items(self, case) -> int:
        return 1

    def check(self, case: ComplexCase, out: Outcome) -> bool:
        via, closed = out.value
        if oracle.unit_mod4(via) != oracle.unit_mod4(closed):
            return False
        if (case.local.a_p, case.local.b_p) == (self.a, self.b):
            corr = oracle.lattice_correction(case.p, case.lat.m, case.lat.sign)
            rep = tuple(v / c for v, c in zip(via, corr))
            return rep == oracle.tame_representative(case.p)
        return True


@dataclass(frozen=True)
class LSeriesCase:
    label: str
    field: Any
    conductor: int


class LSeries:
    """`leading_ratio_check` at tol 1e-8, one even quadratic character of
    conductor <= 16000 per op, each character once, in a seeded order: the
    only floating-point path, O(f) per character."""

    name = "lseries"
    conductor_max = 16_000
    tol = 1e-8
    trace_ops = 40

    def prepare(self) -> None:
        """Untimed, before each op: nothing, no input repeats."""

    def __init__(self, seed: int):
        self.seed = seed
        self.characters = oracle.even_characters(self.conductor_max)

    @classmethod
    def size(cls) -> dict:
        return {"conductor_max": cls.conductor_max,
                "characters": len(oracle.even_characters(cls.conductor_max)),
                "tol": cls.tol}

    def inputs(self, stream: int) -> Iterator[LSeriesCase]:
        """Stream 0 walks the characters, stratified by conductor, from
        the front, any other stream from the back, so that the warm-up and
        the timed ops do not share a character."""
        order = stratified(self.characters, lambda c: c[1],
                           random.Random(f"{self.name}:{self.seed}"))
        if stream:
            order.reverse()
        biquadratic = tq_module("biquadratic")
        for d, disc in order:
            field = biquadratic.field_data(2, d if d != 2 else 3)
            label = next(lbl for lbl, sub in field.char_to_subfield.items() if sub == d)
            yield LSeriesCase(label, field, disc)

    def op(self, case: LSeriesCase) -> Outcome:
        return Outcome(tq_module("invariant").leading_ratio_check(
            case.label, case.field, tol=self.tol))

    def items(self, case) -> int:
        return 1

    def check(self, case: LSeriesCase, out: Outcome) -> bool:
        res = out.value
        return (res.ok and res.conductor == case.conductor
                and res.rhs_exact_squared == Fraction(4, case.conductor)
                and abs(res.lhs_numeric ** 2 - 4 / case.conductor) < self.tol)


WORKLOADS = {w.name: w for w in (Sweep, WideFields, ComplexRoute, LSeries)}
