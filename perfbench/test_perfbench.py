"""Tests of the benchmark itself: its oracle against `tq`, and the output
schema of a short run of every workload.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import oracle
import run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

run.load_tq()
import tq.invariant  # noqa: E402  (importable only after load_tq)
import workloads  # noqa: E402


def test_hilbert_symbol_2_known_values():
    assert oracle.hilbert_symbol_2(3, 3) == -1
    assert oracle.hilbert_symbol_2(2, 3) == -1
    assert oracle.hilbert_symbol_2(2, 5) == -1
    assert oracle.hilbert_symbol_2(2, 7) == 1
    assert oracle.hilbert_symbol_2(5, 13) == 1


@pytest.mark.parametrize("pair, verdict", [((5, 13), oracle.VANISHES),
                                           ((3, 11), oracle.NONZERO),
                                           ((2, 5), oracle.INADMISSIBLE)])
def test_verdict_of_worked_fields(pair, verdict):
    assert oracle.verdict(*pair) == verdict


def test_oracle_agrees_with_tq_on_small_pairs():
    for d1, d2 in oracle.squarefree_pairs(60):
        assert tq.invariant.omega_loc_torsion(d1, d2).verdict == oracle.verdict(d1, d2)


def test_oracle_agrees_with_tq_on_wide_pairs():
    rng = random.Random(0)
    wl = workloads.WideFields(seed=0)
    for _ in range(20):
        d1, d2 = wl._draw_d(rng), wl._draw_d(rng)
        if d1 != d2:
            assert tq.invariant.omega_loc_torsion(d1, d2).verdict == oracle.verdict(d1, d2)


def test_expected_sweep_matches_tq():
    assert tq.invariant.sweep(40).to_json_dict() == oracle.expected_sweep(40)


def test_even_characters_start():
    assert oracle.even_characters(13) == [(5, 5), (2, 8), (3, 12), (13, 13)]


def test_tame_representative_matches_generic_route_at_p3():
    wl = workloads.ComplexRoute(seed=0)
    case = next(c for c in wl.inputs(stream=0)
                if (c.local.a_p, c.local.b_p) == (wl.a, wl.b))
    assert wl.check(case, wl.op(case))
    assert oracle.tame_representative(3) == (Fraction(1, 4), -1, Fraction(-1, 2), -1)


def test_stratified_order_mixes_every_stretch():
    order = workloads.stratified(list(range(640)), lambda x: x, random.Random(0))
    assert sorted(order) == list(range(640))
    for row in range(10):
        stretch = order[row * workloads.STRATA:(row + 1) * workloads.STRATA]
        assert sorted(x // 10 for x in stretch) == list(range(workloads.STRATA))


def test_check_rejects_a_wrong_answer():
    wl = workloads.WideFields(seed=0)
    pair = next(wl.inputs(stream=0))
    out = wl.op(pair)
    assert wl.check(pair, out)
    flipped = workloads.Outcome(out.value, 3 - out.exit_code)
    assert not wl.check(pair, flipped)


def test_tail_percentile_needs_ten_samples_beyond():
    lat = [float(i) for i in range(1, 101)]
    assert run.tail(lat) == (90.0, 90.0)
    assert run.tail(lat[:99]) == (50.0, 50.0)
    assert run.tail([float(i) for i in range(1, 1001)]) == (90.0, 900.0)


def test_fresh_tq_drops_state_kept_between_calls():
    workloads.tq_module("cli").state_from_an_earlier_op = 1
    workloads.fresh_tq()
    assert not hasattr(workloads.tq_module("cli"), "state_from_an_earlier_op")


def test_workloads_do_not_repeat_inputs():
    wl = workloads.LSeries(seed=0)
    timed = [c.conductor for c in itertools.islice(wl.inputs(stream=0), 2000)]
    warm = [c.conductor for c in itertools.islice(wl.inputs(stream=1), 100)]
    assert len(set(timed)) == len(timed) and not set(timed) & set(warm)
    wl = workloads.WideFields(seed=0)
    timed = list(itertools.islice(wl.inputs(stream=0), 2000))
    warm = list(itertools.islice(wl.inputs(stream=1), 100))
    assert len(set(timed)) == len(timed) and not set(timed) & set(warm)
    wl = workloads.ComplexRoute(seed=0)
    cases = list(itertools.islice(wl.inputs(stream=0), 2000))
    assert len({c.p for c in cases}) > 0.95 * len(cases)
    assert {(c.local.a_p, c.local.b_p) for c in cases} == {(wl.a, wl.b), (wl.b, wl.a)}


def _run(capsys, workload: str, trace: int) -> dict:
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", str(trace)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert json.loads(lines[0])["meta"]["seed"] == 7
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_short_run_schema(capsys, workload, trace):
    result = _run(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if trace:
        coverage = result["metrics"]["trace.coverage"]["value"]
        # On wide_fields, cli.main's own argparse and JSON time is about a
        # quarter of an op and is not below the entry point.
        assert 0.5 <= coverage <= 1
        if workload != "wide_fields":
            assert coverage >= 0.90
        assert result["metrics"]["trace.overhead"]["value"] > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tracer_restores_every_binding():
    from spans import Tracer
    before = {name: dict(vars(mod)) for name, mod in sys.modules.items()
              if name == "tq" or name.startswith("tq.")}
    fraction_new = Fraction.__dict__["__new__"]
    tracer = Tracer()
    tracer.install()
    assert (sys.modules["tq.invariant"].local_galois
            is not before["tq.invariant"]["local_galois"])
    tracer.uninstall()
    after = {name: dict(vars(sys.modules[name])) for name in before}
    assert after == before
    assert Fraction.__dict__["__new__"] is fraction_new
