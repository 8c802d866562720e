"""Smoke test of the benchmark at tiny sizes: every metric named in
BENCHMARK.json is emitted, answers check out, and a wrong verdict is caught."""

import json
import random
import sys
from pathlib import Path

import pytest

pytest.importorskip("sympy")  # the oracle and the workloads need it

import run
import session
import workloads

sys.path.insert(0, str(run.SRC))

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


TINY = {  # each workload's operations at tiny sizes
    "decide": lambda rng: workloads.decide_ops(rng, 30, 2000),
    "exact": lambda rng: workloads.exact_ops(rng, 24, 24),
}


def tiny_ops(workload, seed, index):
    return TINY[workload](random.Random(f"{workload}:{seed}:{index}"))


@pytest.fixture(autouse=True)
def _tiny_runs(monkeypatch):
    monkeypatch.setattr(run, "make_ops", tiny_ops)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 2)
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metrics_emitted(workload):
    result = run.measure(workload, seed=1, seconds=0)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert result["failed"] == 0, result["info"]["failures"]
    assert result["metrics"]["ok_ratio"][0] == 1.0
    assert all(value > 0 for value, _ in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_per_layer_metrics_emitted(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "TRACE_DIR", tmp_path)
    result = run.measure_traced(workload, seed=1)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["failed"] == 0, result["info"]["failures"]
    misses = result["metrics"]["bernoulli.vsc_denominator.misses"][0]
    assert misses == result["info"]["distinct_even_k"]
    spans = Path(tmp_path / f"{workload}-1.jsonl").read_text().splitlines()
    assert len(spans) == result["info"]["spans"] > 0


def test_wrong_verdict_counts_as_failed(monkeypatch):
    from faulhaber import integrality

    decide = integrality.decide

    def wrong(k, n):
        v = decide(k, n)
        return integrality.Verdict(not v.integral, v.rule, v.witness_primes, v.witness_residue)

    monkeypatch.setattr(integrality, "decide", wrong)
    ops = tiny_ops("decide", seed=1, index=0)
    answers = session.run_session(ops)["answers"]
    failures = run.Failures()
    run.check_session(ops, answers, failures)
    assert failures.count / len(ops) > 0
    assert failures.count == len(ops)
