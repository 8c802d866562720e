"""Run one session of operations in this interpreter and report what it saw.

A session is a list of operations (see ``workloads.py``) run back to back,
one at a time, each timed on its own with ``perf_counter_ns``.  Answers are
encoded for checking only after the timed loop ends.  ``run.py`` starts each
session as a fresh child process, so the library's per-process caches (the
``vsc_denominator`` lru_cache, the Bernoulli memo) start empty, as they do
for a user's process:

    python3 perfbench/session.py < session.json > result.json

With ``"trace": true`` the library's public functions are wrapped by
``spans.Tracer`` for the session, and then a fixed set of reference
operations (``PROBE_OPS``) runs traced with a cleared ``vsc_denominator``
cache; per-layer figures fall back to those spans for layers the workload
itself never calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

from spans import Tracer

# reference operations for layers a workload never calls: decisions at small
# k and n, small grids, `exact` sizes, three CLI calls
PROBE_OPS = (
    [["decide", k, n] for k in range(1, 65) for n in (1, 2, 6, 30, 35, 77, 210, 511)]
    + [["grid", 8, 16], ["grid", 16, 64]]
    + [["mu", 64, 10**20], ["mu", 64, 10**40], ["mu", 32, 10**50]]
    + [["s_recursive", 16, 10**20], ["s_recursive", 32, 10**40]]
    + [["cli", ["check", "2", "6"]], ["cli", ["denom", "60"]], ["cli", ["table", "4", "8"]]]
)


def _modules() -> dict[str, object]:
    from faulhaber import bernoulli, cli, integrality, powersum, primes

    return {
        "primes": primes,
        "bernoulli": bernoulli,
        "powersum": powersum,
        "integrality": integrality,
        "cli": cli,
    }


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _bind(m: dict[str, object], op: list):
    """A zero-argument call for ``op`` that looks the function up at call time."""
    kind, *args = op
    bernoulli, powersum, integrality = m["bernoulli"], m["powersum"], m["integrality"]
    if kind == "decide":
        return lambda: integrality.decide(*args)
    if kind == "grid":
        return lambda: integrality.grid(*args)
    if kind == "bern":
        return lambda: bernoulli.bernoulli_recursive(args[0])[args[0]]
    if kind == "mu":
        q = powersum.PowerSumQuery(*args)
        return lambda: powersum.mu(q)
    if kind == "s_recursive":
        return lambda: powersum.s_recursive(*args)
    if kind == "bern_table":
        return lambda: bernoulli.bernoulli_recursive(args[0])
    if kind == "egf_table":
        return lambda: bernoulli.bernoulli_egf(args[0])
    if kind == "cli":
        return lambda: run_cli(m["cli"], args[0])
    raise ValueError(f"unknown operation {kind!r}")


def _encode(kind: str, result):
    if isinstance(result, BaseException):
        return {"error": f"{type(result).__name__}: {result}"}
    if kind == "decide":
        return [result.integral, result.rule, list(result.witness_primes), result.witness_residue]
    if kind == "bern":
        return str(result)
    if kind == "mu":
        return [str(result.value), result.integral]
    if kind in ("bern_table", "egf_table"):
        return str(result[result.limit])
    if kind == "s_recursive":
        return result
    raise ValueError(f"unknown operation {kind!r}")


def _timed_loop(m: dict[str, object], ops: list) -> tuple[list[int], list, float]:
    calls = [_bind(m, op) for op in ops]
    latencies: list[int] = []
    results: list = []
    start = time.perf_counter()
    for call in calls:
        t0 = time.perf_counter_ns()
        try:
            result = call()
        except Exception as exc:  # a raising operation is a failed one, not a crash
            result = exc
        latencies.append(time.perf_counter_ns() - t0)
        results.append(result)
    return latencies, results, time.perf_counter() - start


def run_session(ops: list, trace: bool = False) -> dict:
    """Run ``ops`` in this process; returns latencies, answers and cache state."""
    m = _modules()
    vsc_denominator = m["bernoulli"].vsc_denominator  # the lru_cache, never a wrapper
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install(m)
    try:
        latencies, results, loop_s = _timed_loop(m, ops)
        cache = vsc_denominator.cache_info()
        if tracer:
            tracer.phase = "probe"
            vsc_denominator.cache_clear()
            _timed_loop(m, PROBE_OPS)
    finally:
        if tracer:
            tracer.uninstall()
    return {
        "latencies_ns": latencies,
        "loop_s": loop_s,
        "answers": [_encode(op[0], r) for op, r in zip(ops, results)],
        "cache_info": {"hits": cache.hits, "misses": cache.misses, "currsize": cache.currsize},
        "spans": tracer.spans if tracer else [],
    }


def main() -> None:
    sys.set_int_max_str_digits(0)  # exact answers reach tens of thousands of digits
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    request = json.load(sys.stdin)
    json.dump(run_session(request["ops"], request["trace"]), sys.stdout)


if __name__ == "__main__":
    main()
