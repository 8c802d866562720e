"""Benchmark of the faulhaber package: seeded workloads, timed end to end
and, in a separate traced run, layer by layer.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  Every run starts fresh interpreters for the work it
times, checks every answer against ``oracle.py`` after the timing ends, and
prints the metrics as text, then one JSON record of the run's environment,
then, as the last line, the result object.  README.md lists the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
from workloads import WORKLOADS, make_ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = HERE / "traces"
SETUP_SAMPLES = 24  # imports timed for setup_s, spread over the run
LAYER_SAMPLES = 11  # fresh interpreters timed for each cli start-up figure
REPEATS = 3  # timed runs of each in-process session; an operation reports its slowest
CHILD_TIMEOUT_S = 120
IMPORT_CODE = (
    "import time; t = time.perf_counter(); import faulhaber, faulhaber.cli; "
    "print(time.perf_counter() - t)"
)


def _env() -> dict[str, str]:
    env = dict(os.environ)
    # children write and use the bytecode cache, as an installed package does,
    # whatever the caller's environment says
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _child(args: list[str], stdin: str | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        input=stdin,
        capture_output=True,
        encoding="utf-8",
        cwd=ROOT,
        env=_env(),
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )


class Spawner:
    """Runs children through ``spawner.py``, so that their peak RSS is their
    own and not this process's (see there); ``maxrss_kb`` is set on exit."""

    def __enter__(self) -> "Spawner":
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            encoding="utf-8",
            cwd=ROOT,
            env=_env(),
        )
        return self

    def run(self, args: list[str], stdin: str | None = None) -> subprocess.CompletedProcess:
        self._proc.stdin.write(json.dumps({"args": [sys.executable, *args], "stdin": stdin}) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("spawner exited early")
        r = json.loads(line)
        return subprocess.CompletedProcess(args, r["returncode"], r["stdout"], r["stderr"])

    def __exit__(self, exc_type, *exc) -> None:
        # closing stdin lets the spawner finish its current child and exit
        self._proc.stdin.close()
        tail = self._proc.stdout.read()
        self._proc.wait(timeout=CHILD_TIMEOUT_S)
        if exc_type is None:
            self.maxrss_kb = json.loads(tail)["maxrss_kb"]


def run_session_child(ops: list, trace: bool, run=_child) -> dict:
    """One session in a fresh interpreter.  Operations that raise are caught
    in the child; a child that dies anyway means the benchmark is broken."""
    proc = run([str(HERE / "session.py")], json.dumps({"ops": ops, "trace": trace}))
    if proc.returncode != 0:
        raise RuntimeError(f"session child exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def import_seconds() -> float:
    """Time to import faulhaber (CLI included) in one fresh interpreter."""
    proc = _child(["-c", IMPORT_CODE])
    proc.check_returncode()
    return float(proc.stdout)


class SetupSampler:
    """Times SETUP_SAMPLES imports spread evenly over a run of ``seconds``:
    sample i is due once i / SETUP_SAMPLES of the run has passed.  The
    machine's speed drifts over seconds, so samples taken back to back would
    all see one moment of it.  ``take`` runs the samples that are due, between
    operations."""

    def __init__(self, seconds: float) -> None:
        import_seconds()  # writes the bytecode cache; not counted
        self.seconds = seconds
        self.samples: list[float] = []

    def take(self, elapsed: float) -> None:
        while len(self.samples) < SETUP_SAMPLES and (
            elapsed >= self.seconds * len(self.samples) / SETUP_SAMPLES
        ):
            self.samples.append(import_seconds())


class Failures:
    """Counts failed operations and keeps the first few reasons."""

    def __init__(self) -> None:
        self.count = 0
        self.reasons: list[str] = []

    def add(self, reason: str | None) -> None:
        if reason is not None:
            self.count += 1
            if len(self.reasons) < 5:
                self.reasons.append(reason)


def check_session(ops: list, answers: list, failures: Failures) -> None:
    for op, answer in zip(ops, answers):
        failures.add(oracle.check(op, answer))


def measure(workload: str, seed: int, seconds: float) -> dict:
    """The untraced run: end-to-end metrics plus the check counts."""
    setup = SetupSampler(seconds)
    latencies: list[int] = []
    sessions: list[tuple[list, list]] = []
    throughputs: list[float] = []
    cache_infos = []
    with Spawner() as spawner:
        start = time.perf_counter()

        def elapsed() -> float:
            return time.perf_counter() - start

        index = 0
        while not latencies or elapsed() < seconds:
            ops = make_ops(workload, seed, index)
            index += 1
            runs = []
            for _ in range(REPEATS):
                setup.take(elapsed())
                runs.append(run_session_child(ops, trace=False, run=spawner.run))
            sessions += [(ops, r["answers"]) for r in runs]
            latencies += [max(times) for times in zip(*(r["latencies_ns"] for r in runs))]
            throughputs.append(len(ops) / max(r["loop_s"] for r in runs))
            cache_infos += [r["cache_info"] for r in runs]
    setup.take(math.inf)
    peak_rss_mb = spawner.maxrss_kb / 1024

    failures = Failures()
    attempted = sum(len(ops) for ops, _ in sessions)
    for ops, answers in sessions:
        check_session(ops, answers, failures)
    ms = [x / 1e6 for x in latencies]
    metrics = {
        "ops_per_s": (statistics.median(throughputs), "1/s"),
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "latency_p90_ms": (statistics.quantiles(ms, n=10, method="inclusive")[8], "ms"),
        "setup_s": (min(setup.samples), "s"),  # least slowed by the machine's drift
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_ratio": ((attempted - failures.count) / attempted, "ratio"),
    }
    info = {
        "sessions": len(sessions),
        "operations": attempted,
        "failed_ratio": failures.count / attempted,
        "failures": failures.reasons,
        "vsc_denominator_cache_info": cache_infos,
    }
    return {"metrics": metrics, "attempted": attempted, "failed": failures.count, "info": info}


def bernoulli_index(ops: list) -> int:
    """Largest Bernoulli index a session needs, or the reference 64 if none."""
    return max((op[1] for op in ops if op[0] in ("bern", "mu")), default=64)


def distinct_even_k(ops: list) -> set[int]:
    """Even k a session asks a decision for."""
    return {op[1] for op in ops if op[0] == "decide" and op[1] % 2 == 0}


def layer_metrics(spans: list[dict], cache: dict) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the traced session's spans; for a layer the
    session never called, from the reference probe's spans instead."""
    # the lru_cache calls vsc_primes only on a miss, so a miss is a
    # vsc_denominator span with a vsc_primes child
    missed = {s["parent"] for s in spans if s["name"] == "primes.vsc_primes"} - {None}
    denominator_of = {
        s["parent"]: s["id"] for s in spans if s["name"] == "bernoulli.vsc_denominator"
    }
    tags: dict[int, set[str]] = {}
    max_limit = -1
    for s in spans:  # spans are in start order, and a session runs one call at a time
        name, attrs, tag = s["name"], s["attrs"], tags.setdefault(s["id"], set())
        if name == "primes.vsc_primes":
            if s["parent"] is not None and "vsc_denominator" in spans[s["parent"]]["name"]:
                tag.add("cold")
            if attrs["k"] <= 64:
                tag.add("small-k")
        elif name == "bernoulli.vsc_denominator" and s["id"] in missed:
            tag.add("cold")
        elif name == "integrality.decide" and attrs:  # attrs are empty if the call raised
            if attrs["k"] % 2:
                tag.add("odd")
            elif denominator_of.get(s["id"]) in missed:
                tag.add("cold")
            else:
                tag.add("warm_integral" if attrs["integral"] else "warm_nonintegral")
        elif name == "powersum.s_faulhaber" and attrs.get("k", max_limit + 1) <= max_limit:
            tag.add("warm")
        elif name == "bernoulli.bernoulli_recursive":
            max_limit = max(max_limit, attrs["limit"])

    def pick(name: str, cls: str | None = None) -> list[int]:
        """Durations (ns) of the spans named ``name`` and tagged ``cls``."""
        for phase in ("replay", "probe"):
            found = [
                s["end_ns"] - s["start_ns"]
                for s in spans
                if s["phase"] == phase
                and s["name"] == name
                and (cls is None or cls in tags[s["id"]])
            ]
            if found:
                return found
        return []

    medians = (  # (metric, unit, span name, tag)
        ("primes.vsc_primes.p50_us", "us", "primes.vsc_primes", "small-k"),
        ("bernoulli.vsc_denominator.cold_us", "us", "bernoulli.vsc_denominator", "cold"),
        ("integrality.decide.cold_us", "us", "integrality.decide", "cold"),
        ("integrality.decide.warm_integral_us", "us", "integrality.decide", "warm_integral"),
        ("integrality.decide.warm_nonintegral_us", "us", "integrality.decide", "warm_nonintegral"),
        ("integrality.decide.odd_us", "us", "integrality.decide", "odd"),
        ("integrality.grid_ms", "ms", "integrality.grid", None),
        ("powersum.s_faulhaber.warm_ms", "ms", "powersum.s_faulhaber", "warm"),
        ("powersum.s_recursive_ms", "ms", "powersum.s_recursive", None),
        ("cli.handler_ms", "ms", "cli.main", None),
    )
    total_ns = sum(pick("primes.vsc_primes", "cold"))
    out: dict[str, tuple[float, str]] = {"primes.vsc_primes.total_s": (total_ns / 1e9, "s")}
    for metric, unit, name, cls in medians:
        scale = 1e3 if unit == "us" else 1e6
        out[metric] = (statistics.median(pick(name, cls)) / scale, unit)
    lookups = cache["hits"] + cache["misses"]
    out["bernoulli.vsc_denominator.hits"] = (cache["hits"], "count")
    out["bernoulli.vsc_denominator.misses"] = (cache["misses"], "count")
    hit_ratio = cache["hits"] / lookups if lookups else 0.0
    out["bernoulli.vsc_denominator.hit_ratio"] = (hit_ratio, "ratio")
    return out


def cli_layer_metrics() -> dict[str, tuple[float, str]]:
    """Interpreter floor, import cost, and the share of selftest and bench in it."""
    floor = []
    for _ in range(LAYER_SAMPLES):
        t0 = time.perf_counter()
        _child(["-c", "pass"]).check_returncode()
        floor.append((time.perf_counter() - t0) * 1e3)
    cumulative: dict[str, list[float]] = {"faulhaber.selftest": [], "faulhaber.bench": []}
    for _ in range(3):
        proc = _child(["-X", "importtime", "-c", "import faulhaber.cli"])
        proc.check_returncode()
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] in cumulative:
                cumulative[parts[2]].append(float(parts[1]))
    out = {
        "cli.interpreter_ms": (statistics.median(floor), "ms"),
        "cli.import_ms": (
            statistics.median(import_seconds() for _ in range(LAYER_SAMPLES)) * 1e3,
            "ms",
        ),
    }
    for module, values in cumulative.items():
        out[f"cli.import.{module.split('.')[1]}_us"] = (statistics.median(values), "us")
    return out


def measure_traced(workload: str, seed: int) -> dict:
    """The traced run: session 0 once untraced and once traced, each in a
    fresh interpreter, cold Bernoulli tables, and the CLI start-up costs."""
    ops = make_ops(workload, seed, 0)
    plain = run_session_child(ops, trace=False)
    traced = run_session_child(ops, trace=True)
    k = bernoulli_index(ops)
    table_ops = [["bern_table", k], ["egf_table", k]]
    tables = run_session_child(table_ops, trace=False)

    failures = Failures()
    for session_ops, result in ((ops, plain), (ops, traced), (table_ops, tables)):
        check_session(session_ops, result["answers"], failures)
    attempted = 2 * len(ops) + len(table_ops)

    metrics = layer_metrics(traced["spans"], traced["cache_info"])
    metrics["bernoulli.table_s"] = (tables["latencies_ns"][0] / 1e9, "s")
    metrics["bernoulli.egf_table_s"] = (tables["latencies_ns"][1] / 1e9, "s")
    metrics.update(cli_layer_metrics())
    metrics["trace.overhead_pct"] = ((traced["loop_s"] / plain["loop_s"] - 1) * 100, "%")

    TRACE_DIR.mkdir(exist_ok=True)
    trace_file = TRACE_DIR / f"{workload}-{seed}.jsonl"
    with trace_file.open("w") as fh:
        for span in traced["spans"]:
            fh.write(json.dumps(span) + "\n")
    info = {
        "operations": len(ops),
        "distinct_even_k": len(distinct_even_k(ops)),
        "bernoulli_index": k,
        "spans": len(traced["spans"]),
        "trace_file": os.path.relpath(trace_file, ROOT),
        "failed_ratio": failures.count / attempted,
        "failures": failures.reasons,
        "vsc_denominator_cache_info": traced["cache_info"],
    }
    return {"metrics": metrics, "attempted": attempted, "failed": failures.count, "info": info}


def _git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(workload: str, seed: int, seconds: int, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "loadavg_1m": os.getloadavg()[0],
    }


def main(argv: list[str] | None = None) -> int:
    sys.set_int_max_str_digits(0)  # exact answers reach tens of thousands of digits
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "faulhaber" / "__init__.py").is_file():
        print(f"error: no faulhaber package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    sys.path.insert(0, str(SRC))

    record = environment(args.workload, args.seed, args.seconds, args.trace)
    if args.trace:
        run = measure_traced(args.workload, args.seed)
    else:
        run = measure(args.workload, args.seed, args.seconds)
    record.update(run["info"])
    for name, (value, unit) in run["metrics"].items():
        print(f"{args.workload:<7} {name:<40} {value:>14.6g} {unit}")
    print(f"{args.workload:<7} {'failed_ratio':<40} {record['failed_ratio']:>14.6g} ratio")
    print(json.dumps({"record": record}))
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in run["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
