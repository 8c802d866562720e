import contextlib
import io
import json
import os
import pathlib
import time

import pytest

from faulhaber import bernoulli, selftest
from faulhaber.cli import main

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def src_env():
    """Environment for a child interpreter that imports faulhaber from this checkout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


@pytest.fixture(scope="session")
def bench_report():
    """The records of one default ``bench --json`` run (about 1.5 s), shared
    by every test that reads the report."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["bench", "--json"]) == 0
    return [json.loads(line) for line in out.getvalue().splitlines()]


@pytest.fixture(scope="session")
def group_elapsed():
    """Run a selftest group at its full range, once per session, and return
    its wall time in seconds; the selftest test and the criterion it states
    both read that one run."""
    checks = dict(selftest.GROUPS)
    elapsed = {}

    def run(name):
        if name not in elapsed:
            start = time.perf_counter()
            checks[name]()  # raises InvariantViolation naming the counterexample
            elapsed[name] = time.perf_counter() - start
        return elapsed[name]

    return run


@pytest.fixture
def fresh_memo(monkeypatch):
    """An empty Bernoulli memo for one test, emptied again by calling the
    fixture's value; the module's own memo comes back after the test."""

    def empty():
        monkeypatch.setattr(bernoulli, "_tangent_column", [])
        monkeypatch.setattr(bernoulli, "_scaled_values", (2, (2, -1)))

    empty()
    return empty
