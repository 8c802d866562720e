import contextlib
import io
import json
import os
import pathlib

import pytest

from faulhaber import bernoulli, powersum, selftest
from faulhaber.cli import main

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def src_env():
    """Environment for a child interpreter that imports faulhaber from this checkout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


@pytest.fixture(scope="session")
def bench_s_mod_calls():
    """The (k, terms, m) of every ``s_mod`` call of the session's one bench
    run, recorded by ``bench_report``."""
    return []


@pytest.fixture(scope="session")
def bench_report(bench_s_mod_calls):
    """The records of one default ``bench --json`` run (about 1.5 s), shared
    by every test that reads the report."""
    s_mod = powersum.s_mod

    def recording(q, m):
        bench_s_mod_calls.append((q.k, q.n, m))
        return s_mod(q, m)

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out):
        patch.setattr(powersum, "s_mod", recording)
        assert main(["bench", "--json"]) == 0
    return [json.loads(line) for line in out.getvalue().splitlines()]


@pytest.fixture(scope="session")
def group_results():
    """The results of one full ``selftest.run_groups()`` run, by group name;
    the selftest test and the criterion a group states both read that run."""
    results = selftest.run_groups()
    assert [r.name for r in results] == [name for name, _ in selftest.GROUPS]
    return {r.name: r for r in results}


@pytest.fixture
def fresh_memo(monkeypatch):
    """An empty Bernoulli memo for one test, emptied again by calling the
    fixture's value; the module's own memo comes back after the test."""

    def empty():
        monkeypatch.setattr(bernoulli, "_tangent_column", [])
        monkeypatch.setattr(bernoulli, "_scaled_values", (2, (2, -1)))

    empty()
    return empty
