import os
import pathlib

import pytest

from faulhaber import bernoulli

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def src_env():
    """Environment for a child interpreter that imports faulhaber from this checkout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


@pytest.fixture
def fresh_memo(monkeypatch):
    """An empty Bernoulli memo for one test, emptied again by calling the
    fixture's value; the module's own memo comes back after the test."""

    def empty():
        monkeypatch.setattr(bernoulli, "_tangent_column", [])
        monkeypatch.setattr(bernoulli, "_scaled_values", (2, (2, -1)))

    empty()
    return empty
