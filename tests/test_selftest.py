import doctest
import importlib
import pkgutil

import pytest

import faulhaber
from faulhaber import selftest


@pytest.mark.parametrize("check", [c for _, c in selftest.GROUPS], ids=[n for n, _ in selftest.GROUPS])
def test_group_holds_at_full_range(check):
    check(False)  # raises InvariantViolation naming the counterexample


def test_docstring_examples():
    # __main__ runs the CLI on import
    names = [m.name for m in pkgutil.iter_modules(faulhaber.__path__) if m.name != "__main__"]
    results = {
        name: doctest.testmod(importlib.import_module(name))
        for name in ["faulhaber"] + [f"faulhaber.{n}" for n in names]
    }
    assert all(r.failed == 0 for r in results.values()), results
    assert sum(r.attempted for r in results.values()) > 0
