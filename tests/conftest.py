import os
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def src_env():
    """Environment for a child interpreter that imports faulhaber from this checkout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}
