import pathlib
import subprocess
import sys

import pytest

DEMO_DIR = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("script", sorted(DEMO_DIR.glob("*.py")), ids=lambda p: p.name)
def test_demo_runs_clean(script, src_env):
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=120,
        env=src_env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
