"""The CLI's stdout, stderr and exit code, replayed against a recorded transcript.

Each line of ``cli_transcript.jsonl`` is one row: an argv list, and the exit
code, stdout and stderr that ``faulhaber.cli.main`` gave for it.  The test
replays every row in process and compares all four fields byte for byte.

Run as a script, this module records every row again from its own argv, with
the same ``replay``:

    PYTHONPATH=src python tests/test_cli_transcript.py

A new row is one more line ``{"argv": [...]}`` followed by that command, and an
intended output change shows as a diff of the file.  argparse owns the text of
usage errors and ``--help``, and ``selftest`` and ``bench`` print timings, so
none of them is a row.
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from faulhaber.cli import main

TRANSCRIPT = pathlib.Path(__file__).with_name("cli_transcript.jsonl")
_TIMED = ("selftest", "bench")
_OUTPUT_BYTE_BOUND = 4096


def replay(argv):
    """The row of ``main(argv)``: its argv, exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


with TRANSCRIPT.open(encoding="utf-8") as f:
    ROWS = [json.loads(line) for line in f]


@pytest.mark.parametrize("row", ROWS, ids=[" ".join(row["argv"]) for row in ROWS])
def test_row(row):
    assert replay(row["argv"]) == row


def record():
    """Replay every row's argv and rewrite the file, or refuse and leave it."""
    rows, seen = [], set()
    for argv in (row["argv"] for row in ROWS):
        if argv and argv[0] in _TIMED:
            sys.exit(f"refused {argv}: {argv[0]} prints timings")
        if " ".join(argv) in seen:
            sys.exit(f"refused {argv}: it repeats a row")
        seen.add(" ".join(argv))
        try:
            row = replay(argv)
        except SystemExit:
            sys.exit(f"refused {argv}: argparse exits on it, and argparse owns that text")
        if len((row["stdout"] + row["stderr"]).encode()) > _OUTPUT_BYTE_BOUND:
            sys.exit(f"refused {argv}: it prints more than {_OUTPUT_BYTE_BOUND} bytes")
        rows.append(row)
    with TRANSCRIPT.open("w", encoding="utf-8") as f:
        f.writelines(json.dumps(row, ensure_ascii=False) + "\n" for row in rows)


if __name__ == "__main__":
    record()
