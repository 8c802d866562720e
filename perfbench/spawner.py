"""Starts the benchmark's timed child processes, one at a time, on request.

On Linux a child inherits its parent's peak RSS when it is spawned, so a
child started by run.py, whose memory grows as it collects results,
would report run.py's peak instead of its own.  This process stays
small, so the children it starts report their own peak.

Protocol, one JSON object per line on stdin and stdout:

    {"args": [...], "stdin": str | null}
        -> {"returncode": int, "stdout": str, "stderr": str}

When stdin closes it prints {"maxrss_kb": int}, the largest peak RSS of
any child it started, and exits.
"""

import json
import resource
import subprocess
import sys

CHILD_TIMEOUT_S = 120


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        proc = subprocess.run(
            request["args"],
            input=request["stdin"] or "",
            capture_output=True,
            encoding="utf-8",
            timeout=CHILD_TIMEOUT_S,
            check=False,
        )
        reply = {"returncode": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
        print(json.dumps(reply), flush=True)
    print(json.dumps({"maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}))


if __name__ == "__main__":
    main()
