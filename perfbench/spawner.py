"""Runs commands for the benchmark and reports their resource use.

Linux keeps a process's peak RSS from before ``exec`` in the figure
``wait4`` reports, so a child forked from the benchmark process (which holds
inputs and outputs in memory) would report at least the benchmark's size.
This process stays small: it imports nothing but the standard library, and
the children it forks inherit only its own few megabytes.

Protocol: one JSON request per stdin line,
``{"argv": [...], "stdout": path, "stderr": path, "cwd": path}``, answered by
one JSON line ``{"seconds", "exit_code", "maxrss_kb"}``. The process
ends when stdin closes.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdout=out, stderr=err, cwd=request["cwd"])
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {
            "seconds": seconds,
            "exit_code": proc.returncode,
            "maxrss_kb": usage.ru_maxrss,
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
