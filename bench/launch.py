"""Runs one command and writes its wall time, peak RSS and exit code as JSON.

    python3 bench/launch.py RESULT.json LOG COMMAND...

A process's peak RSS (ru_maxrss) also counts the memory of the process that
started it: at exec the kernel folds in the high-water mark of the address
space being replaced, which after vfork is the parent's.  The benchmark
process holds whole output files in memory, so it launches each command
through this small process instead, whose own footprint stays far below
anything ksring does.  SIGTERM kills the command; this process always waits
for it to end.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time


def main(result: str, log: str, cmd: list[str]) -> None:
    started: list[subprocess.Popen] = []
    signal.signal(signal.SIGTERM, lambda *_: [c.kill() for c in started])
    with open(log, "wb") as sink:
        # SIGTERM waits until the child is on record, so it is never missed.
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
        t0 = time.perf_counter()
        child = subprocess.Popen(cmd, stdout=sink, stderr=subprocess.STDOUT)
        started.append(child)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - t0
    child.returncode = os.waitstatus_to_exitcode(status)
    with open(result, "w") as f:
        json.dump({"wall_s": wall, "rss_mb": usage.ru_maxrss * 1024 / 1e6, "rc": child.returncode}, f)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], sys.argv[3:])
