"""Run one command and record its wall time and rusage.

    python3 perfbench/launch.py RESULT.json TIMEOUT_S command [args...]

Writes {"exit", "wall_s", "cpu_s", "maxrss_kb"} for the command to
RESULT.json; the command's stdout and stderr are this process's. The
command is killed after TIMEOUT_S seconds.

Linux carries the peak RSS of the address space a process replaces at
exec into the process's own ru_maxrss. A command spawned straight from
the benchmark, which holds the generated inputs, would therefore report
at least the benchmark's peak RSS. This launcher stays small (no numpy),
so the figure is the command's own peak.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    result_path, timeout, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    start = time.perf_counter()
    child = subprocess.Popen(argv)
    watchdog = threading.Timer(timeout, child.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(child.pid, 0)
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"exit": child.returncode, "wall_s": wall,
                   "cpu_s": usage.ru_utime + usage.ru_stime,
                   "maxrss_kb": usage.ru_maxrss}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
