"""Runs child processes on behalf of the benchmark and reports their rusage.

    python3 perfbench/spawner.py < requests > replies

Each request is one JSON line {"argv": [...], "stderr": path, "timeout": s};
each reply is one JSON line {"wall": s, "code": n, "maxrss": bytes}. It
exits at end of input.

Linux charges a child's ru_maxrss with the peak RSS of the process that
spawned it (the high-water mark of the memory image it replaces at exec).
The benchmark process grows past 150 MB while it reloads large PLY files,
so it starts this small process first and spawns every child from here,
which keeps each child's peak RSS its own.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(argv: list[str], stderr_path: str, timeout: float) -> dict:
    with open(stderr_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "code": proc.returncode, "maxrss": usage.ru_maxrss * 1024}


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        print(json.dumps(run(req["argv"], req["stderr"], req["timeout"])), flush=True)


if __name__ == "__main__":
    main()
