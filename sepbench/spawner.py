"""Start and time the benchmark's child processes from a small process.

A child's peak resident memory, as ``wait4`` reports it, is never below the
memory of the process that forked it: Linux carries the parent's resident
set into the child's high-water mark until ``exec``. The benchmark itself
holds numpy and whole CSV files, so a child forked from it could report the
benchmark's memory instead of its own. This process imports only the
standard library, so it stays far smaller than any child it starts.

Protocol: one JSON request per line on stdin, ``{"cmd", "cwd", "env", "log",
"timeout"}``; one JSON reply per line on stdout, ``{"code", "wall_s",
"peak_rss_kb"}``. The process exits when stdin closes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def run_one(request: dict) -> dict:
    with open(request["log"], "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(request["cmd"], cwd=request["cwd"], env=request["env"],
                                stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(request["timeout"], proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall_s": wall, "peak_rss_kb": usage.ru_maxrss}


class Spawner:
    """Client side: runs commands through one spawner process."""

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)

    def run(self, cmd: list[str], cwd, env: dict, log, timeout: float):
        """Run ``cmd`` to completion; (exit code, wall s, peak RSS MB)."""
        request = {"cmd": cmd, "cwd": str(cwd), "env": env, "log": str(log),
                   "timeout": timeout}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("spawner process exited")
        reply = json.loads(reply)
        return reply["code"], reply["wall_s"], reply["peak_rss_kb"] / 1024.0

    def close(self):
        self._proc.stdin.close()
        self._proc.wait(timeout=30)
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


if __name__ == "__main__":
    for line in sys.stdin:
        print(json.dumps(run_one(json.loads(line))), flush=True)
