"""Spawn the benchmark's commands from a process that stays small.

Linux carries a parent's peak RSS into the ``ru_maxrss`` of a child it
forks, so a benchmark that has grown while checking 30 MB of JSON would
hide the peak of every smaller command.  This process imports almost
nothing and starts each command with ``posix_spawn``.  It reads one JSON
job per line on stdin ({"argv", "stdout", "stderr", "timeout"}), runs it to
exit, and answers with one JSON line: wall time from spawn to exit, user
and system CPU, peak RSS in KiB and the exit code.  A command still running
at its timeout is killed.  The process ends when stdin closes.
"""

import json
import os
import signal
import sys
import time


class Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise Timeout


def main() -> None:
    signal.signal(signal.SIGALRM, _on_alarm)
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    for line in sys.stdin:
        job = json.loads(line)
        actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                   (os.POSIX_SPAWN_OPEN, 1, job["stdout"], flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, job["stderr"], flags, 0o644)]
        start = time.perf_counter()
        pid = os.posix_spawn(job["argv"][0], job["argv"], os.environ, file_actions=actions)
        signal.alarm(max(1, int(job["timeout"])))
        try:
            _, status, usage = os.wait4(pid, 0)
            signal.alarm(0)
        except Timeout:
            os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        print(json.dumps({"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                          "maxrss_kib": usage.ru_maxrss,
                          "exit": os.waitstatus_to_exitcode(status)}), flush=True)


if __name__ == "__main__":
    main()
