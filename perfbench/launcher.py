"""Start the benchmark's child processes, one at a time, and report their usage.

Reads one JSON request per line on stdin ({"argv", "env", "stdout",
"stderr", "timeout"}) and answers one JSON line per request with the child's
wall time, CPU time, peak resident set and exit code (-9 when killed on
timeout).  On Linux a child's ru_maxrss also counts the address space it was
spawned from, so children are spawned from this small process rather than
from the benchmark, whose numpy references would otherwise set every child's
peak.  Exits when stdin closes.
"""

import json
import os
import signal
import sys
import time


def main() -> None:
    child = {"pid": None}

    def on_alarm(signum, frame):
        if child["pid"] is not None:
            try:
                os.kill(child["pid"], signal.SIGKILL)
            except ProcessLookupError:  # ended just before the alarm
                pass

    signal.signal(signal.SIGALRM, on_alarm)
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            actions = [(os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                       (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
            start = time.perf_counter()
            child["pid"] = os.posix_spawn(req["argv"][0], req["argv"], req["env"],
                                          file_actions=actions)
            signal.alarm(req["timeout"])
            _, status, usage = os.wait4(child["pid"], 0)
            signal.alarm(0)
            wall = time.perf_counter() - start
            child["pid"] = None
        code = os.waitstatus_to_exitcode(status)
        sys.stdout.write(json.dumps({
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_mb": usage.ru_maxrss / 1024.0,
            "code": code,
        }) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
