"""Run one command; print its wall time, exit status and peak memory as JSON.

    python3 perfbench/launch.py STDERR_FILE COMMAND...

run.py starts every CLI process through this small interpreter instead of
spawning it itself.  On Linux a child's ru_maxrss also covers the memory map
it ran in before exec, which is its parent's: a CLI process spawned by the
benchmark, which holds numpy, scipy, mpmath and parsed outputs, would report
at least the benchmark's own resident set.  Spawned from here it starts from
this interpreter's ~14 MB, below any CLI process.  ru_maxrss also covers the
CLI's pool workers, which it waits for.
"""

import json
import os
import subprocess
import sys
import time


def main():
    err_path, *command = sys.argv[1:]
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, wait_status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(wait_status)
    # ru_maxrss is in KiB on Linux
    print(json.dumps({"seconds": seconds, "status": proc.returncode,
                      "rss_mb": usage.ru_maxrss / 1024.0}))


if __name__ == "__main__":
    main()
