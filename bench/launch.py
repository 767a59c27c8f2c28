"""Run and time the benchmark's measured commands from a small process.

Reads one JSON argv list per line on stdin, runs it, and answers with
one JSON object per line: wall seconds, exit code, stdout, stderr and the
peak resident memory, in KiB, of any command it has run so far.

The commands are started here, not from the benchmark process, because
the peak RSS the kernel reports for a child includes the peak of the
process that spawned it: the child shares its parent's memory until it
execs.  This process stays small, so the figure is the command's own.
"""

import json
import resource
import subprocess
import sys
from time import perf_counter


def main() -> int:
    for line in sys.stdin:
        argv = json.loads(line)
        t0 = perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True)
        wall = perf_counter() - t0
        reply = {
            "wall": wall,
            "returncode": proc.returncode,
            "stdout": proc.stdout,
            "stderr": proc.stderr,
            "maxrss_kib": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
