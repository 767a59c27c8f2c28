"""Whole-process timings of one `meyniel` command from several source trees.

    python3 scripts/cli_timing.py ../parent . --repeats 14 -- solve dense.col

Runs `python3 -m meyniel ARGS` (ARGS after the "--") once from each
TREE in turn, `--repeats` rounds over, so that the trees alternate and
share any drift of the host.  TREE is a checkout: its `src` directory
alone is put on PYTHONPATH.  Each run reads nothing on stdin, its
stdout and stderr are discarded, and its usage comes from `os.wait4`:
wall time, CPU time (`ru_utime + ru_stime`) and peak RSS (`ru_maxrss`;
on Linux it also covers the children the run reaped, so the split
read's forked child counts).  Prints one Markdown row per tree: the
medians of the three, and every exit status seen.
"""

import argparse
import os
import statistics
import subprocess
import sys
import time


def run(tree: str, args: list[str]) -> tuple[float, float, float, int]:
    """(wall s, CPU s, peak RSS MB, exit status) of one `python3 -m meyniel ARGS` from `tree`."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "meyniel", *args], env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode


def main(argv=None) -> None:
    argv = sys.argv[1:] if argv is None else argv
    ap = argparse.ArgumentParser(
        usage="%(prog)s TREE... [--repeats N] -- ARGS",
        description="Time `python3 -m meyniel ARGS` from each source tree, alternating.")
    ap.add_argument("trees", nargs="+", metavar="TREE", help="checkouts whose src/ holds meyniel")
    ap.add_argument("--repeats", type=int, default=10, help="runs from each tree")
    if "--" not in argv:
        ap.error("give the meyniel arguments after --")
    cut = argv.index("--")
    opts, args = ap.parse_args(argv[:cut]), argv[cut + 1:]
    if opts.repeats < 1:
        ap.error("--repeats must be at least 1")
    runs = [(tree, []) for tree in opts.trees]  # a tree given twice runs twice
    for _ in range(opts.repeats):
        for tree, samples in runs:
            samples.append(run(tree, args))
    print(f"`meyniel {' '.join(args)}`, medians of {opts.repeats}:")
    print()
    print("| tree | wall | CPU | peak RSS | exit |")
    print("| --- | --- | --- | --- | --- |")
    for tree, samples in runs:
        wall, cpu, rss, codes = zip(*samples)
        print(f"| {tree} | {statistics.median(wall):.3f} s | {statistics.median(cpu):.3f} s "
              f"| {statistics.median(rss):.1f} MB | {','.join(map(str, sorted(set(codes))))} |")


if __name__ == "__main__":
    main()
