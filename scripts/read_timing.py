"""Read timings of graph files, serial against split, full against keep.

For each DIMACS file given, time `meyniel.app._read_graph` four ways in
turn, `--repeats` times over: a full read and a keep read of 5 vertices
(as `meyniel verify` reads the graph of a 5-cycle certificate), each
serial and split.  A split read lowers the split threshold
`meyniel.graph._SPLIT` to 0, so that any regular file whose line 1 is
the header is parsed on two cores (when two CPUs are usable); a serial
read raises it above every file size.  One untimed full read of each
file comes first.  Prints one Markdown row of medians per file, as in
the README's read tables:

    python3 scripts/read_timing.py dense.col sparse.col --repeats 20
"""

import argparse
import os
import statistics
import sys
import time

from meyniel import graph
from meyniel.app import _read_graph


def timed_read(path: str, keep, split: bool) -> float:
    """Seconds that one `_read_graph(path, keep)` takes, split or serial."""
    saved = graph._SPLIT
    graph._SPLIT = 0 if split else sys.maxsize
    try:
        t0 = time.perf_counter()
        _read_graph(path, keep)
        return time.perf_counter() - t0
    finally:
        graph._SPLIT = saved


def row(path: str, repeats: int) -> str:
    """The Markdown row of `path`: name, size, then full and keep reads as serial → split medians in ms."""
    n = _read_graph(path).n
    keep = {k * (n - 1) // 4 for k in range(5)}
    ways = [(k, split) for k in (None, keep) for split in (False, True)]
    times = [[] for _ in ways]
    for _ in range(repeats):
        for way, samples in zip(ways, times):
            samples.append(timed_read(path, *way))
    ms = [1000 * statistics.median(samples) for samples in times]
    size = os.path.getsize(path) / 1e6
    return (f"| {os.path.basename(path)} | {size:.2f} MB | {ms[0]:.1f} → {ms[1]:.1f} ms "
            f"| {ms[2]:.1f} → {ms[3]:.1f} ms |")


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description="Time serial and split, full and keep reads of graph files.")
    ap.add_argument("paths", nargs="+", help="DIMACS graph files")
    ap.add_argument("--repeats", type=int, default=20, help="timed reads of each kind per file")
    args = ap.parse_args(argv)
    if graph._cpus() < 2:
        print("one usable CPU: the split reads run serially", file=sys.stderr)
    print("| file | size | full read | keep read |")
    print("| --- | --- | --- | --- |")
    for path in args.paths:
        print(row(path, args.repeats), flush=True)


if __name__ == "__main__":
    main()
