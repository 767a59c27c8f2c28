"""Read timings of graph files, serial against split, full against keep.

For each DIMACS file given, time `meyniel.graph.read_graph` in turn,
`--repeats` times over: a full read and a keep read of each of
`--keep-sizes` k vertices spread evenly over 0..n-1 (5 by default, as
`meyniel verify` reads the graph of a 5-cycle certificate), each serial
and split.  A split read lowers the split threshold
`meyniel.graph._SPLIT` to 0, so that any regular file whose line 1 is
the header is parsed on two cores (when two CPUs are usable); a serial
read raises it above every file size.  One untimed full read of each
file comes first.  Prints one Markdown row of medians per file, as in
the README's read tables:

    python3 scripts/read_timing.py dense.col sparse.col --repeats 20
    python3 scripts/read_timing.py dense.col --keep-sizes 5,24,48
"""

import argparse
import os
import statistics
import sys
import time

from meyniel import graph


def timed_read(path: str, keep, split: bool) -> float:
    """Seconds that one `graph.read_graph(path, keep)` takes, split or serial."""
    saved = graph._SPLIT
    graph._SPLIT = 0 if split else sys.maxsize
    try:
        t0 = time.perf_counter()
        graph.read_graph(path, keep)
        return time.perf_counter() - t0
    finally:
        graph._SPLIT = saved


def row(path: str, repeats: int, sizes: list[int]) -> str:
    """The Markdown row of `path`: name, size, then the full read and each keep read as serial → split medians in ms."""
    n = graph.read_graph(path).n
    keeps = [None] + [{i * (n - 1) // max(k - 1, 1) for i in range(k)} for k in sizes]
    ways = [(keep, split) for keep in keeps for split in (False, True)]
    times = [[] for _ in ways]
    for _ in range(repeats):
        for way, samples in zip(ways, times):
            samples.append(timed_read(path, *way))
    ms = [1000 * statistics.median(samples) for samples in times]
    size = os.path.getsize(path) / 1e6
    reads = "".join(f" {ms[i]:.1f} → {ms[i + 1]:.1f} ms |" for i in range(0, len(ms), 2))
    return f"| {os.path.basename(path)} | {size:.2f} MB |{reads}"


def keep_sizes(text: str) -> list[int]:
    return [int(k) for k in text.split(",")]


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description="Time serial and split, full and keep reads of graph files.")
    ap.add_argument("paths", nargs="+", help="DIMACS graph files")
    ap.add_argument("--repeats", type=int, default=20, help="timed reads of each kind per file")
    ap.add_argument("--keep-sizes", type=keep_sizes, default=[5], metavar="K[,K...]",
                    help="vertices kept by each keep read (default 5)")
    args = ap.parse_args(argv)
    if graph._cpus() < 2:
        print("one usable CPU: the split reads run serially", file=sys.stderr)
    print("| file | size | full read |" + "".join(f" keep {k} |" for k in args.keep_sizes))
    print("| --- | --- | --- |" + " --- |" * len(args.keep_sizes))
    for path in args.paths:
        print(row(path, args.repeats, args.keep_sizes), flush=True)


if __name__ == "__main__":
    main()
