"""Outcome census over random graphs.

For each (n, p) cell, run the solver on many G(n, p) instances and
tabulate how often it colors optimally versus how often it produces an
odd-cycle obstruction, along with the obstruction shapes (cycle length,
chord present or not).  Dense graphs are almost never Meyniel yet still
often color optimally; the census makes that visible.

    python3 scripts/obstruction_census.py --per-cell 200
"""

import argparse
from collections import Counter
from dataclasses import dataclass, field
import random

from meyniel.app import robust_solve
from meyniel.certify import OptimalPair
from meyniel.graph import build


@dataclass(frozen=True)
class CensusConfig:
    ns: tuple[int, ...] = (8, 10, 12, 16, 20)
    ps: tuple[float, ...] = (0.2, 0.35, 0.5, 0.65, 0.8)
    per_cell: int = 200
    seed: int = 0


@dataclass
class Cell:
    optimal: int = 0
    obstructed: int = 0
    lengths: Counter = field(default_factory=Counter)
    chords: int = 0


def run_cell(cfg: CensusConfig, n: int, p: float) -> Cell:
    rng = random.Random(cfg.seed * 1000003 + n * 1009 + int(p * 100))
    cell = Cell()
    for _ in range(cfg.per_cell):
        es = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        cert = robust_solve(build(n, es))
        if isinstance(cert, OptimalPair):
            cell.optimal += 1
        else:
            cell.obstructed += 1
            cell.lengths[len(cert.cycle)] += 1
            if cert.chord is not None:
                cell.chords += 1
    return cell


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--ns", default="8,10,12,16,20")
    ap.add_argument("--ps", default="0.2,0.35,0.5,0.65,0.8")
    ap.add_argument("--per-cell", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    cfg = CensusConfig(
        ns=tuple(int(tok) for tok in args.ns.split(",")),
        ps=tuple(float(tok) for tok in args.ps.split(",")),
        per_cell=args.per_cell,
        seed=args.seed,
    )
    print(f"{'n':>4} {'p':>5} {'optimal':>8} {'obstructed':>11} "
          f"{'chorded':>8}  cycle lengths")
    for n in cfg.ns:
        for p in cfg.ps:
            cell = run_cell(cfg, n, p)
            shape = " ".join(f"{ln}:{ct}" for ln, ct in sorted(cell.lengths.items()))
            print(f"{n:>4} {p:>5.2f} {cell.optimal:>8} {cell.obstructed:>11} "
                  f"{cell.chords:>8}  {shape}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
