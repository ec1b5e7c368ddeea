"""Measure the dense/rank masked-reduction crossover over a (lead, n, d) grid.

The masked reductions pick their kernel from the input shape alone
(``repro.algorithms.base._select_kernel``); this script re-measures the grid
that rule was fitted to.  Each point times both kernels on one period of the
faulted pattern the benchmark workloads run -- ``K_n``, the cycle ``C_n`` and
the directed star, each stacked over the lead axis with 20 % of the
non-self edges dropped per scenario -- because the dense kernel's cost
depends on the mask (structured masks run several times faster than
unstructured random ones), while the rank kernel's barely does.  It
prints, per point, both kernels' best time per call, the kernel the rule
selects, and how much slower the selection is than the faster kernel.

Usage (from the repository root)::

    PYTHONPATH=src python benchmarks/reduction_grid.py                # full grid, ~8 min
    PYTHONPATH=src python benchmarks/reduction_grid.py --points 64,64,1 16,32,1
    PYTHONPATH=src python benchmarks/reduction_grid.py --out grid.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.algorithms import base  # noqa: E402
from repro.graphs.families import complete_graph, cycle_graph, directed_star_graph  # noqa: E402

LEADS = (1, 2, 4, 8, 16, 32, 64, 128, 256)
NS = (2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 256)
DS = (1, 2, 4, 8)
#: Points whose dense intermediate exceeds this many elements are skipped.
MAX_ELEMENTS = 1 << 24


def _best_of(fn, budget_s: float = 0.2, min_repeats: int = 5, max_repeats: int = 300) -> float:
    times = []
    start = time.perf_counter()
    while len(times) < max_repeats and (
        len(times) < min_repeats or time.perf_counter() - start < budget_s
    ):
        began = time.perf_counter()
        fn()
        times.append(time.perf_counter() - began)
    return min(times)


def measure(lead: int, n: int, d: int) -> dict:
    """Best time per call of each kernel, averaged over the pattern's graphs."""
    rng = np.random.default_rng((lead, n, d))
    values = rng.uniform(-1.0, 1.0, size=(lead, n, d))
    dense_s = rank_s = 0.0
    families = (complete_graph, cycle_graph, directed_star_graph)
    for family in families:
        adjacency = np.broadcast_to(family(n).adjacency, (lead, n, n)).copy()
        drop = rng.random(adjacency.shape) < 0.2
        drop[:, np.arange(n), np.arange(n)] = False
        operands = base._reduction_operands(adjacency & ~drop, values, values)
        dense_s += _best_of(lambda: base._masked_extremes_dense(*operands))
        rank_s += _best_of(lambda: base._masked_extremes_rank(*operands))
    dense_ms, rank_ms = dense_s * 1e3 / len(families), rank_s * 1e3 / len(families)
    selected = base._select_kernel(lead, n, d, False)
    selected_ms = rank_ms if selected is base._masked_extremes_rank else dense_ms
    return {
        "lead": lead,
        "n": n,
        "d": d,
        "dense_ms": dense_ms,
        "rank_ms": rank_ms,
        "selected": "rank" if selected is base._masked_extremes_rank else "dense",
        "selected_over_fastest": selected_ms / min(dense_ms, rank_ms),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--points", nargs="*", help="lead,n,d triples instead of the full grid")
    parser.add_argument("--out", help="write the measured points here as JSON")
    args = parser.parse_args()
    if args.points:
        points = [tuple(int(part) for part in point.split(",")) for point in args.points]
    else:
        points = [
            (lead, n, d)
            for d in DS
            for lead in LEADS
            for n in NS
            if lead * n * n * d <= MAX_ELEMENTS
        ]
    rows = []
    for lead, n, d in points:
        row = measure(lead, n, d)
        rows.append(row)
        print(
            f"lead={lead:4d} n={n:4d} d={d} dense={row['dense_ms']:9.4f}ms "
            f"rank={row['rank_ms']:9.4f}ms selected={row['selected']:5s} "
            f"x{row['selected_over_fastest']:.2f}",
            flush=True,
        )
    worst = max(rows, key=lambda row: row["selected_over_fastest"])
    print(
        f"{len(rows)} points; worst selection {worst['selected_over_fastest']:.2f}x the "
        f"faster kernel at lead={worst['lead']} n={worst['n']} d={worst['d']}"
    )
    if args.out:
        Path(args.out).write_text(json.dumps(rows, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
