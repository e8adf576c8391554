#!/usr/bin/env python3
"""Paired-seed comparison between single-path and multipath routing.

Runs both modes on each seed (identical topology and interest schedule within
a pair), writes batch.csv, and prints per-metric win rates with the paired
mean differences; a pair with equal values is a tie, counted apart from wins.
Per-run rows are left in batch.csv for external analysis such as boxplots or
hypothesis tests.
"""

import argparse
import time

from icnsim.cli import run_batch
from icnsim.config import SimulationConfig


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=20, help="number of paired seeds")
    parser.add_argument("--seed", type=int, default=0, help="first seed of the batch")
    parser.add_argument("--interests", type=int, default=5000)
    parser.add_argument("--out", default="out")
    args = parser.parse_args()

    config = SimulationConfig(seed=args.seed, interests=args.interests, out_dir=args.out)
    start = time.monotonic()
    summaries, path = run_batch(config, args.runs)
    elapsed = time.monotonic() - start

    pairs = [(summaries[2 * i], summaries[2 * i + 1]) for i in range(args.runs)]

    def stat(label, attr, better):
        # A run that delivers no data chunk has no delivery time; its pair is left out.
        values = [(getattr(s, attr), getattr(m, attr)) for s, m in pairs]
        values = [(s, m) for s, m in values if s is not None and m is not None]
        if not values:
            print(f"  {label:22s} n/a")
            return
        n = len(values)
        wins = sum(better(m, s) for s, m in values)
        ties = sum(m == s for s, m in values)
        tied = f" ({ties} tie{'s' if ties > 1 else ''})" if ties else ""
        diff = sum(m - s for s, m in values) / n
        print(f"  {label:22s} multi wins {wins:2d}/{n}{tied}   paired mean diff {diff:+.4f}")

    print(f"{len(pairs)} paired runs at {args.interests} interests each ({elapsed:.0f}s) -> {path}")
    stat("avg delivery time [s]", "avg_delivery_s", lambda m, s: m < s)
    stat("load std dev [Mbps]", "std_load_mbps", lambda m, s: m < s)
    stat("offered load [Mbps]", "offered_load_mbps", lambda m, s: m > s)
    stat("dropped packets", "dropped_count", lambda m, s: m < s)


if __name__ == "__main__":
    main()
