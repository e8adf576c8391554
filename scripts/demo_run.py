#!/usr/bin/env python3
"""Quick look at one seed: run both routing modes and print the summaries.

Writes the four per-run CSVs for each mode under out/demo_<mode>/.
"""

import argparse

from icnsim.cli import run_single
from icnsim.config import SimulationConfig


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--interests", type=int, default=1000)
    parser.add_argument("--out", default="out")
    args = parser.parse_args()

    print(f"seed={args.seed} interests={args.interests}")
    for mode in ("single", "multi"):
        config = SimulationConfig(seed=args.seed, interests=args.interests, mode=mode,
                                  out_dir=f"{args.out}/demo_{mode}")
        summary, paths = run_single(config)
        avg = "n/a" if summary.avg_delivery_s is None else f"{summary.avg_delivery_s:.4f}s"
        print(f"  {mode:6s} delivered={summary.delivered_count:6d} dropped={summary.dropped_count:4d} "
              f"unterminated={summary.unterminated_count:4d} "
              f"avg_delivery={avg} "
              f"offered={summary.offered_load_mbps:8.1f}Mbps "
              f"load_std={summary.std_load_mbps:7.2f}Mbps -> {paths[0].parent}")


if __name__ == "__main__":
    main()
