"""Run logs, CSV emission, and the evaluation statistics."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from itertools import accumulate, chain
from math import sqrt
from operator import add, mul
from pathlib import Path
from typing import NamedTuple

from . import protocol


class LoadSample(NamedTuple):
    time_s: float
    channel_id: int
    load_mbps: float


@dataclass
class LoadLog:
    """Channel loads in Mbps: one row per path update, indexed by channel id.

    Iterating yields one ``LoadSample`` per channel and time, in (time,
    channel) order; ``len`` counts those samples.
    """

    times: list[float] = field(default_factory=list)
    rows: list[list[float]] = field(default_factory=list)

    def append(self, time_s: float, loads: list[float]) -> None:
        self.times.append(time_s)
        self.rows.append(loads)

    def __len__(self):
        return sum(len(row) for row in self.rows)

    def __iter__(self):
        for t, row in zip(self.times, self.rows):
            for channel_id, load in enumerate(row):
                yield LoadSample(t, channel_id, load)


@dataclass
class RunSummary:
    run_id: str
    mode: str
    interest_count: int
    seed: int
    avg_delivery_s: float | None
    delivered_count: int
    dropped_count: int
    unterminated_count: int
    offered_load_mbps: float
    avg_load_mbps: float
    std_load_mbps: float


LOADS_HEADER = "run_id,time_s,channel_id,from,to,load_mbps"
PACKETS_HEADER = "run_id,packet_id,kind,prefix_id,chunk_index,src,dst,created_s,terminated_s,outcome,route"
SUMMARY_HEADER = ("run_id,mode,interest_count,seed,avg_delivery_s,delivered_count,dropped_count,"
                  "unterminated_count,offered_load_mbps,avg_load_mbps,std_load_mbps")
HISTOGRAM_HEADER = "bin_start_s,count"
BATCH_HEADER = "run_id,seed,mode,avg_delivery_s,std_load_mbps,offered_load_mbps,dropped"


def _opt(value) -> str:
    return "" if value is None else f"{value:.6f}"


def smooth(series, window: int) -> list[float]:
    """Trailing moving average: output[i] is the mean of the last `window` points.

    ``window`` must be a whole number of at least 1; a fractional window
    raises ValueError. Points are summed as one running total from the start,
    and each mean is a difference of two running totals.
    """
    try:
        w = int(window)
    except (TypeError, ValueError, OverflowError):
        w = None
    if w is None or w != window or w < 1:
        raise ValueError(f"window must be a whole number of at least 1, got {window!r}")
    csum = list(accumulate(map(float, series)))
    head = [c / i for i, c in enumerate(csum[:w], 1)]
    return head + [(c - before) / w for c, before in zip(csum[w:], csum)]


def histogram(delivery_times, bin_width: float) -> list[tuple[float, int]]:
    """Occupied left-closed right-open bins anchored at 0, ascending by start."""
    if bin_width <= 0:
        raise ValueError(f"bin_width must be positive, got {bin_width}")
    counts: dict[int, int] = {}
    for t in delivery_times:
        i = int(t // bin_width)
        counts[i] = counts.get(i, 0) + 1
    return [(i * bin_width, counts[i]) for i in sorted(counts)]


def delivery_times(packet_log) -> list[float]:
    """Creation-to-arrival time of every delivered data chunk, in log order."""
    return [r.terminated_s - r.created_s for r in packet_log
            if r.kind == protocol.DATA and r.outcome == protocol.DELIVERED]


def _pairwise_sum(values, lo: int, n: int) -> float:
    """Sum of ``values[lo:lo + n]`` rounded exactly as numpy's float64 pairwise sum.

    Under 8 values a plain left fold; up to 128, eight accumulators over
    every eighth value, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), and
    then the tail; above 128, the two halves split at a multiple of 8. Exact
    zeros are skipped, which changes no sum of values that are all >= +0.0.
    """
    if n < 8:
        return reduce(add, filter(None, values[lo:lo + n]), 0.0)
    if n <= 128:
        end = lo + n - n % 8
        r0, r1, r2, r3, r4, r5, r6, r7 = [reduce(add, filter(None, values[i + 8:end:8]), values[i])
                                          for i in range(lo, lo + 8)]
        return reduce(add, filter(None, values[end:lo + n]),
                      ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)))
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values, lo, half) + _pairwise_sum(values, lo + half, n - half)


def _mean(values) -> float:
    """``np.mean`` of a list of floats, rounded exactly as numpy rounds it."""
    return _pairwise_sum(values, 0, len(values)) / len(values)


def _row_sums(rows) -> tuple[list[float], list[float]]:
    """Per row, the sum and the sum of squares, each a left fold in column order.

    That is ``np.cumsum(rows, axis=1)[:, -1]``, not a pairwise sum. Idle
    channels log exact zeros; skipping them changes no sum of loads >= +0.0.
    """
    sums = []
    squares = []
    for row in rows:
        busy = list(filter(None, row))
        sums.append(reduce(add, busy, 0.0))
        squares.append(reduce(add, map(mul, busy, busy), 0.0))
    return sums, squares


def summarize(load_log: LoadLog, packet_log, warmup_end: float = 50.0, cooldown_start: float = 950.0, *,
              run_id: str = "", mode: str = "", interest_count: int = 0, seed: int = 0) -> RunSummary:
    """Run statistics.

    Load statistics use only samples with warmup_end <= t < cooldown_start:
    offered load is the per-sample-time sum over channels averaged over times,
    and the load spread is the population standard deviation across channels
    at each sample time, averaged over times. Packet statistics are not
    time-filtered; average delivery is the mean of ``delivery_times``.
    """
    rows = [row for t, row in zip(load_log.times, load_log.rows) if warmup_end <= t < cooldown_start]
    channels = len(rows[0]) if rows else 0
    if channels:
        # Each row is summed in channel order and the means replicate numpy's
        # pairwise sum, so every figure equals np.cumsum / np.mean to the bit.
        sums, squares = _row_sums(rows)
        spreads = []
        for total, square in zip(sums, squares):
            mean = total / channels
            variance = square / channels - mean * mean
            if variance < 0.0:  # rounding can leave a zero spread just below 0
                variance = 0.0
            spreads.append(sqrt(variance))
        offered = _mean(sums)
        avg = _mean(list(chain.from_iterable(rows)))
        std = _mean(spreads)
    else:
        offered = avg = std = 0.0

    outcomes = Counter(r.outcome for r in packet_log)
    delays = delivery_times(packet_log)
    # A left fold: from Python 3.12 sum() of floats is compensated and rounds differently.
    avg_delivery = reduce(add, delays, 0.0) / len(delays) if delays else None
    return RunSummary(run_id, mode, interest_count, seed, avg_delivery,
                      outcomes[protocol.DELIVERED], outcomes[protocol.DROPPED],
                      outcomes[protocol.UNTERMINATED], offered, avg, std)


def write_csv(topology, load_log: LoadLog, packet_log, summary: RunSummary, out_dir) -> list[Path]:
    """Write loads.csv, packets.csv, and summary.csv under out_dir, rows in the order given.

    The packet log is in packet-id order, as ``engine.run`` returns it. Routes
    repeat heavily, so each distinct route's ``src,dst`` and ``-``-joined
    columns are formatted once and cached by its ``nodes`` tuple; the rows are
    still streamed, never held as one list.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    run_id = summary.run_id

    loads_path = out / "loads.csv"
    endpoints = [f"{ch.channel_id},{ch.from_node},{ch.to_node}," for ch in topology.channels]
    with open(loads_path, "w", newline="") as f:
        f.write(LOADS_HEADER + "\n")
        for t, row in zip(load_log.times, load_log.rows):
            head = f"{run_id},{t:.6f},"
            f.writelines(f"{head}{ends}{load:.6f}\n" for ends, load in zip(endpoints, row))

    packets_path = out / "packets.csv"
    with open(packets_path, "w", newline="") as f:
        f.write(PACKETS_HEADER + "\n")
        f.writelines(_packet_rows(run_id, packet_log))

    summary_path = out / "summary.csv"
    with open(summary_path, "w", newline="") as f:
        f.write(SUMMARY_HEADER + "\n")
        f.write(f"{run_id},{summary.mode},{summary.interest_count},{summary.seed},"
                f"{_opt(summary.avg_delivery_s)},{summary.delivered_count},{summary.dropped_count},"
                f"{summary.unterminated_count},{summary.offered_load_mbps:.6f},"
                f"{summary.avg_load_mbps:.6f},{summary.std_load_mbps:.6f}\n")
    return [loads_path, packets_path, summary_path]


def _packet_rows(run_id, packet_log):
    routes: dict[tuple[int, ...], tuple[str, str]] = {}
    for r in packet_log:
        nodes = r.nodes
        route = routes.get(nodes)
        if route is None:
            route = routes[nodes] = (f"{r.src},{r.dst}", r.route)
        terminated = "" if r.terminated_s is None else f"{r.terminated_s:.6f}"
        yield (f"{run_id},{r.packet_id},{r.kind},{r.prefix_id},{r.chunk_index},{route[0]},"
               f"{r.created_s:.6f},{terminated},{r.outcome},{route[1]}\n")


def write_histogram(bins, path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        f.write(HISTOGRAM_HEADER + "\n")
        f.writelines(f"{start:.6f},{count}\n" for start, count in bins)
    return path


def write_batch(summaries, path) -> Path:
    """batch.csv: one row per run summary, in the order given."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        f.write(BATCH_HEADER + "\n")
        f.writelines(f"{s.run_id},{s.seed},{s.mode},{_opt(s.avg_delivery_s)},{s.std_load_mbps:.6f},"
                     f"{s.offered_load_mbps:.6f},{s.dropped_count}\n" for s in summaries)
    return path
