"""Run logs, CSV emission, and the evaluation statistics."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

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


class PacketRecord(NamedTuple):
    packet_id: int
    kind: str
    prefix_id: int
    chunk_index: int
    src: int
    dst: int
    created_s: float
    terminated_s: float | None
    outcome: str
    route: str


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


def _opt(value) -> str:
    return "" if value is None else f"{value:.6f}"


def smooth(series, window: int) -> list[float]:
    """Trailing moving average: output[i] is the mean of the last `window` points."""
    if window < 1:
        raise ValueError(f"window must be at least 1, got {window}")
    arr = np.asarray(list(series), dtype=float)
    if arr.size == 0:
        return []
    w = int(window)
    csum = np.cumsum(arr)
    out = np.empty_like(arr)
    head = min(w, arr.size)
    out[:head] = csum[:head] / np.arange(1, head + 1)
    if arr.size > w:
        out[w:] = (csum[w:] - csum[:-w]) / w
    return [float(v) for v in out]


def histogram(delivery_times, bin_width: float) -> list[tuple[float, int]]:
    """Occupied left-closed right-open bins anchored at 0, ascending by start."""
    if bin_width <= 0:
        raise ValueError(f"bin_width must be positive, got {bin_width}")
    counts: dict[int, int] = {}
    for t in delivery_times:
        i = int(t // bin_width)
        counts[i] = counts.get(i, 0) + 1
    return [(i * bin_width, counts[i]) for i in sorted(counts)]


def summarize(load_log: LoadLog, packet_log, warmup_end: float = 50.0, cooldown_start: float = 950.0, *,
              run_id: str = "", mode: str = "", interest_count: int = 0, seed: int = 0) -> RunSummary:
    """Run statistics.

    Load statistics use only samples with warmup_end <= t < cooldown_start:
    offered load is the per-sample-time sum over channels averaged over times,
    and the load spread is the population standard deviation across channels
    at each sample time, averaged over times. Packet statistics are not
    time-filtered; average delivery covers delivered data packets only.
    """
    loads = np.array([row for t, row in zip(load_log.times, load_log.rows)
                      if warmup_end <= t < cooldown_start], dtype=float)
    if loads.size:
        # Running sums along each row add the channels in id order, one at a
        # time; a plain sum would pair them up and round differently.
        channels = loads.shape[1]
        sums = np.cumsum(loads, axis=1)[:, -1]
        means = sums / channels
        sq = np.cumsum(loads * loads, axis=1)[:, -1]
        variances = np.maximum(sq / channels - means * means, 0.0)
        offered = float(np.mean(sums))
        avg = float(np.mean(loads))
        std = float(np.mean(np.sqrt(variances)))
    else:
        offered = avg = std = 0.0

    delivered = dropped = unterminated = 0
    delays = []
    for r in packet_log:
        if r.outcome == protocol.DELIVERED:
            delivered += 1
            if r.kind == protocol.DATA:
                delays.append(r.terminated_s - r.created_s)
        elif r.outcome == protocol.DROPPED:
            dropped += 1
        else:
            unterminated += 1
    avg_delivery = sum(delays) / len(delays) if delays else None
    return RunSummary(run_id, mode, interest_count, seed, avg_delivery,
                      delivered, dropped, unterminated, offered, avg, std)


def write_csv(topology, load_log: LoadLog, packet_log, summary: RunSummary, out_dir) -> list[Path]:
    """Write loads.csv, packets.csv, and summary.csv under out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    run_id = summary.run_id

    loads_path = out / "loads.csv"
    # Rows are already in (time, channel) order.
    endpoints = [f"{ch.channel_id},{ch.from_node},{ch.to_node}," for ch in topology.channels]
    with open(loads_path, "w", newline="") as f:
        f.write(LOADS_HEADER + "\n")
        for t, row in zip(load_log.times, load_log.rows):
            head = f"{run_id},{t:.6f},"
            f.writelines(f"{head}{ends}{load:.6f}\n" for ends, load in zip(endpoints, row))

    packets_path = out / "packets.csv"
    with open(packets_path, "w", newline="") as f:
        f.write(PACKETS_HEADER + "\n")
        f.writelines(
            f"{run_id},{r.packet_id},{r.kind},{r.prefix_id},{r.chunk_index},{r.src},{r.dst},"
            f"{r.created_s:.6f},{_opt(r.terminated_s)},{r.outcome},{r.route}\n"
            for r in sorted(packet_log, key=lambda r: r.packet_id))

    summary_path = out / "summary.csv"
    with open(summary_path, "w", newline="") as f:
        f.write(SUMMARY_HEADER + "\n")
        f.write(f"{run_id},{summary.mode},{summary.interest_count},{summary.seed},"
                f"{_opt(summary.avg_delivery_s)},{summary.delivered_count},{summary.dropped_count},"
                f"{summary.unterminated_count},{summary.offered_load_mbps:.6f},"
                f"{summary.avg_load_mbps:.6f},{summary.std_load_mbps:.6f}\n")
    return [loads_path, packets_path, summary_path]


def write_histogram(bins, path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        f.write(HISTOGRAM_HEADER + "\n")
        f.writelines(f"{start:.6f},{count}\n" for start, count in bins)
    return path
