"""Run logs, CSV emission, and the evaluation statistics."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import fsum, sqrt
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


def summarize(load_log: LoadLog, packet_log, delays: list[float], warmup_end: float,
              cooldown_start: float, *, run_id: str = "", mode: str = "", interest_count: int = 0,
              seed: int = 0) -> RunSummary:
    """Run statistics.

    Load statistics use only samples with warmup_end <= t < cooldown_start:
    offered load is the per-sample-time sum over channels averaged over times,
    average load is offered load over the channel count, and the load spread
    is the population standard deviation across channels at each sample time,
    averaged over times. Packet statistics are not time-filtered; average
    delivery is the mean of ``delays``, the log's ``delivery_times``, which
    the caller computes once per run. Every sum is a correctly
    rounded ``math.fsum`` divided once, so no figure depends on the order of
    channels or packets.
    """
    rows = [row for t, row in zip(load_log.times, load_log.rows) if warmup_end <= t < cooldown_start]
    channels = len(rows[0]) if rows else 0
    if channels:
        sums = []
        spreads = []
        for row in rows:
            total = fsum(row)
            mean = total / channels
            variance = fsum([x * x for x in row]) / channels - mean * mean
            if variance < 0.0:  # rounding can leave a zero spread just below 0
                variance = 0.0
            sums.append(total)
            spreads.append(sqrt(variance))
        offered = fsum(sums) / len(rows)
        avg = offered / channels
        std = fsum(spreads) / len(rows)
    else:
        offered = avg = std = 0.0

    outcomes = Counter(r.outcome for r in packet_log)
    avg_delivery = fsum(delays) / len(delays) if delays else None
    return RunSummary(run_id, mode, interest_count, seed, avg_delivery,
                      outcomes[protocol.DELIVERED], outcomes[protocol.DROPPED],
                      outcomes[protocol.UNTERMINATED], offered, avg, std)


def write_csv(topology, load_log: LoadLog, packet_log, summary: RunSummary, out_dir) -> list[Path]:
    """Write loads.csv, packets.csv, and summary.csv under out_dir, rows in the order given.

    Each path update's loads are formatted by one ``%`` call: a template per
    run holds every channel's ``channel_id,from,to,%.6f`` line, and the
    update's ``run_id,time_s,`` head is put before each line after. ``%.6f``
    formats a float or an int exactly as the ``:.6f`` format spec does. The
    run id is never part of the template, so a ``%`` in it is written as is,
    and a topology with no channel writes no load line.

    The packet log is in packet-id order, as ``engine.run`` returns it. Routes
    repeat heavily, so each distinct route's ``src,dst`` and ``-``-joined
    columns are formatted once and cached by its ``nodes`` tuple; the rows are
    still streamed, never held as one list.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    run_id = summary.run_id

    loads_path = out / "loads.csv"
    template = "".join(f"{ch.channel_id},{ch.from_node},{ch.to_node},%.6f\n" for ch in topology.channels)
    with open(loads_path, "w", newline="") as f:
        f.write(LOADS_HEADER + "\n")
        if template:
            for t, row in zip(load_log.times, load_log.rows):
                head = f"{run_id},{t:.6f},"
                f.write(head + (template % tuple(row))[:-1].replace("\n", "\n" + head) + "\n")

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
    """``packets.csv`` rows, each route's columns and each created time formatted once.

    An interest's chunks and the data packets answering them share one
    created time, so the formatted times are cached by value. Zero is never
    cached: ``-0.0 == 0.0`` as a key, yet an interest at ``-0.0`` prints
    ``-0.000000``, so each zero is formatted with its own sign.
    """
    routes: dict[tuple[int, ...], tuple[str, str]] = {}
    times: dict[float, str] = {}
    for r in packet_log:
        nodes = r.nodes
        route = routes.get(nodes)
        if route is None:
            route = routes[nodes] = (f"{r.src},{r.dst}", r.route)
        created_s = r.created_s
        created = times.get(created_s)
        if created is None:
            created = f"{created_s:.6f}"
            if created_s:
                times[created_s] = created
        terminated = "" if r.terminated_s is None else f"{r.terminated_s:.6f}"
        yield (f"{run_id},{r.packet_id},{r.kind},{r.prefix_id},{r.chunk_index},{route[0]},"
               f"{created},{terminated},{r.outcome},{route[1]}\n")


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
