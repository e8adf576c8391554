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
    """Channel loads in Mbps: one row per path update, in time order, indexed by channel id.

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
    """A packet's fields and id (see ``PacketLog``), its name unpacked, as ``packets.csv`` has them."""

    packet_id: int
    kind: str
    prefix_id: int
    chunk_index: int
    nodes: tuple[int, ...]
    created_s: float
    terminated_s: float | None
    outcome: str

    @property
    def src(self) -> int:
        return self.nodes[0]

    @property
    def dst(self) -> int:
        return self.nodes[-1]

    @property
    def route(self) -> str:
        """The route as node ids joined by ``-``."""
        return "-".join(map(str, self.nodes))


@dataclass
class PacketLog:
    """A run's ``protocol.Packet``s in creation order: a packet's id is its position in ``packets``.

    A packet joins at its creation and stores no id. ``len`` counts the
    packets, iteration gives ``PacketRecord`` views, built on each read, and
    ``==`` compares the packets.
    """

    packets: list[protocol.Packet] = field(default_factory=list)

    def __len__(self):
        return len(self.packets)

    def __iter__(self):
        make = PacketRecord._make
        for packet_id, p in enumerate(self.packets):
            yield make((packet_id, p.kind, *p.name, p.nodes, p.created_s, p.terminated_s, p.outcome))


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


def delivery_times(packet_log: PacketLog) -> list[float]:
    """Creation-to-arrival time of every delivered data chunk, in log order."""
    return [p.terminated_s - p.created_s for p in packet_log.packets
            if p.kind == protocol.DATA and p.outcome == protocol.DELIVERED]


def summarize(load_log: LoadLog, packet_log: PacketLog, delays: list[float], warmup_end: float,
              cooldown_start: float, *, run_id: str = "", mode: str = "", interest_count: int = 0,
              seed: int = 0) -> RunSummary:
    """Run statistics as the README's Model section defines them.

    Load statistics use only samples with warmup_end <= t < cooldown_start;
    pass ``config.warmup_s`` and ``config.cooldown_start_s``. Packet
    statistics are not time-filtered. ``delays`` is the log's
    ``delivery_times``. Every sum is a correctly rounded ``math.fsum`` divided
    once, so no figure depends on the order of channels or packets.
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

    outcomes = Counter(p.outcome for p in packet_log.packets)
    avg_delivery = fsum(delays) / len(delays) if delays else None
    return RunSummary(run_id, mode, interest_count, seed, avg_delivery,
                      outcomes[protocol.DELIVERED], outcomes[protocol.DROPPED],
                      outcomes[protocol.UNTERMINATED], offered, avg, std)


def write_csv(topology, load_log: LoadLog, packet_log: PacketLog, summary: RunSummary,
              out_dir) -> list[Path]:
    """Write loads.csv, packets.csv, and summary.csv under out_dir, rows in the order given.

    Each path update's loads are one ``%`` call on a per-run template of
    ``channel_id,from,to,%.6f`` lines (``%.6f`` formats as ``:.6f`` does), and
    the ``run_id,time_s,`` head goes before each line after, so a ``%`` in the
    run id is written as is and a topology with no channel writes no load
    line. ``packets.csv`` rows are streamed, never held as one list.
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
    """``packets.csv`` rows, each shared name, route and created time formatted once.

    A chunk's packets share a created time, so times are cached by value, but
    never zero: ``-0.0 == 0.0`` as a key, yet ``-0.0`` prints ``-0.000000``.
    """
    names: dict[tuple[int, int], str] = {}
    routes: dict[tuple[int, ...], tuple[str, str]] = {}
    times: dict[float, str] = {}
    for packet_id, p in enumerate(packet_log.packets):
        name = p.name
        ids = names.get(name)
        if ids is None:
            ids = names[name] = f"{name[0]},{name[1]}"
        nodes = p.nodes
        route = routes.get(nodes)
        if route is None:
            route = routes[nodes] = (f"{nodes[0]},{nodes[-1]}", "-".join(map(str, nodes)))
        created_s = p.created_s
        created = times.get(created_s)
        if created is None:
            created = f"{created_s:.6f}"
            if created_s:
                times[created_s] = created
        terminated = "" if p.terminated_s is None else f"{p.terminated_s:.6f}"
        yield (f"{run_id},{packet_id},{p.kind},{ids},{route[0]},"
               f"{created},{terminated},{p.outcome},{route[1]}\n")


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
