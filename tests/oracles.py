"""Independent reference implementations used to cross-check the package.

Nothing here may call into the code paths it verifies; of icnsim it imports
only the topology and the protocol constants. Paths come from exhaustive DFS
enumeration, shortest paths from a textbook predecessor-array Dijkstra, event
order from a plain heap, window busy time from a channel's whole transmission
history, correctly rounded sums from exact rational arithmetic, and the
conservation audit works purely on packet records.

``reference_run`` is a deliberately naive simulator of the documented model,
built from those pieces: every arrival is an event of its own, every channel
keeps its whole history, and every interest ranks its paths by enumerating
them all. The engine's logs must equal its logs exactly, so its arithmetic is
the model's own: a transmission ends at ``now + size_bits / (capacity *
1e6)``, path costs add up hop by hop from the consumer, and busy time is a
running total in transmission order.
"""

from __future__ import annotations

import heapq
import random
from bisect import bisect_right
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from math import inf
from typing import NamedTuple

from icnsim import topology as topo_mod
from icnsim import protocol


def enumerate_anchor_paths(topology, costs, src, targets):
    """Every loopless path from src ending at a target, by exhaustive DFS.

    A path may pass through one target on its way to another; costs accumulate
    as a left fold in node order.
    """
    target_set = set(targets)
    adjacency = topology.adjacency
    found = []

    def walk(node, path, visited, acc):
        if node in target_set:
            found.append((acc, tuple(path)))
        for nbr, ch in adjacency[node]:
            if nbr in visited:
                continue
            path.append(nbr)
            visited.add(nbr)
            walk(nbr, path, visited, acc + costs[ch])
            path.pop()
            visited.remove(nbr)

    walk(src, [src], {src}, 0.0)
    return found


def brute_force_k_paths(topology, costs, src, targets, k):
    """Top-k of exhaustive enumeration: ascending cost, ties by node sequence."""
    ranked = sorted(enumerate_anchor_paths(topology, costs, src, targets))
    return ranked[:k]


def reference_dijkstra(topology, costs, src, targets):
    """Textbook single-source Dijkstra; returns (cost, path) to the best target."""
    n = len(topology.nodes)
    dist = [inf] * n
    parent = [-1] * n
    dist[src] = 0.0
    heap = [(0.0, src)]
    settled = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        for v, ch in topology.adjacency[u]:
            nd = d + costs[ch]
            if nd < dist[v]:
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, v))
    best = min(targets, key=lambda t: (dist[t], t))
    if dist[best] is inf:
        return None
    path = [best]
    while path[-1] != src:
        path.append(parent[path[-1]])
    return dist[best], tuple(reversed(path))


def random_cost_view(topology, rng):
    return tuple(rng.uniform(0.001, 1.0) for _ in topology.channels)


def random_case(seed, max_nodes=8):
    """Random connected topology plus random positive channel costs."""
    rng = random.Random(seed)
    n = rng.randint(2, max_nodes)
    edges = rng.randint(n - 1, n * (n - 1) // 2)
    topology = topo_mod.generate_topology(n, edges, 1, rng)
    return topology, random_cost_view(topology, rng)


class HeapQueue:
    """Reference event queue: one heap of (time, seq, kind, payload).

    ``schedule`` numbers events in the order they are scheduled, so ties pop
    in that order, and ``pop`` counts its pops by event kind.
    ``idle_at_clock`` scans the whole heap for an event due at the clock.
    """

    def __init__(self):
        self._heap = []
        self._seq = 0
        self.clock = 0.0
        self.pops = Counter()

    def schedule(self, time, kind, payload=None):
        assert time >= self.clock
        heapq.heappush(self._heap, (time, self._seq, kind, payload))
        self._seq += 1

    def idle_at_clock(self):
        return all(time > self.clock for time, *_ in self._heap)

    def pop(self):
        event = heapq.heappop(self._heap)
        self.clock = event[0]
        self.pops[event[2]] += 1
        return event


class ChannelHistory:
    """One channel's whole history of back-to-back ``(start, end)`` transmissions.

    The busy time before each start is a running total, a left fold in
    transmission order, and ``busy(lo, hi)`` finds each window bound by
    bisecting the starts.
    """

    def __init__(self, intervals=()):
        self.intervals = []
        self._starts = []
        self._before = [0.0]
        for start, end in intervals:
            self.append(start, end)

    def append(self, start, end):
        self.intervals.append((start, end))
        self._starts.append(start)
        self._before.append(self._before[-1] + (end - start))

    def _busy_until(self, t):
        i = bisect_right(self._starts, t) - 1
        if i < 0:
            return 0.0
        start, end = self.intervals[i]
        return self._before[i] + max(0.0, min(t, end) - start)

    def busy(self, lo, hi):
        """Busy seconds in [lo, hi]."""
        return self._busy_until(hi) - self._busy_until(lo)


def history_busy_seconds(intervals):
    """``busy(lo, hi)``: busy seconds in [lo, hi] of one channel's ``(start, end)`` history."""
    return ChannelHistory(intervals).busy


# Event kinds of the reference run, as its ``pops`` counts them.
END, UPDATE, INTEREST, COMPLETE, ARRIVAL = "end", "update", "interest", "complete", "arrival"
SIZE_BITS = {protocol.INTEREST: protocol.INTEREST_SIZE_BITS, protocol.DATA: protocol.DATA_SIZE_BITS}


@dataclass
class ReferencePacket:
    """A packet of the reference run; ``hop`` indexes the node it sits at or flies to."""

    packet_id: int
    kind: str
    prefix_id: int
    chunk_index: int
    nodes: tuple[int, ...]
    created_s: float
    terminated_s: float | None = None
    outcome: str = protocol.UNTERMINATED
    hop: int = 0


class ReferenceRun(NamedTuple):
    times: list[float]                        # one per path update
    rows: list[list[float]]                   # each update's loads in Mbps, by channel id
    packets: list[ReferencePacket]            # in creation order, which numbers them
    history: list[list[tuple[float, float]]]  # each channel's (start, end) transmissions
    pops: Counter                             # events popped, by kind
    inlinable: int                            # zero-delay arrivals with nothing else due then


def reference_run(config, topology, interests):
    """The documented model, simulated naively; a ``ReferenceRun``.

    Every arrival is an event of its own on one ``HeapQueue``, seeded with
    the end of the run, the first path update and then the interests in the
    given order. Update i runs at ``i / path_updates_per_s`` and logs every
    channel's load over the window before it from the channel's whole
    history, clamped at its capacity; the costs ``1 / max(capacity - load,
    epsilon)`` of the latest update price the first k paths of exhaustive
    enumeration for each interest. Single mode sends every chunk on the first
    path, multi mode deals the chunks round-robin. Each channel serializes
    the head of a FIFO buffer of ``buffer_packets`` packets, the one on the
    wire included, and drops a packet that finds it full. A completion
    schedules the arrival, then starts the next transmission. An interest at
    its anchor is answered by a data chunk on the reversed route that keeps
    the interest's creation time.
    """
    channels = topology.channels
    link = {(ch.from_node, ch.to_node): ch for ch in channels}
    buffers = [deque() for _ in channels]
    histories = [ChannelHistory() for _ in channels]
    delay = config.propagation_delay_s
    window = config.load_window_s
    packets, times, rows = [], [], []
    costs = None
    inlinable = 0
    queue = HeapQueue()
    queue.schedule(config.horizon_s, END)
    queue.schedule(0.0, UPDATE, 0)
    for interest in interests:
        queue.schedule(interest.time_s, INTEREST, interest)

    def transmit(ch, now):
        end = now + SIZE_BITS[buffers[ch.channel_id][0].kind] / (ch.capacity_mbps * 1e6)
        histories[ch.channel_id].append(now, end)
        queue.schedule(end, COMPLETE, ch)

    def forward(packet, now):
        ch = link[packet.nodes[packet.hop], packet.nodes[packet.hop + 1]]
        packet.hop += 1
        buffer = buffers[ch.channel_id]
        if len(buffer) >= config.buffer_packets:
            packet.outcome, packet.terminated_s = protocol.DROPPED, now
            return
        buffer.append(packet)
        if len(buffer) == 1:
            transmit(ch, now)

    def send(now, *fields):
        packets.append(ReferencePacket(len(packets), *fields))
        forward(packets[-1], now)

    while True:
        now, _, kind, payload = queue.pop()
        if kind == END:
            break
        if kind == UPDATE:
            row = [min(ch.capacity_mbps, ch.capacity_mbps * past.busy(now - window, now) / window)
                   for ch, past in zip(channels, histories)]
            times.append(now)
            rows.append(row)
            costs = [1.0 / max(ch.capacity_mbps - load, config.epsilon_mbps)
                     for ch, load in zip(channels, row)]
            queue.schedule((payload + 1) / config.path_updates_per_s, UPDATE, payload + 1)
        elif kind == INTEREST:
            prefix = topology.prefixes[payload.prefix_id]
            ranked = brute_force_k_paths(topology, costs, payload.consumer, prefix.anchors, config.k)
            paths = [nodes for _, nodes in ranked]
            if config.mode == protocol.MODE_SINGLE:
                paths = paths[:1]
            for chunk in range(prefix.size_mb // protocol.CHUNK_SIZE_MB):
                send(now, protocol.INTEREST, prefix.prefix_id, chunk, paths[chunk % len(paths)], now)
        elif kind == COMPLETE:
            buffer = buffers[payload.channel_id]
            packet = buffer.popleft()
            if not delay and queue.idle_at_clock():
                inlinable += 1
            queue.schedule(now + delay, ARRIVAL, packet)
            if buffer:
                transmit(payload, now)
        else:
            packet = payload
            if packet.hop < len(packet.nodes) - 1:
                forward(packet, now)
                continue
            packet.outcome, packet.terminated_s = protocol.DELIVERED, now
            if packet.kind == protocol.INTEREST:
                send(now, protocol.DATA, packet.prefix_id, packet.chunk_index, packet.nodes[::-1],
                     packet.created_s)
    return ReferenceRun(times, rows, packets, [past.intervals for past in histories], queue.pops,
                        inlinable)


def exact_sum(values):
    """The float nearest the exact sum of ``values``, computed in rationals."""
    return float(sum(map(Fraction, values), Fraction(0)))


def check_conservation(records):
    """Conservation audit over one run's packet records.

    Verifies records are in strictly increasing packet-id order, outcome
    counts reconcile, every data packet pairs with exactly one anchor-delivered
    interest (same prefix and chunk, reversed route), and terminal timestamps
    are consistent.
    """
    ids = [r.packet_id for r in records]
    assert all(a < b for a, b in zip(ids, ids[1:])), "records must be in packet-id order"
    outcomes = Counter(r.outcome for r in records)
    assert sum(outcomes.values()) == len(records)
    assert set(outcomes) <= {protocol.DELIVERED, protocol.DROPPED, protocol.UNTERMINATED}

    interests = [r for r in records if r.kind == protocol.INTEREST]
    data = [r for r in records if r.kind == protocol.DATA]
    assert len(interests) + len(data) == len(records)

    def key(record, reverse_route):
        route = record.route.split("-")
        if reverse_route:
            route = route[::-1]
        return (record.prefix_id, record.chunk_index, record.created_s, "-".join(route))

    answered = Counter(key(r, False) for r in interests if r.outcome == protocol.DELIVERED)
    produced = Counter(key(r, True) for r in data)
    assert produced == answered, "data packets must pair 1:1 with anchor-delivered interests"

    for r in records:
        if r.outcome == protocol.UNTERMINATED:
            assert r.terminated_s is None
        else:
            assert r.terminated_s is not None and r.terminated_s >= r.created_s
    return outcomes
