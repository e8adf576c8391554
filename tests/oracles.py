"""Independent reference implementations used to cross-check the package.

Nothing here may call into the code paths it verifies: paths come from
exhaustive DFS enumeration, shortest paths from a textbook predecessor-array
Dijkstra, event order from a plain heap, window busy time from a channel's
whole transmission history, correctly rounded sums from exact rational
arithmetic, and the conservation audit works purely on packet records.
"""

from __future__ import annotations

import heapq
import random
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from math import inf

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

    It has the interface of ``engine.EventQueue`` and counts its pops by
    event kind. Its ``idle_at_clock`` always answers False, so an engine run
    on it queues every arrival instead of handling one in place;
    ``inlinable`` counts the queries that ``EventQueue`` would have answered
    True.
    """

    def __init__(self):
        self._heap = []
        self._seq = 0
        self.clock = 0.0
        self.pops = Counter()
        self.inlinable = 0

    def __len__(self):
        return len(self._heap)

    def schedule(self, time, kind, payload=None):
        assert time >= self.clock
        heapq.heappush(self._heap, (time, self._seq, kind, payload))
        self._seq += 1

    def idle_at_clock(self):
        if all(time > self.clock for time, *_ in self._heap):
            self.inlinable += 1
        return False

    def pop(self):
        event = heapq.heappop(self._heap)
        self.clock = event[0]
        self.pops[event[2]] += 1
        return event


def history_busy_seconds(intervals):
    """``busy(lo, hi)``: busy seconds in [lo, hi] of one channel's transmissions.

    ``intervals`` is the channel's whole history of back-to-back
    ``(start, end)`` transmissions in order. The busy time before each start
    is a running total, a left fold in transmission order, and each bound is
    found by bisecting the starts.
    """
    starts = [start for start, _ in intervals]
    before = list(accumulate((end - start for start, end in intervals), initial=0.0))

    def busy_until(t):
        i = bisect_right(starts, t) - 1
        if i < 0:
            return 0.0
        start, end = intervals[i]
        return before[i] + max(0.0, min(t, end) - start)

    return lambda lo, hi: busy_until(hi) - busy_until(lo)


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
