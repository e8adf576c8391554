"""Load-aware channel costs and loopless k-shortest-path tables (FIB/RIB).

Path ranking is a Yen-style deviation search seeded by a best-first shortest
path over (cost, node-sequence) labels, so equal-cost paths always order
lexicographically by node sequence. The anchor set of a prefix acts as a
virtual sink: the k paths for one prefix may end at different anchors, and a
ranked path may pass through one anchor on its way to another.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import inf

from .topology import Topology

EPSILON_MBPS = 1.0


def channel_cost(capacity_mbps: float, load_mbps: float, epsilon_mbps: float = EPSILON_MBPS) -> float:
    """Cost of one channel direction under the given measured load."""
    residual = capacity_mbps - load_mbps
    if residual < epsilon_mbps:
        residual = epsilon_mbps  # saturation clamp keeps the cost finite
    return 1.0 / residual


@dataclass(frozen=True)
class CostView:
    """Per-channel costs at one instant, indexed by channel id."""

    time_s: float
    costs: tuple[float, ...]


def compute_cost_view(topology: Topology, loads, time_s: float,
                      epsilon_mbps: float = EPSILON_MBPS) -> CostView:
    """Snapshot channel costs; ``loads`` maps a channel id to Mbps."""
    costs = [0.0] * len(topology.channels)
    for ch in topology.channels:
        costs[ch.channel_id] = channel_cost(ch.capacity_mbps, loads(ch.channel_id), epsilon_mbps)
    return CostView(time_s, tuple(costs))


@dataclass(frozen=True)
class RoutePath:
    """Loopless path from a consumer to an anchor."""

    nodes: tuple[int, ...]
    cost: float


def _dist_to_targets(topology, costs, targets):
    """Cheapest directed cost from every node to its nearest target.

    Reverse multi-source Dijkstra over incoming channels; used both as the RIB
    distance table and as an exact lower bound for the path search.
    """
    dist = [inf] * len(topology.nodes)
    heap = []
    for t in targets:
        dist[t] = 0.0
        heap.append((0.0, t))
    heapq.heapify(heap)
    adjacency_in = topology.adjacency_in
    cost = costs.costs
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for u, ch in adjacency_in[v]:
            nd = d + cost[ch]
            if nd < dist[u]:
                dist[u] = nd
                heapq.heappush(heap, (nd, u))
    return dist


def _best_path(topology, costs, src, targets, bound, banned_nodes, banned_first_hops, ban_trivial):
    """Cheapest loopless path from src to any target, ties by node sequence.

    Best-first search over (cost + lower bound, node sequence) labels with
    settled-node pruning. Costs are strictly positive and the bound is
    consistent, so the first label popped at each node is the minimal path to
    it under (cost, sequence), and settling nodes is sound: every node on a
    popped label's path is itself already settled, so a pruned alternative can
    never have been needed for looplessness. With ``ban_trivial`` the
    single-node path is excluded (the search must leave src even when src is
    itself a target).
    """
    if bound[src] == inf or src in banned_nodes:
        return None
    cost = costs.costs
    adjacency = topology.adjacency
    done = set(banned_nodes)
    heap = [(bound[src], (src,), 0.0)]
    while heap:
        _, path, g = heapq.heappop(heap)
        node = path[-1]
        if node in done:
            continue
        if node in targets and not (ban_trivial and len(path) == 1):
            return g, path
        done.add(node)
        first_hop = len(path) == 1
        for nbr, ch in adjacency[node]:
            if nbr in done:
                continue
            if first_hop and nbr in banned_first_hops:
                continue
            hb = bound[nbr]
            if hb == inf:
                continue
            ng = g + cost[ch]
            heapq.heappush(heap, (ng + hb, path + (nbr,), ng))
    return None


def _path_cost(topology, costs, nodes):
    # Left fold in node order; candidate costs must sum exactly like a
    # root-to-leaf enumeration so tie-breaking stays reproducible.
    cost = costs.costs
    g = 0.0
    for a, b in zip(nodes, nodes[1:]):
        g += cost[topology.channel(a, b).channel_id]
    return g


def _k_shortest(topology, costs, src, targets, k, bound):
    first = _best_path(topology, costs, src, targets, bound, (), (), False)
    if first is None:
        return []
    accepted = [(first[0], first[1])]
    candidates: list[tuple[float, tuple[int, ...]]] = []
    seen = {first[1]}
    while len(accepted) < k:
        _, base = accepted[-1]
        for j in range(len(base)):
            spur = base[j]
            root = base[: j + 1]
            banned_hops = set()
            ban_trivial = False
            for _, nodes in accepted:
                if nodes[: j + 1] == root:
                    if len(nodes) > j + 1:
                        banned_hops.add(nodes[j + 1])
                    else:
                        ban_trivial = True
            found = _best_path(topology, costs, spur, targets, bound,
                               frozenset(root[:-1]), banned_hops, ban_trivial)
            if found is None:
                continue
            candidate = root[:-1] + found[1]
            if candidate in seen:
                continue
            seen.add(candidate)
            heapq.heappush(candidates, (_path_cost(topology, costs, candidate), candidate))
        if not candidates:
            break
        accepted.append(heapq.heappop(candidates))
    return [RoutePath(nodes, cost) for cost, nodes in accepted]


def k_shortest_paths(topology: Topology, costs: CostView, src: int, targets, k: int) -> list[RoutePath]:
    """Up to k cheapest loopless paths from src ending at any target.

    Results are ordered by ascending cost, ties by node sequence; fewer than k
    paths are returned when fewer loopless paths exist, and an empty list when
    src cannot reach any target. A src that is itself a target yields the
    zero-cost single-node path first.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    target_set = frozenset(targets)
    if not target_set:
        raise ValueError("targets must be non-empty")
    return _k_shortest(topology, costs, src, target_set, k, _dist_to_targets(topology, costs, target_set))


class RouteSet:
    """FIB: up to k cheapest anchor-bound paths per (node, prefix).

    Entries are computed on first use and cached. Each entry is a pure
    function of the frozen cost view, so lazy evaluation is indistinguishable
    from an eager rebuild.
    """

    def __init__(self, topology, costs, k):
        self.topology = topology
        self.costs = costs
        self.k = k
        self._entries: dict[tuple[int, int], tuple[RoutePath, ...]] = {}
        self._bounds: dict[int, list[float]] = {}

    def _bound(self, prefix_id):
        bound = self._bounds.get(prefix_id)
        if bound is None:
            anchors = self.topology.prefixes[prefix_id].anchors
            bound = _dist_to_targets(self.topology, self.costs, anchors)
            self._bounds[prefix_id] = bound
        return bound

    def paths(self, node: int, prefix_id: int) -> tuple[RoutePath, ...]:
        key = (node, prefix_id)
        entry = self._entries.get(key)
        if entry is None:
            anchors = frozenset(self.topology.prefixes[prefix_id].anchors)
            entry = tuple(_k_shortest(self.topology, self.costs, node, anchors,
                                      self.k, self._bound(prefix_id)))
            self._entries[key] = entry
        return entry


class Rib:
    """Per (node, prefix) anchors ordered by shortest-path distance."""

    def __init__(self, topology, costs):
        self.topology = topology
        self.costs = costs
        self._per_anchor: dict[int, list[float]] = {}

    def _dist(self, anchor):
        dist = self._per_anchor.get(anchor)
        if dist is None:
            dist = _dist_to_targets(self.topology, self.costs, (anchor,))
            self._per_anchor[anchor] = dist
        return dist

    def anchors(self, node: int, prefix_id: int) -> tuple[tuple[int, float], ...]:
        """(anchor, distance) pairs ascending by distance, then anchor id."""
        ranked = sorted((self._dist(a)[node], a) for a in self.topology.prefixes[prefix_id].anchors
                        if self._dist(a)[node] < inf)
        return tuple((a, d) for d, a in ranked)


def rebuild_tables(topology: Topology, costs: CostView, k: int) -> tuple[RouteSet, Rib]:
    """Fresh FIB/RIB snapshots for one cost view."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return RouteSet(topology, costs, k), Rib(topology, costs)
