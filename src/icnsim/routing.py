"""Load-aware channel costs and loopless k-shortest-path forwarding tables (FIB).

Path ranking is a Yen-style deviation search seeded by a best-first shortest
path over (cost, node-sequence) labels, so equal-cost paths always order
lexicographically by node sequence. The anchor set of a prefix acts as a
virtual sink: the k paths for one prefix may end at different anchors, and a
ranked path may pass through one anchor on its way to another.

Spur searches are cut off. Once at least m candidates are pending, where m
is the number of paths still wanted, no path dearer than the m-th cheapest
candidate can be ranked, so a spur search gives up as soon as its lower bound
exceeds that cost. Only strict excess over the cost plus a relative slack is
cut: a path that ties the m-th candidate may still rank ahead of it by node
sequence, and the search sums a path's cost in another order than the ranking
does, so the two sums of one path can differ in the last bits.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import inf

from .topology import Topology

# Relative slack of the spur-search cut-off; far above the rounding of a path
# cost summed in two orders, far below any real cost difference.
CUTOFF_SLACK = 1e-9


def channel_cost(capacity_mbps: float, load_mbps: float, epsilon_mbps: float) -> float:
    """Cost of one channel direction under the given measured load."""
    residual = capacity_mbps - load_mbps
    if residual < epsilon_mbps:
        residual = epsilon_mbps  # saturation clamp keeps the cost finite
    return 1.0 / residual


def idle_costs(topology: Topology, epsilon_mbps: float) -> tuple[float, ...]:
    """Every channel's cost under a load of exactly 0.0, indexed by channel id."""
    costs = [0.0] * len(topology.channels)
    for ch in topology.channels:
        costs[ch.channel_id] = channel_cost(ch.capacity_mbps, 0.0, epsilon_mbps)
    return tuple(costs)


def compute_cost_view(topology: Topology, idle: tuple[float, ...], loads,
                      epsilon_mbps: float) -> tuple[float, ...]:
    """Cost view: every channel's cost under ``loads``, indexed by channel id.

    ``idle`` is ``idle_costs(topology, epsilon_mbps)``. ``loads`` holds
    ``(channel_id, Mbps)`` pairs in any order, and channel ids are positions
    in ``topology.channels``. Each channel not named keeps its idle cost,
    which is exactly its cost under a load of 0.0.
    """
    costs = list(idle)
    channels = topology.channels
    for channel_id, load in loads:
        costs[channel_id] = channel_cost(channels[channel_id].capacity_mbps, load, epsilon_mbps)
    return tuple(costs)


@dataclass(frozen=True)
class RoutePath:
    """Loopless path from a consumer to an anchor."""

    nodes: tuple[int, ...]
    cost: float


def _dist_to_targets(topology, costs, targets):
    """Cheapest directed cost from every node to its nearest target.

    Reverse multi-source Dijkstra over incoming channels; the exact lower
    bound of the path search.
    """
    dist = [inf] * len(topology.nodes)
    heap = []
    for t in targets:
        dist[t] = 0.0
        heap.append((0.0, t))
    heapq.heapify(heap)
    adjacency_in = topology.adjacency_in
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for u, ch in adjacency_in[v]:
            nd = d + costs[ch]
            if nd < dist[u]:
                dist[u] = nd
                heapq.heappush(heap, (nd, u))
    return dist


def _best_path(topology, costs, src, targets, bound, banned_nodes, banned_first_hops, ban_trivial,
               limit):
    """Cheapest loopless path from src to any target, ties by node sequence.

    Best-first search over (cost + lower bound, node sequence) labels with
    settled-node pruning. Costs are strictly positive and the bound is
    consistent, so the first label popped at each node is the minimal path to
    it under (cost, sequence), and settling nodes is sound: every node on a
    popped label's path is itself already settled, so a pruned alternative can
    never have been needed for looplessness. With ``ban_trivial`` the
    single-node path is excluded (the search must leave src even when src is
    itself a target).

    No label whose cost plus lower bound exceeds ``limit`` enters the heap,
    and the search returns None once none is left. Labels within the limit pop
    in the same order as without it, so a path within the limit is found
    exactly as before; equality is never cut.
    """
    f = bound[src]
    if f == inf or f > limit or src in banned_nodes:
        return None
    adjacency = topology.adjacency
    done = set(banned_nodes)
    heap = [(f, (src,), 0.0)]
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
            ng = g + costs[ch]
            f = ng + hb
            if f > limit:
                continue
            heapq.heappush(heap, (f, path + (nbr,), ng))
    return None


def _path_cost(topology, costs, nodes):
    # Left fold in node order; candidate costs must sum exactly like a
    # root-to-leaf enumeration so tie-breaking stays reproducible.
    g = 0.0
    for a, b in zip(nodes, nodes[1:]):
        g += costs[topology.channel(a, b).channel_id]
    return g


def _k_shortest(topology, costs, src, targets, k, bound):
    """Yen's ranking of the k cheapest loopless paths from src to targets.

    With m = k - len(accepted) paths still wanted and at least m candidates
    pending, every path still to be accepted costs at most C_m, the cost of
    the m-th cheapest pending candidate. The spur search from a root of cost r
    then gets the limit C_m * (1 + CUTOFF_SLACK) - r (inf while fewer than m
    are pending): a spur beyond it could never be accepted, and since C_m
    never rises it could not be accepted later either. A spur tying C_m is
    kept, because the node sequence breaks the tie.
    """
    first = _best_path(topology, costs, src, targets, bound, (), (), False, inf)
    if first is None:
        return []
    accepted = [(first[0], first[1])]
    candidates: list[tuple[float, tuple[int, ...]]] = []
    seen = {first[1]}
    while len(accepted) < k:
        _, base = accepted[-1]
        wanted = k - len(accepted)
        ceiling = inf
        if len(candidates) >= wanted:
            ceiling = heapq.nsmallest(wanted, candidates)[-1][0] * (1 + CUTOFF_SLACK)
        root_cost = 0.0
        for j in range(len(base)):
            spur = base[j]
            if j:
                root_cost += costs[topology.channel(base[j - 1], spur).channel_id]
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
                               frozenset(root[:-1]), banned_hops, ban_trivial, ceiling - root_cost)
            if found is None:
                continue
            candidate = root[:-1] + found[1]
            if candidate in seen:
                continue
            seen.add(candidate)
            heapq.heappush(candidates, (_path_cost(topology, costs, candidate), candidate))
            if len(candidates) >= wanted:
                ceiling = heapq.nsmallest(wanted, candidates)[-1][0] * (1 + CUTOFF_SLACK)
        if not candidates:
            break
        accepted.append(heapq.heappop(candidates))
    return [RoutePath(nodes, cost) for cost, nodes in accepted]


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
        """Up to k cheapest loopless paths from node ending at any anchor of the prefix.

        Paths are ordered by ascending cost, ties by node sequence; fewer than
        k come back when fewer loopless paths exist, and none when node cannot
        reach an anchor. An anchor node gets its zero-cost single-node path
        first.
        """
        key = (node, prefix_id)
        entry = self._entries.get(key)
        if entry is None:
            anchors = frozenset(self.topology.prefixes[prefix_id].anchors)
            entry = tuple(_k_shortest(self.topology, self.costs, node, anchors,
                                      self.k, self._bound(prefix_id)))
            self._entries[key] = entry
        return entry


def rebuild_tables(topology: Topology, costs: tuple[float, ...], k: int) -> tuple[RouteSet]:
    """A fresh FIB snapshot for one cost view, as a 1-tuple ``(RouteSet,)``.

    The tuple has one element only because the benchmark tracer in
    ``perfbench/spans.py`` reads ``result[0]``; it can return the
    ``RouteSet`` alone once the tracer stops doing so.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    return (RouteSet(topology, costs, k),)
