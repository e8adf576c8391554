"""Load-aware channel costs and loopless k-shortest-path forwarding tables (FIB).

Paths are ranked by a Yen-style deviation search over (cost, node sequence)
labels, so equal-cost paths order by node sequence. A prefix's anchors act as
one virtual sink: its k paths may end at different anchors, and a path may
pass one anchor on its way to another. These invariants keep the ranking
exact:

Every search is A*. A prefix's lower bound h is every node's distance to its
anchors under a floor view, which ``LowerBounds`` computes once per prefix.
It is consistent for any view that is at least the floor on every channel,
h(u) <= floor(u, v) + h(v) <= cost(u, v) + h(v), and ``rebuild_tables``
rejects any other view. The bound changes which labels a search visits,
never the paths it ranks.

A search cuts at its first pushed target. Labels pop in (cost plus bound,
node sequence) order and a search returns the first target it pops, so once
it has pushed a label ending at a target, no dearer label can pop first: the
limit falls to that label's cost plus bound. This needs only the pop order;
a label equal to the limit is kept, since it may pop first by node sequence.

Spur searches are cut off too. With m paths still wanted and at least m
candidates pending, no path dearer than C_m, the m-th cheapest candidate,
can be ranked, now or later, since C_m never rises. A spur search gets the
limit C_m * (1 + CUTOFF_SLACK): a tie with C_m is kept, since node sequence
breaks it, and the slack covers the bound summing a path's rest backwards
from its anchor, which can exceed the path's cost in the last bits where the
view equals the floor.
"""

from __future__ import annotations

import heapq
from bisect import insort
from math import inf
from operator import ge

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

    ``idle`` is ``idle_costs(topology, epsilon_mbps)``; ``loads`` is a load row
    in Mbps, such as a run's. A channel with no load keeps its idle cost,
    exactly its cost under a load of 0.0.
    """
    costs = list(idle)
    channels = topology.channels
    for channel_id, load in enumerate(loads):
        if load:
            costs[channel_id] = channel_cost(channels[channel_id].capacity_mbps, load, epsilon_mbps)
    return tuple(costs)


def _dist_to_targets(topology, costs, targets):
    """Cheapest directed cost from every node to its nearest target, by reverse Dijkstra."""
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


def _best_path(topology, costs, src, targets, bound, done, banned_first_hops, ban_trivial,
               root_cost, limit):
    """Cheapest loopless ``(cost, nodes)`` from src to any target within ``limit``, or None.

    Costs continue the fold from ``root_cost``, the cost of the root ending
    at src, so the cost returned ranks the candidate. ``bound`` is consistent
    and costs are positive (see the module docstring), so the first label
    popped at a node is its minimal path under (cost, sequence): settling it
    is sound, and every node on a popped path is already settled, so no pruned
    alternative was needed for looplessness.

    ``done``, the settled set, starts as the nodes the path must avoid, src
    not among them. src is expanded before the loop, so the first-hop bans
    and ``ban_trivial`` (leave src even when it is a target) are checked once.
    """
    f = root_cost + bound[src]
    if f == inf or f > limit or src in done:
        return None
    if src in targets and not ban_trivial:
        return root_cost, (src,)
    adjacency = topology.adjacency
    done.add(src)
    heap = []
    path = (src,)
    for nbr, ch in adjacency[src]:
        if nbr in done or nbr in banned_first_hops:
            continue
        hb = bound[nbr]
        if hb == inf:
            continue
        ng = root_cost + costs[ch]
        f = ng + hb
        if f > limit:
            continue
        heapq.heappush(heap, (f, path + (nbr,), ng))
        if nbr in targets:
            limit = f
    while heap:
        _, path, g = heapq.heappop(heap)
        node = path[-1]
        if node in done:
            continue
        if node in targets:
            return g, path
        done.add(node)
        for nbr, ch in adjacency[node]:
            if nbr in done:
                continue
            hb = bound[nbr]
            if hb == inf:
                continue
            ng = g + costs[ch]
            f = ng + hb
            if f > limit:
                continue
            heapq.heappush(heap, (f, path + (nbr,), ng))
            if nbr in targets:
                limit = f
    return None


def _k_shortest(topology, costs, src, targets, k, bound):
    """Yen's ranking of the k cheapest loopless ``(cost, nodes)`` pairs from src to targets.

    The pending candidates are one list kept in ranked order and, by
    ``seen``, unique, so its head is always the next to accept. Spur searches
    get the cut-off that the module docstring derives, inf while fewer than
    the wanted number are pending.
    """
    first = _best_path(topology, costs, src, targets, bound, set(), (), False, 0.0, inf)
    if first is None:
        return []
    accepted = [first]
    candidates: list[tuple[float, tuple[int, ...]]] = []
    seen = {first[1]}
    while len(accepted) < k:
        _, base = accepted[-1]
        wanted = k - len(accepted)
        ceiling = inf
        if len(candidates) >= wanted:
            ceiling = candidates[wanted - 1][0] * (1 + CUTOFF_SLACK)
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
            found = _best_path(topology, costs, spur, targets, bound, set(base[:j]), banned_hops,
                               ban_trivial, root_cost, ceiling)
            if found is None:
                continue
            candidate = base[:j] + found[1]
            if candidate in seen:
                continue
            seen.add(candidate)
            insort(candidates, (found[0], candidate))
            if len(candidates) >= wanted:
                ceiling = candidates[wanted - 1][0] * (1 + CUTOFF_SLACK)
        if not candidates:
            break
        accepted.append(candidates.pop(0))
    return accepted


class LowerBounds:
    """Per-prefix lower bounds of the path search under one floor view.

    ``floor`` is a cost view indexed by channel id. ``bounds[prefix_id]`` is
    (the prefix's anchors as a frozenset, every node's distance to them under
    ``floor``), computed at the first request and kept for every table. To
    rank paths under one view alone, pass that view as the floor.
    ``searches`` counts the reverse Dijkstras run so far.
    """

    def __init__(self, topology: Topology, floor: tuple[float, ...]):
        self.topology = topology
        self.floor = floor
        self._by_prefix: dict[int, tuple[frozenset[int], list[float]]] = {}
        self.searches = 0

    def __getitem__(self, prefix_id: int) -> tuple[frozenset[int], list[float]]:
        entry = self._by_prefix.get(prefix_id)
        if entry is None:
            self.searches += 1
            anchors = self.topology.prefixes[prefix_id].anchors
            entry = (frozenset(anchors), _dist_to_targets(self.topology, self.floor, anchors))
            self._by_prefix[prefix_id] = entry
        return entry


class RouteSet:
    """FIB for one cost view: up to k cheapest anchor-bound paths per (node, prefix).

    Entries are computed at first use and cached; each is a pure function of
    the frozen view, so laziness is indistinguishable from an eager rebuild.
    The searches read their topology and lower bounds from ``bounds``;
    ``searches`` counts the ones run so far.
    """

    def __init__(self, costs, k, bounds):
        self.costs = costs
        self.k = k
        self.bounds = bounds
        self._entries: dict[tuple[int, int], tuple[tuple[float, tuple[int, ...]], ...]] = {}
        self.searches = 0

    def paths(self, node: int, prefix_id: int) -> tuple[tuple[float, tuple[int, ...]], ...]:
        """Up to k cheapest loopless ``(cost, nodes)`` pairs from node to any anchor of the prefix.

        Costs sum hop by hop from node. The pairs come sorted, ties by node
        sequence; fewer when fewer loopless paths exist, none when no anchor is
        reachable. An anchor node gets its zero-cost single-node path first.
        """
        key = (node, prefix_id)
        entry = self._entries.get(key)
        if entry is None:
            self.searches += 1
            anchors, bound = self.bounds[prefix_id]
            entry = tuple(_k_shortest(self.bounds.topology, self.costs, node, anchors, self.k, bound))
            self._entries[key] = entry
        return entry


def rebuild_tables(costs: tuple[float, ...], k: int, bounds: LowerBounds) -> tuple[RouteSet]:
    """A FIB for one cost view, as the 1-tuple ``(RouteSet,)``.

    ``costs`` is indexed by the channel ids of ``bounds.topology``. Raises
    ValueError for k below 1, or for costs of another length or below
    ``bounds.floor`` on any channel, where the bound would not be consistent.
    A 1-tuple only because the benchmark tracer reads ``result[0]``.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    floor = bounds.floor
    if len(costs) != len(floor) or not all(map(ge, costs, floor)):
        raise ValueError("costs must be at least the bounds' floor on every channel")
    return (RouteSet(costs, k, bounds),)
