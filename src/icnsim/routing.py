"""Load-aware channel costs and loopless k-shortest-path forwarding tables (FIB).

Path ranking is a Yen-style deviation search seeded by a best-first shortest
path over (cost, node-sequence) labels, so equal-cost paths always order
lexicographically by node sequence. The anchor set of a prefix acts as a
virtual sink: the k paths for one prefix may end at different anchors, and a
ranked path may pass through one anchor on its way to another.

The searches are A* searches. A prefix's lower bound is every node's
distance to its anchors under a floor view, a cost view that no table's view
undercuts on any channel; ``LowerBounds`` computes it once per prefix and
keeps it for every table that shares the floor. The bound is consistent for
any view that dominates the floor, since a channel's floor cost never exceeds
its cost in the view, and ``rebuild_tables`` rejects a view that does not. A
simulation run uses its idle costs as the floor: a channel's cost never falls
as its load rises, and no load is negative.

Spur searches are cut off. Once at least m candidates are pending, where m
is the number of paths still wanted, no path dearer than the m-th cheapest
candidate can be ranked, so a spur search gives up as soon as its lower bound
exceeds that cost. Only strict excess over the cost plus a relative slack is
cut: a path that ties the m-th candidate may still rank ahead of it by node
sequence, and the lower bound sums the rest of a path backwards from its
anchor, so where the view equals the floor, cost plus bound can exceed the
path's cost in the last bits.

Every search also cuts at its first pushed target. Labels pop in (cost plus
bound, node sequence) order and a search returns the first target it pops,
so once it has pushed a label ending at a target, no label dearer than that
one could pop before the search returns: the limit falls to that label's
cost plus bound. This needs neither the bound's consistency nor any slack,
only the pop order, and a label equal to the limit is kept, since it may pop
first by node sequence.
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

    ``idle`` is ``idle_costs(topology, epsilon_mbps)``. ``loads`` is a load
    row in Mbps, indexed by channel id like ``topology.channels``, such as a
    row of a run's load log. A channel with no load keeps its idle cost,
    which is exactly its cost under a load of 0.0.
    """
    costs = list(idle)
    channels = topology.channels
    for channel_id, load in enumerate(loads):
        if load:
            costs[channel_id] = channel_cost(channels[channel_id].capacity_mbps, load, epsilon_mbps)
    return tuple(costs)


def _dist_to_targets(topology, costs, targets):
    """Cheapest directed cost from every node to its nearest target.

    Reverse multi-source Dijkstra over incoming channels; under a floor view,
    the lower bound of the path search for every view that dominates it.
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


def _best_path(topology, costs, src, targets, bound, done, banned_first_hops, ban_trivial,
               root_cost, limit):
    """Cheapest loopless path from src to any target, ties by node sequence.

    Costs continue the left fold from ``root_cost``, the cost of the root
    ending at src, so the cost returned is the candidate's ranking cost.

    Best-first search over (cost + lower bound, node sequence) labels with
    settled-node pruning. ``bound`` holds each node's distance to the targets
    under a floor view that ``costs`` dominates channel by channel, so it is
    consistent: a node's bound exceeds neither a channel's floor cost plus the
    bound at its far end, nor therefore its cost in ``costs`` plus that bound.
    Costs are strictly positive, so the first label popped at each node is the
    minimal path to it under (cost, sequence), and settling nodes is sound:
    every node on a popped label's path is itself already settled, so a
    pruned alternative can never have been needed for looplessness.

    ``done`` is the settled set, which the search fills: the caller passes a
    fresh set of the nodes the path must avoid, src not among them. src is
    expanded before the loop, so the first-hop bans and the trivial path are
    checked once: with ``ban_trivial`` the single-node path is excluded (the
    search must leave src even when src is itself a target).

    No label whose cost plus lower bound exceeds ``limit`` enters the heap,
    and the search returns None once none is left. Pushing a label that ends
    at a target lowers ``limit`` to its cost plus bound: every dearer label
    would pop after it, and the search returns at the first target it pops.
    Labels within the limit pop in the same order as without it, so a path
    within the limit is found exactly as before; equality is never cut, so a
    tied label with a smaller node sequence still pops first.
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
    """Yen's ranking of the k cheapest loopless paths from src to targets.

    Returns the ranked ``(cost, nodes)`` pairs, cheapest first, ties by node
    sequence. The pending candidates are one list kept in that order, and
    ``seen`` keeps them unique, so the head is always the next to accept.

    With m = k - len(accepted) paths still wanted and at least m candidates
    pending, every path still to be accepted costs at most C_m, the cost of
    the m-th cheapest pending candidate. Each spur search continues the root's
    cost and gets the limit C_m * (1 + CUTOFF_SLACK) (inf while fewer than m
    are pending): a candidate beyond it could never be accepted, and since C_m
    never rises it could not be accepted later either. A candidate tying C_m
    is kept, because the node sequence breaks the tie; the slack covers the
    lower bound summing the rest of a path in another order.
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
    the pair (the prefix's anchors as a frozenset, every node's distance to
    them under ``floor``), computed at the first request and kept, so each
    prefix costs one reverse Dijkstra however many tables read it. The
    distances bound the search of every view that is at least ``floor`` on
    every channel.
    """

    def __init__(self, topology: Topology, floor: tuple[float, ...]):
        self.topology = topology
        self.floor = floor
        self._by_prefix: dict[int, tuple[frozenset[int], list[float]]] = {}

    def __getitem__(self, prefix_id: int) -> tuple[frozenset[int], list[float]]:
        entry = self._by_prefix.get(prefix_id)
        if entry is None:
            anchors = self.topology.prefixes[prefix_id].anchors
            entry = (frozenset(anchors), _dist_to_targets(self.topology, self.floor, anchors))
            self._by_prefix[prefix_id] = entry
        return entry


class RouteSet:
    """FIB: up to k cheapest anchor-bound paths per (node, prefix).

    Entries are computed on first use and cached. Each entry is a pure
    function of the frozen cost view, so lazy evaluation is indistinguishable
    from an eager rebuild. The searches read their lower bounds from
    ``bounds``, a ``LowerBounds`` whose floor the cost view dominates, and
    search its topology; the bound changes which labels a search visits,
    never the paths it returns.
    """

    def __init__(self, costs, k, bounds):
        self.costs = costs
        self.k = k
        self.bounds = bounds
        self._entries: dict[tuple[int, int], tuple[tuple[float, tuple[int, ...]], ...]] = {}

    def paths(self, node: int, prefix_id: int) -> tuple[tuple[float, tuple[int, ...]], ...]:
        """Up to k cheapest loopless paths from node ending at any anchor of the prefix.

        Each path is a ``(cost, nodes)`` pair, its cost summed hop by hop from
        node. Paths are ordered by ascending cost, ties by node sequence, so
        the pairs sort as they are ranked; fewer than k come back when fewer
        loopless paths exist, and none when node cannot reach an anchor. An
        anchor node gets its zero-cost single-node path first.
        """
        key = (node, prefix_id)
        entry = self._entries.get(key)
        if entry is None:
            anchors, bound = self.bounds[prefix_id]
            entry = tuple(_k_shortest(self.bounds.topology, self.costs, node, anchors, self.k, bound))
            self._entries[key] = entry
        return entry


def rebuild_tables(costs: tuple[float, ...], k: int, bounds: LowerBounds) -> tuple[RouteSet]:
    """A fresh FIB snapshot for one cost view, as a 1-tuple ``(RouteSet,)``.

    ``bounds`` supplies the topology, whose channel ids index ``costs``, and
    the searches' lower bounds. The bounds' floor must be at most ``costs``
    on every channel, which keeps the bound consistent for this view; a view
    below the floor anywhere raises ValueError, since the search could then
    return paths that are not the cheapest. A simulation run passes one
    ``LowerBounds`` over its idle costs to every table it builds.

    The tuple has one element only because the benchmark tracer in
    ``perfbench/spans.py`` reads ``result[0]``; it can return the
    ``RouteSet`` alone once the tracer stops doing so.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    floor = bounds.floor
    if len(costs) != len(floor) or not all(map(ge, costs, floor)):
        raise ValueError("costs must be at least the bounds' floor on every channel")
    return (RouteSet(costs, k, bounds),)
