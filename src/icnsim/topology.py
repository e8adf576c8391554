"""Random connected network topologies with full-duplex, capacity-annotated links."""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field

CAPACITY_MIN_MBPS = 512.0
CAPACITY_MAX_MBPS = 2048.0
DATA_OBJECT_SIZES_MB = (8, 16, 24, 32, 40, 48, 56, 64)
MAX_ANCHORS = 3


class NoChannelError(KeyError):
    """Channel lookup between nodes that share no link."""


@dataclass(frozen=True)
class Channel:
    """One direction of a full-duplex link."""

    channel_id: int
    from_node: int
    to_node: int
    capacity_mbps: float


@dataclass(frozen=True)
class Prefix:
    """Handle of one data object and the anchor nodes that serve it."""

    prefix_id: int
    size_mb: int
    anchors: tuple[int, ...]


@dataclass
class Topology:
    """Static network graph; treat as immutable once built.

    ``adjacency[u]`` lists outgoing ``(neighbor, channel_id)`` pairs sorted by
    neighbor, ``adjacency_in[v]`` the incoming ones, so that iteration order is
    deterministic for a given topology.
    """

    nodes: tuple[int, ...]
    channels: tuple[Channel, ...]
    prefixes: tuple[Prefix, ...]
    adjacency: list[list[tuple[int, int]]] = field(init=False, repr=False)
    adjacency_in: list[list[tuple[int, int]]] = field(init=False, repr=False)
    _by_pair: dict[tuple[int, int], Channel] = field(init=False, repr=False)

    def __post_init__(self):
        n = len(self.nodes)
        out: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        inc: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        by_pair: dict[tuple[int, int], Channel] = {}
        for ch in self.channels:
            out[ch.from_node].append((ch.to_node, ch.channel_id))
            inc[ch.to_node].append((ch.from_node, ch.channel_id))
            by_pair[(ch.from_node, ch.to_node)] = ch
        for rows in (out, inc):
            for row in rows:
                row.sort()
        self.adjacency = out
        self.adjacency_in = inc
        self._by_pair = by_pair

    def channel(self, a: int, b: int) -> Channel:
        try:
            return self._by_pair[(a, b)]
        except KeyError:
            raise NoChannelError(f"no channel {a}->{b}") from None


def make_topology(node_count, edges, prefixes) -> Topology:
    """Build and validate a topology from undirected (u, v, capacity) edges.

    Each edge becomes a pair of directed channels with equal capacity; channel
    ids follow edge order (edge i -> channels 2i and 2i+1). Prefix ids must
    be their positions in ``prefixes``.
    """
    if node_count < 2:
        raise ValueError("a topology needs at least 2 nodes")
    seen_pairs = set()
    channels = []
    for i, (u, v, capacity) in enumerate(edges):
        if u == v:
            raise ValueError(f"self-loop at node {u}")
        if not (0 <= u < node_count and 0 <= v < node_count):
            raise ValueError(f"edge ({u},{v}) outside node range")
        pair = (min(u, v), max(u, v))
        if pair in seen_pairs:
            raise ValueError(f"parallel edge {pair}")
        seen_pairs.add(pair)
        if not CAPACITY_MIN_MBPS <= capacity <= CAPACITY_MAX_MBPS:
            raise ValueError(f"capacity {capacity} outside [{CAPACITY_MIN_MBPS}, {CAPACITY_MAX_MBPS}] Mbps")
        channels.append(Channel(2 * i, u, v, capacity))
        channels.append(Channel(2 * i + 1, v, u, capacity))
    if not _connected(node_count, seen_pairs):
        raise ValueError("graph is not connected")
    for i, p in enumerate(prefixes):
        if p.prefix_id != i:
            # The engine and routing look prefixes up by position.
            raise ValueError(f"prefix {p.prefix_id} is at position {i}; prefix ids must be 0, 1, ...")
        if not p.anchors:
            raise ValueError(f"prefix {p.prefix_id} has no anchors")
        if any(not 0 <= a < node_count for a in p.anchors):
            raise ValueError(f"prefix {p.prefix_id} anchored outside node range")
        if p.size_mb <= 0 or p.size_mb % DATA_OBJECT_SIZES_MB[0]:
            raise ValueError(f"prefix {p.prefix_id} size {p.size_mb} MB is not a positive chunk multiple")
    return Topology(tuple(range(node_count)), tuple(channels), tuple(prefixes))


def generate_topology(node_count, edge_count, prefix_count, rng: random.Random) -> Topology:
    """Random connected topology with anchored prefixes.

    A uniform random spanning tree guarantees connectivity; the remaining
    edges are drawn uniformly from the non-edges. Capacities are uniform in
    [512, 2048] Mbps, object sizes uniform over the 8 MB multiples up to
    64 MB, and each prefix gets 1-3 distinct anchors (fewer on tiny graphs so
    that a non-anchor consumer always exists).
    """
    if node_count < 2:
        raise ValueError("node_count must be at least 2")
    if prefix_count < 1:
        raise ValueError("prefix_count must be at least 1")
    max_edges = node_count * (node_count - 1) // 2
    if not node_count - 1 <= edge_count <= max_edges:
        raise ValueError(
            f"edge_count {edge_count} infeasible for {node_count} nodes "
            f"(must be in [{node_count - 1}, {max_edges}])")

    tree = _random_tree_edges(node_count, rng)
    chosen = set(tree)
    non_edges = [(a, b) for a in range(node_count) for b in range(a + 1, node_count)
                 if (a, b) not in chosen]
    extra = rng.sample(non_edges, edge_count - len(tree))
    edges = [(u, v, rng.uniform(CAPACITY_MIN_MBPS, CAPACITY_MAX_MBPS)) for u, v in tree + extra]

    max_anchors = min(MAX_ANCHORS, node_count - 1)
    prefixes = []
    for pid in range(prefix_count):
        anchors = tuple(sorted(rng.sample(range(node_count), rng.randint(1, max_anchors))))
        prefixes.append(Prefix(pid, rng.choice(DATA_OBJECT_SIZES_MB), anchors))
    return make_topology(node_count, edges, prefixes)


def _random_tree_edges(n, rng):
    # Uniform random labeled tree: decode a random Pruefer sequence, always
    # consuming the smallest available leaf so decoding is deterministic.
    if n == 2:
        return [(0, 1)]
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return edges


def _connected(n, pairs):
    if n == 0:
        return True
    neighbors: list[list[int]] = [[] for _ in range(n)]
    for a, b in pairs:
        neighbors[a].append(b)
        neighbors[b].append(a)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in neighbors[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n
