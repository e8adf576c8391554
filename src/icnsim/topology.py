"""Random connected network topologies with full-duplex, capacity-annotated links."""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from functools import cached_property

from .protocol import CHUNK_SIZE_MB

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
    """Handle of one data object and the anchor nodes that serve it.

    The object is split into whole chunks, so a size that is not a positive
    multiple of ``CHUNK_SIZE_MB`` raises ValueError. ``chunk_names`` holds
    each chunk's ``(prefix_id, chunk_index)`` name, in chunk order, made at
    first read and then kept, so every packet of a chunk, interest or data, in
    every run, holds the same tuple. It is not a field: ``==``, ``hash`` and
    ``repr`` ignore it.
    """

    prefix_id: int
    size_mb: int
    anchors: tuple[int, ...]

    def __post_init__(self):
        if self.size_mb <= 0 or self.size_mb % CHUNK_SIZE_MB:
            raise ValueError(f"prefix {self.prefix_id} size {self.size_mb} MB is not a positive chunk multiple")

    @cached_property
    def chunk_names(self) -> tuple[tuple[int, int], ...]:
        return tuple((self.prefix_id, chunk) for chunk in range(self.size_mb // CHUNK_SIZE_MB))


@dataclass
class Topology:
    """Static network graph, immutable once built; every run setting comes from ``SimulationConfig``.

    ``adjacency[u]`` lists outgoing ``(neighbor, channel_id)`` pairs,
    ``adjacency_in[v]`` the incoming ones, sorted by neighbor for a
    deterministic order. Ids must be positions, and channel ends and anchors
    nodes. A hop names its channel by its two ends, so a channel needs two
    distinct ends, and an ordered pair of nodes at most one channel.
    ValueError is raised otherwise.
    """

    nodes: tuple[int, ...]
    channels: tuple[Channel, ...]
    prefixes: tuple[Prefix, ...]
    adjacency: list[list[tuple[int, int]]] = field(init=False, repr=False)
    adjacency_in: list[list[tuple[int, int]]] = field(init=False, repr=False)
    _by_pair: dict[tuple[int, int], Channel] = field(init=False, repr=False)

    def __post_init__(self):
        n = len(self.nodes)
        if self.nodes != tuple(range(n)):
            raise ValueError(f"nodes {self.nodes} must be 0, 1, ...")
        out: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        inc: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        by_pair: dict[tuple[int, int], Channel] = {}
        for i, ch in enumerate(self.channels):
            if ch.channel_id != i or not (0 <= ch.from_node < n and 0 <= ch.to_node < n):
                raise ValueError(f"{ch} at position {i}: channel ids must be 0, 1, ... and endpoints nodes")
            if ch.from_node == ch.to_node:
                raise ValueError(f"{ch}: a channel needs two distinct ends")
            if (ch.from_node, ch.to_node) in by_pair:
                raise ValueError(f"{ch}: a second channel {ch.from_node}->{ch.to_node}")
            out[ch.from_node].append((ch.to_node, ch.channel_id))
            inc[ch.to_node].append((ch.from_node, ch.channel_id))
            by_pair[(ch.from_node, ch.to_node)] = ch
        for i, p in enumerate(self.prefixes):
            if p.prefix_id != i or any(not 0 <= a < n for a in p.anchors):
                raise ValueError(f"{p} at position {i}: prefix ids must be 0, 1, ... and anchors nodes")
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
    """Build and validate a connected topology from undirected (u, v, capacity) edges.

    Edge i becomes channels 2i and 2i+1, one each way, with equal capacity.
    ``Topology`` checks ids, self-loops and repeated edges; here each prefix
    needs at least one anchor and a node that is not one. Raises ValueError.
    """
    if node_count < 2:
        raise ValueError("a topology needs at least 2 nodes")
    channels = []
    for i, (u, v, capacity) in enumerate(edges):
        if not CAPACITY_MIN_MBPS <= capacity <= CAPACITY_MAX_MBPS:
            raise ValueError(f"capacity {capacity} outside [{CAPACITY_MIN_MBPS}, {CAPACITY_MAX_MBPS}] Mbps")
        channels.append(Channel(2 * i, u, v, capacity))
        channels.append(Channel(2 * i + 1, v, u, capacity))
    # Rejects a bad edge or anchor before the checks below.
    topology = Topology(tuple(range(node_count)), tuple(channels), tuple(prefixes))
    if not _connected(topology):
        raise ValueError("graph is not connected")
    for p in prefixes:
        if not p.anchors:
            raise ValueError(f"prefix {p.prefix_id} has no anchors")
        if len(set(p.anchors)) == node_count:
            raise ValueError(f"prefix {p.prefix_id} is anchored at every node; no consumer could request it")
    return topology


def generate_topology(node_count, edge_count, prefix_count, rng: random.Random) -> Topology:
    """Random connected topology with anchored prefixes, as the README's Model section describes.

    Each prefix gets fewer anchors on a tiny graph, so that a non-anchor
    consumer always exists.
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


def _connected(topology):
    # Every link has a channel each way, so reaching every node from node 0
    # along outgoing channels means the graph is connected.
    seen = {0}
    stack = [0]
    while stack:
        for v, _ in topology.adjacency[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == len(topology.nodes)
