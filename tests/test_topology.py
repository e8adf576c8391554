import random

import pytest
from hypothesis import given, settings, strategies as st

from icnsim import topology as T


def bfs_connected(topology):
    # Independent connectivity check over the undirected structure.
    n = len(topology.nodes)
    seen = {0}
    frontier = [0]
    while frontier:
        u = frontier.pop()
        for v, _ in topology.adjacency[u]:
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return len(seen) == n


def undirected_pairs(topology):
    return {frozenset((ch.from_node, ch.to_node)) for ch in topology.channels}


def triangle():
    return T.make_topology(3, [(0, 1, 600.0), (1, 2, 700.0), (0, 2, 800.0)],
                           [T.Prefix(0, 8, (2,))])


def test_default_scale_topology():
    topo = T.generate_topology(10, 30, 15, random.Random(7))
    assert len(topo.nodes) == 10
    assert len(topo.channels) == 60
    assert len(undirected_pairs(topo)) == 30
    assert len(topo.prefixes) == 15
    assert bfs_connected(topo)


def test_minimal_graph():
    topo = T.generate_topology(2, 1, 1, random.Random(3))
    assert len(topo.channels) == 2
    (prefix,) = topo.prefixes
    assert len(prefix.anchors) == 1
    assert prefix.anchors[0] in (0, 1)


@pytest.mark.parametrize("nodes,edges", [(3, 4), (2, 2), (4, 2), (1, 0), (5, 3)])
def test_infeasible_parameters(nodes, edges):
    with pytest.raises(ValueError):
        T.generate_topology(nodes, edges, 1, random.Random(0))


def test_prefix_count_required():
    with pytest.raises(ValueError):
        T.generate_topology(4, 4, 0, random.Random(0))


@given(seed=st.integers(0, 10_000), nodes=st.integers(2, 12), data=st.data())
@settings(max_examples=60, deadline=None)
def test_generated_invariants(seed, nodes, data):
    max_edges = nodes * (nodes - 1) // 2
    edges = data.draw(st.integers(nodes - 1, max_edges))
    prefixes = data.draw(st.integers(1, 5))
    topo = T.generate_topology(nodes, edges, prefixes, random.Random(seed))
    assert bfs_connected(topo)
    assert len(undirected_pairs(topo)) == edges
    assert len(topo.channels) == 2 * edges
    for ch in topo.channels:
        assert ch.from_node != ch.to_node
        assert T.CAPACITY_MIN_MBPS <= ch.capacity_mbps <= T.CAPACITY_MAX_MBPS
        twin = topo.channel(ch.to_node, ch.from_node)
        assert twin.capacity_mbps == ch.capacity_mbps
    for p in topo.prefixes:
        assert 1 <= len(p.anchors) <= min(3, nodes - 1)
        assert len(set(p.anchors)) == len(p.anchors)
        assert p.size_mb in T.DATA_OBJECT_SIZES_MB
        assert p.size_mb % 8 == 0


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_same_seed_serializes_identically(seed):
    first = T.generate_topology(10, 30, 15, random.Random(seed))
    second = T.generate_topology(10, 30, 15, random.Random(seed))
    assert first == second


def test_channel_between_returns_directed_channel():
    topo = triangle()
    ch = topo.channel(0, 1)
    assert (ch.from_node, ch.to_node) == (0, 1)


def test_channel_between_reverse_twin():
    topo = triangle()
    fwd = topo.channel(0, 1)
    rev = topo.channel(1, 0)
    assert rev.capacity_mbps == fwd.capacity_mbps
    assert (rev.from_node, rev.to_node) == (1, 0)


def test_channel_between_missing_edge():
    path_graph = T.make_topology(3, [(0, 1, 512.0), (1, 2, 512.0)], [T.Prefix(0, 8, (2,))])
    with pytest.raises(T.NoChannelError):
        path_graph.channel(0, 2)
    with pytest.raises(T.NoChannelError):
        path_graph.channel(1, 1)


def test_make_topology_rejects_bad_input():
    with pytest.raises(ValueError):
        T.make_topology(2, [(0, 0, 600.0)], [])
    with pytest.raises(ValueError):
        T.make_topology(2, [(0, 1, 600.0), (1, 0, 700.0)], [])
    with pytest.raises(ValueError):
        T.make_topology(2, [(0, 1, 100.0)], [])
    with pytest.raises(ValueError):
        T.make_topology(4, [(0, 1, 600.0), (2, 3, 600.0)], [])
    with pytest.raises(ValueError):
        T.make_topology(2, [(0, 1, 600.0)], [T.Prefix(0, 12, (0,))])
    with pytest.raises(ValueError):
        T.make_topology(2, [(0, 1, 600.0)], [T.Prefix(3, 16, (1,))])
