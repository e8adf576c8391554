import random
from math import inf

import pytest
from hypothesis import given, settings, strategies as st

from icnsim import routing as R
from icnsim import topology as T

from oracles import (brute_force_k_paths, enumerate_anchor_paths, random_case,
                     random_cost_view, reference_dijkstra)


def unit_costs(topology):
    return R.CostView(0.0, tuple(1.0 for _ in topology.channels))


def triangle():
    return T.make_topology(3, [(0, 1, 600.0), (1, 2, 700.0), (0, 2, 800.0)],
                           [T.Prefix(0, 8, (2,))])


# -- channel_cost ------------------------------------------------------

def test_channel_cost_examples():
    assert R.channel_cost(1000.0, 0.0) == 0.001
    assert R.channel_cost(2048.0, 1024.0) == 1.0 / 1024.0
    assert R.channel_cost(512.0, 512.0) == 1.0


@given(capacity=st.floats(512.0, 2048.0), load=st.floats(0.0, 2048.0))
def test_channel_cost_bounds(capacity, load):
    cost = R.channel_cost(capacity, load)
    assert 0.0 < cost <= 1.0


@given(capacity=st.floats(512.0, 2048.0),
       load_a=st.floats(0.0, 511.0), load_b=st.floats(0.0, 511.0))
def test_channel_cost_monotone_in_load(capacity, load_a, load_b):
    lo, hi = sorted((load_a, load_b))
    assert R.channel_cost(capacity, lo) <= R.channel_cost(capacity, hi)


# -- compute_cost_view -------------------------------------------------

def test_cost_view_idle():
    topo = triangle()
    view = R.compute_cost_view(topo, lambda c: 0.0, 5.0)
    assert view.time_s == 5.0
    for ch in topo.channels:
        assert view.costs[ch.channel_id] == 1.0 / ch.capacity_mbps


def test_cost_view_single_loaded_channel():
    topo = T.make_topology(2, [(0, 1, 2048.0)], [T.Prefix(0, 8, (1,))])
    loaded = topo.channel(0, 1).channel_id
    view = R.compute_cost_view(topo, lambda c: 1024.0 if c == loaded else 0.0, 0.0)
    assert view.costs[loaded] == 1.0 / 1024.0
    assert view.costs[topo.channel(1, 0).channel_id] == 1.0 / 2048.0


def test_cost_view_saturated_channel_clamps():
    topo = T.make_topology(2, [(0, 1, 512.0)], [T.Prefix(0, 8, (1,))])
    view = R.compute_cost_view(topo, lambda c: 512.0, 0.0)
    assert all(c == 1.0 for c in view.costs)


# -- k_shortest_paths --------------------------------------------------

def test_triangle_paths():
    topo = triangle()
    paths = R.k_shortest_paths(topo, unit_costs(topo), 0, {2}, 3)
    assert [p.nodes for p in paths] == [(0, 2), (0, 1, 2)]
    assert [p.cost for p in paths] == [1.0, 2.0]


def test_k_must_be_positive():
    topo = triangle()
    with pytest.raises(ValueError):
        R.k_shortest_paths(topo, unit_costs(topo), 0, {2}, 0)
    with pytest.raises(ValueError):
        R.k_shortest_paths(topo, unit_costs(topo), 0, set(), 1)


def test_disconnected_source_yields_nothing():
    channels = (T.Channel(0, 0, 1, 600.0), T.Channel(1, 1, 0, 600.0),
                T.Channel(2, 2, 3, 600.0), T.Channel(3, 3, 2, 600.0))
    islands = T.Topology((0, 1, 2, 3), channels, (T.Prefix(0, 8, (3,)),))
    assert R.k_shortest_paths(islands, unit_costs(islands), 0, {3}, 3) == []


def test_source_is_anchor():
    topo = triangle()
    paths = R.k_shortest_paths(topo, unit_costs(topo), 2, {2}, 2)
    assert paths[0].nodes == (2,)
    assert paths[0].cost == 0.0


def test_multi_anchor_paths_may_pass_through_an_anchor():
    line = T.make_topology(3, [(0, 1, 600.0), (1, 2, 600.0)], [T.Prefix(0, 8, (1, 2))])
    paths = R.k_shortest_paths(line, unit_costs(line), 0, {1, 2}, 3)
    assert [p.nodes for p in paths] == [(0, 1), (0, 1, 2)]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.integers(1, 3))
def test_matches_brute_force(seed, k):
    topology, view = random_case(seed)
    src = seed % len(topology.nodes)
    targets = topology.prefixes[0].anchors
    got = [(p.cost, p.nodes) for p in R.k_shortest_paths(topology, view, src, targets, k)]
    want = brute_force_k_paths(topology, view, src, targets, k)
    assert [n for _, n in got] == [n for _, n in want]
    for (gc, _), (wc, _) in zip(got, want):
        assert gc == pytest.approx(wc, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_k1_is_dijkstra(seed):
    topology, view = random_case(seed)
    src = seed % len(topology.nodes)
    targets = topology.prefixes[0].anchors
    got = R.k_shortest_paths(topology, view, src, targets, 1)
    ref = reference_dijkstra(topology, view, src, targets)
    if not got:
        assert ref is None
    else:
        assert got[0].nodes == ref[1]
        assert got[0].cost == pytest.approx(ref[0], rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), scale=st.sampled_from([0.25, 3.0, 17.5]))
def test_scaling_costs_preserves_routes(seed, scale):
    topology, view = random_case(seed)
    scaled = R.CostView(view.time_s, tuple(c * scale for c in view.costs))
    src = seed % len(topology.nodes)
    targets = topology.prefixes[0].anchors
    base = [p.nodes for p in R.k_shortest_paths(topology, view, src, targets, 3)]
    after = [p.nodes for p in R.k_shortest_paths(topology, scaled, src, targets, 3)]
    assert base == after


def test_paths_are_loopless_and_anchor_terminated():
    rng = random.Random(5)
    topo = T.generate_topology(10, 30, 15, rng)
    view = random_cost_view(topo, rng)
    for prefix in topo.prefixes:
        for node in topo.nodes:
            paths = R.k_shortest_paths(topo, view, node, prefix.anchors, 3)
            costs = [p.cost for p in paths]
            assert costs == sorted(costs)
            for p in paths:
                assert len(set(p.nodes)) == len(p.nodes)
                assert p.nodes[-1] in prefix.anchors
                assert p.nodes[0] == node


# -- rebuild_tables ----------------------------------------------------

def test_self_anchor_entry():
    topo = triangle()
    fib, rib = R.rebuild_tables(topo, unit_costs(topo), 3)
    paths = fib.paths(2, 0)
    assert paths[0].nodes == (2,)
    assert paths[0].cost == 0.0
    assert rib.anchors(2, 0)[0] == (2, 0.0)


def test_k1_fib_ends_at_nearest_anchor():
    rng = random.Random(11)
    topo = T.generate_topology(10, 30, 15, rng)
    view = random_cost_view(topo, rng)
    fib, rib = R.rebuild_tables(topo, view, 1)
    for prefix in topo.prefixes:
        for node in topo.nodes:
            best = fib.paths(node, prefix.prefix_id)[0]
            nearest, dist = rib.anchors(node, prefix.prefix_id)[0]
            assert best.nodes[-1] == nearest
            assert best.cost == pytest.approx(dist, rel=1e-12)


def test_rib_sorted_by_distance():
    rng = random.Random(13)
    topo = T.generate_topology(10, 30, 15, rng)
    view = random_cost_view(topo, rng)
    _, rib = R.rebuild_tables(topo, view, 3)
    for prefix in topo.prefixes:
        for node in topo.nodes:
            entries = rib.anchors(node, prefix.prefix_id)
            assert set(a for a, _ in entries) == set(prefix.anchors)
            dists = [d for _, d in entries]
            assert dists == sorted(dists)
            assert all(d < inf for d in dists)


def test_fib_against_oracle_at_full_scale():
    # Full-size check: enumerate all simple paths once per source node, then
    # compare the k=3 table entry for every (node, prefix) pair.
    rng = random.Random(17)
    topo = T.generate_topology(10, 30, 15, rng)
    view = random_cost_view(topo, rng)
    fib, _ = R.rebuild_tables(topo, view, 3)
    all_targets = frozenset(range(len(topo.nodes)))
    for node in topo.nodes:
        by_endpoint = enumerate_anchor_paths(topo, view, node, all_targets)
        for prefix in topo.prefixes:
            anchors = set(prefix.anchors)
            want = sorted((c, p) for c, p in by_endpoint if p[-1] in anchors)[:3]
            got = [(p.cost, p.nodes) for p in fib.paths(node, prefix.prefix_id)]
            assert [n for _, n in got] == [n for _, n in want]
            for (gc, _), (wc, _) in zip(got, want):
                assert gc == pytest.approx(wc, rel=1e-9)


def test_rebuild_requires_positive_k():
    topo = triangle()
    with pytest.raises(ValueError):
        R.rebuild_tables(topo, unit_costs(topo), 0)
