import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from icnsim import routing as R
from icnsim import topology as T
from icnsim.config import SimulationConfig

from oracles import (brute_force_k_paths, enumerate_anchor_paths, random_case,
                     random_cost_view, reference_dijkstra)


EPS = SimulationConfig().epsilon_mbps


def unit_costs(topology):
    return tuple(1.0 for _ in topology.channels)


def own_tables(topology, costs, k):
    """Tables for one view, bounded under that view itself: the exact bound."""
    (fib,) = R.rebuild_tables(costs, k, R.LowerBounds(topology, costs))
    return fib


def table_paths(topology, costs, src, k):
    """The engine's table entry for (src, prefix 0), under the view's own floor."""
    return own_tables(topology, costs, k).paths(src, 0)


def assert_matches_brute_force(topology, fib, view, src, k):
    """The table's entry for (src, prefix 0) is the oracle's, ties included.

    Both sum a path's cost hop by hop from src, so the costs are equal too.
    """
    targets = topology.prefixes[0].anchors
    assert fib.paths(src, 0) == tuple(brute_force_k_paths(topology, view, src, targets, k))


def triangle():
    return T.make_topology(3, [(0, 1, 600.0), (1, 2, 700.0), (0, 2, 800.0)],
                           [T.Prefix(0, 8, (2,))])


# -- channel_cost ------------------------------------------------------

def test_channel_cost_examples():
    assert R.channel_cost(1000.0, 0.0, EPS) == 0.001
    assert R.channel_cost(2048.0, 1024.0, EPS) == 1.0 / 1024.0
    assert R.channel_cost(512.0, 512.0, EPS) == 1.0


@given(capacity=st.floats(512.0, 2048.0), load=st.floats(0.0, 2048.0))
def test_channel_cost_bounds(capacity, load):
    cost = R.channel_cost(capacity, load, EPS)
    assert 0.0 < cost <= 1.0


@given(capacity=st.floats(512.0, 2048.0),
       load_a=st.floats(0.0, 511.0), load_b=st.floats(0.0, 511.0))
def test_channel_cost_monotone_in_load(capacity, load_a, load_b):
    lo, hi = sorted((load_a, load_b))
    assert R.channel_cost(capacity, lo, EPS) <= R.channel_cost(capacity, hi, EPS)


# -- compute_cost_view -------------------------------------------------

def test_cost_view_idle():
    topo = triangle()
    view = R.compute_cost_view(topo, R.idle_costs(topo, EPS), [0.0] * len(topo.channels), EPS)
    for ch in topo.channels:
        assert view[ch.channel_id] == 1.0 / ch.capacity_mbps


def test_cost_view_single_loaded_channel():
    topo = T.make_topology(2, [(0, 1, 2048.0)], [T.Prefix(0, 8, (1,))])
    loaded = topo.channel(0, 1).channel_id
    loads = [0.0] * len(topo.channels)
    loads[loaded] = 1024.0
    view = R.compute_cost_view(topo, R.idle_costs(topo, EPS), loads, EPS)
    assert view[loaded] == 1.0 / 1024.0
    assert view[topo.channel(1, 0).channel_id] == 1.0 / 2048.0


def test_cost_view_saturated_channel_clamps():
    topo = T.make_topology(2, [(0, 1, 512.0)], [T.Prefix(0, 8, (1,))])
    view = R.compute_cost_view(topo, R.idle_costs(topo, EPS), [512.0] * len(topo.channels), EPS)
    assert all(c == 1.0 for c in view)


@st.composite
def load_rows(draw):
    """A topology, epsilon, and a load row indexed by channel id.

    Loads include exact 0.0 (a channel idle at the update, which keeps its
    idle cost) and loads at or above capacity - epsilon, where the cost clamps.
    """
    nodes = draw(st.integers(2, 12))
    edges = draw(st.integers(nodes - 1, nodes * (nodes - 1) // 2))
    topology = T.generate_topology(nodes, edges, 3, random.Random(draw(st.integers(0, 10_000))))
    epsilon = draw(st.sampled_from([EPS, 0.5, 2.0, 37.5]))
    loads = [0.0] * len(topology.channels)
    for ch in topology.channels:
        cap = ch.capacity_mbps
        loads[ch.channel_id] = draw(st.one_of(
            st.just(0.0), st.floats(0.0, cap),
            st.sampled_from([cap - epsilon, cap]), st.floats(cap - epsilon, cap)))
    return topology, epsilon, loads


@settings(max_examples=200, deadline=None)
@given(case=load_rows())
def test_cost_view_from_idle_base_equals_full_view(case):
    topology, epsilon, loads = case
    full = tuple(R.channel_cost(ch.capacity_mbps, loads[ch.channel_id], epsilon)
                 for ch in topology.channels)
    view = R.compute_cost_view(topology, R.idle_costs(topology, epsilon), loads, epsilon)
    assert view == full


# -- RouteSet.paths ---------------------------------------------------

def test_triangle_paths():
    topo = triangle()
    assert table_paths(topo, unit_costs(topo), 0, 3) == ((1.0, (0, 2)), (2.0, (0, 1, 2)))


def test_disconnected_source_yields_nothing():
    channels = (T.Channel(0, 0, 1, 600.0), T.Channel(1, 1, 0, 600.0),
                T.Channel(2, 2, 3, 600.0), T.Channel(3, 3, 2, 600.0))
    islands = T.Topology((0, 1, 2, 3), channels, (T.Prefix(0, 8, (3,)),))
    assert table_paths(islands, unit_costs(islands), 0, 3) == ()


def test_source_is_anchor():
    topo = triangle()
    assert table_paths(topo, unit_costs(topo), 2, 2)[0] == (0.0, (2,))


def test_multi_anchor_paths_may_pass_through_an_anchor():
    line = T.make_topology(3, [(0, 1, 600.0), (1, 2, 600.0)], [T.Prefix(0, 8, (1, 2))])
    assert table_paths(line, unit_costs(line), 0, 3) == ((1.0, (0, 1)), (2.0, (0, 1, 2)))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.integers(1, 3))
def test_matches_brute_force(seed, k):
    topology, view = random_case(seed)
    src = seed % len(topology.nodes)
    assert_matches_brute_force(topology, own_tables(topology, view, k), view, src, k)


@st.composite
def tie_heavy_case(draw):
    """Small directed graph whose path costs tie often: all 1.0, or each from {0.25, 0.5, 1.0}.

    Every sum of such costs is exact, so equal-cost paths tie exactly and only
    the node sequence orders them. The graph need not be connected.
    """
    n = draw(st.integers(2, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    channels = []
    for u, v in edges:
        channels.append(T.Channel(len(channels), u, v, 1024.0))
        channels.append(T.Channel(len(channels), v, u, 1024.0))
    if draw(st.booleans()):
        costs = tuple(1.0 for _ in channels)
    else:
        costs = tuple(draw(st.lists(st.sampled_from([0.25, 0.5, 1.0]),
                                    min_size=len(channels), max_size=len(channels))))
    anchors = tuple(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3))))
    topology = T.Topology(tuple(range(n)), tuple(channels), (T.Prefix(0, 8, anchors),))
    return topology, costs, draw(st.integers(0, n - 1)), draw(st.integers(1, 8))


@settings(max_examples=300, deadline=None)
@given(case=tie_heavy_case())
def test_matches_brute_force_with_ties(case):
    # Guards the spur-search cut-off: a spur that ties the cut-off cost may
    # still rank ahead by node sequence, so it must not be cut.
    topology, view, src, k = case
    assert_matches_brute_force(topology, own_tables(topology, view, k), view, src, k)


def weighted(n, edges, anchors):
    """A topology with one full-duplex link per (u, v, cost) edge, and the view
    that gives both directions of each link its cost."""
    channels, costs = [], []
    for u, v, cost in edges:
        for a, b in ((u, v), (v, u)):
            channels.append(T.Channel(len(channels), a, b, 1024.0))
            costs.append(cost)
    return T.Topology(tuple(range(n)), tuple(channels), (T.Prefix(0, 8, anchors),)), tuple(costs)


# Graphs where the first target label a search pushes is not the answer: the
# direct link to the anchor is dearer than a path with more hops, or ties a
# path whose smaller node sequence is pushed after it.
FIRST_TARGET_PUSHED_LOSES = {
    "cheaper-with-more-hops": (
        weighted(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 2, 2.0), (0, 3, 4.0)], (3,)),
        ((3.0, (0, 1, 2, 3)), (3.0, (0, 2, 3)), (4.0, (0, 3)))),
    "tie-pushed-later": (
        weighted(4, [(0, 1, 1.0), (1, 3, 1.0), (0, 3, 2.0), (0, 2, 1.0), (2, 3, 1.5)], (3,)),
        ((2.0, (0, 1, 3)), (2.0, (0, 3)), (2.5, (0, 2, 3)))),
}


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("floor", ["own", "zero"])
@pytest.mark.parametrize("graph", sorted(FIRST_TARGET_PUSHED_LOSES))
def test_first_target_pushed_does_not_win_unchecked(graph, floor, k):
    # Guards the spur searches' target cut: a pushed target lowers the limit
    # to its own cost plus bound, and a label at that limit is still searched.
    (topology, view), want = FIRST_TARGET_PUSHED_LOSES[graph]
    bounds = R.LowerBounds(topology, view if floor == "own" else (0.0,) * len(view))
    (fib,) = R.rebuild_tables(view, k, bounds)
    assert fib.paths(0, 0) == want[:k]
    assert_matches_brute_force(topology, fib, view, 0, k)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_k1_is_dijkstra(seed):
    topology, view = random_case(seed)
    src = seed % len(topology.nodes)
    targets = topology.prefixes[0].anchors
    got = table_paths(topology, view, src, 1)
    ref = reference_dijkstra(topology, view, src, targets)
    if not got:
        assert ref is None
    else:
        # Dijkstra sums each path hop by hop from src too.
        assert got[0] == ref


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), scale=st.sampled_from([0.25, 3.0, 17.5]))
def test_scaling_costs_preserves_routes(seed, scale):
    topology, view = random_case(seed)
    scaled = tuple(c * scale for c in view)
    src = seed % len(topology.nodes)
    base = [nodes for _, nodes in table_paths(topology, view, src, 3)]
    after = [nodes for _, nodes in table_paths(topology, scaled, src, 3)]
    assert base == after


def test_paths_are_loopless_and_anchor_terminated():
    rng = random.Random(5)
    topo = T.generate_topology(10, 30, 15, rng)
    view = random_cost_view(topo, rng)
    fib = own_tables(topo, view, 3)
    for prefix in topo.prefixes:
        for node in topo.nodes:
            paths = fib.paths(node, prefix.prefix_id)
            costs = [cost for cost, _ in paths]
            assert costs == sorted(costs)
            for _, nodes in paths:
                assert len(set(nodes)) == len(nodes)
                assert nodes[-1] in prefix.anchors
                assert nodes[0] == node


# -- rebuild_tables ----------------------------------------------------

def test_self_anchor_entry():
    topo = triangle()
    fib = own_tables(topo, unit_costs(topo), 3)
    assert fib.paths(2, 0)[0] == (0.0, (2,))


def test_k1_fib_ends_at_nearest_anchor():
    rng = random.Random(11)
    topo = T.generate_topology(10, 30, 15, rng)
    view = random_cost_view(topo, rng)
    fib = own_tables(topo, view, 1)
    for prefix in topo.prefixes:
        for node in topo.nodes:
            cost, nodes = fib.paths(node, prefix.prefix_id)[0]
            dist, path = reference_dijkstra(topo, view, node, prefix.anchors)
            assert nodes[-1] == path[-1]
            assert cost == dist


def test_fib_against_oracle_at_full_scale():
    # Full-size check: enumerate all simple paths once per source node, then
    # compare the k=3 table entry for every (node, prefix) pair.
    rng = random.Random(17)
    topo = T.generate_topology(10, 30, 15, rng)
    view = random_cost_view(topo, rng)
    fib = own_tables(topo, view, 3)
    all_targets = frozenset(range(len(topo.nodes)))
    for node in topo.nodes:
        by_endpoint = enumerate_anchor_paths(topo, view, node, all_targets)
        for prefix in topo.prefixes:
            anchors = set(prefix.anchors)
            want = sorted((c, p) for c, p in by_endpoint if p[-1] in anchors)[:3]
            assert fib.paths(node, prefix.prefix_id) == tuple(want)


def test_rebuild_requires_positive_k():
    topo = triangle()
    with pytest.raises(ValueError):
        own_tables(topo, unit_costs(topo), 0)


# -- LowerBounds -------------------------------------------------------

@st.composite
def floored_case(draw):
    """A random view with a floor at most the view on every channel, a source and k.

    The floor is the view itself, the view scaled by a factor in (0, 1], or
    the idle view, with the view drawn as the costs of random loads (exact
    zeros and loads where the cost clamps included).
    """
    topology, view = random_case(draw(st.integers(0, 10_000)))
    kind = draw(st.sampled_from(["equal", "scaled", "idle"]))
    if kind == "equal":
        floor = view
    elif kind == "scaled":
        scale = draw(st.floats(0.0, 1.0, exclude_min=True))
        floor = tuple(c * scale for c in view)
    else:
        floor = R.idle_costs(topology, EPS)
        loads = [draw(st.one_of(
                     st.just(0.0), st.floats(0.0, ch.capacity_mbps),
                     st.floats(ch.capacity_mbps - EPS, ch.capacity_mbps)))
                 for ch in topology.channels]
        view = R.compute_cost_view(topology, floor, loads, EPS)
    src = draw(st.integers(0, len(topology.nodes) - 1))
    return topology, floor, view, src, draw(st.integers(1, 3))


@settings(max_examples=150, deadline=None)
@given(case=floored_case())
def test_weaker_floor_matches_brute_force(case):
    # One LowerBounds serves the tables of the view and of the floor, as one
    # serves every table of a run; a bound below the view's own changes which
    # labels a search visits, never the paths it returns. The view's table
    # asks first, so bounds kept from the first table's view would fail here.
    topology, floor, view, src, k = case
    bounds = R.LowerBounds(topology, floor)
    for costs in (view, floor):
        (fib,) = R.rebuild_tables(costs, k, bounds)
        assert_matches_brute_force(topology, fib, costs, src, k)


@settings(max_examples=300, deadline=None)
@given(case=tie_heavy_case(), data=st.data())
def test_weaker_floor_matches_brute_force_with_ties(case, data):
    # Each channel's floor is drawn from {0.25, 0.5, 1.0} at or below its cost,
    # so sums stay exact and a weaker bound must still break ties by sequence.
    topology, view, src, k = case
    floor = tuple(data.draw(st.sampled_from([f for f in (0.25, 0.5, 1.0) if f <= c]))
                  for c in view)
    (fib,) = R.rebuild_tables(view, k, R.LowerBounds(topology, floor))
    assert_matches_brute_force(topology, fib, view, src, k)


@pytest.mark.parametrize("channel_id", range(6))
def test_rebuild_rejects_a_view_below_the_floor(channel_id):
    topo = triangle()
    floor = R.idle_costs(topo, EPS)
    bounds = R.LowerBounds(topo, floor)
    view = list(floor)
    view[channel_id] = math.nextafter(view[channel_id], 0.0)
    with pytest.raises(ValueError, match="floor"):
        R.rebuild_tables(tuple(view), 3, bounds)
    R.rebuild_tables(floor, 3, bounds)


def test_rebuild_rejects_bounds_of_another_shape():
    topo = triangle()
    floor = R.idle_costs(topo, EPS)
    with pytest.raises(ValueError, match="floor"):
        R.rebuild_tables(floor[:-1], 3, R.LowerBounds(topo, floor))


def test_searches_count_cache_misses_only():
    # A repeated request is served from the cache: neither the table's Yen
    # search nor the prefix's reverse Dijkstra runs again, and a second table
    # over the same bounds reuses them.
    topo = T.make_topology(3, [(0, 1, 600.0), (1, 2, 700.0), (0, 2, 800.0)],
                           [T.Prefix(0, 8, (2,)), T.Prefix(1, 8, (0,))])
    floor = R.idle_costs(topo, EPS)
    bounds = R.LowerBounds(topo, floor)
    (fib,) = R.rebuild_tables(floor, 3, bounds)
    first = fib.paths(0, 0)
    assert fib.paths(0, 0) is first
    assert (fib.searches, bounds.searches) == (1, 1)
    fib.paths(1, 0)
    fib.paths(1, 1)
    fib.paths(1, 1)
    assert (fib.searches, bounds.searches) == (3, 2)
    (other,) = R.rebuild_tables(floor, 3, bounds)
    assert other.paths(0, 0) == first
    assert (other.searches, fib.searches, bounds.searches) == (1, 3, 2)
