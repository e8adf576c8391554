import dataclasses
import itertools

import pytest
from hypothesis import given, strategies as st

from icnsim import protocol as P
from icnsim.routing import RoutePath
from icnsim.topology import Prefix


def path(*nodes):
    return RoutePath(tuple(nodes), float(len(nodes) - 1))


P0 = path(0, 1, 4)
P1 = path(0, 2, 4)
P2 = path(0, 3, 5, 4)


def test_sizes_are_exact():
    assert P.INTEREST_SIZE_BITS == 800_000
    assert P.DATA_SIZE_BITS == 64_000_000


def test_single_chunk_object():
    packets = P.split_interest(Prefix(0, 8, (4,)), [P0], 1.0, itertools.count(), P.Routes())
    assert len(packets) == 1
    assert packets[0].nodes == P0.nodes


def test_multi_round_robin_over_eight_chunks():
    packets = P.split_interest(Prefix(0, 64, (4,)), [P0, P1, P2], 0.0, itertools.count(), P.Routes())
    assert [p.nodes for p in packets] == [
        P0.nodes, P1.nodes, P2.nodes, P0.nodes, P1.nodes, P2.nodes, P0.nodes, P1.nodes]
    assert [p.chunk_index for p in packets] == list(range(8))


def test_single_mode_pins_all_chunks_to_best_path():
    packets = P.split_interest(Prefix(0, 24, (4,)), [P0], 0.0, itertools.count(), P.Routes())
    assert len(packets) == 3
    assert all(p.nodes == P0.nodes for p in packets)


def test_multi_mode_with_one_path_degrades_to_single():
    packets = P.split_interest(Prefix(0, 24, (4,)), [P1], 0.0, itertools.count(), P.Routes())
    assert all(p.nodes == P1.nodes for p in packets)


def test_packet_fields():
    ids = itertools.count(100)
    packets = P.split_interest(Prefix(3, 16, (4,)), [P0], 2.5, ids, P.Routes())
    assert [p.packet_id for p in packets] == [100, 101]
    for p in packets:
        assert p.kind == P.INTEREST
        assert p.prefix_id == 3
        assert p.created_s == 2.5
        assert p.terminated_s is None and p.outcome == P.UNTERMINATED


def test_chunk_sizes_cover_object():
    prefix = Prefix(0, 56, (4,))
    packets = P.split_interest(prefix, [P0], 0.0, itertools.count(), P.Routes())
    assert len(packets) * P.CHUNK_SIZE_MB == prefix.size_mb


def test_empty_paths_raises():
    with pytest.raises(P.RouteUnavailableError):
        P.split_interest(Prefix(0, 8, (4,)), [], 0.0, itertools.count(), P.Routes())


def terminal_interest(route=(3, 5, 7), chunk=2, created=1.25):
    return P.Packet(0, P.INTEREST, 9, chunk, route, created_s=created)


def respond(interest, ids, routes):
    """The data response at the interest's anchor."""
    return P.make_data_response(interest, interest.nodes[-1], ids, routes)


def test_data_response_reverses_route():
    data = respond(terminal_interest(), itertools.count(1), P.Routes())
    assert data.nodes == (7, 5, 3)
    assert data.kind == P.DATA


def test_data_response_preserves_identity_and_clock():
    interest = terminal_interest(chunk=2, created=1.25)
    data = respond(interest, itertools.count(1), P.Routes())
    assert data.prefix_id == interest.prefix_id
    assert data.chunk_index == 2
    assert data.created_s == 1.25


def test_data_response_for_pair_route():
    data = respond(terminal_interest(route=(3, 7)), itertools.count(1), P.Routes())
    assert data.nodes == (7, 3)


def test_data_response_requires_terminal_interest():
    for node in (3, 5):
        with pytest.raises(RuntimeError):
            P.make_data_response(terminal_interest(), node, itertools.count(), P.Routes())
    data = respond(terminal_interest(), itertools.count(1), P.Routes())
    with pytest.raises(RuntimeError):
        respond(data, itertools.count(), P.Routes())


def test_responses_on_one_route_share_its_reversed_tuple():
    routes = P.Routes()
    ids = itertools.count()
    first = respond(terminal_interest(route=(3, 5, 7)), ids, routes)
    second = respond(terminal_interest(route=tuple([3, 5, 7])), ids, routes)
    assert first.nodes == (7, 5, 3)
    assert second.nodes is first.nodes
    # Interests on equal paths of different tables share the stored route too.
    chunks = [P.split_interest(Prefix(0, 8, (7,)), [path(3, 5, 7)], 0.0, ids, routes)[0]
              for _ in range(2)]
    assert chunks[0].nodes is chunks[1].nodes is next(iter(routes))


@given(st.lists(st.integers(0, 50), min_size=1, max_size=8, unique=True))
def test_route_reversal_is_involutive(nodes):
    route = tuple(nodes)
    assert tuple(reversed(tuple(reversed(route)))) == route


def test_packet_route():
    three_hop = P.Packet(0, P.INTEREST, 0, 0, (3, 5, 7))
    assert (three_hop.route, three_hop.src, three_hop.dst) == ("3-5-7", 3, 7)
    one_node = P.Packet(0, P.DATA, 0, 0, (4,))
    assert (one_node.route, one_node.src, one_node.dst) == ("4", 4, 4)


def test_packet_holds_only_the_reported_fields():
    # packets.csv derives src, dst and route from nodes. A loopless route's
    # node fixes the hop, so no field changes in flight until the packet ends.
    assert [f.name for f in dataclasses.fields(P.Packet)] == [
        "packet_id", "kind", "prefix_id", "chunk_index", "nodes", "created_s", "terminated_s",
        "outcome"]
