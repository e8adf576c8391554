import dataclasses
import sys

import pytest
from hypothesis import given, strategies as st

from icnsim import metrics as M
from icnsim import protocol as P
from icnsim.topology import Prefix


def path(*nodes):
    """A ranked ``(cost, nodes)`` pair, as ``RouteSet.paths`` returns it, at unit cost per hop."""
    return float(len(nodes) - 1), tuple(nodes)


P0 = path(0, 1, 4)
P1 = path(0, 2, 4)
P2 = path(0, 3, 5, 4)


def test_sizes_are_exact():
    assert P.INTEREST_SIZE_BITS == 800_000
    assert P.DATA_SIZE_BITS == 64_000_000


def test_single_chunk_object():
    packets = P.split_interest(Prefix(0, 8, (4,)), [P0], 1.0, P.Routes())
    assert len(packets) == 1
    assert packets[0].nodes == P0[1]


def test_multi_round_robin_over_eight_chunks():
    packets = P.split_interest(Prefix(0, 64, (4,)), [P0, P1, P2], 0.0, P.Routes())
    assert [p.nodes for p in packets] == [P0[1], P1[1], P2[1], P0[1], P1[1], P2[1], P0[1], P1[1]]
    assert [p.name for p in packets] == [(0, chunk) for chunk in range(8)]


def test_single_mode_pins_all_chunks_to_best_path():
    packets = P.split_interest(Prefix(0, 24, (4,)), [P0], 0.0, P.Routes())
    assert len(packets) == 3
    assert all(p.nodes == P0[1] for p in packets)


def test_multi_mode_with_one_path_degrades_to_single():
    packets = P.split_interest(Prefix(0, 24, (4,)), [P1], 0.0, P.Routes())
    assert all(p.nodes == P1[1] for p in packets)


def test_packet_fields():
    packets = P.split_interest(Prefix(3, 16, (4,)), [P0], 2.5, P.Routes())
    assert [p.name for p in packets] == [(3, 0), (3, 1)]
    for p in packets:
        assert type(p) is P.Packet and p.kind == P.INTEREST
        assert p.created_s == 2.5
        assert p.terminated_s is None and p.outcome == P.UNTERMINATED


def test_chunk_sizes_cover_object():
    prefix = Prefix(0, 56, (4,))
    packets = P.split_interest(prefix, [P0], 0.0, P.Routes())
    assert len(packets) * P.CHUNK_SIZE_MB == prefix.size_mb


def test_empty_paths_raises():
    with pytest.raises(P.RouteUnavailableError):
        P.split_interest(Prefix(0, 8, (4,)), [], 0.0, P.Routes())


def terminal_interest(route=(3, 5, 7), chunk=2, created=1.25):
    return P.Packet(P.INTEREST, (9, chunk), route, created_s=created)


def respond(interest, routes):
    """The data response at the interest's anchor."""
    return P.make_data_response(interest, interest.nodes[-1], routes)


def test_data_response_reverses_route():
    data = respond(terminal_interest(), P.Routes())
    assert data.nodes == (7, 5, 3)
    assert type(data) is P.Packet and data.kind == P.DATA
    assert data.terminated_s is None and data.outcome == P.UNTERMINATED


def test_data_response_preserves_identity_and_clock():
    interest = terminal_interest(chunk=2, created=1.25)
    data = respond(interest, P.Routes())
    assert data.name == (9, 2)
    assert data.created_s == 1.25


def test_data_response_for_pair_route():
    data = respond(terminal_interest(route=(3, 7)), P.Routes())
    assert data.nodes == (7, 3)


def test_data_response_requires_terminal_interest():
    for node in (3, 5):
        with pytest.raises(RuntimeError):
            P.make_data_response(terminal_interest(), node, P.Routes())
    data = respond(terminal_interest(), P.Routes())
    with pytest.raises(RuntimeError):
        respond(data, P.Routes())


def test_responses_on_one_route_share_its_reversed_tuple():
    routes = P.Routes()
    first = respond(terminal_interest(route=(3, 5, 7)), routes)
    second = respond(terminal_interest(route=tuple([3, 5, 7])), routes)
    assert first.nodes == (7, 5, 3)
    assert second.nodes is first.nodes
    # Interests on equal paths of different tables share the stored route too.
    chunks = [P.split_interest(Prefix(0, 8, (7,)), [path(3, 5, 7)], 0.0, routes)[0]
              for _ in range(2)]
    assert chunks[0].nodes is chunks[1].nodes is next(iter(routes))


@given(st.lists(st.integers(0, 50), min_size=1, max_size=8, unique=True))
def test_route_reversal_is_involutive(nodes):
    route = tuple(nodes)
    assert tuple(reversed(tuple(reversed(route)))) == route


def test_packet_route():
    # A packet's log record derives src, dst and route from its nodes.
    log = M.PacketLog([P.Packet(P.INTEREST, (0, 0), (3, 5, 7)), P.Packet(P.DATA, (0, 0), (4,))])
    three_hop, one_node = log
    assert (three_hop.route, three_hop.src, three_hop.dst) == ("3-5-7", 3, 7)
    assert (one_node.route, one_node.src, one_node.dst) == ("4", 4, 4)


def test_packet_holds_only_the_reported_fields():
    # A packet's id is its position in the run's log, so it is not stored;
    # its name holds the chunk's prefix id and index. packets.csv derives src,
    # dst and route from nodes. A loopless route's node fixes the hop, so no
    # field changes in flight until the packet ends.
    fields = ["kind", "name", "nodes", "created_s", "terminated_s", "outcome"]
    assert [f.name for f in dataclasses.fields(P.Packet)] == fields
    assert list(P.Packet.__slots__) == fields
    # Both kinds are one class, so packet attribute reads specialize (see engine).
    assert P.Packet.__subclasses__() == []


@pytest.mark.parametrize("kind", [P.INTEREST, P.DATA], ids=["Interest", "Data"])
def test_packet_size_is_pinned(kind):
    # The run keeps every packet it creates; on a congested run the log is
    # the largest allocation, so each stored field costs memory per packet.
    packet = P.Packet(kind, (0, 0), (0, 1), 0.0)
    assert sys.getsizeof(packet) <= 80
    assert not hasattr(packet, "__dict__")
    assert not hasattr(packet, "packet_id")
