"""Interest/data packet structures and the chunking and response rules."""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

INTEREST = "interest"
DATA = "data"

DELIVERED = "Delivered"
DROPPED = "Dropped"
UNTERMINATED = "Unterminated"

MODE_SINGLE = "single"
MODE_MULTI = "multi"

# 0.1 MB interests, 8 MB data chunks (1 MB = 10^6 bytes).
CHUNK_SIZE_MB = 8
INTEREST_SIZE_BITS = 800_000
DATA_SIZE_BITS = 64_000_000


class Routes(dict):
    """A run's route table: each route once, with its reverse.

    Keyed by an interest route's node tuple, it holds the ``(route, reversed
    route)`` pair that every interest on that route and every data chunk
    answering one share. A route missing at lookup is stored then. One table
    lives as long as one run.
    """

    __slots__ = ()

    def __missing__(self, nodes):
        pair = self[nodes] = (nodes, nodes[::-1])
        return pair


class RouteUnavailableError(ValueError):
    """No forwarding path is known for the requested prefix.

    Costs are finite and positive, so this means the consumer cannot reach
    any anchor of the prefix: a disconnected topology, which is bad input.
    """


@dataclass(slots=True)
class Packet:
    """One interest or data unit carrying its full source route.

    A packet is an ``Interest`` or a ``Data``, and its class is its kind: the
    class attribute ``kind`` is ``INTEREST`` or ``DATA``. Its size is its
    kind's, ``INTEREST_SIZE_BITS`` or ``DATA_SIZE_BITS``, and its id is its
    position in the run's packet log (``metrics.PacketLog``), so it stores
    only what varies between packets. Routes are frozen at creation, so later
    cost changes never reroute a packet, and loopless, so the hop a packet has
    reached is the index of its node in ``nodes``: nothing changes in flight
    until a delivery or drop ends the packet.
    """

    prefix_id: int
    chunk_index: int
    nodes: tuple[int, ...]
    created_s: float = 0.0
    terminated_s: float | None = None
    outcome: str = UNTERMINATED


# Each kind is a dataclass of its own, so each gets its own generated
# ``__init__``. CPython 3.11 specializes an attribute store for one class, and
# one ``__init__`` shared by both kinds would miss on about half the packets.
# The empty ``__slots__`` is written out: ``slots=True`` on a subclass repeats
# the base's slots on Python 3.10, which would make each packet larger.
@dataclass
class Interest(Packet):
    __slots__ = ()
    kind: ClassVar[str] = INTEREST


@dataclass
class Data(Packet):
    __slots__ = ()
    kind: ClassVar[str] = DATA


def split_interest(prefix, paths, now: float, routes: Routes) -> list[Interest]:
    """One interest packet per 8 MB chunk of the prefix's data object.

    ``paths`` are ranked ``(cost, nodes)`` pairs, as ``routing.RouteSet.paths``
    returns them. Chunks are dealt round-robin across them, cheapest first.
    Single mode passes only the cheapest path, so every chunk takes it; multi
    mode passes up to k, and degrades to single-path when only one loopless
    path exists. Each chunk's ``nodes`` is the tuple that ``routes``, the run's
    route table, holds for its path; a path not yet in the table is stored
    there.
    """
    if not paths:
        raise RouteUnavailableError(f"no path toward prefix {prefix.prefix_id}")
    chunks = prefix.size_mb // CHUNK_SIZE_MB
    shared = [routes[nodes][0] for _, nodes in paths[:chunks]]
    return [Interest(prefix.prefix_id, chunk, shared[chunk % len(shared)], now)
            for chunk in range(chunks)]


def make_data_response(interest: Packet, node: int, routes: Routes) -> Data:
    """The data chunk answering an interest that reached its anchor, ``node``.

    The route is the interest's route reversed: the tuple that ``routes``, the
    run's route table, holds for it, so responses on one route share it. An
    interest route not yet in the table is stored there. The data packet
    inherits the interest's creation time, so its delivery time spans the
    full request round trip.
    """
    if interest.kind != INTEREST:
        raise RuntimeError(f"data response requested for a {interest.kind} packet")
    if node != interest.nodes[-1]:
        raise RuntimeError(f"data response requested at node {node}, not at the interest's anchor")
    return Data(interest.prefix_id, interest.chunk_index, routes[interest.nodes][1], interest.created_s)
