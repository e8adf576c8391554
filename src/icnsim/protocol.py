"""Interest/data packet structures and the chunking and response rules.

A run shares two tables among its packets, each made once per run and passed
to the functions below. The route table (``Routes``) holds each route once,
with its reverse. The name table is a dict from a prefix id to the list of its
chunks' names, the ``(prefix_id, chunk_index)`` tuples, indexed by chunk
index; ``split_interest`` fills a prefix's entry at its first interest. Every
interest for a chunk and every data packet answering one hold the same name,
so a chunk's two ids cost one shared slot per packet. One name table serves
one topology's prefixes, since it is keyed by prefix id alone.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    ``kind`` is ``INTEREST`` or ``DATA`` and fixes the packet's size,
    ``INTEREST_SIZE_BITS`` or ``DATA_SIZE_BITS``. ``name`` is the chunk's
    ``(prefix_id, chunk_index)`` tuple from the run's name table. A packet's
    id is its position in the run's packet log (``metrics.PacketLog``), so it
    stores six slots and takes 80 bytes. Routes are frozen at creation, so
    later cost changes never reroute a packet, and loopless, so the hop a
    packet has reached is the index of its node in ``nodes``: nothing changes
    in flight until a delivery or drop ends the packet.
    """

    kind: str
    name: tuple[int, int]
    nodes: tuple[int, ...]
    created_s: float = 0.0
    terminated_s: float | None = None
    outcome: str = UNTERMINATED


def split_interest(prefix, paths, now: float, routes: Routes,
                   names: dict[int, list[tuple[int, int]]]) -> list[Packet]:
    """One interest packet per 8 MB chunk of the prefix's data object.

    ``paths`` are ranked ``(cost, nodes)`` pairs, as ``routing.RouteSet.paths``
    returns them. Chunks are dealt round-robin across them, cheapest first.
    Single mode passes only the cheapest path, so every chunk takes it; multi
    mode passes up to k, and degrades to single-path when only one loopless
    path exists. Each chunk's ``nodes`` is the tuple that ``routes``, the run's
    route table, holds for its path, and its ``name`` the tuple that ``names``,
    the run's name table, holds for it; a path or prefix not yet in its table
    is stored there.
    """
    if not paths:
        raise RouteUnavailableError(f"no path toward prefix {prefix.prefix_id}")
    chunks = prefix.size_mb // CHUNK_SIZE_MB
    shared = [routes[nodes][0] for _, nodes in paths[:chunks]]
    prefix_names = names.get(prefix.prefix_id)
    if prefix_names is None:
        prefix_names = names[prefix.prefix_id] = [(prefix.prefix_id, chunk) for chunk in range(chunks)]
    return [Packet(INTEREST, name, shared[chunk % len(shared)], now)
            for chunk, name in enumerate(prefix_names)]


def make_data_response(interest: Packet, node: int, routes: Routes) -> Packet:
    """The data chunk answering an interest that reached its anchor, ``node``.

    It holds the interest's name. The route is the interest's route reversed:
    the tuple that ``routes``, the run's route table, holds for it, so
    responses on one route share it. An interest route not yet in the table is
    stored there. The data packet inherits the interest's creation time, so
    its delivery time spans the full request round trip.
    """
    if interest.kind != INTEREST:
        raise RuntimeError(f"data response requested for a {interest.kind} packet")
    if node != interest.nodes[-1]:
        raise RuntimeError(f"data response requested at node {node}, not at the interest's anchor")
    return Packet(DATA, interest.name, routes[interest.nodes][1], interest.created_s)
