"""Interest/data packet structures and the chunking and response rules."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

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
    """One interest or data unit carrying its full source route; also its log record.

    Its fields are what ``packets.csv`` reports; ``src``, ``dst`` and
    ``route`` are derived from ``nodes``. Routes are frozen at creation, so
    later cost changes never reroute a packet, and loopless, so the hop a
    packet has reached is the index of its node in ``nodes``: nothing changes
    in flight until a delivery or drop ends the packet. Its size is its kind's:
    ``INTEREST_SIZE_BITS`` or ``DATA_SIZE_BITS``.
    """

    packet_id: int
    kind: str
    prefix_id: int
    chunk_index: int
    nodes: tuple[int, ...]
    created_s: float = 0.0
    terminated_s: float | None = None
    outcome: str = UNTERMINATED

    @property
    def src(self) -> int:
        return self.nodes[0]

    @property
    def dst(self) -> int:
        return self.nodes[-1]

    @property
    def route(self) -> str:
        """The route as node ids joined by ``-``, formatted on each read."""
        return "-".join(map(str, self.nodes))


def split_interest(prefix, paths, now: float, ids: Iterator[int], routes: Routes) -> list[Packet]:
    """One interest packet per 8 MB chunk of the prefix's data object.

    Chunks are dealt round-robin across ``paths``, cheapest first. Single mode
    passes only the cheapest path, so every chunk takes it; multi mode passes
    up to k, and degrades to single-path when only one loopless path exists.
    Each chunk's ``nodes`` is the tuple that ``routes``, the run's route
    table, holds for its path; a path not yet in the table is stored there.
    """
    if not paths:
        raise RouteUnavailableError(f"no path toward prefix {prefix.prefix_id}")
    if prefix.size_mb % CHUNK_SIZE_MB:
        raise ValueError(f"object size {prefix.size_mb} MB is not a chunk multiple")
    packets = []
    for chunk in range(prefix.size_mb // CHUNK_SIZE_MB):
        route = routes[paths[chunk % len(paths)].nodes][0]
        packets.append(Packet(next(ids), INTEREST, prefix.prefix_id, chunk, route, now))
    return packets


def make_data_response(interest: Packet, node: int, ids: Iterator[int], routes: Routes) -> Packet:
    """Data chunk answering an interest that reached its anchor, ``node``.

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
    return Packet(next(ids), DATA, interest.prefix_id, interest.chunk_index,
                  routes[interest.nodes][1], interest.created_s)
