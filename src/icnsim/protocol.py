"""Packets, the chunking and response rules, and the per-run route table they share.

A run makes one route table (``Routes``) and passes it to the functions
below, so each route is stored once per run, with its reverse. A chunk's name
comes from its prefix (``topology.Prefix.chunk_names``).
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
DATA_SIZE_BITS = CHUNK_SIZE_MB * 8_000_000


class Routes(dict):
    """A run's route table: route nodes -> ``(route, reversed route)``, stored at first lookup."""

    __slots__ = ()

    def __missing__(self, nodes):
        pair = self[nodes] = (nodes, nodes[::-1])
        return pair


class RouteUnavailableError(ValueError):
    """No forwarding path is known for the requested prefix.

    Costs are finite, so the consumer cannot reach any anchor of the prefix:
    a disconnected ``Topology`` built by hand, which ``make_topology`` rejects.
    """


@dataclass(slots=True)
class Packet:
    """One interest or data unit carrying its full source route.

    ``kind`` is ``INTEREST`` or ``DATA`` and fixes the size, ``INTEREST_SIZE_BITS``
    or ``DATA_SIZE_BITS``; ``name`` is the chunk's name from its prefix. With no id
    (see ``metrics.PacketLog``) a packet takes 80 bytes, and one class for both
    kinds lets CPython specialize every packet attribute read. ``terminated_s``
    and ``outcome`` keep their defaults until a delivery or drop ends it.
    """

    kind: str
    name: tuple[int, int]
    nodes: tuple[int, ...]
    created_s: float = 0.0
    terminated_s: float | None = None
    outcome: str = UNTERMINATED


def split_interest(prefix, paths, now: float, routes: Routes) -> list[Packet]:
    """One interest packet per chunk of the prefix's data object, created at ``now``.

    ``paths`` are ranked ``(cost, nodes)`` pairs, as ``routing.RouteSet.paths``
    returns them; ``prefix.chunk_names`` are dealt round-robin across them,
    cheapest first. Routes come from the run's table, ``routes``.
    """
    if not paths:
        raise RouteUnavailableError(f"no path toward prefix {prefix.prefix_id}")
    names = prefix.chunk_names
    shared = [routes[nodes][0] for _, nodes in paths[:len(names)]]
    return [Packet(INTEREST, name, shared[chunk % len(shared)], now)
            for chunk, name in enumerate(names)]


def make_data_response(interest: Packet, node: int, routes: Routes) -> Packet:
    """The data chunk answering an interest that reached its anchor, ``node``.

    It holds the interest's name, its reversed route from ``routes``, and its
    creation time, so its delivery time spans the full round trip.
    """
    if interest.kind != INTEREST:
        raise RuntimeError(f"data response requested for a {interest.kind} packet")
    if node != interest.nodes[-1]:
        raise RuntimeError(f"data response requested at node {node}, not at the interest's anchor")
    return Packet(DATA, interest.name, routes[interest.nodes][1], interest.created_s)
