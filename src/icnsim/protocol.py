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


class RouteUnavailableError(ValueError):
    """No forwarding path is known for the requested prefix.

    Costs are finite and positive, so this means the consumer cannot reach
    any anchor of the prefix: a disconnected topology, which is bad input.
    """


@dataclass(slots=True)
class Packet:
    """One interest or data unit carrying its full source route; also its log record.

    ``hop_index`` points at the node of ``nodes`` the packet sits at (or is in
    flight toward). Routes are frozen at creation, so later cost changes never
    reroute a packet.
    """

    packet_id: int
    kind: str
    prefix_id: int
    chunk_index: int
    size_bits: int
    nodes: tuple[int, ...]
    hop_index: int = 0
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


def split_interest(prefix, paths, mode: str, now: float, ids: Iterator[int]) -> list[Packet]:
    """One interest packet per 8 MB chunk of the prefix's data object.

    Single mode pins every chunk to the cheapest path; multi mode deals chunks
    round-robin across the available paths (which degrades to single-path when
    only one loopless path exists).
    """
    if not paths:
        raise RouteUnavailableError(f"no path toward prefix {prefix.prefix_id}")
    if mode not in (MODE_SINGLE, MODE_MULTI):
        raise ValueError(f"unknown mode {mode!r}")
    if prefix.size_mb % CHUNK_SIZE_MB:
        raise ValueError(f"object size {prefix.size_mb} MB is not a chunk multiple")
    pool = paths[:1] if mode == MODE_SINGLE else paths
    packets = []
    for chunk in range(prefix.size_mb // CHUNK_SIZE_MB):
        route = tuple(pool[chunk % len(pool)].nodes)
        packets.append(Packet(next(ids), INTEREST, prefix.prefix_id, chunk,
                              INTEREST_SIZE_BITS, route, 0, now))
    return packets


def make_data_response(interest: Packet, ids: Iterator[int]) -> Packet:
    """Data chunk answering an interest that reached its anchor.

    The route is the interest's route reversed. The data packet inherits the
    interest's creation time, so its delivery time spans the full request
    round trip.
    """
    if interest.kind != INTEREST:
        raise RuntimeError(f"data response requested for a {interest.kind} packet")
    if interest.hop_index != len(interest.nodes) - 1:
        raise RuntimeError("data response requested before the interest reached its anchor")
    return Packet(next(ids), DATA, interest.prefix_id, interest.chunk_index,
                  DATA_SIZE_BITS, interest.nodes[::-1], 0, interest.created_s)
