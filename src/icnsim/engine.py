"""Deterministic discrete-event core with FIFO per-channel buffers.

Packets are source-routed: the full node path is frozen into the packet at
creation and intermediate nodes simply follow it. Each channel direction
serializes one packet at a time (delay = size / capacity) from a bounded
tail-drop queue whose head is the packet on the wire. Periodic path-update
events measure per-channel load over a sliding window, refresh the cost view,
and swap in fresh routing tables. Only channels that transmitted inside the
window are measured; every other channel logs exactly 0.0, which is what its
busy time over the window would give.

A packet's object is its log record. It joins the log when it is created, and
ids come from one counter in creation order, so the log is in packet-id order.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from . import metrics, protocol, routing

INIT_INTEREST = "init_interest"
TRANSMIT_COMPLETE = "transmit_complete"
RECEIVE = "receive"
PATH_UPDATE = "path_update"
END_OF_RUN = "end_of_run"


class SimulationError(RuntimeError):
    """Internal inconsistency; indicates a bug, not a modeled outcome."""


class SchedulingError(SimulationError):
    """An event was scheduled before the current clock."""


class InterestEvent(NamedTuple):
    """One scheduled request: a consumer asks for a prefix at a point in time."""

    time_s: float
    consumer: int
    prefix_id: int


@dataclass(slots=True)
class Event:
    time: float
    kind: str
    seq: int = -1
    node: int = -1
    prefix_id: int = -1
    channel_id: int = -1
    packet: protocol.Packet | None = None


class EventQueue:
    """Events ordered by (time, seq); ties resolve in scheduling order."""

    def __init__(self):
        self._heap: list[tuple[float, int, Event]] = []
        self._count = itertools.count()
        self.clock = 0.0

    def __len__(self):
        return len(self._heap)

    def schedule(self, event: Event) -> Event:
        if event.time < self.clock:
            raise SchedulingError(
                f"event {event.kind} at t={event.time} scheduled after clock reached {self.clock}")
        event.seq = next(self._count)
        heapq.heappush(self._heap, (event.time, event.seq, event))
        return event

    def pop(self) -> Event:
        time, _, event = heapq.heappop(self._heap)
        self.clock = time
        return event


class ChannelState:
    """Runtime state of one channel direction.

    The queue head is the packet currently on the wire. Transmission intervals
    are kept as parallel (start, end, cumulative-busy) arrays so the busy time
    inside any window comes from two binary searches; this keeps measured load
    exact and bounded by capacity.
    """

    __slots__ = ("channel", "queue", "tx_starts", "tx_ends", "tx_cum", "_total_busy")

    def __init__(self, channel):
        self.channel = channel
        self.queue: deque[protocol.Packet] = deque()
        self.tx_starts: list[float] = []
        self.tx_ends: list[float] = []
        self.tx_cum: list[float] = []
        self._total_busy = 0.0

    def record_transmission(self, start, end):
        self.tx_cum.append(self._total_busy)
        self.tx_starts.append(start)
        self.tx_ends.append(end)
        self._total_busy += end - start

    def busy_seconds(self, lo, hi):
        return self._cum_at(hi) - self._cum_at(lo)

    def _cum_at(self, t):
        i = bisect_right(self.tx_starts, t) - 1
        if i < 0:
            return 0.0
        return self.tx_cum[i] + max(0.0, min(t, self.tx_ends[i]) - self.tx_starts[i])


class Simulation:
    """One run over a fixed topology and interest schedule."""

    def __init__(self, config, topology, interests):
        config.validate()
        self.config = config
        self.topology = topology
        self.queue = EventQueue()
        self.channels = [ChannelState(ch) for ch in topology.channels]
        self._channel_states = {(state.channel.from_node, state.channel.to_node): state
                                for state in self.channels}
        self.packets: list[protocol.Packet] = []
        self.load_log = metrics.LoadLog()
        # Channels that have transmitted since a path update last found them
        # idle for a whole load window, by channel id.
        self._active: dict[int, ChannelState] = {}
        self.tables: routing.RouteSet | None = None
        self.unroutable = 0
        self._ids = itertools.count()
        self._update_index = 0
        # The horizon sentinel goes in first so it wins the (time, seq) tie
        # against anything scheduled at exactly the horizon.
        self.queue.schedule(Event(config.horizon_s, END_OF_RUN))
        self.queue.schedule(Event(0.0, PATH_UPDATE))
        consumers = [set(topology.nodes).difference(p.anchors) for p in topology.prefixes]
        for ev in interests:
            if not 0.0 <= ev.time_s:
                raise ValueError(f"{ev}: needs a time that is a number of seconds >= 0")
            if not (0 <= ev.prefix_id < len(consumers) and ev.consumer in consumers[ev.prefix_id]):
                raise ValueError(f"{ev}: needs a known prefix and a consumer node that is not its anchor")
            self.queue.schedule(Event(ev.time_s, INIT_INTEREST, node=ev.consumer, prefix_id=ev.prefix_id))

    def run(self):
        # The loop tests the heap itself: a __len__ call per event is measurable.
        heap = self.queue._heap
        pop = self.queue.pop
        # Local: bound methods kept on self would hold a finished run until a full GC.
        handlers = {
            INIT_INTEREST: self._handle_init_interest,
            TRANSMIT_COMPLETE: self._handle_transmit_complete,
            RECEIVE: self._handle_receive,
            PATH_UPDATE: self._handle_path_update,
        }
        while heap:
            event = pop()
            if event.kind == END_OF_RUN:
                break
            handlers[event.kind](event)
        for packet in self.packets:
            if packet.outcome is None:
                packet.outcome = protocol.UNTERMINATED
        return self.load_log, self.packets

    # -- event handlers -------------------------------------------------

    def _handle_path_update(self, event):
        now = event.time
        cfg = self.config
        window = cfg.load_window_s
        lo = now - window
        loads = [0.0] * len(self.channels)
        active = self._active
        for channel_id, state in list(active.items()):
            if state.tx_ends[-1] <= lo:
                # Idle for the whole window: its busy time there is exactly 0.0.
                del active[channel_id]
            else:
                cap = state.channel.capacity_mbps
                # Busy time summed from interval arithmetic can round past the window.
                loads[channel_id] = min(cap, cap * state.busy_seconds(lo, now) / window)
        self.load_log.append(now, loads)
        view = routing.compute_cost_view(self.topology, loads.__getitem__, now, cfg.epsilon_mbps)
        self.tables, _ = routing.rebuild_tables(self.topology, view, cfg.k)
        self._update_index += 1
        self.queue.schedule(Event(self._update_index / cfg.path_updates_per_s, PATH_UPDATE))

    def _handle_init_interest(self, event):
        now = event.time
        prefix = self.topology.prefixes[event.prefix_id]
        paths = self.tables.paths(event.node, event.prefix_id)
        try:
            packets = protocol.split_interest(prefix, paths, self.config.mode, now, self._ids)
        except protocol.RouteUnavailableError:
            self.unroutable += 1
            return
        self.packets.extend(packets)
        for packet in packets:
            self._forward(packet, now)

    def _handle_transmit_complete(self, event):
        state = self.channels[event.channel_id]
        packet = state.queue.popleft()
        self.queue.schedule(Event(event.time + self.config.propagation_delay_s, RECEIVE, -1,
                                  state.channel.to_node, -1, -1, packet))
        if state.queue:
            self._start_transmission(state, event.time)

    def _handle_receive(self, event):
        packet = event.packet
        now = event.time
        route = packet.nodes
        if route[packet.hop_index] != event.node:
            raise SimulationError(
                f"packet {packet.packet_id} received at node {event.node}, "
                f"expected {route[packet.hop_index]}")
        if packet.hop_index < len(route) - 1:
            self._forward(packet, now)
            return
        if packet.kind == protocol.INTEREST:
            # Anchor reached: answer with a data chunk on the reversed route.
            self._terminate(packet, protocol.DELIVERED, now)
            data = protocol.make_data_response(packet, self._ids)
            self.packets.append(data)
            self._forward(data, now)
        else:
            self._terminate(packet, protocol.DELIVERED, now)

    # -- channel mechanics ----------------------------------------------

    def _forward(self, packet, now):
        """Queue the packet on the channel to its next hop, or drop it if that buffer is full."""
        route = packet.nodes
        hop = packet.hop_index
        packet.hop_index = hop + 1
        state = self._channel_states[route[hop], route[hop + 1]]
        queue = state.queue
        if len(queue) >= state.channel.buffer_packets:
            self._terminate(packet, protocol.DROPPED, now)
            return
        queue.append(packet)
        if len(queue) == 1:
            self._start_transmission(state, now)

    def _start_transmission(self, state, now):
        packet = state.queue[0]
        end = now + packet.size_bits / (state.channel.capacity_mbps * 1e6)
        state.record_transmission(now, end)
        channel_id = state.channel.channel_id
        self._active[channel_id] = state
        self.queue.schedule(Event(end, TRANSMIT_COMPLETE, -1, -1, -1, channel_id))

    def _terminate(self, packet, outcome, now):
        packet.outcome = outcome
        packet.terminated_s = now


def run(config, topology, interests):
    """Run one simulation; returns (load_log, packets), packets in packet-id order.

    Raises ValueError if an interest has a negative or NaN time, names an unknown
    prefix, or names a consumer that is not a node or anchors the prefix.
    """
    return Simulation(config, topology, interests).run()
