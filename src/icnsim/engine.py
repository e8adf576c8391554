"""Deterministic discrete-event core with FIFO per-channel buffers.

Packets are source-routed: the full node path is frozen into the packet at
creation and intermediate nodes simply follow it. Each channel direction
serializes one packet at a time (delay = size / capacity) from a tail-drop
queue of at most ``config.buffer_packets`` packets, whose head is the packet
on the wire. Every run setting, buffer size and cost clamp included, comes
from the ``SimulationConfig``; the topology holds only the graph.

Periodic path-update events measure per-channel load over a sliding window,
log them, and retire the routing tables. Only channels that transmitted
inside the window are measured; every other channel logs exactly 0.0, which
is what its busy time over the window would give. Fresh tables are built at
the first lookup after an update, from the loads logged at that update: the
cost view, a tuple of costs indexed by channel id, starts from every
channel's idle cost, computed once per run, and overwrites only the measured
channels. An update with no interest before the next one builds nothing.

Events are plain ``(time, seq, kind, payload)`` tuples handled in (time, seq)
order, where ``seq`` is the scheduling order. With no propagation delay every
completed transmission schedules its arrival at the current time; such events
skip the heap and wait in a FIFO same-time lane inside ``EventQueue``. That
keeps (time, seq) order exactly: every heap event due at the current time was
scheduled before the clock reached it, so it pops first, and the lane is
drained before the clock moves.

A packet's object is its log record. It joins the log when it is created, as
``Unterminated`` until a delivery or drop ends it, and ids come from one
counter in creation order, so the log is in packet-id order.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_right
from collections import deque
from typing import NamedTuple

from . import metrics, protocol, routing

# Event kinds index the handler tuple that ``Simulation.run`` builds.
INIT_INTEREST, TRANSMIT_COMPLETE, RECEIVE, PATH_UPDATE, END_OF_RUN = range(5)


class SimulationError(RuntimeError):
    """Internal inconsistency; indicates a bug, not a modeled outcome."""


class SchedulingError(SimulationError):
    """An event was scheduled before the current clock."""


class InterestEvent(NamedTuple):
    """One scheduled request: a consumer asks for a prefix at a point in time."""

    time_s: float
    consumer: int
    prefix_id: int


class EventQueue:
    """Events ``(time, seq, kind, payload)`` popped in (time, seq) order.

    ``seq`` counts schedule calls, so ties resolve in scheduling order. An
    event at exactly the clock goes to a FIFO lane; later events go to a heap.
    ``pop`` takes the lane only once no heap event is due at the clock, which
    is exactly (time, seq) order: a heap event due now was scheduled before
    the clock reached its time, so it has a smaller seq than any lane event;
    the lane leaves in seq order; and the clock moves only once the lane is
    empty.
    """

    def __init__(self):
        self._heap: list[tuple] = []
        self._lane: deque[tuple] = deque()
        self._count = itertools.count()
        self.clock = 0.0

    def __len__(self):
        return len(self._heap) + len(self._lane)

    def schedule(self, time, kind, payload=None) -> None:
        clock = self.clock
        if time == clock:
            self._lane.append((time, next(self._count), kind, payload))
        elif time > clock:
            heapq.heappush(self._heap, (time, next(self._count), kind, payload))
        else:
            # NaN lands here too: it is not at or after any clock.
            raise SchedulingError(f"event kind {kind} at t={time} scheduled after clock reached {clock}")

    def pop(self) -> tuple:
        lane = self._lane
        heap = self._heap
        if lane and (not heap or heap[0][0] > self.clock):
            return lane.popleft()
        event = heapq.heappop(heap)
        self.clock = event[0]
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
        # Each channel's cost with no load; a cost view overwrites the measured ones.
        self._idle_costs = routing.idle_costs(topology, config.epsilon_mbps)
        # (channel id, load) pairs measured at the last path update, and the
        # tables built from them, or None until a lookup needs them.
        self._measured: list[tuple[int, float]] = []
        self.tables: routing.RouteSet | None = None
        self._ids = itertools.count()
        self._update_index = 0
        # The horizon sentinel goes in first so it wins the (time, seq) tie
        # against anything scheduled at exactly the horizon.
        self.queue.schedule(config.horizon_s, END_OF_RUN)
        self.queue.schedule(0.0, PATH_UPDATE)
        consumers = [set(topology.nodes).difference(p.anchors) for p in topology.prefixes]
        for ev in interests:
            if not 0.0 <= ev.time_s < config.horizon_s:
                # At or after the horizon it would never pop: END_OF_RUN wins the tie.
                raise ValueError(f"{ev}: needs a time in seconds in [0, horizon_s={config.horizon_s})")
            if not (0 <= ev.prefix_id < len(consumers) and ev.consumer in consumers[ev.prefix_id]):
                raise ValueError(f"{ev}: needs a known prefix and a consumer node that is not its anchor")
            self.queue.schedule(ev.time_s, INIT_INTEREST, ev)

    def run(self):
        pop = self.queue.pop
        # Indexed by kind. Local: bound methods kept on self would hold a
        # finished run until a full GC.
        handlers = (self._handle_init_interest, self._handle_transmit_complete,
                    self._handle_receive, self._handle_path_update)
        # END_OF_RUN stays queued until it pops, so the queue never runs dry.
        while True:
            now, _, kind, payload = pop()
            if kind == END_OF_RUN:
                break
            handlers[kind](now, payload)
        return self.load_log, self.packets

    # -- event handlers -------------------------------------------------

    def _handle_path_update(self, now, _):
        cfg = self.config
        window = cfg.load_window_s
        lo = now - window
        loads = [0.0] * len(self.channels)
        measured = []
        active = self._active
        for channel_id, state in list(active.items()):
            if state.tx_ends[-1] <= lo:
                # Idle for the whole window: its busy time there is exactly 0.0.
                del active[channel_id]
            else:
                cap = state.channel.capacity_mbps
                # Busy time summed from interval arithmetic can round past the window.
                load = loads[channel_id] = min(cap, cap * state.busy_seconds(lo, now) / window)
                measured.append((channel_id, load))
        self.load_log.append(now, loads)
        # The tables wait for the first lookup; many updates see none.
        self._measured = measured
        self.tables = None
        self._update_index += 1
        self.queue.schedule(self._update_index / cfg.path_updates_per_s, PATH_UPDATE)

    def _handle_init_interest(self, now, interest):
        tables = self.tables
        if tables is None:
            tables = self.tables = self._build_tables()
        prefix = self.topology.prefixes[interest.prefix_id]
        paths = tables.paths(interest.consumer, interest.prefix_id)
        packets = protocol.split_interest(prefix, paths, self.config.mode, now, self._ids)
        self.packets.extend(packets)
        for packet in packets:
            self._forward(packet, now)

    def _build_tables(self):
        """Routing tables for the loads measured at the last path update."""
        cfg = self.config
        view = routing.compute_cost_view(self.topology, self._idle_costs, self._measured,
                                         cfg.epsilon_mbps)
        return routing.rebuild_tables(self.topology, view, cfg.k)[0]

    def _handle_transmit_complete(self, now, state):
        packet = state.queue.popleft()
        # With no propagation delay this lands in the queue's same-time lane.
        self.queue.schedule(now + self.config.propagation_delay_s, RECEIVE,
                            (state.channel.to_node, packet))
        if state.queue:
            self._start_transmission(state, now)

    def _handle_receive(self, now, arrival):
        node, packet = arrival
        route = packet.nodes
        if route[packet.hop_index] != node:
            raise SimulationError(
                f"packet {packet.packet_id} received at node {node}, "
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
        if len(queue) >= self.config.buffer_packets:
            self._terminate(packet, protocol.DROPPED, now)
            return
        queue.append(packet)
        if len(queue) == 1:
            self._start_transmission(state, now)

    def _start_transmission(self, state, now):
        packet = state.queue[0]
        end = now + packet.size_bits / (state.channel.capacity_mbps * 1e6)
        state.record_transmission(now, end)
        self._active[state.channel.channel_id] = state
        self.queue.schedule(end, TRANSMIT_COMPLETE, state)

    def _terminate(self, packet, outcome, now):
        packet.outcome = outcome
        packet.terminated_s = now


def run(config, topology, interests):
    """Run one simulation; returns (load_log, packets), packets in packet-id order.

    Raises ValueError if an interest's time is NaN or outside
    [0, ``config.horizon_s``), if it names an unknown prefix, or if it names a
    consumer that is not a node or anchors the prefix. Raises
    ``protocol.RouteUnavailableError``, a ValueError, when an interest's consumer
    can reach no anchor of its prefix; only a hand-built disconnected
    ``Topology`` allows that, since ``make_topology`` rejects one.
    """
    return Simulation(config, topology, interests).run()
