"""Deterministic discrete-event core with FIFO per-channel buffers.

Packets are source-routed: the full node path is frozen into the packet at
creation and intermediate nodes simply follow it. Each channel direction
serializes one packet at a time (delay = size / capacity) from a tail-drop
queue of at most ``config.buffer_packets`` packets, whose head is the packet
on the wire. Every run setting, buffer size and cost clamp included, comes
from the ``SimulationConfig``; the topology holds only the graph.

Periodic path-update events measure per-channel load over a sliding window,
log them, and retire the routing tables. Only channels that transmitted inside
the window are measured; every other channel logs exactly 0.0, which is what
its busy time over the window would give. A channel keeps only the
transmissions that end after the latest window's start, which never moves
back; the oldest kept one stores the busy total before it, so loads equal a
whole-run history's to the bit. A sample clips its window bounds and its
load with plain comparisons, not the builtins ``min`` and ``max``, whose
calls cost more than the arithmetic. For floats that are neither NaN nor a
negative zero, as no time or load is, a comparison gives the float the
builtin would, ties included, so loads are the same either way.

Fresh tables are built at the first lookup after an update, from the loads
logged at that update: the cost view, a tuple of costs indexed by channel id,
starts from every channel's idle cost, computed once per run, and overwrites
only the measured channels. An update with no interest before the next one
builds nothing. The path searches' lower bounds are computed once per run
too, one reverse Dijkstra per prefix at its first lookup, under the idle
costs: no load is negative and a channel's cost never falls as its load
rises, so every view is at least the idle view.

Events are plain ``(time, seq, kind, payload)`` tuples on one heap, handled
in (time, seq) order, where ``seq`` is the scheduling order. An arrival with
no propagation delay is due now; if nothing else is, it would pop next, so the
completion that sends it handles it in place, after starting the channel's
next transmission. What the arrival schedules then still follows that
transmission's completion, exactly as from the queue, and its unused ``seq``
only leaves a gap in the tie-breaks.

Only events that can come due soon wait on the heap: the run's end, the next
path update, the in-flight completions and arrivals, and the earliest pending
interest. Every interest's event tuple is built up front, with the seq it
would get if it were scheduled then, and the rest wait in a sorted list; the
handler of one interest pushes the next. Keys are unique and the list is
sorted, so the earliest pending interest is always on the heap and every
other one is ordered after it: events pop in the same (time, seq) order as
with all interests queued at the start, and ``idle_at_clock`` gives the same
answer. The heap then holds tens of entries instead of thousands, so each
push and pop sifts through fewer levels. A completion is pushed straight onto
the heap with the next seq, as ``schedule`` would push it; it never falls
before the clock, because sizes and rates are positive.

A packet's object is its log record. It joins the log when it is created, as
``Unterminated`` until a delivery or drop ends it, and ids come from one
counter in creation order, so the log is in packet-id order. Routes are
shared per run: every packet on a route holds the same ``nodes`` tuple, and
every data packet answering it the same reversed tuple, from the run's route
table (see ``protocol.Routes``).

The cyclic garbage collector is paused for the event loop and left as the
caller had it. A run makes no reference cycles, so reference counting alone
frees everything it drops, and the collector would only walk the growing
packet log again and again. ``Simulation.run`` turns it back on only if it
was on before, also when the run raises.
"""

from __future__ import annotations

import gc
import heapq
import itertools
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
    """Events ``(time, seq, kind, payload)`` on one heap, popped in (time, seq) order.

    ``seqs`` counts the events scheduled, so ties resolve in scheduling order.
    A caller that has checked an event is not before the clock may take its
    seq from ``seqs`` and push it onto ``heap`` itself, as ``schedule`` would.
    """

    def __init__(self):
        self.heap: list[tuple] = []
        self.seqs = itertools.count()
        self.clock = 0.0

    def __len__(self):
        return len(self.heap)

    def schedule(self, time, kind, payload=None) -> None:
        if not time >= self.clock:
            # NaN lands here too: it is not at or after any clock.
            raise SchedulingError(f"event kind {kind} at t={time} scheduled after clock reached {self.clock}")
        heapq.heappush(self.heap, (time, next(self.seqs), kind, payload))

    def idle_at_clock(self) -> bool:
        """Whether no event is due at the clock, so an event scheduled now would pop next."""
        heap = self.heap
        return not heap or heap[0][0] > self.clock

    def pop(self) -> tuple:
        event = heapq.heappop(self.heap)
        self.clock = event[0]
        return event


class ChannelState:
    """Runtime state of one channel direction.

    The queue head is the packet on the wire. ``sent`` holds ``(start, end,
    busy seconds before start)`` per transmission that a later load window
    can still read, oldest first; path updates prune it from the left.
    ``busy_total`` sums every transmission's busy seconds so far, a left fold
    in transmission order. The channel's id, far end and rate in bit/s are
    copied out of it for the per-hop handlers.
    """

    __slots__ = ("channel", "channel_id", "to_node", "rate_bps", "queue", "sent", "busy_total")

    def __init__(self, channel):
        self.channel = channel
        self.channel_id = channel.channel_id
        self.to_node = channel.to_node
        self.rate_bps = channel.capacity_mbps * 1e6
        self.queue: deque[protocol.Packet] = deque()
        self.sent: deque[tuple[float, float, float]] = deque()
        self.busy_total = 0.0

    def busy_seconds(self, lo, hi):
        """Busy seconds in [lo, hi], given sent[0] ends after lo and sent[-1] starts by hi.

        Each bound clips a transmission with plain comparisons, not the
        builtins ``max(0.0, min(hi, end) - start)``: a builtin call costs far
        more than the arithmetic. The floats are the same, ties included:
        at ``end == hi`` both keep the equal value, and ``end - start > 0.0``
        exactly when ``end > start``. No operand is NaN or a negative zero.
        """
        start, end, before = self.sent[-1]
        if end > hi:
            end = hi
        busy_to_hi = before + (end - start if end > start else 0.0)
        start, end, before = self.sent[0]
        if end > lo:
            end = lo
        return busy_to_hi - (before + (end - start if end > start else 0.0))


class Simulation:
    """One run over a fixed topology and interest schedule.

    The queue starts with the run's end, the first path update and the
    earliest interest. The other interests' events, built and given their
    seqs here in input order, wait in ``_pending``, latest first, until the
    interest before each one is handled.
    """

    def __init__(self, config, topology, interests):
        config.validate_run()
        self.config = config
        self.topology = topology
        self.queue = EventQueue()
        self.channels = [ChannelState(ch) for ch in topology.channels]
        # The channel from a node to a neighbor: outgoing[node][neighbor].
        self._outgoing: list[dict[int, ChannelState]] = [{} for _ in topology.nodes]
        for state in self.channels:
            self._outgoing[state.channel.from_node][state.to_node] = state
        # Read on every hop, so kept off the config.
        self._buffer_packets = config.buffer_packets
        self._propagation_delay_s = config.propagation_delay_s
        self.packets: list[protocol.Packet] = []
        # Each route once per run, with its reverse, for every packet on it.
        self._routes = protocol.Routes()
        self.load_log = metrics.LoadLog()
        # Channels that have transmitted since a path update last found them
        # idle for a whole load window, by channel id.
        self._active: dict[int, ChannelState] = {}
        # Each channel's cost with no load; a cost view overwrites the measured ones.
        self._idle_costs = routing.idle_costs(topology, config.epsilon_mbps)
        # No view is below the idle view, so its distances bound every table's
        # searches; each prefix's are computed at its first lookup.
        self._bounds = routing.LowerBounds(topology, self._idle_costs)
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
        # The events scheduling every interest now would push, seqs included.
        seqs = self.queue.seqs
        pending = []
        for ev in interests:
            if not 0.0 <= ev.time_s < config.horizon_s:
                # At or after the horizon it would never pop: END_OF_RUN wins the tie.
                raise ValueError(f"{ev}: needs a time in seconds in [0, horizon_s={config.horizon_s})")
            if not (0 <= ev.prefix_id < len(consumers) and ev.consumer in consumers[ev.prefix_id]):
                raise ValueError(f"{ev}: needs a known prefix and a consumer node that is not its anchor")
            pending.append((ev.time_s, next(seqs), INIT_INTEREST, ev))
        # Latest first, so the next one is popped off the end. (time, seq)
        # keys are unique, so the sort never compares payloads.
        pending.sort(reverse=True)
        self._pending = pending
        # Pushed onto directly, with seqs from the queue's counter.
        self._heap = self.queue.heap
        self._seqs = seqs
        if pending:
            heapq.heappush(self._heap, pending.pop())

    def run(self):
        """Handle events up to the horizon; returns (load_log, packets).

        The cyclic collector is off while events are handled, since a run
        makes no reference cycles, and is turned back on afterwards only if
        it was on when the run started, also when a handler raises.
        """
        pop = self.queue.pop
        # Indexed by kind. Local: bound methods kept on self would hold a
        # finished run until a full GC.
        handlers = (self._handle_init_interest, self._handle_transmit_complete,
                    self._handle_receive, self._handle_path_update)
        collecting = gc.isenabled()
        gc.disable()
        try:
            # END_OF_RUN stays queued until it pops, so the queue never runs dry.
            while True:
                now, _, kind, payload = pop()
                if kind == END_OF_RUN:
                    break
                handlers[kind](now, payload)
        finally:
            if collecting:
                gc.enable()
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
            sent = state.sent
            while sent and sent[0][1] <= lo:
                sent.popleft()
            if not sent:
                # Idle for the whole window: its busy time there is exactly 0.0.
                del active[channel_id]
            else:
                cap = state.channel.capacity_mbps
                load = cap * state.busy_seconds(lo, now) / window
                # Busy time summed from interval arithmetic can round past the
                # window. A load equal to the capacity becomes the capacity's
                # own float, so the samples of a saturated channel share one
                # object instead of each holding a copy.
                if load >= cap:
                    load = cap
                loads[channel_id] = load
                measured.append((channel_id, load))
        self.load_log.append(now, loads)
        # The tables wait for the first lookup; many updates see none.
        self._measured = measured
        self.tables = None
        self._update_index += 1
        self.queue.schedule(self._update_index / cfg.path_updates_per_s, PATH_UPDATE)

    def _handle_init_interest(self, now, interest):
        # The next interest is ordered after this one, so it joins the heap now.
        pending = self._pending
        if pending:
            heapq.heappush(self._heap, pending.pop())
        tables = self.tables
        if tables is None:
            tables = self.tables = self._build_tables()
        prefix = self.topology.prefixes[interest.prefix_id]
        paths = tables.paths(interest.consumer, interest.prefix_id)
        packets = protocol.split_interest(prefix, paths, now, self._ids, self._routes)
        self.packets.extend(packets)
        for packet in packets:
            self._forward(packet, now)

    def _build_tables(self):
        """Routing tables for the loads measured at the last path update."""
        cfg = self.config
        view = routing.compute_cost_view(self.topology, self._idle_costs, self._measured,
                                         cfg.epsilon_mbps)
        return routing.rebuild_tables(self.topology, view, cfg.k, self._bounds)[0]

    def _handle_transmit_complete(self, now, state):
        packet = state.queue.popleft()
        # An arrival due now with nothing else due would pop next: handle it here.
        inline = not self._propagation_delay_s and self.queue.idle_at_clock()
        if not inline:
            self.queue.schedule(now + self._propagation_delay_s, RECEIVE, (state.to_node, packet))
        if state.queue:
            self._start_transmission(state, now)
        if inline:
            self._handle_receive(now, (state.to_node, packet))

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
            data = protocol.make_data_response(packet, self._ids, self._routes)
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
        state = self._outgoing[route[hop]][route[hop + 1]]
        queue = state.queue
        queued = len(queue)
        if queued >= self._buffer_packets:
            self._terminate(packet, protocol.DROPPED, now)
            return
        queue.append(packet)
        if not queued:
            self._start_transmission(state, now)

    def _start_transmission(self, state, now):
        end = now + state.queue[0].size_bits / state.rate_bps
        state.sent.append((now, end, state.busy_total))
        state.busy_total += end - now
        self._active[state.channel_id] = state
        # Never before the clock, since sizes and rates are positive.
        heapq.heappush(self._heap, (end, next(self._seqs), TRANSMIT_COMPLETE, state))

    def _terminate(self, packet, outcome, now):
        packet.outcome = outcome
        packet.terminated_s = now


def run(config, topology, interests):
    """Run one simulation; returns (load_log, packets), packets in packet-id order.

    Of ``config`` it reads and checks only the run settings (``validate_run``);
    the topology and interests stand in for its scenario settings. Raises
    ValueError for a bad run setting, or for an interest whose time is NaN or
    outside [0, ``config.horizon_s``), whose prefix is unknown, or whose
    consumer is not a node or anchors the prefix. Raises
    ``protocol.RouteUnavailableError``, a ValueError, when a consumer can reach
    no anchor of its prefix: only a hand-built disconnected ``Topology`` can.

    Packets on equal routes share one ``nodes`` tuple. The cyclic collector is
    paused while events are handled, which is safe because a run makes no
    reference cycles, and is left on or off as the caller had it.
    """
    return Simulation(config, topology, interests).run()
