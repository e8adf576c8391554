"""Deterministic discrete-event core with FIFO per-channel buffers.

A channel direction's queue head is the packet on the wire. These invariants
keep a run exact:

Events are ``(time, seq, kind, payload)`` tuples on one heap, and every push
takes the next seq from the ``Simulation``'s one counter, so ties pop in push
order. The run ends at the first pop at or past the horizon, which always
comes, since the next path update is always queued. No push falls before the
event being handled: every setting that ``validate_run`` accepts gives a
finite, non-negative delay, and a transmission takes a positive time.

Only the next interest waits on the heap. Every interest's event is built
and numbered at set-up; the others wait in a list sorted latest first, and
the handler of one interest pushes the next. Keys are unique, so events pop
in the same order as with every interest pushed at the start, while the heap
stays at tens of entries.

An arrival with no propagation delay, sent when nothing on the heap is due
now, would pop next, so the completion that sends it handles it in place,
after starting the channel's next transmission. What the arrival pushes then
still follows that transmission's completion, as if it had been popped; its
unused seq only leaves a gap in the tie-breaks.

A hop is one chain of handlers with no helper call between them:
``_forward``, ``_handle_transmit_complete``, ``_handle_receive``. Routes are
loopless, so the node an arrival reaches fixes its hop and a packet stores
none. An arrival off the route, or at its source, is a ``SimulationError``.

The k-th path update logs a load row and schedules the next update at
``k / path_updates_per_s``. It measures only the channels that transmitted
inside the window; every other one logs exactly 0.0, its busy time there. A
channel keeps only the transmissions that end after the latest window's
start, which never moves back, and the oldest kept one stores the busy total
before it, so loads equal a whole-run history's to the bit.

Tables are built at the first lookup after an update, from the row it
logged, so routes equal an eager rebuild's. A cost view starts from the idle
costs, which are also the floor of the run's one ``routing.LowerBounds``: no
load is negative and a cost never falls as load rises, so no view is below
the idle view.
"""

from __future__ import annotations

import functools
import gc
import heapq
import itertools
from collections import deque
from typing import NamedTuple

# Called as ``protocol.f`` and ``routing.f``, looked up at each call, so that
# the benchmark tracer can wrap them.
from . import metrics, protocol, routing

# Event kinds index the handler tuple that ``Simulation.run`` builds.
INIT_INTEREST, TRANSMIT_COMPLETE, RECEIVE, PATH_UPDATE = range(4)


def collector_paused(work):
    """Decorator: ``work`` runs with the cyclic garbage collector off.

    A run makes no reference cycles, so reference counting frees all it
    drops, and the collector would only walk the growing packet log again and
    again. It is turned back on afterwards only if it was on before, also when
    ``work`` raises, and only after ``work``'s locals are freed, so logs that
    ``work`` does not return are never walked.
    """
    @functools.wraps(work)
    def paused(*args, **kwargs):
        collecting = gc.isenabled()
        gc.disable()
        try:
            return work(*args, **kwargs)
        finally:
            if collecting:
                gc.enable()
    return paused


class SimulationError(RuntimeError):
    """Internal inconsistency; indicates a bug, not a modeled outcome."""


def _described(packet) -> str:
    """A packet named by what it stores, for an error message."""
    return f"{packet.kind} packet on route {packet.nodes} created at {packet.created_s}"


class InterestEvent(NamedTuple):
    """One scheduled request: a consumer asks for a prefix at a point in time."""

    time_s: float
    consumer: int
    prefix_id: int


class EventQueue:
    """Holds only ``pop``, ``heapq.heappop``, which a run reads off the class at its start.

    A class only so that the benchmark tracer can count events by replacing
    ``pop``; it counts every event but the arrivals handled in place.
    """

    pop = staticmethod(heapq.heappop)


class ChannelState:
    """Runtime state of one channel direction.

    ``sent`` holds ``(start, end, busy seconds before start)`` per transmission
    a later load window can still read, oldest first. ``busy_total`` sums every
    transmission's busy seconds, in order. ``serialization_s`` maps a packet
    kind to its size over the rate.
    """

    __slots__ = ("capacity_mbps", "channel_id", "to_node", "serialization_s", "queue", "sent",
                 "busy_total")

    def __init__(self, channel):
        self.capacity_mbps = channel.capacity_mbps
        self.channel_id = channel.channel_id
        self.to_node = channel.to_node
        rate_bps = channel.capacity_mbps * 1e6
        self.serialization_s = {protocol.INTEREST: protocol.INTEREST_SIZE_BITS / rate_bps,
                                protocol.DATA: protocol.DATA_SIZE_BITS / rate_bps}
        self.queue: deque[protocol.Packet] = deque()
        self.sent: deque[tuple[float, float, float]] = deque()
        self.busy_total = 0.0

    def busy_seconds(self, lo, hi):
        """Busy seconds in [lo, hi], given sent[0] ends after lo and sent[-1] starts by hi.

        A method so that the benchmark tracer can time each load sample. Each
        bound clips one transmission by comparison, a span below zero counting
        0.0; no operand is NaN or a negative zero.
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
    """One run over a fixed topology and interest schedule, in the module docstring's event order."""

    def __init__(self, config, topology, interests):
        config.validate_run()
        self.config = config
        self.topology = topology
        self.channels = [ChannelState(ch) for ch in topology.channels]
        # The channel from a node to a neighbor: outgoing[node][neighbor].
        self._outgoing: list[dict[int, ChannelState]] = [{} for _ in topology.nodes]
        for channel, state in zip(topology.channels, self.channels):
            self._outgoing[channel.from_node][channel.to_node] = state
        # Read on every hop, so kept off the config.
        self._buffer_packets = config.buffer_packets
        self._propagation_delay_s = config.propagation_delay_s
        self.packet_log = metrics.PacketLog()
        # The run's route and name tables (see ``protocol``).
        self._routes = protocol.Routes()
        self._names: dict[int, list[tuple[int, int]]] = {}
        self.load_log = metrics.LoadLog()
        # Channels that have transmitted since a path update last found them
        # idle for a whole load window, by channel id.
        self._active: dict[int, ChannelState] = {}
        # Floored at the idle costs (see the module docstring).
        self._bounds = routing.LowerBounds(topology, routing.idle_costs(topology, config.epsilon_mbps))
        # The tables for the last logged load row, or None until a lookup needs them.
        self.tables: routing.RouteSet | None = None
        seqs = self._seqs = itertools.count()
        heap = self._heap = [(0.0, next(seqs), PATH_UPDATE, None)]
        consumers = [set(topology.nodes).difference(p.anchors) for p in topology.prefixes]
        pending = []
        for ev in interests:
            if not 0.0 <= ev.time_s < config.horizon_s:
                # At or after the horizon it would never be handled: the run ends at that pop.
                raise ValueError(f"{ev}: needs a time in seconds in [0, horizon_s={config.horizon_s})")
            if not (0 <= ev.prefix_id < len(consumers) and ev.consumer in consumers[ev.prefix_id]):
                raise ValueError(f"{ev}: needs a known prefix and a consumer node that is not its anchor")
            pending.append((ev.time_s, next(seqs), INIT_INTEREST, ev))
        # Latest first, so the next one is popped off the end. (time, seq)
        # keys are unique, so the sort never compares payloads.
        pending.sort(reverse=True)
        self._pending = pending
        if pending:
            heapq.heappush(heap, pending.pop())

    @collector_paused
    def run(self):
        """Handle events to the horizon; returns the logs. Collector paused, see ``collector_paused``."""
        pop = EventQueue.pop
        heap = self._heap
        # Indexed by kind. Local: bound methods kept on self would hold a
        # finished run until a full GC.
        handlers = (self._handle_init_interest, self._handle_transmit_complete,
                    self._handle_receive, self._handle_path_update)
        horizon = self.config.horizon_s
        while True:
            now, _, kind, payload = pop(heap)
            if now >= horizon:
                break
            handlers[kind](now, payload)
        return self.load_log, self.packet_log

    # -- event handlers -------------------------------------------------

    def _handle_path_update(self, now, _):
        cfg = self.config
        window = cfg.load_window_s
        lo = now - window
        loads = [0.0] * len(self.channels)
        active = self._active
        for channel_id, state in list(active.items()):
            sent = state.sent
            while sent and sent[0][1] <= lo:
                sent.popleft()
            if not sent:
                del active[channel_id]
            else:
                cap = state.capacity_mbps
                load = cap * state.busy_seconds(lo, now) / window
                # Busy time summed from interval arithmetic can round past the
                # window. A load equal to the capacity becomes the capacity's
                # own float, so the samples of a saturated channel share one
                # object instead of each holding a copy.
                if load >= cap:
                    load = cap
                loads[channel_id] = load
        self.load_log.append(now, loads)
        # The tables wait for the first lookup; many updates see none.
        self.tables = None
        heapq.heappush(self._heap, (len(self.load_log.times) / cfg.path_updates_per_s,
                                    next(self._seqs), PATH_UPDATE, None))

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
        packets = protocol.split_interest(prefix, paths, now, self._routes, self._names)
        self.packet_log.packets.extend(packets)
        for packet in packets:
            self._forward(packet, 0, now)

    def _build_tables(self):
        """Routing tables for the load row logged at the last path update."""
        cfg = self.config
        view = routing.compute_cost_view(self.topology, self._bounds.floor, self.load_log.rows[-1],
                                         cfg.epsilon_mbps)
        return routing.rebuild_tables(view, cfg.k, self._bounds)[0]

    def _handle_transmit_complete(self, now, state):
        queue = state.queue
        packet = queue.popleft()
        heap = self._heap
        delay = self._propagation_delay_s
        inline = not delay and (not heap or heap[0][0] > now)
        if not inline:
            heapq.heappush(heap, (now + delay, next(self._seqs), RECEIVE, (state.to_node, packet)))
        if queue:
            # The next transmission starts now. The channel stays in
            # ``_active``: the one ending now kept it there.
            end = now + state.serialization_s[queue[0].kind]
            state.sent.append((now, end, state.busy_total))
            state.busy_total += end - now
            heapq.heappush(heap, (end, next(self._seqs), TRANSMIT_COMPLETE, state))
        if inline:
            self._handle_receive(now, (state.to_node, packet))

    def _handle_receive(self, now, arrival):
        node, packet = arrival
        route = packet.nodes
        try:
            hop = route.index(node)
        except ValueError:
            raise SimulationError(f"{_described(packet)} received at node {node}, off its route") from None
        if not hop:
            raise SimulationError(f"{_described(packet)} received at node {node}, its route's source")
        if hop < len(route) - 1:
            self._forward(packet, hop, now)
            return
        packet.outcome = protocol.DELIVERED
        packet.terminated_s = now
        if packet.kind == protocol.INTEREST:
            data = protocol.make_data_response(packet, node, self._routes)
            self.packet_log.packets.append(data)
            self._forward(data, 0, now)

    # -- channel mechanics ----------------------------------------------

    def _forward(self, packet, hop, now):
        """Queue the packet out of ``nodes[hop]``, sending it on an idle channel, or drop it if full."""
        route = packet.nodes
        state = self._outgoing[route[hop]][route[hop + 1]]
        queue = state.queue
        queued = len(queue)
        if queued >= self._buffer_packets:
            packet.outcome = protocol.DROPPED
            packet.terminated_s = now
            return
        queue.append(packet)
        if not queued:
            end = now + state.serialization_s[packet.kind]
            state.sent.append((now, end, state.busy_total))
            state.busy_total += end - now
            self._active[state.channel_id] = state
            heapq.heappush(self._heap, (end, next(self._seqs), TRANSMIT_COMPLETE, state))


def run(config, topology, interests):
    """Run one simulation; returns its ``metrics.LoadLog`` and ``metrics.PacketLog``.

    Of ``config`` it reads and checks only the run settings (``validate_run``);
    the topology and interests stand in for its scenario settings. Raises
    ValueError for a bad run setting, or for an interest whose time is NaN or
    outside [0, ``config.horizon_s``), whose prefix is unknown, or whose
    consumer is not a node or anchors the prefix, and
    ``protocol.RouteUnavailableError`` when a consumer can reach no anchor.
    """
    return Simulation(config, topology, interests).run()
