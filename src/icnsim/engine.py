"""Deterministic discrete-event core with FIFO per-channel buffers.

Packets are source-routed: the full node path is frozen into the packet at
creation and intermediate nodes simply follow it. Each channel direction
serializes one packet at a time (delay = size / capacity) from a tail-drop
queue of at most ``config.buffer_packets`` packets, whose head is the packet
on the wire. Every run setting, buffer size and cost clamp included, comes
from the ``SimulationConfig``; the topology holds only the graph.

Periodic path-update events measure per-channel load over a sliding window,
log them, and retire the routing tables. The k-th update schedules the next
one at ``k / path_updates_per_s``, where k is the number of rows logged. Only
channels that transmitted inside the window are measured; every other channel
logs exactly 0.0, which is what its busy time over the window would give. A channel keeps only the
transmissions that end after the latest window's start, which never moves
back; the oldest kept one stores the busy total before it, so loads equal a
whole-run history's to the bit.

Fresh tables are built at the first lookup after an update, from the load
row logged at that update, the log's last: the cost view, a tuple of costs
indexed by channel id, starts from every channel's idle cost, computed once
per run as the floor of the searches' lower bounds, and overwrites only the
channels with a nonzero load. An update with no interest before the next one
builds nothing. The lower bounds are computed once per run too, one reverse
Dijkstra per prefix at its first lookup, under the idle costs: no load is
negative and a channel's cost never falls as its load rises, so every view is
at least the idle view.

Events are ``(time, seq, kind, payload)`` tuples on one heap, handled in
(time, seq) order. The ``Simulation`` pushes every event itself with the next
seq from its one counter, so ties resolve in push order. The run ends at the
first pop at or past the horizon, which is not handled: an event at exactly
the horizon is not part of the run. That pop always comes, since the next
path update is always queued. No push falls before the event being handled:
``validate_run`` checks that the horizon is positive, the update rate finite
and positive, and the propagation delay finite and not negative, and a
transmission takes a positive time.

Only the next interest waits on the heap. Every interest's event is built and
numbered at set-up, and the others wait in a list sorted latest first; the
handler of one interest pushes the next. Keys are unique, so the interest on
the heap precedes every other pending one, and events pop in the same order
as with all interests pushed at the start. The heap then holds tens of
entries instead of thousands, so each push and pop sifts through fewer
levels.

An arrival with no propagation delay is due now. When nothing on the heap is
due now it would pop next, so the completion that sends it handles it in
place, after starting the channel's next transmission. What the arrival
pushes then still follows that transmission's completion, as it would if the
arrival had been popped, and its unused seq only leaves a gap in the
tie-breaks.

A hop is one chain of three handlers, with no helper call between them:
``_forward`` queues a packet, or drops it, and starts an idle channel's
transmission itself; ``_handle_transmit_complete`` starts the next queued
one; ``_handle_receive`` forwards the packet or ends it as delivered. A
packet stores no hop: ``_forward`` is given the index of the node it sends
from, 0 for a new packet, and ``_handle_receive`` finds the arrival's node in
the route, which is loopless, so the node fixes the hop. An arrival at a node
off the route, or at the route's source, which no arrival can reach, is a
``SimulationError``.

The benchmark tracer replaces ``EventQueue.pop`` on the class, which pops
every event but the arrivals handled in place, wraps
``ChannelState.busy_seconds`` at every load sample, and wraps the
module-level calls into ``protocol`` and ``routing``, so the engine looks each
of them up at run time. Untraced, ``EventQueue.pop`` is ``heapq.heappop``
itself, which the run reads off the class when it starts and calls on the
heap.

A packet's object is kept in the run's ``metrics.PacketLog``. It joins the
log when it is created, as ``Unterminated`` until a delivery or drop ends it;
its id is its position in the log. Every packet is a ``protocol.Packet``, one
class, so CPython can specialize each packet attribute read for it. The run
makes its route table and its name table (see ``protocol``) next to its log.

The cyclic garbage collector is paused for the event loop, and for the whole
``cli.run_single`` and ``cli.run_batch`` calls. A run makes no reference
cycles, so reference counting alone frees everything it drops, and the
collector would only walk the growing packet log again and again.
"""

from __future__ import annotations

import functools
import gc
import heapq
import itertools
from collections import deque
from typing import NamedTuple

from . import metrics, protocol, routing

# Event kinds index the handler tuple that ``Simulation.run`` builds.
INIT_INTEREST, TRANSMIT_COMPLETE, RECEIVE, PATH_UPDATE = range(4)


def collector_paused(work):
    """Decorator: ``work`` runs with the cyclic garbage collector off.

    The collector is turned back on afterwards only if it was on before, also
    when ``work`` raises. A function's locals are freed by reference counting
    when it returns, before the collector resumes, so a decorated function
    that returns only summaries never has its logs walked by the collector,
    not even at the first collection after resuming.
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
    """Holds only ``pop``, which the run calls on its event heap.

    It stays a class only so that the benchmark tracer can count pops by
    replacing ``pop``; the heap itself is ``Simulation._heap``.
    """

    pop = staticmethod(heapq.heappop)


class ChannelState:
    """Runtime state of one channel direction.

    The queue head is the packet on the wire. ``sent`` holds ``(start, end,
    busy seconds before start)`` per transmission that a later load window
    can still read, oldest first; path updates prune it from the left.
    ``busy_total`` sums every transmission's busy seconds so far, a left fold
    in transmission order. ``serialization_s`` maps a packet kind to the
    seconds a packet of that kind takes to serialize: its size over the rate.
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

    The event heap, ``_heap``, starts with the first path update and the
    earliest interest. The other interests' events, built and given their
    seqs here in input order, wait in ``_pending``, latest first, until the
    interest before each one is handled.
    """

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
        # No view is below the idle view, each channel's cost with no load, so
        # its distances bound every table's searches; each prefix's are
        # computed at its first lookup. A cost view starts from its floor.
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
        """Handle events up to the horizon; returns (load_log, packet_log).

        The cyclic collector is off while events are handled, since a run
        makes no reference cycles, and is turned back on afterwards only if
        it was on when the run started, also when a handler raises.
        """
        pop = EventQueue.pop
        heap = self._heap
        # Indexed by kind. Local: bound methods kept on self would hold a
        # finished run until a full GC.
        handlers = (self._handle_init_interest, self._handle_transmit_complete,
                    self._handle_receive, self._handle_path_update)
        horizon = self.config.horizon_s
        # A path update is always queued, so a pop at or past the horizon always comes.
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
                # Idle for the whole window: its busy time there is exactly 0.0.
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
        """Routing tables for the load row logged at the last path update.

        The cost view starts from the idle costs, the lower bounds' floor.
        """
        cfg = self.config
        view = routing.compute_cost_view(self.topology, self._bounds.floor, self.load_log.rows[-1],
                                         cfg.epsilon_mbps)
        return routing.rebuild_tables(view, cfg.k, self._bounds)[0]

    def _handle_transmit_complete(self, now, state):
        queue = state.queue
        packet = queue.popleft()
        heap = self._heap
        delay = self._propagation_delay_s
        # An arrival due now with nothing else due would pop next: handle it here.
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
            # Anchor reached: answer with a data chunk on the reversed route.
            data = protocol.make_data_response(packet, node, self._routes)
            self.packet_log.packets.append(data)
            self._forward(data, 0, now)

    # -- channel mechanics ----------------------------------------------

    def _forward(self, packet, hop, now):
        """Queue the packet on its channel out of ``nodes[hop]``, or drop it if that buffer is full.

        An idle channel starts transmitting it at once.
        """
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
    consumer is not a node or anchors the prefix. Raises
    ``protocol.RouteUnavailableError``, a ValueError, when a consumer can reach
    no anchor of its prefix: only a hand-built disconnected ``Topology`` can.

    Packets share routes and chunk names per run (see ``protocol``). The
    cyclic collector is paused while events are handled, which is safe
    because a run makes no reference cycles, and is left on or off as the
    caller had it.
    """
    return Simulation(config, topology, interests).run()
