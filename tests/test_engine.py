import gc
import itertools
import weakref
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from icnsim import engine as E
from icnsim import metrics as M
from icnsim import protocol as P
from icnsim.config import SimulationConfig
from icnsim.topology import Channel, Prefix, Topology, make_topology

from oracles import HeapQueue, check_conservation


def two_node_topology(capacity=1024.0, size_mb=16):
    return make_topology(2, [(0, 1, capacity)], [Prefix(0, size_mb, (1,))])


def short_config(**overrides):
    base = dict(nodes=2, edges=1, prefixes=1, interests=1, mode=P.MODE_SINGLE,
                horizon_s=40.0, interest_window_s=30.0, warmup_s=5.0, cooldown_start_s=35.0)
    base.update(overrides)
    return SimulationConfig(**base)


# -- event queue -------------------------------------------------------

def test_queue_pops_singleton():
    q = E.EventQueue()
    q.schedule(5.0, E.PATH_UPDATE)
    assert q.pop() == (5.0, 0, E.PATH_UPDATE, None)
    assert q.clock == 5.0


def test_queue_ties_resolve_in_schedule_order():
    q = E.EventQueue()
    q.schedule(5.0, E.RECEIVE, "first")
    q.schedule(5.0, E.RECEIVE, "second")
    assert q.pop()[3] == "first"
    assert q.pop()[3] == "second"


def test_queue_rejects_events_in_the_past():
    q = E.EventQueue()
    q.schedule(2.0, E.PATH_UPDATE)
    q.pop()
    with pytest.raises(E.SchedulingError):
        q.schedule(1.0, E.PATH_UPDATE)
    with pytest.raises(E.SchedulingError):
        q.schedule(float("nan"), E.PATH_UPDATE)


def test_queue_yields_nondecreasing_times():
    q = E.EventQueue()
    for t in (7.0, 1.0, 3.0, 3.0, 0.5, 9.0):
        q.schedule(t, E.PATH_UPDATE)
    popped = [q.pop()[0] for _ in range(len(q))]
    assert popped == sorted(popped)


def test_queue_event_at_clock_pops_after_heap_event_due_then():
    q = E.EventQueue()
    q.schedule(2.0, E.TRANSMIT_COMPLETE, "a")
    q.schedule(2.0, E.TRANSMIT_COMPLETE, "b")
    assert q.pop()[3] == "a"                   # the clock reaches 2.0; "b" is due
    q.schedule(2.0, E.RECEIVE, "lane")         # at the clock: the same-time lane
    q.schedule(3.0, E.RECEIVE, "later")
    assert [q.pop()[3] for _ in range(3)] == ["b", "lane", "later"]


def test_queue_end_of_run_beats_same_time_event():
    q = E.EventQueue()
    q.schedule(4.0, E.END_OF_RUN)
    q.schedule(1.0, E.TRANSMIT_COMPLETE)
    q.pop()
    q.schedule(4.0, E.RECEIVE)
    assert q.pop()[2] == E.END_OF_RUN
    q.schedule(4.0, E.RECEIVE)                 # lane, behind the RECEIVE still on the heap
    assert [q.pop()[1:3] for _ in range(2)] == [(2, E.RECEIVE), (3, E.RECEIVE)]


def test_queue_len_counts_lane_and_heap():
    q = E.EventQueue()
    q.schedule(0.0, E.PATH_UPDATE)             # the clock starts at 0: lane
    q.schedule(1.0, E.PATH_UPDATE)
    q.schedule(2.0, E.PATH_UPDATE)
    assert len(q) == 3
    q.pop()
    assert len(q) == 2
    q.schedule(0.0, E.RECEIVE)
    q.schedule(0.0, E.RECEIVE)
    assert len(q) == 4
    while len(q):
        q.pop()
    assert q.clock == 2.0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.lists(st.sampled_from([0.0, 0.0, 1e-9, 1.0]),
                                                      max_size=3)), max_size=40))
def test_queue_pops_in_heap_reference_order(steps):
    # Each step pops one event (if any) and then schedules 0-3 events at
    # clock + d. Both queues must pop identical (time, seq, kind, payload).
    q, ref = E.EventQueue(), HeapQueue()
    for kind, delays in steps:
        if len(q):
            assert len(ref)
            assert q.pop() == ref.pop()
            assert q.clock == ref.clock
        for i, d in enumerate(delays):
            q.schedule(q.clock + d, kind, i)
            ref.schedule(ref.clock + d, kind, i)
    assert [q.pop() for _ in range(len(q))] == [ref.pop() for _ in range(len(ref))]


# -- serialization delays ----------------------------------------------

def test_data_serialization_delay_at_2048():
    sim = E.Simulation(short_config(), two_node_topology(capacity=2048.0), [])
    state = sim.channels[0]
    packet = P.Packet(0, P.DATA, 0, 0, P.DATA_SIZE_BITS, (0, 1), hop_index=0)
    sim._forward(packet, 0.0)
    assert state.tx_ends[0] - state.tx_starts[0] == 0.03125


def test_interest_serialization_delay_at_512():
    sim = E.Simulation(short_config(), two_node_topology(capacity=512.0), [])
    state = sim.channels[0]
    packet = P.Packet(0, P.INTEREST, 0, 0, P.INTEREST_SIZE_BITS, (0, 1), hop_index=0)
    sim._forward(packet, 0.0)
    assert state.tx_ends[0] - state.tx_starts[0] == 0.0015625


def test_back_to_back_completions_are_evenly_spaced():
    # 24 MB object -> 3 interest chunks serialized back to back at 512 Mbps.
    topo = two_node_topology(capacity=512.0, size_mb=24)
    sim = E.Simulation(short_config(), topo, [E.InterestEvent(1.0, 0, 0)])
    sim.run()
    ends = sim.channels[0].tx_ends
    assert len(ends) == 3
    gaps = [b - a for a, b in zip(ends, ends[1:])]
    assert gaps == pytest.approx([0.0015625, 0.0015625], abs=1e-12)


# -- hand-computed two-hop timeline ------------------------------------

def test_two_node_delivery_timeline():
    # 16 MB object over one 1024 Mbps link, requested at t=10:
    # interest serialization 8e5/1.024e9 s, data serialization 64e6/1.024e9 s;
    # the second chunk's data waits for the first to finish serializing.
    interest_s = 800_000 / 1_024_000_000
    data_s = 64_000_000 / 1_024_000_000
    topo = two_node_topology()
    load_log, records = E.run(short_config(), topo, [E.InterestEvent(10.0, 0, 0)])

    interests = [r for r in records if r.kind == P.INTEREST]
    data = [r for r in records if r.kind == P.DATA]
    assert [r.outcome for r in records] == [P.DELIVERED] * 4
    assert [r.terminated_s for r in interests] == pytest.approx(
        [10.0 + interest_s, 10.0 + 2 * interest_s], rel=1e-12)
    # The return channel stays busy once the first chunk starts, so the second
    # data chunk completes one serialization later.
    assert [r.terminated_s for r in data] == pytest.approx(
        [10.0 + interest_s + data_s, 10.0 + interest_s + 2 * data_s], rel=1e-12)
    assert [r.created_s for r in data] == [10.0, 10.0]
    assert [r.terminated_s - r.created_s for r in data] == pytest.approx(
        [0.06328125, 0.12578125], rel=1e-9)
    assert all(r.route == "0-1" for r in interests)
    assert all(r.route == "1-0" for r in data)

    # Window arithmetic: both 8 MB chunks (2 x 64e6 bits) finished within the
    # second before the t=10.2 sample on the return channel.
    at_10_2 = {s.channel_id: s.load_mbps for s in load_log if s.time_s == 10.2}
    assert at_10_2[topo.channel(0, 1).channel_id] == pytest.approx(1.6, rel=1e-9)
    assert at_10_2[topo.channel(1, 0).channel_id] == pytest.approx(128.0, rel=1e-9)


def test_single_chunk_window_load_is_64_mbps():
    # One 8 MB chunk = 64e6 bits finished inside the 1 s window -> 64 Mbps.
    topo = two_node_topology(size_mb=8)
    load_log, _ = E.run(short_config(), topo, [E.InterestEvent(10.0, 0, 0)])
    at_10_2 = {s.channel_id: s.load_mbps for s in load_log if s.time_s == 10.2}
    assert at_10_2[topo.channel(1, 0).channel_id] == pytest.approx(64.0, rel=1e-9)


# -- buffer behaviour ----------------------------------------------------

def test_tail_drop_at_buffer_capacity():
    sim = E.Simulation(short_config(), two_node_topology(), [])
    state = sim.channels[0]
    packets = [P.Packet(i, P.INTEREST, 0, 0, P.INTEREST_SIZE_BITS, (0, 1), hop_index=0)
               for i in range(65)]
    for packet in packets:
        sim._forward(packet, 0.0)
    assert len(state.queue) == 64
    dropped = [p for p in packets if p.outcome == P.DROPPED]
    assert [p.packet_id for p in dropped] == [64]


def test_drops_recorded_in_full_run():
    topo = two_node_topology(capacity=512.0, size_mb=64)
    load_log, records = E.run(short_config(buffer_packets=2), topo,
                              [E.InterestEvent(1.0, 0, 0)])
    outcomes = check_conservation(records)
    assert outcomes[P.DROPPED] == 6          # 8 chunks, 2 buffer slots
    assert outcomes[P.DELIVERED] == 4        # 2 interests + their 2 data chunks


def test_config_buffer_governs_every_channel():
    # Two interests 10 ms apart, buffer 1, 8 chunks each: on 0->1 the first
    # chunk of each interest goes on the wire and the other 7 drop; on 1->0
    # the second data chunk finds the first one still serializing and drops.
    topo = two_node_topology(capacity=512.0, size_mb=64)
    _, records = E.run(short_config(buffer_packets=1), topo,
                       [E.InterestEvent(1.0, 0, 0), E.InterestEvent(1.01, 0, 0)])
    check_conservation(records)
    assert Counter((r.kind, r.outcome) for r in records) == {
        (P.INTEREST, P.DELIVERED): 2, (P.INTEREST, P.DROPPED): 14,
        (P.DATA, P.DELIVERED): 1, (P.DATA, P.DROPPED): 1}


def test_channel_is_fifo():
    topo = two_node_topology(capacity=512.0, size_mb=64)
    _, records = E.run(short_config(), topo, [E.InterestEvent(1.0, 0, 0)])
    data = [r for r in records if r.kind == P.DATA]
    by_arrival = sorted(data, key=lambda r: r.terminated_s)
    assert [r.chunk_index for r in by_arrival] == sorted(r.chunk_index for r in data)


# -- run-level behaviour -------------------------------------------------

def test_no_interests_means_empty_packet_log():
    load_log, records = E.run(short_config(interests=0), two_node_topology(), [])
    assert records == []
    assert len(load_log) == 2 * 40 * 5       # two channels, 5 updates/s, horizon 40
    assert all(s.load_mbps == 0.0 for s in load_log)


def test_path_updates_on_exact_grid():
    load_log, _ = E.run(short_config(interests=0), two_node_topology(), [])
    times = sorted({s.time_s for s in load_log})
    assert times[:6] == [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    assert times == [i / 5 for i in range(len(times))]


def test_interest_near_horizon_left_unterminated():
    # Interest fires late; its chunks cannot finish the 0.125 s data leg.
    topo = two_node_topology(capacity=512.0, size_mb=16)
    cfg = short_config(horizon_s=40.0, interest_window_s=40.0)
    _, records = E.run(cfg, topo, [E.InterestEvent(39.99, 0, 0)])
    outcomes = check_conservation(records)
    assert outcomes[P.UNTERMINATED] >= 1
    unterminated = [r for r in records if r.outcome == P.UNTERMINATED]
    assert all(r.terminated_s is None for r in unterminated)


def test_multi_mode_single_path_degradation():
    _, records = E.run(short_config(mode=P.MODE_MULTI), two_node_topology(), [E.InterestEvent(1.0, 0, 0)])
    assert all(r.route in ("0-1", "1-0") for r in records)
    assert {r.outcome for r in records} == {P.DELIVERED}


@pytest.mark.parametrize("event", [
    E.InterestEvent(1.0, 1, 0),
    E.InterestEvent(1.0, 2, 0),
    E.InterestEvent(1.0, -1, 0),
    E.InterestEvent(1.0, 0, 1),
    E.InterestEvent(1.0, 0, -1),
    E.InterestEvent(float("nan"), 0, 0),
    E.InterestEvent(-1.0, 0, 0),
    # END_OF_RUN pops first at the horizon (40 s), so these would vanish.
    E.InterestEvent(40.0, 0, 0),
    E.InterestEvent(41.0, 0, 0),
], ids=["consumer-is-anchor", "consumer-past-last-node", "negative-consumer",
        "prefix-past-last", "negative-prefix", "nan-time", "negative-time",
        "time-at-horizon", "time-after-horizon"])
def test_bad_interest_is_rejected(event):
    with pytest.raises(ValueError):
        E.run(short_config(), two_node_topology(), [event])


def test_interest_with_no_route_is_rejected():
    # Only a hand-built topology can be disconnected; make_topology rejects one.
    channels = (Channel(0, 0, 1, 600.0), Channel(1, 1, 0, 600.0),
                Channel(2, 2, 3, 600.0), Channel(3, 3, 2, 600.0))
    islands = Topology((0, 1, 2, 3), channels, (Prefix(0, 8, (3,)),))
    with pytest.raises(ValueError, match="no path toward prefix 0"):
        E.run(short_config(), islands, [E.InterestEvent(1.0, 0, 0)])


def test_finished_run_is_freed_without_cycle_collection():
    # run_batch keeps only summaries: a reference cycle through the simulation
    # would keep each finished run alive until a full collection.
    sim = E.Simulation(short_config(), two_node_topology(), [E.InterestEvent(1.0, 0, 0)])
    sim.run()
    ref = weakref.ref(sim)
    gc.disable()
    try:
        del sim
        assert ref() is None
    finally:
        gc.enable()


def test_receive_at_wrong_node_is_fatal():
    sim = E.Simulation(short_config(), two_node_topology(), [])
    packet = P.Packet(0, P.INTEREST, 0, 0, P.INTEREST_SIZE_BITS, (0, 1), hop_index=1)
    with pytest.raises(E.SimulationError):
        sim._handle_receive(0.0, (0, packet))


def test_same_instant_arrivals_at_buffer_1_channel():
    # Tree 0-2, 1-2, 2-3, 3-4, buffer 1, one chunk per interest. At t=1.1
    # packet 0 (0->2->3->4), packet 1 (2->3) and packet 2 (1->2->3->4) start
    # their first hops, and all three finish at the same instant T. In
    # (time, seq) order the three completions run first: packet 1 leaves the
    # 2->3 buffer. Then the arrivals run: packet 0 takes 2->3 and packet 2
    # finds it full. Handling packet 0's arrival before packet 1's completion
    # would drop packet 0 instead.
    topo = make_topology(5, [(0, 2, 1024.0), (1, 2, 1024.0), (2, 3, 1024.0), (3, 4, 1024.0)],
                         [Prefix(0, 8, (3,)), Prefix(1, 8, (4,))])
    interests = [E.InterestEvent(1.1, 0, 1), E.InterestEvent(1.1, 2, 0), E.InterestEvent(1.1, 1, 1)]
    _, packets = E.run(short_config(nodes=5, edges=4, prefixes=2, buffer_packets=1), topo, interests)
    check_conservation(packets)
    assert [(p.packet_id, p.kind, p.nodes, p.outcome) for p in packets] == [
        (0, P.INTEREST, (0, 2, 3, 4), P.DELIVERED),
        (1, P.INTEREST, (2, 3), P.DELIVERED),
        (2, P.INTEREST, (1, 2, 3, 4), P.DROPPED),
        (3, P.DATA, (3, 2), P.DELIVERED),
        (4, P.DATA, (4, 3, 2, 0), P.DELIVERED),
    ]
    hop = 800_000 / 1_024_000_000
    assert packets[2].terminated_s == 1.1 + hop


@pytest.fixture(scope="module")
def traced_mesh():
    # perfbench/spans.py wraps icnsim callables by name, counts events by
    # wrapping EventQueue.pop on the class, counts data responses by wrapping
    # protocol.make_data_response on its module, and reads the first element
    # of what rebuild_tables returns. One buffer-2 mesh run under the real
    # Tracer backs both tests below.
    import importlib.util
    from pathlib import Path

    from icnsim.cli import build_inputs
    spans_path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", spans_path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    cfg = mesh_config(buffer_packets=2)
    topo, scenario = build_inputs(cfg)
    tracer = spans.Tracer()
    tracer.install()
    try:
        missing = list(tracer.missing)
        sim = E.Simulation(cfg, topo, scenario)
        logs = sim.run()
    finally:
        tracer.uninstall()
    return cfg, topo, scenario, sim, logs, tracer, missing


def test_tracer_pins_see_every_event_and_response(traced_mesh, monkeypatch):
    # Inlining the pop, or binding make_data_response at import time, must
    # fail here; a traced benchmark run would otherwise show it only as
    # wrong counts.
    cfg, topo, scenario, sim, logs, tracer, _ = traced_mesh
    # The same run with a heap-only queue handles the same events in the same order.
    monkeypatch.setattr(E, "EventQueue", HeapQueue)
    reference = E.Simulation(cfg, topo, scenario)
    assert reference.run() == logs
    assert tracer.events == reference.queue.pops
    # END_OF_RUN, path updates, interests, and a completion plus an arrival per
    # transmission that ended before the horizon.
    finished = sum(end < cfg.horizon_s for state in sim.channels for end in state.tx_ends)
    assert tracer.events == 1 + len(logs[0].times) + len(scenario) + 2 * finished
    data = sum(p.kind == P.DATA for p in logs[1])
    responses = tracer.span_name.count(tracer.names.index("protocol.make_data_response"))
    assert data > 0 and responses == data


def test_benchmark_tracer_installs_and_counts_lookups(traced_mesh):
    # A renamed or reshaped pin must fail here; a traced benchmark run would
    # otherwise show it only as a stderr line.
    _, _, scenario, _, _, tracer, missing = traced_mesh
    assert missing == []
    assert tracer.paths_calls == len(scenario)
    assert 0 < tracer.tables_built <= len(scenario)
    # Each wrapped callable a run reaches recorded spans: the engine still
    # calls them through their module or class.
    assert set(tracer.names) == {"engine.Simulation.run", "routing.compute_cost_view",
                                 "routing.rebuild_tables", "routing.RouteSet.paths",
                                 "protocol.split_interest", "protocol.make_data_response"}


def mesh_config(**overrides):
    base = dict(nodes=8, edges=14, prefixes=5, interests=400, mode=P.MODE_MULTI,
                horizon_s=60.0, interest_window_s=45.0, warmup_s=5.0, cooldown_start_s=55.0)
    base.update(overrides)
    return SimulationConfig(**base)


def mesh_run(**overrides):
    from icnsim.cli import build_inputs
    cfg = mesh_config(**overrides)
    topo, scenario = build_inputs(cfg)
    return topo, E.run(cfg, topo, scenario)


def test_conservation_and_route_reversal_on_mesh():
    _, (_, records) = mesh_run()
    outcomes = check_conservation(records)
    assert sum(outcomes.values()) == len(records)
    assert outcomes[P.DELIVERED] > 0


def test_identical_runs_are_identical():
    _, (loads_a, records_a) = mesh_run(seed=9)
    _, (loads_b, records_b) = mesh_run(seed=9)
    assert isinstance(loads_a, M.LoadLog)
    assert loads_a == loads_b
    assert records_a == records_b


@pytest.mark.parametrize("overrides", [
    dict(buffer_packets=1),
    dict(propagation_delay_s=0.01),
    dict(horizon_s=20.0, interest_window_s=20.0, cooldown_start_s=20.0),
    dict(interests=0),
], ids=["buffer-1", "propagation-delay", "horizon-cuts-transfers", "no-interests"])
def test_logged_loads_equal_full_window_measurement(overrides):
    # Path updates measure only channels that transmitted in the window. The
    # full transmission history gives every channel's load at every update;
    # the logged rows must equal it exactly, idle channels included.
    from icnsim.cli import build_inputs
    cfg = mesh_config(**overrides)
    topo, scenario = build_inputs(cfg)
    sim = E.Simulation(cfg, topo, scenario)
    load_log, _ = sim.run()
    window = cfg.load_window_s
    expected = [[min(state.channel.capacity_mbps,
                     state.channel.capacity_mbps * state.busy_seconds(t - window, t) / window)
                 for state in sim.channels] for t in load_log.times]
    assert load_log.rows == expected
    assert len(load_log) == len(load_log.times) * len(topo.channels)
    assert len(load_log.times) == int(cfg.horizon_s * cfg.path_updates_per_s)


def test_tables_built_at_first_lookup_from_update_loads(monkeypatch):
    # One cost view and one table per update that some interest follows before
    # the next update, in update order, each the full view of the loads
    # logged at that update.
    from bisect import bisect_right

    from icnsim import routing as R
    from icnsim.cli import build_inputs
    cfg = mesh_config(interests=60, epsilon_mbps=2.0)
    topo, scenario = build_inputs(cfg)
    views, tables = [], []

    def recording(store, original):
        def wrapper(*args, **kwargs):
            store.append(original(*args, **kwargs))
            return store[-1]
        return wrapper

    monkeypatch.setattr(R, "compute_cost_view", recording(views, R.compute_cost_view))
    monkeypatch.setattr(R, "rebuild_tables", recording(tables, R.rebuild_tables))
    load_log, _ = E.run(cfg, topo, scenario)
    times = load_log.times
    epochs = set()
    for ev in scenario:
        i = bisect_right(times, ev.time_s) - 1
        if i > 0 and times[i] == ev.time_s:
            i -= 1  # an interest at exactly an update's time pops before it
        epochs.add(i)
    assert 0 < len(epochs) < len(times)
    full_views = [tuple(R.channel_cost(ch.capacity_mbps, row[ch.channel_id], cfg.epsilon_mbps)
                        for ch in topo.channels)
                  for row in (load_log.rows[i] for i in sorted(epochs))]
    assert views == full_views
    assert len(tables) == len(views)


def test_load_never_exceeds_capacity():
    topo, (load_log, _) = mesh_run(interests=800)
    capacity = {ch.channel_id: ch.capacity_mbps for ch in topo.channels}
    assert all(s.load_mbps <= capacity[s.channel_id] * (1 + 1e-9) for s in load_log)
    assert any(s.load_mbps > 0 for s in load_log)


def test_delivered_data_reverses_interest_route():
    _, (_, records) = mesh_run(seed=2)
    interests = {(r.prefix_id, r.chunk_index, r.created_s): r.route
                 for r in records if r.kind == P.INTEREST and r.outcome == P.DELIVERED}
    data = [r for r in records if r.kind == P.DATA and r.outcome == P.DELIVERED]
    assert data
    for r in data:
        route = interests[(r.prefix_id, r.chunk_index, r.created_s)]
        assert r.route == "-".join(reversed(route.split("-")))


@st.composite
def engine_configs(draw):
    nodes = draw(st.integers(2, 8))
    horizon = draw(st.floats(1.0, 20.0))
    return SimulationConfig(
        seed=draw(st.integers(0, 2**16)), nodes=nodes,
        edges=draw(st.integers(nodes - 1, nodes * (nodes - 1) // 2)),
        prefixes=draw(st.integers(1, 4)), interests=draw(st.integers(0, 200)),
        mode=draw(st.sampled_from([P.MODE_SINGLE, P.MODE_MULTI])), k=draw(st.integers(1, 5)),
        buffer_packets=draw(st.integers(1, 4)),
        propagation_delay_s=draw(st.sampled_from([0.0, 0.001, 0.05, 0.5])),
        # Interests may arrive up to the horizon, so transfers can be cut.
        horizon_s=horizon, interest_window_s=draw(st.floats(0.0, 1.0)) * horizon,
        warmup_s=0.0, cooldown_start_s=horizon)


@settings(max_examples=40, deadline=None)
@given(engine_configs())
# A channel busy for the whole window summed to 1.0000000000000002 s of busy
# time here, which logged a load above capacity.
@example(SimulationConfig(seed=1, nodes=4, edges=6, prefixes=1, interests=60, mode=P.MODE_MULTI, k=2,
                          horizon_s=1.5, interest_window_s=1.125, buffer_packets=4,
                          warmup_s=0.0, cooldown_start_s=1.5))
def test_engine_invariants_on_random_configs(cfg):
    from icnsim.cli import build_inputs
    topo, scenario = build_inputs(cfg)
    load_log, packets = E.run(cfg, topo, scenario)
    check_conservation(packets)
    capacity = [ch.capacity_mbps for ch in topo.channels]
    assert all(0.0 <= s.load_mbps <= capacity[s.channel_id] for s in load_log)
    assert [p.packet_id for p in packets] == list(range(len(packets)))
    assert all((p.terminated_s is None) == (p.outcome == P.UNTERMINATED) for p in packets)
    assert E.run(cfg, topo, scenario) == (load_log, packets)
