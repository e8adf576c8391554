import itertools

import pytest

from icnsim import engine as E
from icnsim import metrics as M
from icnsim import protocol as P
from icnsim.config import SimulationConfig
from icnsim.topology import Prefix, make_topology

from oracles import check_conservation


def two_node_topology(capacity=1024.0, size_mb=16, buffer_packets=64):
    return make_topology(2, [(0, 1, capacity)], [Prefix(0, size_mb, (1,))], buffer_packets)


def short_config(**overrides):
    base = dict(nodes=2, edges=1, prefixes=1, interests=1, mode=P.MODE_SINGLE,
                horizon_s=40.0, interest_window_s=30.0, warmup_s=5.0, cooldown_start_s=35.0)
    base.update(overrides)
    return SimulationConfig(**base)


# -- event queue -------------------------------------------------------

def test_queue_pops_singleton():
    q = E.EventQueue()
    q.schedule(E.Event(5.0, E.PATH_UPDATE))
    assert q.pop().time == 5.0
    assert q.clock == 5.0


def test_queue_ties_resolve_in_schedule_order():
    q = E.EventQueue()
    first = q.schedule(E.Event(5.0, E.RECEIVE, node=1))
    second = q.schedule(E.Event(5.0, E.RECEIVE, node=2))
    assert first.seq < second.seq
    assert q.pop().node == 1
    assert q.pop().node == 2


def test_queue_rejects_events_in_the_past():
    q = E.EventQueue()
    q.schedule(E.Event(2.0, E.PATH_UPDATE))
    q.pop()
    with pytest.raises(E.SchedulingError):
        q.schedule(E.Event(1.0, E.PATH_UPDATE))


def test_queue_yields_nondecreasing_times():
    q = E.EventQueue()
    for t in (7.0, 1.0, 3.0, 3.0, 0.5, 9.0):
        q.schedule(E.Event(t, E.PATH_UPDATE))
    popped = [q.pop().time for _ in range(len(q))]
    assert popped == sorted(popped)


# -- serialization delays ----------------------------------------------

def test_data_serialization_delay_at_2048():
    sim = E.Simulation(short_config(), two_node_topology(capacity=2048.0), [])
    state = sim.channels[0]
    packet = P.Packet(0, P.DATA, 0, 0, P.DATA_SIZE_BITS, (0, 1), hop_index=1)
    sim._enqueue(state, packet, 0.0)
    assert state.tx_ends[0] - state.tx_starts[0] == 0.03125


def test_interest_serialization_delay_at_512():
    sim = E.Simulation(short_config(), two_node_topology(capacity=512.0), [])
    state = sim.channels[0]
    packet = P.Packet(0, P.INTEREST, 0, 0, P.INTEREST_SIZE_BITS, (0, 1), hop_index=1)
    sim._enqueue(state, packet, 0.0)
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
    for i in range(65):
        packet = P.Packet(i, P.INTEREST, 0, 0, P.INTEREST_SIZE_BITS, (0, 1), hop_index=1)
        sim.live[i] = packet
        sim._enqueue(state, packet, 0.0)
    assert len(state.queue) == 64
    dropped = [r for r in sim.records if r.outcome == P.DROPPED]
    assert [r.packet_id for r in dropped] == [64]


def test_drops_recorded_in_full_run():
    topo = two_node_topology(capacity=512.0, size_mb=64, buffer_packets=2)
    load_log, records = E.run(short_config(buffer_packets=2), topo,
                              [E.InterestEvent(1.0, 0, 0)])
    outcomes = check_conservation(records)
    assert outcomes[P.DROPPED] == 6          # 8 chunks, 2 buffer slots
    assert outcomes[P.DELIVERED] == 4        # 2 interests + their 2 data chunks


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


def test_receive_at_wrong_node_is_fatal():
    sim = E.Simulation(short_config(), two_node_topology(), [])
    packet = P.Packet(0, P.INTEREST, 0, 0, P.INTEREST_SIZE_BITS, (0, 1), hop_index=1)
    with pytest.raises(E.SimulationError):
        sim._handle_receive(E.Event(0.0, E.RECEIVE, node=0, packet=packet))


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
    expected = [[state.channel.capacity_mbps * state.busy_seconds(t - window, t) / window
                 for state in sim.channels] for t in load_log.times]
    assert load_log.rows == expected
    assert len(load_log) == len(load_log.times) * len(topo.channels)
    assert len(load_log.times) == int(cfg.horizon_s * cfg.path_updates_per_s)


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
