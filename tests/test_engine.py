import gc
import math
import re
import weakref
from collections import Counter
from operator import attrgetter

import pytest
from hypothesis import example, given, settings, strategies as st

from icnsim import engine as E
from icnsim import metrics as M
from icnsim import protocol as P
from icnsim.config import SimulationConfig
from icnsim.topology import Channel, Prefix, Topology, make_topology

import oracles as O
from oracles import check_conservation, history_busy_seconds, reference_run


def two_node_topology(capacity=1024.0, size_mb=16):
    return make_topology(2, [(0, 1, capacity)], [Prefix(0, size_mb, (1,))])


RECORD = attrgetter("packet_id", "kind", "prefix_id", "chunk_index", "nodes", "created_s",
                    "terminated_s", "outcome")


def assert_equals_reference(logs, reference):
    """The engine's logs equal the reference run's exactly: every load and every packet record."""
    load_log, packets = logs
    assert load_log.times == reference.times
    assert load_log.rows == reference.rows
    assert list(map(RECORD, packets)) == list(map(RECORD, reference.packets))


def run_with_reference(cfg, topo, interests):
    """The engine's logs and the reference run on the same inputs, checked equal."""
    reference = reference_run(cfg, topo, interests)
    logs = E.run(cfg, topo, interests)
    assert_equals_reference(logs, reference)
    return logs, reference


def short_config(**overrides):
    base = dict(mode=P.MODE_SINGLE, horizon_s=40.0)
    base.update(overrides)
    return SimulationConfig(**base)


# -- serialization delays ----------------------------------------------

@pytest.mark.parametrize("kind, capacity, expected", [
    (P.DATA, 2048.0, 0.03125),
    (P.DATA, 512.0, 0.125),
    (P.INTEREST, 2048.0, 800_000 / 2048e6),
    (P.INTEREST, 512.0, 0.0015625),
], ids=["data-2048", "data-512", "interest-2048", "interest-512"])
def test_serialization_delay(kind, capacity, expected):
    sim = E.Simulation(short_config(), two_node_topology(capacity=capacity), [])
    state = sim.channels[0]
    sim._forward(P.Packet(kind, (0, 0), (0, 1)), 0, 0.0)
    start, end, _ = state.sent[0]
    assert end - start == expected


def test_back_to_back_completions_are_evenly_spaced():
    # 24 MB object -> 3 interest chunks serialized back to back at 512 Mbps.
    topo = two_node_topology(capacity=512.0, size_mb=24)
    _, reference = run_with_reference(short_config(), topo, [E.InterestEvent(1.0, 0, 0)])
    ends = [end for _, end in reference.history[topo.channel(0, 1).channel_id]]
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


def test_two_node_delivery_timeline_with_propagation_delay():
    # The same request with a 0.01 s propagation delay: each hop ends its
    # serialization plus the delay after it starts, and a queued chunk starts
    # when the one ahead of it finishes serializing, not when it arrives.
    delay = 0.01
    interest_s = 800_000 / 1_024_000_000
    data_s = 64_000_000 / 1_024_000_000
    topo = two_node_topology()
    load_log, records = E.run(short_config(propagation_delay_s=delay), topo,
                              [E.InterestEvent(10.0, 0, 0)])

    interests = [r for r in records if r.kind == P.INTEREST]
    data = [r for r in records if r.kind == P.DATA]
    assert [r.outcome for r in records] == [P.DELIVERED] * 4
    assert [r.terminated_s for r in interests] == pytest.approx(
        [10.0 + interest_s + delay, 10.0 + 2 * interest_s + delay], rel=1e-12)
    # The first data chunk leaves when the first interest arrives; the second
    # waits behind it on the return channel.
    assert [r.terminated_s for r in data] == pytest.approx(
        [10.0 + interest_s + delay + data_s + delay,
         10.0 + interest_s + delay + 2 * data_s + delay], rel=1e-12)
    assert [r.created_s for r in data] == [10.0, 10.0]

    # Both data chunks serialize within [10.0, 10.2], the window before the
    # t=10.2 sample, so the loads equal the zero-delay run's.
    at_10_2 = {s.channel_id: s.load_mbps for s in load_log if s.time_s == 10.2}
    assert at_10_2[topo.channel(0, 1).channel_id] == pytest.approx(1.6, rel=1e-9)
    assert at_10_2[topo.channel(1, 0).channel_id] == pytest.approx(128.0, rel=1e-9)


def test_single_chunk_window_load_is_64_mbps():
    # One 8 MB chunk = 64e6 bits finished inside the 1 s window -> 64 Mbps.
    topo = two_node_topology(size_mb=8)
    load_log, _ = E.run(short_config(), topo, [E.InterestEvent(10.0, 0, 0)])
    at_10_2 = {s.channel_id: s.load_mbps for s in load_log if s.time_s == 10.2}
    assert at_10_2[topo.channel(1, 0).channel_id] == pytest.approx(64.0, rel=1e-9)


# -- load sampling -------------------------------------------------------

TIES = ("end == hi", "end == lo", "start == hi", "start == lo", None)


@st.composite
def sampled_windows(draw):
    """A channel's back-to-back transmissions and a window [lo, hi] to sample.

    Times are sums of multiples of an inexact unit, as the engine's are, and a
    window bound falls on a transmission's start or end whenever ``tie`` says.
    """
    unit = draw(st.sampled_from([0.1, 0.064, 1 / 3, 64 / 700, 1.0]))
    history, t = [], draw(st.integers(0, 3)) * unit
    for gap, length in draw(st.lists(st.tuples(st.integers(0, 2), st.integers(1, 4)),
                                     min_size=1, max_size=10)):
        start = t + gap * unit
        t = start + length * unit
        history.append((start, t))
    window = draw(st.integers(1, 12)) * unit
    tie = draw(st.sampled_from(TIES))
    start, end = draw(st.sampled_from(history))
    if tie in ("end == lo", "start == lo"):
        lo = end if tie == "end == lo" else start
        return history, lo, lo + window
    if tie is None:
        hi = draw(st.floats(0.0, t + window))
    else:
        hi = end if tie == "end == hi" else start
    return history, hi - window, hi


@settings(max_examples=300, deadline=None)
@given(sampled_windows())
@example(([(0.0, 0.5), (0.5, 1.0)], 0.0, 1.0))
@example(([(0.0, 0.5), (0.5, 1.0)], 0.5, 1.5))
def test_busy_seconds_equals_whole_history_measurement(case):
    # The engine prunes a channel's transmissions that ended by the window's
    # start and samples the rest; the whole history must give the same float.
    history, lo, hi = case
    state = E.ChannelState(Channel(0, 0, 1, 1024.0))
    for start, end in history:
        if start <= hi:  # Only transmissions started by the update are recorded.
            state.sent.append((start, end, state.busy_total))
            state.busy_total += end - start
    sent = state.sent
    while sent and sent[0][1] <= lo:
        sent.popleft()
    expected = history_busy_seconds(history)(lo, hi)
    if sent:
        assert state.busy_seconds(lo, hi) == expected
    else:
        # A channel with nothing left logs 0.0 without a sample.
        assert expected == 0.0


def test_channel_busy_across_a_whole_window_logs_exactly_capacity():
    # One interest for 32 chunks keeps the 700 Mbps return channel busy back
    # to back for about 2.9 s, 64/700 s per chunk. Summed, the busy time of a
    # window inside that span can round past the window itself.
    topo = two_node_topology(capacity=700.0, size_mb=256)
    cfg = short_config()
    (load_log, _), reference = run_with_reference(cfg, topo, [E.InterestEvent(0.1, 0, 0)])
    channel_id = topo.channel(1, 0).channel_id
    sent = reference.history[channel_id]
    assert len(sent) == 32
    assert all(end == start for (_, end), (start, _) in zip(sent, sent[1:]))
    window = cfg.load_window_s
    covered = [i for i, t in enumerate(load_log.times)
               if sent[0][0] <= t - window and t <= sent[-1][1]]
    assert len(covered) >= 5
    busy = history_busy_seconds(sent)
    assert any(700.0 * busy(load_log.times[i] - window, load_log.times[i]) / window > 700.0
               for i in covered)
    assert [load_log.rows[i][channel_id] for i in covered] == [700.0] * len(covered)
    # Clamped samples share the capacity's float object rather than each holding a copy.
    capacity = topo.channels[channel_id].capacity_mbps
    assert all(load_log.rows[i][channel_id] is capacity for i in covered)
    assert max(row[channel_id] for row in load_log.rows) == 700.0


# -- buffer behaviour ----------------------------------------------------

def test_tail_drop_at_buffer_capacity():
    sim = E.Simulation(short_config(), two_node_topology(), [])
    state = sim.channels[0]
    packets = [P.Packet(P.INTEREST, (0, 0), (0, 1)) for _ in range(65)]
    for packet in packets:
        sim._forward(packet, 0, 0.0)
    assert len(state.queue) == 64
    assert [i for i, p in enumerate(packets) if p.outcome == P.DROPPED] == [64]


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
    load_log, records = E.run(short_config(), two_node_topology(), [])
    assert len(records) == 0 and records == M.PacketLog()
    assert len(load_log) == 2 * 40 * 5       # two channels, 5 updates/s, horizon 40
    assert all(s.load_mbps == 0.0 for s in load_log)


def test_path_updates_on_exact_grid():
    load_log, _ = E.run(short_config(), two_node_topology(), [])
    times = sorted({s.time_s for s in load_log})
    assert times[:6] == [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    assert times == [i / 5 for i in range(len(times))]


def test_queue_holds_only_the_earliest_interest_at_the_start():
    from icnsim.cli import build_inputs
    cfg = mesh_config()
    topo, scenario = build_inputs(cfg)
    assert len(scenario) == 400
    sim = E.Simulation(cfg, topo, scenario)
    # The first path update and the earliest interest.
    assert len(sim._heap) == 2
    earliest = min(range(len(scenario)), key=lambda i: (scenario[i].time_s, i))
    assert sorted(sim._heap) == [
        (0.0, 0, E.PATH_UPDATE, None),
        (scenario[earliest].time_s, 1 + earliest, E.INIT_INTEREST, scenario[earliest]),
    ]


def test_interests_listed_out_of_order_run_in_time_then_list_order():
    # The engine queues one interest at a time; the reference queues them all
    # at the start. Ties at one time keep the order of the list.
    topo = make_topology(4, [(0, 1, 1024.0), (1, 2, 1024.0), (2, 3, 1024.0), (0, 3, 512.0)],
                         [Prefix(0, 8, (3,)), Prefix(1, 16, (0,)), Prefix(2, 8, (2,))])
    interests = [E.InterestEvent(t, consumer, prefix_id) for t, consumer, prefix_id in (
        (2.0, 1, 0), (0.5, 2, 1), (1.0, 0, 2), (0.5, 0, 0), (2.0, 3, 1), (1.0, 1, 2),
        (0.0, 2, 0), (0.5, 1, 1), (2.0, 0, 2), (1.0, 3, 1))]
    cfg = short_config(mode=P.MODE_MULTI, buffer_packets=2, horizon_s=10.0)
    (_, packets), _ = run_with_reference(cfg, topo, interests)
    check_conservation(packets)
    chunks = [prefix.size_mb // P.CHUNK_SIZE_MB for prefix in topo.prefixes]
    expected = [(ev.time_s, ev.consumer, ev.prefix_id)
                for _, ev in sorted(enumerate(interests), key=lambda item: (item[1].time_s, item[0]))
                for _ in range(chunks[ev.prefix_id])]
    sent = [(p.created_s, p.src, p.prefix_id) for p in packets if p.kind == P.INTEREST]
    assert sent == expected


def test_interest_at_an_update_instant_runs_before_that_update():
    # Two equal paths 0-1-3 and 0-2-3; the tie goes to 0-1-3. The interest at
    # 0.9 loads 0-1-3, so the update at 1.0 prices 0-2-3 lower. The interest
    # at 1.0 was given its seq before any update was scheduled, so it runs
    # ahead of that update, on the tables of the update at 0.8. A seq taken
    # only when it joins the heap, after the update at 1.0 was scheduled,
    # would send it on 0-2-3.
    topo = make_topology(4, [(0, 1, 1024.0), (0, 2, 1024.0), (1, 3, 1024.0), (2, 3, 1024.0)],
                         [Prefix(0, 8, (3,))])
    interests = [E.InterestEvent(1.0, 0, 0), E.InterestEvent(0.9, 0, 0), E.InterestEvent(1.1, 0, 0)]
    (_, packets), _ = run_with_reference(short_config(horizon_s=5.0), topo, interests)
    assert [p.nodes for p in packets if p.kind == P.INTEREST] == [(0, 1, 3), (0, 1, 3), (0, 2, 3)]


def test_interest_near_horizon_left_unterminated():
    # Interest fires late; its chunks cannot finish the 0.125 s data leg.
    topo = two_node_topology(capacity=512.0, size_mb=16)
    cfg = short_config(horizon_s=40.0)
    _, records = E.run(cfg, topo, [E.InterestEvent(39.99, 0, 0)])
    outcomes = check_conservation(records)
    assert outcomes[P.UNTERMINATED] >= 1
    unterminated = [r for r in records if r.outcome == P.UNTERMINATED]
    assert all(r.terminated_s is None for r in unterminated)


@pytest.mark.parametrize("past", [False, True], ids=["due-at-horizon", "due-a-float-before-horizon"])
def test_delivery_at_the_horizon_is_cut(past):
    # The run ends at the first pop at or past the horizon without handling
    # it: a data chunk due at exactly the horizon stays unterminated, and is
    # delivered when the horizon is one float later.
    topo = two_node_topology(capacity=512.0, size_mb=8)
    done = (1.0 + P.INTEREST_SIZE_BITS / 512e6) + P.DATA_SIZE_BITS / 512e6
    horizon = math.nextafter(done, math.inf) if past else done
    (_, packets), _ = run_with_reference(short_config(horizon_s=horizon), topo,
                                         [E.InterestEvent(1.0, 0, 0)])
    (data,) = [p for p in packets if p.kind == P.DATA]
    if past:
        assert (data.outcome, data.terminated_s) == (P.DELIVERED, done)
    else:
        assert (data.outcome, data.terminated_s) == (P.UNTERMINATED, None)


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
    # The run ends at the first pop at or past the horizon (40 s), so these would vanish.
    E.InterestEvent(40.0, 0, 0),
    E.InterestEvent(41.0, 0, 0),
], ids=["consumer-is-anchor", "consumer-past-last-node", "negative-consumer",
        "prefix-past-last", "negative-prefix", "nan-time", "negative-time",
        "time-at-horizon", "time-after-horizon"])
def test_bad_interest_is_rejected(event):
    with pytest.raises(ValueError):
        E.run(short_config(), two_node_topology(), [event])


def no_route_inputs():
    """Inputs whose first interest has no route: a RouteUnavailableError."""
    # Only a hand-built topology can be disconnected; make_topology rejects one.
    channels = (Channel(0, 0, 1, 600.0), Channel(1, 1, 0, 600.0),
                Channel(2, 2, 3, 600.0), Channel(3, 3, 2, 600.0))
    islands = Topology((0, 1, 2, 3), channels, (Prefix(0, 8, (3,)),))
    return short_config(nodes=4, edges=2), islands, [E.InterestEvent(1.0, 0, 0)]


def test_interest_with_no_route_is_rejected():
    with pytest.raises(ValueError, match="no path toward prefix 0"):
        E.run(*no_route_inputs())


# Scenario and output settings that fit the 2-node topology and one interest,
# so that short_config(**TWO_NODE_SCENARIO) passes the CLI's full validate().
TWO_NODE_SCENARIO = dict(nodes=2, edges=1, prefixes=1, interests=1, interest_window_s=30.0,
                         warmup_s=5.0, cooldown_start_s=35.0)


@pytest.mark.parametrize("overrides", [
    dict(interest_window_s=41.0), dict(warmup_s=40.0), dict(interests=-1), dict(histogram_bin_s=0.0),
    dict(nodes=1), dict(interest_window_s=math.nan), dict(warmup_s=math.nan),
    dict(cooldown_start_s=math.nan), dict(histogram_bin_s=math.nan),
], ids=lambda overrides: "-".join(f"{k}={v}" for k, v in overrides.items()))
def test_run_ignores_settings_it_does_not_read(overrides):
    base = short_config(**TWO_NODE_SCENARIO).validate()
    cfg = short_config(**TWO_NODE_SCENARIO | overrides)
    with pytest.raises(ValueError):
        cfg.validate()
    interests = [E.InterestEvent(1.0, 0, 0)]
    assert E.run(cfg, two_node_topology(), interests) == E.run(base, two_node_topology(), interests)


BAD_RUN_SETTINGS = [
    ("mode", "x", "mode must be single or multi, got 'x'"),
    ("k", 0, "k must be at least 1, got 0"),
    ("k", 3, "k must be 1 in single mode, got 3"),
    ("horizon_s", 0.0, "horizon_s must be positive, got 0.0"),
    ("path_updates_per_s", 0.0, "path_updates_per_s must be positive, got 0.0"),
    ("load_window_s", 0.0, "load_window_s must be positive, got 0.0"),
    ("buffer_packets", 0, "buffer_packets must be at least 1, got 0"),
    ("propagation_delay_s", -1.0, "propagation_delay_s must be non-negative, got -1.0"),
    ("epsilon_mbps", 0.0, "epsilon_mbps must be positive, got 0.0"),
    *((name, value, f"{name} must be a finite number, got {value}")
      for name in ("horizon_s", "path_updates_per_s", "load_window_s", "propagation_delay_s", "epsilon_mbps")
      for value in (math.nan, math.inf)),
]


@pytest.mark.parametrize("name, value, message", [
    pytest.param(*case, id=f"{case[0]}={case[1]}") for case in BAD_RUN_SETTINGS])
def test_run_rejects_bad_run_setting(name, value, message):
    cfg = short_config(**TWO_NODE_SCENARIO, **{name: value})
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        E.run(cfg, two_node_topology(), [E.InterestEvent(1.0, 0, 0)])


def two_node_inputs():
    return short_config(), two_node_topology(), [E.InterestEvent(1.0, 0, 0)]


def mesh_inputs():
    """A buffer-2 mesh run's inputs: it has drops, data responses and several tables."""
    from icnsim.cli import build_inputs
    cfg = mesh_config(buffer_packets=2)
    return (cfg, *build_inputs(cfg))


def test_finished_run_is_freed_without_cycle_collection():
    # run_batch keeps only summaries, and Simulation.run pauses the collector:
    # a reference cycle through the simulation or its logs would keep each
    # finished run alive until a full collection.
    collecting = gc.isenabled()
    gc.disable()
    try:
        for inputs in (two_node_inputs, mesh_inputs):
            sim = E.Simulation(*inputs())
            logs = sim.run()
            if inputs is mesh_inputs:
                kinds = {(p.kind, p.outcome) for p in logs[1]}
                assert {(P.INTEREST, P.DROPPED), (P.DATA, P.DELIVERED)} <= kinds
            refs = [weakref.ref(sim), weakref.ref(logs[0])]
            del sim, logs
            assert [ref() for ref in refs] == [None, None], inputs.__name__
    finally:
        if collecting:
            gc.enable()


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("raises", [False, True], ids=["run-ends", "run-raises"])
def test_run_leaves_the_collector_as_it_found_it(enabled, raises):
    collecting = gc.isenabled()
    seen = []
    original = E.Simulation._handle_init_interest

    def spy(sim, now, interest):
        seen.append(gc.isenabled())
        original(sim, now, interest)

    try:
        if enabled:
            gc.enable()
        else:
            gc.disable()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(E.Simulation, "_handle_init_interest", spy)
            if raises:
                with pytest.raises(P.RouteUnavailableError):
                    E.Simulation(*no_route_inputs()).run()
            else:
                E.Simulation(*two_node_inputs()).run()
        assert seen == [False]
        assert gc.isenabled() == enabled
    finally:
        if collecting:
            gc.enable()
        else:
            gc.disable()


def test_receive_at_wrong_node_is_fatal():
    # No arrival can reach a packet's own source (node 0) or a node off its
    # route (node 2).
    topo = make_topology(3, [(0, 1, 1024.0), (1, 2, 1024.0)], [Prefix(0, 8, (2,))])
    sim = E.Simulation(short_config(), topo, [])
    packet = P.Packet(P.INTEREST, (0, 0), (0, 1))
    for node, reason in ((0, "source"), (2, "off its route")):
        with pytest.raises(E.SimulationError, match=reason):
            sim._handle_receive(0.0, (node, packet))


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
    _, packets = E.run(short_config(buffer_packets=1), topo, interests)
    check_conservation(packets)
    assert [(p.packet_id, p.kind, p.nodes, p.outcome) for p in packets] == [
        (0, P.INTEREST, (0, 2, 3, 4), P.DELIVERED),
        (1, P.INTEREST, (2, 3), P.DELIVERED),
        (2, P.INTEREST, (1, 2, 3, 4), P.DROPPED),
        (3, P.DATA, (3, 2), P.DELIVERED),
        (4, P.DATA, (4, 3, 2, 0), P.DELIVERED),
    ]
    hop = 800_000 / 1_024_000_000
    assert packets.packets[2].terminated_s == 1.1 + hop


def test_arrivals_in_place_keep_order_on_a_tied_path():
    # Path 0-1-2 at one capacity, so completions and arrivals tie. An arrival
    # handled before the channel's next transmission starts would order what
    # it schedules ahead of that transmission's completion. Here, at t=1.0,
    # the interest for prefix 1 (anchored at 2) would then reach its anchor
    # ahead of the one for prefix 2 (anchored at 1), which left node 0 after
    # it: their data packets would be created, and numbered, the other way.
    topo = make_topology(3, [(0, 1, 1024.0), (1, 2, 1024.0)],
                         [Prefix(0, 8, (2,)), Prefix(1, 8, (2,)), Prefix(2, 8, (1,))])
    interests = [E.InterestEvent(t, 0, prefix_id)
                 for t, prefix_id in ((0.5, 2), (0.5, 2), (1.0, 1), (1.0, 2), (2.0, 0))]
    cfg = short_config(mode=P.MODE_MULTI, buffer_packets=2, horizon_s=10.0)
    _, reference = run_with_reference(cfg, topo, interests)
    assert reference.inlinable > 0


@st.composite
def tied_runs(draw):
    """Small topologies at one capacity, with interests on a coarse time grid.

    Half are lines where node 0 requests prefixes anchored at every other
    node, so its interests to different anchors share their first hops.
    """
    n = draw(st.integers(3, 5))
    line = draw(st.booleans())
    if line:
        edges = [(v - 1, v) for v in range(1, n)]
        anchors = range(1, n)
    else:
        edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
        edges |= draw(st.sets(st.sampled_from([(u, v) for u in range(n) for v in range(u + 1, n)]),
                              max_size=2))
        anchors = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
    capacity = draw(st.sampled_from([512.0, 1024.0, 2048.0]))
    prefixes = [Prefix(i, draw(st.sampled_from([8, 8, 16])), (anchor,))
                for i, anchor in enumerate(anchors)]
    topo = make_topology(n, [(u, v, capacity) for u, v in sorted(edges)], prefixes)
    consumers = st.just(0) if line else st.integers(0, n - 1)
    requests = draw(st.lists(st.tuples(st.sampled_from([0.0, 0.5, 1.0]), consumers,
                                       st.integers(0, len(prefixes) - 1)), min_size=1, max_size=10))
    interests = [E.InterestEvent(*request) for request in requests
                 if request[1] not in prefixes[request[2]].anchors]
    cfg = short_config(mode=draw(st.sampled_from([P.MODE_SINGLE, P.MODE_MULTI])),
                       buffer_packets=draw(st.integers(1, 3)),
                       propagation_delay_s=draw(st.sampled_from([0.0, 0.0, 0.5])),
                       horizon_s=draw(st.sampled_from([1.2, 5.0])))
    return cfg, topo, interests


def perfbench_module(name):
    """``perfbench/<name>.py``, loaded by path: the benchmark is not a package."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def traced_mesh():
    # perfbench/spans.py wraps icnsim callables by name, counts events by
    # wrapping EventQueue.pop on the class, counts data responses by wrapping
    # protocol.make_data_response on its module, and reads the first element
    # of what rebuild_tables returns. One buffer-2 mesh run under the real
    # Tracer backs the three tests below.
    from icnsim.cli import build_inputs
    spans = perfbench_module("spans")
    cfg = mesh_config(buffer_packets=2)
    topo, scenario = build_inputs(cfg)
    tracer = spans.Tracer()
    tracer.install()
    try:
        missing = list(tracer.missing)
        logs = E.Simulation(cfg, topo, scenario).run()
    finally:
        tracer.uninstall()
    return cfg, scenario, reference_run(cfg, topo, scenario), logs, tracer, missing


def test_tracer_pins_see_every_event_and_response(traced_mesh):
    # Inlining the pop, or binding make_data_response at import time, must
    # fail here; a traced benchmark run would otherwise show it only as
    # wrong counts.
    cfg, scenario, reference, logs, tracer, _ = traced_mesh
    # The reference run, which queues every arrival, gives the same logs and
    # pops every event.
    assert_equals_reference(logs, reference)
    # The end of the run, path updates, interests, and a completion plus an
    # arrival per transmission that ended before the horizon.
    finished = sum(end < cfg.horizon_s for sent in reference.history for _, end in sent)
    pops = reference.pops
    assert pops == {O.END: 1, O.UPDATE: len(logs[0].times), O.INTEREST: len(scenario),
                    O.COMPLETE: finished, O.ARRIVAL: finished}
    # The traced run popped every event but the arrivals it handled in place.
    assert reference.inlinable > 0
    assert tracer.events == sum(pops.values()) - reference.inlinable
    data = sum(p.kind == P.DATA for p in logs[1])
    responses = tracer.span_name.count(tracer.names.index("protocol.make_data_response"))
    assert data > 0 and responses == data


def test_benchmark_tracer_installs_and_counts_lookups(traced_mesh):
    # A renamed or reshaped pin must fail here; a traced benchmark run would
    # otherwise show it only as a stderr line.
    _, scenario, _, _, tracer, missing = traced_mesh
    assert missing == []
    assert tracer.paths_calls == len(scenario)
    assert 0 < tracer.tables_built <= len(scenario)
    # Each wrapped callable a run reaches recorded spans: the engine still
    # calls them through their module or class.
    assert set(tracer.names) == {"engine.Simulation.run", "routing.compute_cost_view",
                                 "routing.rebuild_tables", "routing.RouteSet.paths",
                                 "protocol.split_interest", "protocol.make_data_response"}


def test_benchmark_tracer_counts_every_load_sample(traced_mesh):
    # Each path update samples, through ChannelState.busy_seconds, every
    # channel with a transmission that started before the update and ended
    # after its window's start. Inlining the sample without porting the tracer's
    # counter must fail here, not read as engine.sample_calls == 0.
    cfg, _, reference, logs, tracer, _ = traced_mesh
    times = logs[0].times
    history = reference.history
    starts = {start for sent in history for start, _ in sent}
    # A transmission starting at an update's instant may be recorded before
    # or after that update; this run has none, so the count below is exact.
    assert starts.isdisjoint(times)
    expected = sum(
        sum(any(start < t and end > t - cfg.load_window_s for start, end in sent)
            for sent in history)
        for t in times)
    assert expected > 0
    assert tracer.sample_calls == expected


@pytest.mark.parametrize("mode", [P.MODE_SINGLE, P.MODE_MULTI])
def test_benchmark_audit_accepts_a_run(mode):
    # perfbench/op.py audits every benchmark run with check_run, which
    # iterates the packet log: each record's packet_id must rise strictly,
    # and it reads kind, outcome, src, dst and route. A packet log that
    # broke that contract would fail every benchmark operation.
    from icnsim.cli import build_inputs
    op = perfbench_module("op")
    cfg = mesh_config(mode=mode, buffer_packets=2)
    topo, scenario = build_inputs(cfg)
    load_log, packet_log = E.run(cfg, topo, scenario)
    counts = op.check_run(P, topo, load_log, packet_log)
    outcomes = Counter(p.outcome for p in packet_log.packets)
    assert counts["dropped"] == outcomes[P.DROPPED] > 0
    assert (counts["records"], counts["delivered"], counts["unterminated"], counts["load_samples"]) == (
        len(packet_log), outcomes[P.DELIVERED], outcomes[P.UNTERMINATED], len(load_log))
    assert counts["delivered_data"] == len(M.delivery_times(packet_log))


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


def test_packets_on_equal_routes_share_one_tuple():
    _, (_, records) = mesh_run(buffer_packets=2)
    for kind in (P.INTEREST, P.DATA):
        packets = [p for p in records if p.kind == kind]
        assert len({p.nodes for p in packets}) < len(packets)
        assert len({id(p.nodes) for p in packets}) == len({p.nodes for p in packets})


def test_packets_of_one_chunk_share_one_name():
    routes, names = P.Routes(), {}
    prefix = Prefix(4, 24, (2,))
    first, second = (P.split_interest(prefix, [(1.0, (0, 2))], now, routes, names) for now in (0.0, 1.0))
    assert [p.name for p in first] == [(4, 0), (4, 1), (4, 2)]
    assert all(a.name is b.name for a, b in zip(first, second))
    assert P.make_data_response(first[1], 2, routes).name is first[1].name
    _, (_, log) = mesh_run(buffer_packets=2)
    distinct = {p.name for p in log.packets}
    assert len(distinct) < len(log.packets)
    assert len({id(p.name) for p in log.packets}) == len(distinct)


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


@pytest.mark.parametrize("overrides, kept_at_end", [
    (dict(buffer_packets=1), False),
    (dict(propagation_delay_s=0.01), False),
    (dict(horizon_s=20.0, interest_window_s=20.0, cooldown_start_s=20.0), True),
    (dict(interests=0), False),
    (dict(load_window_s=0.05), False),
    (dict(load_window_s=3.0, path_updates_per_s=3.0), False),
    # One cycle in 6 nodes: at most 2 loopless paths to each of at most 3 anchors.
    (dict(nodes=6, edges=6, k=10), False),
], ids=["buffer-1", "propagation-delay", "horizon-cuts-transfers", "no-interests",
        "window-shorter-than-update-period", "window-spans-9-inexact-updates",
        "k-above-loopless-paths"])
def test_logged_loads_equal_full_window_measurement(overrides, kept_at_end):
    # The model's edge configurations, run by the engine and by the reference.
    # Path updates measure only channels that transmitted in the window; the
    # reference measures every channel on its whole transmission history, and
    # the logged rows must equal its rows exactly, idle channels included, as
    # must every packet record.
    from icnsim.cli import build_inputs
    cfg = mesh_config(**overrides)
    topo, scenario = build_inputs(cfg)
    reference = reference_run(cfg, topo, scenario)
    sim = E.Simulation(cfg, topo, scenario)
    load_log, _ = logs = sim.run()
    assert_equals_reference(logs, reference)
    assert len(load_log) == len(load_log.times) * len(topo.channels)
    assert len(load_log.times) == int(cfg.horizon_s * cfg.path_updates_per_s)
    # Each channel keeps exactly the transmissions that end after the last
    # update's window start, so a transfer cut by the horizon is still held.
    lo = load_log.times[-1] - cfg.load_window_s
    kept = [[(start, end) for start, end, _ in state.sent] for state in sim.channels]
    assert kept == [[tx for tx in sent if tx[1] > lo] for sent in reference.history]
    assert any(kept) == kept_at_end


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


def test_one_reverse_dijkstra_per_prefix_per_run(monkeypatch):
    # Every table of a run reads its lower bounds from one set over the idle
    # costs, so a prefix's reverse Dijkstra runs at its first lookup only,
    # however many tables are built after it.
    from icnsim import routing as R
    from icnsim.cli import build_inputs
    cfg = mesh_config()
    topo, scenario = build_inputs(cfg)
    searched, tables = [], []
    dist_to_targets, rebuild_tables = R._dist_to_targets, R.rebuild_tables

    def counted_dist(topology, costs, targets):
        searched.append(targets)
        return dist_to_targets(topology, costs, targets)

    def counted_rebuild(*args):
        tables.append(args)
        return rebuild_tables(*args)

    monkeypatch.setattr(R, "_dist_to_targets", counted_dist)
    monkeypatch.setattr(R, "rebuild_tables", counted_rebuild)
    E.run(cfg, topo, scenario)
    looked_up = {ev.prefix_id for ev in scenario}
    assert len(tables) > len(topo.prefixes)
    assert len(searched) <= len(looked_up)


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
def engine_configs(draw, max_nodes=8):
    nodes = draw(st.integers(2, max_nodes))
    horizon = draw(st.floats(1.0, 20.0))
    mode = draw(st.sampled_from([P.MODE_SINGLE, P.MODE_MULTI]))
    return SimulationConfig(
        seed=draw(st.integers(0, 2**16)), nodes=nodes,
        edges=draw(st.integers(nodes - 1, nodes * (nodes - 1) // 2)),
        prefixes=draw(st.integers(1, 4)), interests=draw(st.integers(0, 200)),
        # Single mode takes k=1 only.
        mode=mode, k=draw(st.integers(1, 5)) if mode == P.MODE_MULTI else None,
        buffer_packets=draw(st.integers(1, 4)),
        load_window_s=draw(st.sampled_from([0.05, 0.2, 1.0, 2.5])),
        path_updates_per_s=draw(st.sampled_from([1.0, 3.0, 5.0, 7.0])),
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
    (load_log, packets), _ = run_with_reference(cfg, topo, scenario)
    check_conservation(packets)
    capacity = [ch.capacity_mbps for ch in topo.channels]
    assert all(0.0 <= s.load_mbps <= capacity[s.channel_id] for s in load_log)
    assert [p.packet_id for p in packets] == list(range(len(packets)))
    assert all((p.terminated_s is None) == (p.outcome == P.UNTERMINATED) for p in packets)
    assert E.run(cfg, topo, scenario) == (load_log, packets)


def config_inputs(cfg):
    from icnsim.cli import build_inputs
    return (cfg, *build_inputs(cfg))


@settings(max_examples=600, deadline=None)
@given(st.one_of(engine_configs(max_nodes=6).map(config_inputs), tied_runs()))
def test_engine_equals_reference_run(case):
    # The differential test: every load and packet record of the engine
    # equals the naive reference's. Random configs cover the model broadly;
    # tied runs make completions and arrivals fall at one instant, where the
    # order of the handlers decides drops and packet numbers.
    run_with_reference(*case)
