"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The heavyweight fixtures
(a 20-seed paired batch and runs at four interest counts) execute once per
session and are shared across criteria.
"""

import filecmp
import time

import pytest

from icnsim import cli
from icnsim import engine as E
from icnsim import protocol as P
from icnsim.config import SimulationConfig
from icnsim.routing import LowerBounds, rebuild_tables
from icnsim.topology import Prefix, make_topology

from oracles import brute_force_k_paths, check_conservation, random_case

PAIRED_SEEDS = 20
PAIRED_INTERESTS = 5000
INTEREST_COUNTS = (1000, 5000, 10000, 20000)


def _report(number, ok, detail):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def paired_batch(tmp_path_factory):
    out = tmp_path_factory.mktemp("batch")
    config = SimulationConfig(seed=0, interests=PAIRED_INTERESTS, out_dir=str(out))
    start = time.monotonic()
    summaries, _ = cli.run_batch(config, PAIRED_SEEDS)
    elapsed = time.monotonic() - start
    pairs = [(summaries[2 * i], summaries[2 * i + 1]) for i in range(PAIRED_SEEDS)]
    assert all(s.mode == "single" and m.mode == "multi" and s.seed == m.seed for s, m in pairs)
    return pairs, elapsed


@pytest.fixture(scope="module")
def counted_runs():
    runs = {}
    for count, mode in zip(INTEREST_COUNTS, ("single", "multi", "single", "multi")):
        config = SimulationConfig(seed=1, interests=count, mode=mode)
        sim = E.Simulation(config, *cli.build_inputs(config))
        load_log, packet_log = sim.run()
        runs[count] = (sim.topology, load_log, packet_log, sim.stats)
    return runs


def test_criterion_1_k_shortest_paths_oracle_equivalence():
    start = time.monotonic()
    checked = 0
    for seed in range(200):
        topology, view = random_case(seed, max_nodes=8)
        src = seed % len(topology.nodes)
        targets = topology.prefixes[0].anchors
        for k in (1, 2, 3):
            (fib,) = rebuild_tables(view, k, LowerBounds(topology, view))
            want = tuple(brute_force_k_paths(topology, view, src, targets, k))
            assert fib.paths(src, 0) == want, (seed, k)
            checked += 1
    elapsed = time.monotonic() - start
    _report(1, elapsed < 30.0,
            f"{checked} path sets on 200 random graphs match brute force exactly "
            f"({elapsed:.1f}s < 30s)")


def test_criterion_2_byte_identical_runs(tmp_path):
    durations = []
    for name in ("first", "second"):
        config = SimulationConfig(seed=2, interests=20000, mode=P.MODE_MULTI,
                                  out_dir=str(tmp_path / name))
        start = time.monotonic()
        cli.run_single(config)
        durations.append(time.monotonic() - start)
    files = ("loads.csv", "packets.csv", "summary.csv", "histogram.csv")
    identical = all(filecmp.cmp(tmp_path / "first" / f, tmp_path / "second" / f, shallow=False)
                    for f in files)
    in_time = max(durations) < 10.0
    _report(2, identical and in_time,
            f"two 20000-interest runs byte-identical across {len(files)} files "
            f"(slowest {max(durations):.1f}s < 10s)")


def test_criterion_3_conservation(counted_runs):
    details = []
    for count in INTEREST_COUNTS:
        _, _, packet_log, stats = counted_runs[count]
        outcomes = check_conservation(packet_log)
        assert sum(outcomes.values()) == len(packet_log)
        # Every interest falls inside the 950 s window, so the run handles each one.
        assert stats.lookups == count
        assert sum(stats.drops) == outcomes[P.DROPPED]
        details.append(f"{count}:{len(packet_log)}rec")
    _report(3, True, "counts reconcile with the run's counts and data/interest routes pair up on "
            + ", ".join(details))


def test_criterion_4_multipath_reduces_delivery_time(paired_batch):
    pairs, elapsed = paired_batch
    wins = sum(m.avg_delivery_s < s.avg_delivery_s for s, m in pairs)
    mean_diff = sum(m.avg_delivery_s - s.avg_delivery_s for s, m in pairs) / len(pairs)
    ok = wins >= 0.7 * len(pairs) and mean_diff < 0.0 and elapsed < 180.0
    _report(4, ok,
            f"multi faster in {wins}/{len(pairs)} pairs, mean paired diff {mean_diff:+.4f}s "
            f"(batch took {elapsed:.0f}s < 180s)")


def test_criterion_5_multipath_balances_load(paired_batch):
    pairs, _ = paired_batch
    std_wins = sum(m.std_load_mbps < s.std_load_mbps for s, m in pairs)
    offered_wins = sum(m.offered_load_mbps >= s.offered_load_mbps for s, m in pairs)
    ok = std_wins >= 0.7 * len(pairs) and offered_wins >= 0.7 * len(pairs)
    _report(5, ok,
            f"multi lowers load std in {std_wins}/{len(pairs)} and raises offered load "
            f"in {offered_wins}/{len(pairs)} pairs")


def test_criterion_6_physical_bounds(counted_runs):
    for count in INTEREST_COUNTS:
        topology, load_log, _, _ = counted_runs[count]
        capacity = {ch.channel_id: ch.capacity_mbps for ch in topology.channels}
        for s in load_log:
            assert s.load_mbps <= capacity[s.channel_id] * (1 + 1e-9), (count, s)

    # Serialization delay spot checks: delay = size / capacity exactly. One
    # 8 MB request at t=0 sends one interest on 0->1 and one data chunk back;
    # the 0.5 s horizon ends the run before a load window trims either.
    checks = ((P.DATA, 2048.0, 0.03125), (P.INTEREST, 512.0, 0.0015625))
    for kind, capacity, expected in checks:
        topo = make_topology(2, [(0, 1, capacity)], [Prefix(0, 8, (1,))])
        sim = E.Simulation(SimulationConfig(horizon_s=0.5), topo, [E.InterestEvent(0.0, 0, 0)])
        _, (interest, _) = sim.run()
        hop = (0, 1) if kind == P.INTEREST else (1, 0)
        ((start, end, _),) = sim.channels[topo.channel(*hop).channel_id].sent
        assert end - start == expected
        if kind == P.INTEREST:
            assert interest.terminated_s == expected
    _report(6, True,
            "every load sample within channel capacity; 8MB@2048Mbps=0.03125s and "
            "0.1MB@512Mbps=0.0015625s exact")


def test_criterion_7_warmup_cooldown_exclusion():
    from icnsim.metrics import LoadLog, PacketLog, summarize

    def with_edges(before, after):
        # Two channels at 10 and 20 Mbps at t=100/500/900, plus a full row at
        # each added time with 999 Mbps on channel 0 (before) or 1 (after).
        times = [before, 100.0, 500.0, 900.0, after]
        rows = [[999.0, 20.0], [10.0, 20.0], [10.0, 20.0], [10.0, 20.0], [10.0, 999.0]]
        return LoadLog(times, rows)

    base = LoadLog([100.0, 500.0, 900.0], [[10.0, 20.0] for _ in range(3)])
    reference = summarize(base, PacketLog(), [], 50.0, 950.0)

    excluded = with_edges(49.9, 950.0)
    unchanged = summarize(excluded, PacketLog(), [], 50.0, 950.0)
    same = (unchanged.offered_load_mbps == reference.offered_load_mbps
            and unchanged.avg_load_mbps == reference.avg_load_mbps
            and unchanged.std_load_mbps == reference.std_load_mbps)

    included = with_edges(50.0, 949.9)
    changed = summarize(included, PacketLog(), [], 50.0, 950.0)
    differs = (changed.offered_load_mbps != reference.offered_load_mbps
               and changed.avg_load_mbps != reference.avg_load_mbps
               and changed.std_load_mbps != reference.std_load_mbps)
    _report(7, same and differs,
            "samples at t=49.9/950.0 change nothing; samples at t=50.0/949.9 do")
