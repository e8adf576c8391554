import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from icnsim import engine as E
from icnsim import metrics as M
from icnsim import protocol as P
from icnsim.config import SimulationConfig
from icnsim.topology import Prefix, Topology, make_topology
from oracles import exact_sum


def record(kind=P.DATA, created=0.0, terminated=1.0, outcome=P.DELIVERED, route="0-1", prefix=0,
           chunk=0):
    """A terminated packet as the engine logs it; its position in a ``PacketLog`` is its id."""
    nodes = tuple(int(n) for n in route.split("-"))
    return P.Packet(kind, (prefix, chunk), nodes, created, terminated, outcome)


def written(packets):
    """The ten packets.csv fields of each packet."""
    return [(p.packet_id, p.kind, p.prefix_id, p.chunk_index, p.src, p.dst,
             p.created_s, p.terminated_s, p.outcome, p.route) for p in packets]


# -- packet log ------------------------------------------------------------

def test_packet_log_records_number_packets_by_position():
    packets = [record(kind=P.INTEREST, created=0.5, terminated=0.625, route="0-1", chunk=1),
               record(created=0.5, terminated=None, outcome=P.UNTERMINATED, route="1-0", chunk=1)]
    log = M.PacketLog(packets)
    assert len(log) == 2
    assert list(log) == [M.PacketRecord(0, P.INTEREST, 0, 1, (0, 1), 0.5, 0.625, P.DELIVERED),
                         M.PacketRecord(1, P.DATA, 0, 1, (1, 0), 0.5, None, P.UNTERMINATED)]
    # Equal packets in the same order make equal logs; the kind is part of a packet.
    assert log == M.PacketLog(list(packets))
    assert log != M.PacketLog(packets[::-1])
    interest, data = (M.PacketLog([P.Packet(kind, (0, 0), (0, 1))]) for kind in (P.INTEREST, P.DATA))
    assert interest != data


# -- histogram -------------------------------------------------------------

def test_histogram_hand_example():
    assert M.histogram([0.1, 0.15, 0.3], 0.2) == [(0.0, 2), (0.2, 1)]


def test_histogram_empty():
    assert M.histogram([], 0.5) == []


def test_histogram_equal_values_single_bin():
    bins = M.histogram([1.05, 1.05, 1.05], 0.5)
    assert len(bins) == 1
    assert bins[0] == (1.0, 3)


def test_histogram_rejects_bad_width():
    with pytest.raises(ValueError):
        M.histogram([1.0], 0.0)


@given(st.lists(st.floats(0.0, 100.0), max_size=60), st.floats(0.01, 5.0))
def test_histogram_counts_sum(times, width):
    bins = M.histogram(times, width)
    assert sum(c for _, c in bins) == len(times)


# -- summarize -------------------------------------------------------------

def test_warmup_and_cooldown_boundaries():
    # One channel: inside the window 10 and 20 Mbps, outside it 400 Mbps.
    log = M.LoadLog([49.9, 50.0, 949.9, 950.0], [[400.0], [10.0], [20.0], [400.0]])
    summary = M.summarize(log, M.PacketLog(), [], 50.0, 950.0)
    assert summary.avg_load_mbps == 15.0
    assert summary.offered_load_mbps == 15.0
    with_outside_only = M.summarize(M.LoadLog([49.9, 950.0], [[400.0], [400.0]]), M.PacketLog(), [],
                                    50.0, 950.0)
    assert with_outside_only.avg_load_mbps == 0.0


def test_equal_loads_have_zero_std():
    log = M.LoadLog([100.0], [[42.0] * 4])
    assert M.summarize(log, M.PacketLog(), [], 50.0, 950.0).std_load_mbps == 0.0


def test_across_channel_population_std():
    log = M.LoadLog([100.0, 200.0], [[10.0, 20.0], [30.0, 30.0]])
    summary = M.summarize(log, M.PacketLog(), [], 50.0, 950.0)
    assert summary.std_load_mbps == pytest.approx((5.0 + 0.0) / 2)
    assert summary.offered_load_mbps == pytest.approx((30.0 + 60.0) / 2)
    assert summary.avg_load_mbps == pytest.approx(22.5)


@given(st.integers(1, 6).flatmap(lambda channels: st.lists(
    st.lists(st.floats(0.0, 2048.0), min_size=channels, max_size=channels), min_size=1, max_size=12)))
def test_load_statistics_match_per_time_definition(rows):
    # Reference: per sample time, the channel sum and the population std
    # across channels, each averaged over times.
    log = M.LoadLog([60.0 + i / 5 for i in range(len(rows))], rows)
    summary = M.summarize(log, M.PacketLog(), [], 50.0, 950.0)
    sums = [math.fsum(row) for row in rows]
    stds = [math.sqrt(math.fsum((x - s / len(row)) ** 2 for x in row) / len(row))
            for row, s in zip(rows, sums)]
    assert summary.offered_load_mbps == pytest.approx(sum(sums) / len(rows), rel=1e-9, abs=1e-9)
    assert summary.avg_load_mbps == pytest.approx(sum(sums) / len(log), rel=1e-9, abs=1e-9)
    assert summary.std_load_mbps == pytest.approx(sum(stds) / len(rows), rel=1e-6, abs=1e-4)


def test_delivery_mean_over_data_packets():
    log = M.PacketLog([record(created=1.0, terminated=3.0),
                       record(created=1.0, terminated=5.0),
                       record(kind=P.INTEREST, created=1.0, terminated=1.1)])
    summary = M.summarize(M.LoadLog(), log, M.delivery_times(log), 50.0, 950.0)
    assert summary.avg_delivery_s == pytest.approx(3.0)
    assert summary.delivered_count == 3


def test_delivery_mean_is_correctly_rounded():
    # Ten delays of 0.1 summed one after another give 0.9999999999999999 and a
    # mean of 0.09999999999999999; the correctly rounded sum is 1.0.
    log = M.PacketLog([record(created=0.0, terminated=0.1) for _ in range(10)])
    assert M.summarize(M.LoadLog(), log, M.delivery_times(log), 50.0, 950.0).avg_delivery_s == 0.1


def random_loads(rng, count, zero_share, scale):
    """Loads >= +0.0 of mixed magnitude; about ``zero_share`` of them exact zeros."""
    return [0.0 if rng.random() < zero_share else rng.random() * scale * rng.choice([1.0, 1e-3, 1e3])
            for _ in range(count)]


def exact_load_statistics(rows):
    """(offered, avg, std) with every sum the float nearest its exact value."""
    channels = len(rows[0])
    sums = [exact_sum(row) for row in rows]
    spreads = []
    for row, total in zip(rows, sums):
        mean = total / channels
        variance = exact_sum([x * x for x in row]) / channels - mean * mean
        spreads.append(math.sqrt(max(variance, 0.0)))
    offered = exact_sum(sums) / len(rows)
    return offered, offered / channels, exact_sum(spreads) / len(rows)


def load_statistics(rows, packets=()):
    packet_log = M.PacketLog(list(packets))
    s = M.summarize(M.LoadLog([100.0] * len(rows), rows), packet_log, M.delivery_times(packet_log),
                    50.0, 950.0)
    return s.offered_load_mbps, s.avg_load_mbps, s.std_load_mbps, s.avg_delivery_s


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32), rows=st.integers(1, 40), channels=st.integers(1, 300),
       zero_share=st.sampled_from([0.0, 0.5, 0.8, 0.95, 1.0]), scale=st.sampled_from([1.0, 2048.0, 1e9]))
def test_load_statistics_are_correctly_rounded(seed, rows, channels, zero_share, scale):
    rng = random.Random(seed)
    table = [random_loads(rng, channels, zero_share, scale) for _ in range(rows)]
    assert load_statistics(table)[:3] == exact_load_statistics(table)


@pytest.mark.parametrize("seed", [5, 6])
def test_load_statistics_are_correctly_rounded_at_desk_batch_size(seed):
    # 4,500 sample times x 60 channels = 270,000 loads; as on the desk
    # scenario, most channels are idle at most times.
    rng = random.Random(seed)
    rows = [random_loads(rng, 60, 0.7, 2048.0) for _ in range(4500)]
    assert load_statistics(rows)[:3] == exact_load_statistics(rows)


def full_row_load_statistics(rows):
    """(offered, avg, std) with every channel's load, zeros included, in each row's sums."""
    channels = len(rows[0])
    if not channels:
        return 0.0, 0.0, 0.0
    sums, spreads = [], []
    for row in rows:
        total = math.fsum(row)
        mean = total / channels
        variance = math.fsum([x * x for x in row]) / channels - mean * mean
        if variance < 0.0:
            variance = 0.0
        sums.append(total)
        spreads.append(math.sqrt(variance))
    offered = math.fsum(sums) / len(rows)
    return offered, offered / channels, math.fsum(spreads) / len(rows)


LOADS_WITH_ZEROS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308]),
                             st.floats(0.0, 2048.0))


@given(st.integers(0, 6).flatmap(lambda channels: st.lists(
    st.lists(LOADS_WITH_ZEROS, min_size=channels, max_size=channels), min_size=1, max_size=12)))
def test_skipping_zero_loads_changes_no_statistic(rows):
    # summarize leaves the zeros out of each row's sums. Zero channels is a
    # topology with no channel.
    result = load_statistics(rows)[:3]
    expected = full_row_load_statistics(rows)
    assert result == expected
    assert [math.copysign(1.0, x) for x in result] == [math.copysign(1.0, x) for x in expected]


@given(st.integers(1, 8).flatmap(lambda channels: st.lists(
    st.lists(st.floats(0.0, 2048.0), min_size=channels, max_size=channels), min_size=1, max_size=12)),
    st.lists(st.floats(0.0, 100.0), min_size=1, max_size=30), st.randoms(use_true_random=False))
def test_statistics_do_not_depend_on_order(rows, delays, rng):
    packets = [record(created=1.0, terminated=1.0 + d) for d in delays]
    shuffled_rows = [rng.sample(row, len(row)) for row in rows]
    reversed_rows = [row[::-1] for row in rows]
    expected = load_statistics(rows, packets)
    assert load_statistics(shuffled_rows, rng.sample(packets, len(packets))) == expected
    assert load_statistics(reversed_rows, packets[::-1]) == expected


def test_no_delivered_data_means_absent_average():
    log = M.PacketLog([record(outcome=P.DROPPED), record(outcome=P.UNTERMINATED, terminated=None)])
    summary = M.summarize(M.LoadLog(), log, M.delivery_times(log), 50.0, 950.0)
    assert summary.avg_delivery_s is None
    assert summary.dropped_count == 1
    assert summary.unterminated_count == 1


@given(st.lists(st.sampled_from([P.DELIVERED, P.DROPPED, P.UNTERMINATED]), max_size=30))
def test_outcome_counts_reconcile(outcomes):
    log = M.PacketLog([record(outcome=o, terminated=None if o == P.UNTERMINATED else 1.0)
                       for o in outcomes])
    summary = M.summarize(M.LoadLog(), log, M.delivery_times(log), 50.0, 950.0)
    assert (summary.delivered_count + summary.dropped_count + summary.unterminated_count
            == len(outcomes))


# -- CSV -------------------------------------------------------------------

def tiny_topology():
    return make_topology(2, [(0, 1, 1024.0)], [Prefix(0, 8, (1,))])


def summary_fixture(**overrides):
    base = dict(run_id="7-single", mode="single", interest_count=3, seed=7,
                avg_delivery_s=0.125, delivered_count=4, dropped_count=1,
                unterminated_count=0, offered_load_mbps=12.0, avg_load_mbps=6.0,
                std_load_mbps=1.5)
    base.update(overrides)
    return M.RunSummary(**base)


def parse_loads(path):
    """The loads.csv rows as a LoadLog; each time's rows must list channels 0, 1, ..."""
    lines = path.read_text().splitlines()
    assert lines[0] == M.LOADS_HEADER
    out = M.LoadLog()
    for line in lines[1:]:
        _, t, channel, _, _, load = line.split(",")
        if not out.times or out.times[-1] != float(t):
            out.append(float(t), [])
        assert int(channel) == len(out.rows[-1])
        out.rows[-1].append(float(load))
    return out


def parse_packets(path):
    lines = path.read_text().splitlines()
    assert lines[0] == M.PACKETS_HEADER
    out = M.PacketLog()
    for line in lines[1:]:
        _, pid, kind, prefix, chunk, src, dst, created, terminated, outcome, route = line.split(",")
        assert int(pid) == len(out)
        out.packets.append(record(kind, float(created), float(terminated) if terminated else None,
                                  outcome, route, int(prefix), int(chunk)))
        nodes = out.packets[-1].nodes
        assert (nodes[0], nodes[-1]) == (int(src), int(dst))
    return out


def test_empty_run_writes_headers_only(tmp_path):
    paths = M.write_csv(tiny_topology(), M.LoadLog(), M.PacketLog(), summary_fixture(), tmp_path)
    assert [p.name for p in paths] == ["loads.csv", "packets.csv", "summary.csv"]
    assert paths[0].read_text() == M.LOADS_HEADER + "\n"
    assert paths[1].read_text() == M.PACKETS_HEADER + "\n"
    summary_lines = paths[2].read_text().splitlines()
    assert summary_lines[0] == M.SUMMARY_HEADER
    assert summary_lines[1] == "7-single,single,3,7,0.125000,4,1,0,12.000000,6.000000,1.500000"


def test_delivered_packet_row(tmp_path):
    log = M.PacketLog([record(created=0.5, terminated=0.625, route="0-1")])
    _, packets_path, _ = M.write_csv(tiny_topology(), M.LoadLog(), log, summary_fixture(), tmp_path)
    assert packets_path.read_text().splitlines()[1] == \
        "7-single,0,data,0,0,0,1,0.500000,0.625000,Delivered,0-1"


def test_shared_and_signed_zero_created_times(tmp_path):
    # Interests at 0.0 and at -0.0 (both accepted by the engine), and an
    # interest at 2.5 whose data chunk shares its created time.
    log = M.PacketLog([record(kind=P.INTEREST, created=0.0, terminated=0.0625),
                       record(kind=P.INTEREST, created=-0.0, terminated=0.0625, chunk=1),
                       record(kind=P.INTEREST, created=2.5, terminated=2.5625, route="1-0"),
                       record(created=0.0, terminated=0.625, route="1-0"),
                       record(created=-0.0, terminated=0.6875, route="1-0", chunk=1),
                       record(created=2.5, terminated=3.125),
                       record(created=-0.0, outcome=P.DROPPED, terminated=0.75, route="1-0", chunk=1)])
    _, packets_path, _ = M.write_csv(tiny_topology(), M.LoadLog(), log, summary_fixture(), tmp_path)
    assert packets_path.read_text() == (
        M.PACKETS_HEADER + "\n"
        "7-single,0,interest,0,0,0,1,0.000000,0.062500,Delivered,0-1\n"
        "7-single,1,interest,0,1,0,1,-0.000000,0.062500,Delivered,0-1\n"
        "7-single,2,interest,0,0,1,0,2.500000,2.562500,Delivered,1-0\n"
        "7-single,3,data,0,0,1,0,0.000000,0.625000,Delivered,1-0\n"
        "7-single,4,data,0,1,1,0,-0.000000,0.687500,Delivered,1-0\n"
        "7-single,5,data,0,0,0,1,2.500000,3.125000,Delivered,0-1\n"
        "7-single,6,data,0,1,1,0,-0.000000,0.750000,Dropped,1-0\n")


def test_unterminated_packet_has_empty_timestamp(tmp_path):
    log = M.PacketLog([record(outcome=P.UNTERMINATED, terminated=None)])
    _, packets_path, _ = M.write_csv(tiny_topology(), M.LoadLog(), log, summary_fixture(), tmp_path)
    row = packets_path.read_text().splitlines()[1]
    assert ",,Unterminated," in row


def test_absent_average_is_empty_field(tmp_path):
    *_, summary_path = M.write_csv(tiny_topology(), M.LoadLog(), M.PacketLog(),
                                   summary_fixture(avg_delivery_s=None), tmp_path)
    assert summary_path.read_text().splitlines()[1].split(",")[4] == ""


def test_rows_sorted_and_roundtrip(tmp_path):
    topo = tiny_topology()
    load_log = M.LoadLog([0.2, 0.4], [[2.0, 3.5], [0.0, 1.25]])
    # A packet's id is its position in the log: write_csv does not sort.
    packet_log = M.PacketLog([record(created=0.0, terminated=0.125),
                              record(kind=P.INTEREST, created=0.0, terminated=0.0625, route="1-0"),
                              record(created=0.25, terminated=0.375)])
    paths = M.write_csv(topo, load_log, packet_log, summary_fixture(), tmp_path)

    loads = parse_loads(paths[0])
    assert [(s.time_s, s.channel_id) for s in loads] == [(0.2, 0), (0.2, 1), (0.4, 0), (0.4, 1)]
    assert loads == load_log
    packets = parse_packets(paths[1])
    assert [r.packet_id for r in packets] == [0, 1, 2]
    assert written(packets) == written(packet_log)

    # Writing the parsed logs again reproduces the files byte for byte.
    again = M.write_csv(topo, loads, packets, summary_fixture(), tmp_path / "again")
    for before, after in zip(paths, again):
        assert before.read_text() == after.read_text()


def test_loads_csv_text_is_pinned_for_edge_rows(tmp_path):
    # A run on a topology with no channel logs an empty row per path update,
    # and an empty row writes no line.
    empty = Topology((0,), (), (Prefix(0, 8, (0,)),))
    load_log, packet_log = E.run(SimulationConfig(horizon_s=1.0), empty, [])
    assert len(load_log.rows) == 5 and len(load_log) == 0
    summary = M.summarize(load_log, packet_log, M.delivery_times(packet_log), 0.0, 1.0,
                          run_id="0-single")
    loads_path, *_ = M.write_csv(empty, load_log, packet_log, summary, tmp_path / "empty")
    assert loads_path.read_text() == M.LOADS_HEADER + "\n"

    # Zero, an int, a saturated load and loads that round at the 7th decimal,
    # under a run id holding the characters of a format template.
    topology = make_topology(3, [(0, 1, 1024.0), (1, 2, 700.0)], [Prefix(0, 8, (2,))])
    load_log = M.LoadLog([0.2, 0.4000004], [[0.0, 1024, 700.0, 2.4999996],
                                            [0.1234565, 0.0, 700.0, 0]])
    loads_path, *_ = M.write_csv(topology, load_log, M.PacketLog(), summary_fixture(run_id="5-%s%%d-multi"),
                                 tmp_path / "edges")
    assert loads_path.read_text() == (
        M.LOADS_HEADER + "\n"
        "5-%s%%d-multi,0.200000,0,0,1,0.000000\n"
        "5-%s%%d-multi,0.200000,1,1,0,1024.000000\n"
        "5-%s%%d-multi,0.200000,2,1,2,700.000000\n"
        "5-%s%%d-multi,0.200000,3,2,1,2.500000\n"
        "5-%s%%d-multi,0.400000,0,0,1,0.123456\n"
        "5-%s%%d-multi,0.400000,1,1,0,0.000000\n"
        "5-%s%%d-multi,0.400000,2,1,2,700.000000\n"
        "5-%s%%d-multi,0.400000,3,2,1,0.000000\n")


def test_unwritable_path_raises_oserror(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    with pytest.raises(OSError):
        M.write_csv(tiny_topology(), M.LoadLog(), M.PacketLog(), summary_fixture(), blocker / "sub")


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_states_every_file_schema():
    readme = README.read_text()
    for header in (M.LOADS_HEADER, M.PACKETS_HEADER, M.SUMMARY_HEADER, M.HISTOGRAM_HEADER,
                   M.BATCH_HEADER):
        assert f"`{header}`" in readme, header


def test_readme_simulation_without_files_runs_alone():
    # The block runs in a fresh namespace, so it must import all it uses.
    after = README.read_text().split("One simulation without writing files:\n", 1)[1]
    block = after.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    assert isinstance(namespace["summary"], M.RunSummary)
    assert namespace["delays"] and len(namespace["packet_log"]) > 0


def test_write_histogram(tmp_path):
    path = M.write_histogram([(0.0, 2), (0.2, 1)], tmp_path / "histogram.csv")
    assert path.read_text() == "bin_start_s,count\n0.000000,2\n0.200000,1\n"
