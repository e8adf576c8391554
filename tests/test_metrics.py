import math

import pytest
from hypothesis import given, strategies as st

from icnsim import metrics as M
from icnsim import protocol as P
from icnsim.topology import Prefix, make_topology


def record(pid, kind=P.DATA, created=0.0, terminated=1.0, outcome=P.DELIVERED,
           route="0-1", prefix=0, chunk=0):
    src, dst = int(route.split("-")[0]), int(route.split("-")[-1])
    return M.PacketRecord(pid, kind, prefix, chunk, src, dst, created, terminated, outcome, route)


# -- smooth --------------------------------------------------------------

def test_smooth_window_one_is_identity():
    series = [3.0, 1.0, 4.0, 1.0, 5.0]
    assert M.smooth(series, 1) == series


def test_smooth_hand_example():
    assert M.smooth([0.0, 3.0, 6.0], 3) == [0.0, 1.5, 3.0]


def test_smooth_constant_series_unchanged():
    assert M.smooth([2.5] * 6, 4) == [2.5] * 6


def test_smooth_rejects_bad_window():
    with pytest.raises(ValueError):
        M.smooth([1.0], 0)


def test_smooth_empty_series():
    assert M.smooth([], 5) == []


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40), st.integers(1, 10))
def test_smooth_stays_within_range(series, window):
    out = M.smooth(series, window)
    assert len(out) == len(series)
    lo, hi = min(series), max(series)
    assert all(lo - 1e-6 <= v <= hi + 1e-6 for v in out)


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
    summary = M.summarize(log, [])
    assert summary.avg_load_mbps == 15.0
    assert summary.offered_load_mbps == 15.0
    with_outside_only = M.summarize(M.LoadLog([49.9, 950.0], [[400.0], [400.0]]), [])
    assert with_outside_only.avg_load_mbps == 0.0


def test_equal_loads_have_zero_std():
    log = M.LoadLog([100.0], [[42.0] * 4])
    assert M.summarize(log, []).std_load_mbps == 0.0


def test_across_channel_population_std():
    log = M.LoadLog([100.0, 200.0], [[10.0, 20.0], [30.0, 30.0]])
    summary = M.summarize(log, [])
    assert summary.std_load_mbps == pytest.approx((5.0 + 0.0) / 2)
    assert summary.offered_load_mbps == pytest.approx((30.0 + 60.0) / 2)
    assert summary.avg_load_mbps == pytest.approx(22.5)


@given(st.integers(1, 6).flatmap(lambda channels: st.lists(
    st.lists(st.floats(0.0, 2048.0), min_size=channels, max_size=channels), min_size=1, max_size=12)))
def test_load_statistics_match_per_time_definition(rows):
    # Reference: per sample time, the channel sum and the population std
    # across channels, each averaged over times.
    log = M.LoadLog([60.0 + i / 5 for i in range(len(rows))], rows)
    summary = M.summarize(log, [])
    sums = [math.fsum(row) for row in rows]
    stds = [math.sqrt(math.fsum((x - s / len(row)) ** 2 for x in row) / len(row))
            for row, s in zip(rows, sums)]
    assert summary.offered_load_mbps == pytest.approx(sum(sums) / len(rows), rel=1e-9, abs=1e-9)
    assert summary.avg_load_mbps == pytest.approx(sum(sums) / len(log), rel=1e-9, abs=1e-9)
    assert summary.std_load_mbps == pytest.approx(sum(stds) / len(rows), rel=1e-6, abs=1e-4)


def test_delivery_mean_over_data_packets():
    log = [record(0, created=1.0, terminated=3.0),
           record(1, created=1.0, terminated=5.0),
           record(2, kind=P.INTEREST, created=1.0, terminated=1.1)]
    summary = M.summarize(M.LoadLog(), log)
    assert summary.avg_delivery_s == pytest.approx(3.0)
    assert summary.delivered_count == 3


def test_no_delivered_data_means_absent_average():
    log = [record(0, outcome=P.DROPPED), record(1, outcome=P.UNTERMINATED, terminated=None)]
    summary = M.summarize(M.LoadLog(), log)
    assert summary.avg_delivery_s is None
    assert summary.dropped_count == 1
    assert summary.unterminated_count == 1


@given(st.lists(st.sampled_from([P.DELIVERED, P.DROPPED, P.UNTERMINATED]), max_size=30))
def test_outcome_counts_reconcile(outcomes):
    log = [record(i, outcome=o, terminated=None if o == P.UNTERMINATED else 1.0)
           for i, o in enumerate(outcomes)]
    summary = M.summarize(M.LoadLog(), log)
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
    out = []
    for line in lines[1:]:
        _, pid, kind, prefix, chunk, src, dst, created, terminated, outcome, route = line.split(",")
        out.append(M.PacketRecord(int(pid), kind, int(prefix), int(chunk), int(src), int(dst),
                                  float(created), float(terminated) if terminated else None,
                                  outcome, route))
    return out


def test_empty_run_writes_headers_only(tmp_path):
    paths = M.write_csv(tiny_topology(), M.LoadLog(), [], summary_fixture(), tmp_path)
    assert [p.name for p in paths] == ["loads.csv", "packets.csv", "summary.csv"]
    assert paths[0].read_text() == M.LOADS_HEADER + "\n"
    assert paths[1].read_text() == M.PACKETS_HEADER + "\n"
    summary_lines = paths[2].read_text().splitlines()
    assert summary_lines[0] == M.SUMMARY_HEADER
    assert summary_lines[1] == "7-single,single,3,7,0.125000,4,1,0,12.000000,6.000000,1.500000"


def test_delivered_packet_row(tmp_path):
    log = [record(0, created=0.5, terminated=0.625, route="0-1")]
    _, packets_path, _ = M.write_csv(tiny_topology(), M.LoadLog(), log, summary_fixture(), tmp_path)
    assert packets_path.read_text().splitlines()[1] == \
        "7-single,0,data,0,0,0,1,0.500000,0.625000,Delivered,0-1"


def test_unterminated_packet_has_empty_timestamp(tmp_path):
    log = [record(0, outcome=P.UNTERMINATED, terminated=None)]
    _, packets_path, _ = M.write_csv(tiny_topology(), M.LoadLog(), log, summary_fixture(), tmp_path)
    row = packets_path.read_text().splitlines()[1]
    assert ",,Unterminated," in row


def test_absent_average_is_empty_field(tmp_path):
    *_, summary_path = M.write_csv(tiny_topology(), M.LoadLog(), [], summary_fixture(avg_delivery_s=None), tmp_path)
    assert summary_path.read_text().splitlines()[1].split(",")[4] == ""


def test_rows_sorted_and_roundtrip(tmp_path):
    topo = tiny_topology()
    load_log = M.LoadLog([0.2, 0.4], [[2.0, 3.5], [0.0, 1.25]])
    packet_log = [record(2, created=0.25, terminated=0.375), record(0, created=0.0, terminated=0.125),
                  record(1, kind=P.INTEREST, created=0.0, terminated=0.0625, route="1-0")]
    paths = M.write_csv(topo, load_log, packet_log, summary_fixture(), tmp_path)

    loads = parse_loads(paths[0])
    assert [(s.time_s, s.channel_id) for s in loads] == [(0.2, 0), (0.2, 1), (0.4, 0), (0.4, 1)]
    assert loads == load_log
    packets = parse_packets(paths[1])
    assert [r.packet_id for r in packets] == [0, 1, 2]
    assert sorted(packets) == sorted(packet_log)

    # Writing the parsed logs again reproduces the files byte for byte.
    again = M.write_csv(topo, loads, packets, summary_fixture(), tmp_path / "again")
    for before, after in zip(paths, again):
        assert before.read_text() == after.read_text()


def test_unwritable_path_raises_oserror(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    with pytest.raises(OSError):
        M.write_csv(tiny_topology(), M.LoadLog(), [], summary_fixture(), blocker / "sub")


def test_write_histogram(tmp_path):
    path = M.write_histogram([(0.0, 2), (0.2, 1)], tmp_path / "histogram.csv")
    assert path.read_text() == "bin_start_s,count\n0.000000,2\n0.200000,1\n"
