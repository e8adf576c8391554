"""One benchmark operation, run in a fresh process by ``run.py``.

Usage: python3 perfbench/op.py '{"workload": "desk-batch", "seed": 4,
                                  "out_dir": "perfbench/out/op", "spans_path": null}'

The process times a fixed reference workload, measures set-up (importing
icnsim, building the inputs and the Simulation for each of the workload's
configs), then runs the operation
through the public API (``cli.run_single`` or ``cli.run_batch``), checks every
output, and prints one JSON line. A non-null ``spans_path`` makes it a traced
operation: the public callables are wrapped for the call and the spans are
written to that path afterwards.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import os
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# The desk scenario keeps SimulationConfig's defaults; the other two run a
# 100 s horizon with statistics taken over [5 s, 95 s).
_SHORT = {"horizon_s": 100.0, "interest_window_s": 95.0, "warmup_s": 5.0, "cooldown_start_s": 95.0}
WORKLOADS = {
    "desk-batch": ("run_batch", {"interests": 5000}),
    "congested-single": ("run_single", {"interests": 20000, **_SHORT}),
    "wide-multi": ("run_single", {"mode": "multi", "nodes": 50, "edges": 150, "prefixes": 50,
                                  "interests": 5000, **_SHORT}),
}

# Loads are busy-time fractions of capacity; allow rounding in the last bits.
_LOAD_TOLERANCE = 1e-9
# CSV times carry six decimals, so a difference of two such times is within 2e-6.
_CSV_TOLERANCE = 2e-6


class CheckFailed(Exception):
    """An output of the program is wrong."""


def host_reference(entries: int = 175_000) -> float:
    """Seconds the host takes for a fixed pure-Python workload.

    Like the simulator's inner loop, it pushes timed entries on a heap, keeps
    live objects in a dict and appends to a log. The speed of a shared host
    drifts by a quarter over minutes; the ratio of an operation's time to this
    one, taken in the same process, does not. It runs before icnsim is
    imported, so no change to icnsim can alter it.
    """
    start = time.perf_counter()
    heap, live, log = [], {}, []
    total = 0.0
    for i in range(entries):
        live[i] = (i, i * 0.5, (i & 7, i & 15))
        heapq.heappush(heap, (((i * 7919) % 10007) * 1e-3, i))
        if len(heap) > 2000:
            when, key = heapq.heappop(heap)
            total += live.pop(key)[1] * when
            log.append((when, key))
    return time.perf_counter() - start


def p99(values) -> float:
    """Nearest-rank 99th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)]


def check_run(protocol, topology, load_log, packet_log) -> dict:
    """Check one simulation's logs; returns the counts the operation reports.

    Memory stays flat: delivered interests and data chunks are matched as
    multisets through a sum of hashes, so no per-packet table is built while
    the logs are alive.
    """
    capacity = [ch.capacity_mbps for ch in topology.channels]
    for s in load_log:
        if not 0.0 <= s.load_mbps <= capacity[s.channel_id] * (1 + _LOAD_TOLERANCE):
            raise CheckFailed(f"load {s.load_mbps} Mbps on channel {s.channel_id} at t={s.time_s} "
                              f"outside [0, {capacity[s.channel_id]}]")
    outcomes = {protocol.DELIVERED: 0, protocol.DROPPED: 0, protocol.UNTERMINATED: 0}
    interests = answers = 0
    interest_hash = answer_hash = 0
    delays = []
    previous_id = -1
    for r in packet_log:
        if r.packet_id <= previous_id:
            raise CheckFailed(f"packet id {r.packet_id} repeated or out of order")
        previous_id = r.packet_id
        if r.outcome not in outcomes:
            raise CheckFailed(f"packet {r.packet_id} has outcome {r.outcome!r}")
        outcomes[r.outcome] += 1
        if r.kind == protocol.INTEREST:
            if r.outcome == protocol.DELIVERED:
                interests += 1
                interest_hash += hash((r.prefix_id, r.chunk_index, r.created_s, r.src, r.dst, r.route))
        elif r.kind == protocol.DATA:
            answers += 1
            route = "-".join(reversed(r.route.split("-")))
            answer_hash += hash((r.prefix_id, r.chunk_index, r.created_s, r.dst, r.src, route))
            if r.outcome == protocol.DELIVERED:
                delays.append(r.terminated_s - r.created_s)
        else:
            raise CheckFailed(f"packet {r.packet_id} has kind {r.kind!r}")
    if interests != answers or interest_hash != answer_hash:
        raise CheckFailed(f"{answers} data chunks do not answer the {interests} delivered interests")
    if not delays:
        raise CheckFailed("no data chunk was delivered")
    return {"records": len(packet_log), "delivered": outcomes[protocol.DELIVERED],
            "dropped": outcomes[protocol.DROPPED], "unterminated": outcomes[protocol.UNTERMINATED],
            "delivered_data": len(delays), "mean_delay": sum(delays) / len(delays),
            "p99_delay": p99(delays), "load_samples": len(load_log)}


class RunChecker:
    """Wraps ``engine.run`` to check each simulation's logs as it returns.

    The time spent checking is kept in ``seconds`` so that the operation's
    wall time can exclude it.
    """

    def __init__(self, engine, protocol):
        self.runs: list[dict] = []
        self.seconds = 0.0
        original = engine.run

        def checked_run(config, topology, interests):
            load_log, packet_log = original(config, topology, interests)
            start = time.perf_counter()
            self.runs.append(check_run(protocol, topology, load_log, packet_log))
            self.seconds += time.perf_counter() - start
            return load_log, packet_log

        engine.run = checked_run


def _same(a, b, what):
    if abs(a - b) > _CSV_TOLERANCE:
        raise CheckFailed(f"{what}: {a} != {b}")


def check_summaries(summaries, runs):
    if len(summaries) != len(runs):
        raise CheckFailed(f"{len(summaries)} summaries for {len(runs)} simulations")
    for s, r in zip(summaries, runs):
        counts = (s.delivered_count, s.dropped_count, s.unterminated_count)
        if counts != (r["delivered"], r["dropped"], r["unterminated"]) or sum(counts) != r["records"]:
            raise CheckFailed(f"summary {s.run_id} counts {counts} disagree with {r['records']} records")
        if s.avg_delivery_s is None:
            raise CheckFailed(f"summary {s.run_id} has no delivery time")
        _same(s.avg_delivery_s, r["mean_delay"], f"summary {s.run_id} avg_delivery_s")
        if not s.std_load_mbps >= 0.0:
            raise CheckFailed(f"summary {s.run_id} std_load_mbps is {s.std_load_mbps}")


def check_files(files, run) -> float:
    """Check the CSVs of one run_single call; returns p99 delivery from packets.csv."""
    by_name = {Path(p).name: Path(p) for p in files}
    with open(by_name["packets.csv"]) as f:
        next(f)
        rows = 0
        delays = []
        for line in f:
            rows += 1
            fields = line.split(",")
            if fields[2] == "data" and fields[9] == "Delivered":
                delays.append(float(fields[8]) - float(fields[7]))
    if rows != run["records"] or len(delays) != run["delivered_data"]:
        raise CheckFailed(f"packets.csv has {rows} rows, {len(delays)} delivered data; "
                          f"expected {run['records']}, {run['delivered_data']}")
    with open(by_name["loads.csv"]) as f:
        load_rows = sum(1 for _ in f) - 1
    if load_rows != run["load_samples"]:
        raise CheckFailed(f"loads.csv has {load_rows} rows, expected {run['load_samples']}")
    with open(by_name["histogram.csv"]) as f:
        next(f)
        binned = sum(int(line.rsplit(",", 1)[1]) for line in f)
    if binned != run["delivered_data"]:
        raise CheckFailed(f"histogram.csv counts {binned} deliveries, expected {run['delivered_data']}")
    csv_p99 = p99(delays)
    _same(csv_p99, run["p99_delay"], "packets.csv p99 delivery")
    return csv_p99


def _digest(simulated, runs, files) -> str:
    h = hashlib.sha256(json.dumps([simulated, runs], sort_keys=True).encode())
    for path in sorted(files, key=lambda p: Path(p).name):
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def main(spec) -> dict:
    api, overrides = WORKLOADS[spec["workload"]]
    reference_s = host_reference()
    sys.path.insert(0, str(SRC))
    setup_start = time.perf_counter()
    from icnsim import cli, engine, protocol
    from icnsim.config import SimulationConfig

    config = SimulationConfig(seed=spec["seed"], out_dir=spec["out_dir"], **overrides).validate()
    configs = [config] if api == "run_single" else [
        replace(config, mode=mode, k=None) for mode in (protocol.MODE_SINGLE, protocol.MODE_MULTI)]
    for cfg in configs:
        engine.Simulation(cfg, *cli.build_inputs(cfg))
    setup_s = time.perf_counter() - setup_start

    checker = RunChecker(engine, protocol)
    tracer = None
    if spec.get("spans_path"):
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
        root = tracer.begin("op")
    start = time.perf_counter()
    if api == "run_single":
        summary, files = cli.run_single(config)
        summaries = [summary]
    else:
        summaries, batch_path = cli.run_batch(config, runs=1)
        files = [batch_path]
    wall_s = time.perf_counter() - start - checker.seconds
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.end(root)
        tracer.uninstall()

    runs = checker.runs
    check_summaries(summaries, runs)
    if api == "run_single":
        p99s = [check_files(files, runs[0])]
    else:
        p99s = [r["p99_delay"] for r in runs]
    records = sum(r["records"] for r in runs)
    simulated = {
        "delivery_mean_s": sum(s.avg_delivery_s for s in summaries) / len(summaries),
        "delivery_p99_s": sum(p99s) / len(p99s),
        "delivered_ratio": sum(r["delivered"] for r in runs) / records,
        "load_std_mbps": sum(s.std_load_mbps for s in summaries) / len(summaries),
    }
    result = {"wall_s": wall_s, "reference_s": reference_s, "setup_s": setup_s,
              "peak_rss_mb": peak_rss_mb,
              "check_s": checker.seconds, "simulated": simulated,
              "digest": _digest(simulated, runs, files)}
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(runs)
        tracer.write_spans(spec["spans_path"])
    return result


if __name__ == "__main__":
    try:
        outcome = {"ok": True, **main(json.loads(sys.argv[1]))}
    except CheckFailed as exc:
        outcome = {"ok": False, "error": f"check failed: {exc}"}
    print(json.dumps(outcome), flush=True)
    # Skip tearing down the run's objects: it is not part of the operation.
    os._exit(0)
