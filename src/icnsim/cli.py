"""Command line entry point: scenario generation, single runs, and batch runs."""

from __future__ import annotations

import argparse
import random
import sys
import typing
from dataclasses import fields, replace
from pathlib import Path

from . import engine, metrics, protocol
from . import topology as topo
from .config import SimulationConfig
from .engine import InterestEvent

_ALIASES = {"out": "out_dir"}


def _value_type(hint):
    """Type a config-file value is parsed as; ``int | None`` parses as int."""
    return next((t for t in typing.get_args(hint) if t is not type(None)), hint)


_HINTS = typing.get_type_hints(SimulationConfig)
# Config-file key -> value type: every SimulationConfig field, plus runs.
_KEY_TYPES = {f.name: _value_type(_HINTS[f.name]) for f in fields(SimulationConfig)} | {"runs": int}


def _build_parser():
    p = argparse.ArgumentParser(
        prog="icnsim",
        description="Simulate single-path vs multipath source routing over a random "
                    "content network and emit CSV load/packet logs.")
    p.add_argument("--seed", type=int, help="master seed (default 0)")
    p.add_argument("--nodes", type=int, help="node count (default 10)")
    p.add_argument("--edges", type=int, help="undirected edge count (default 30)")
    p.add_argument("--prefixes", type=int, help="prefix count (default 15)")
    p.add_argument("--interests", type=int, help="number of interest events (default 1000)")
    p.add_argument("--mode", choices=(protocol.MODE_SINGLE, protocol.MODE_MULTI),
                   help="routing mode (default single)")
    p.add_argument("--k", type=int, help="paths per prefix (default: 3 multi; single takes 1 only)")
    p.add_argument("--runs", type=int, help="run a paired single/multi batch over this many seeds")
    p.add_argument("--out", dest="out_dir", help="output directory (default ./out)")
    p.add_argument("--config", dest="config_file", help="key=value config file; flags override it")
    return p


def _read_config_file(path, parser):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        parser.error(str(exc))
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            parser.error(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key = _ALIASES.get(key.strip(), key.strip())
        value = value.strip()
        value_type = _KEY_TYPES.get(key)
        if value_type is None:
            parser.error(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = value_type(value)
        except ValueError:
            parser.error(f"{path}:{lineno}: bad value {value!r} for {key}")
    return values


def _merge(namespace, parser):
    file_values = _read_config_file(namespace.config_file, parser) if namespace.config_file else {}
    kwargs = {}
    for key in (f.name for f in fields(SimulationConfig)):
        flag = getattr(namespace, key, None)
        if flag is not None:
            kwargs[key] = flag
        elif key in file_values:
            kwargs[key] = file_values[key]
    runs = namespace.runs if namespace.runs is not None else file_values.get("runs")
    # Checked first: a batch ignores both, so a k that its mode rejects is not the error.
    fixed = [key for key in ("mode", "k") if key in kwargs]
    if runs is not None and fixed:
        parser.error(f"{' and '.join(fixed)} cannot be set for a batch, which runs both modes "
                     "with their default k")
    try:
        config = SimulationConfig(**kwargs).validate()
    except ValueError as exc:
        parser.error(str(exc))
    if runs is not None and runs < 1:
        parser.error(f"runs must be at least 1, got {runs}")
    return config, runs


def parse_config(args=None) -> SimulationConfig:
    """Flags override config-file values override defaults."""
    parser = _build_parser()
    config, _ = _merge(parser.parse_args(args), parser)
    return config


def generate_scenario(config, topology, rng: random.Random) -> list[InterestEvent]:
    """Random interest schedule: uniform prefix, uniform non-anchor consumer,
    uniform time in [0, interest_window_s), sorted by time."""
    n = len(topology.nodes)
    events = []
    for _ in range(config.interests):
        prefix = topology.prefixes[rng.randrange(len(topology.prefixes))]
        consumer = rng.randrange(n)
        while consumer in prefix.anchors:
            consumer = rng.randrange(n)
        events.append(InterestEvent(rng.uniform(0.0, config.interest_window_s),
                                    consumer, prefix.prefix_id))
    events.sort(key=lambda e: e.time_s)
    return events


def build_inputs(config):
    """Topology and interest schedule for a seed; raises ValueError unless ``config.validate()`` passes.

    Structure and scenario come from separate seed-derived streams and the
    engine consumes no randomness, so the routing mode never perturbs them.
    """
    config.validate()
    rng_topology = random.Random(f"{config.seed}/topology")
    rng_scenario = random.Random(f"{config.seed}/scenario")
    topology = topo.generate_topology(config.nodes, config.edges, config.prefixes, rng_topology)
    return topology, generate_scenario(config, topology, rng_scenario)


def _execute(config, topology, scenario):
    load_log, packet_log = engine.run(config, topology, scenario)
    delays = metrics.delivery_times(packet_log)
    summary = metrics.summarize(load_log, packet_log, delays, config.warmup_s,
                                config.cooldown_start_s, run_id=f"{config.seed}-{config.mode}",
                                mode=config.mode, interest_count=config.interests, seed=config.seed)
    return load_log, packet_log, delays, summary


@engine.collector_paused
def run_single(config):
    """One run, collector paused (see ``engine.collector_paused``); writes its four files."""
    topology, scenario = build_inputs(config)
    load_log, packet_log, delays, summary = _execute(config, topology, scenario)
    bins = metrics.histogram(delays, config.histogram_bin_s)
    # Neither is needed for the files, so neither is held while they are written.
    del scenario, delays
    paths = metrics.write_csv(topology, load_log, packet_log, summary, config.out_dir)
    paths.append(metrics.write_histogram(bins, Path(config.out_dir) / "histogram.csv"))
    return summary, paths


@engine.collector_paused
def run_batch(config, runs: int):
    """Paired single/multi runs on seeds seed..seed+runs-1; writes batch.csv.

    Both modes of a seed run on one topology and interest schedule, built
    once, with their default k, whatever ``mode`` and ``k`` the config holds;
    a run mutates neither. Collector paused, see ``engine.collector_paused``.
    """
    if runs < 1:
        raise ValueError(f"runs must be at least 1, got {runs}")
    summaries = []
    for offset in range(runs):
        seed_config = replace(config, seed=config.seed + offset, mode=protocol.MODE_SINGLE, k=None)
        inputs = build_inputs(seed_config)
        for mode in (protocol.MODE_SINGLE, protocol.MODE_MULTI):
            summaries.append(_execute(replace(seed_config, mode=mode, k=None), *inputs)[3])
    return summaries, metrics.write_batch(summaries, Path(config.out_dir) / "batch.csv")


def main(argv=None) -> int:
    parser = _build_parser()
    namespace = parser.parse_args(argv)
    config, runs = _merge(namespace, parser)
    try:
        if runs:
            summaries, path = run_batch(config, runs)
            print(f"wrote {path} ({len(summaries)} runs)")
        else:
            summary, paths = run_single(config)
            avg = "n/a" if summary.avg_delivery_s is None else f"{summary.avg_delivery_s:.6f} s"
            print(f"run {summary.run_id}: delivered={summary.delivered_count} "
                  f"dropped={summary.dropped_count} unterminated={summary.unterminated_count} "
                  f"avg_delivery={avg}")
            for p in paths:
                print(f"wrote {p}")
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
