"""Span recorder for the traced benchmark run.

The tracer wraps public callables of each icnsim module from outside (module
functions and class methods), records one span per call (name, start, end,
parent) in compact arrays, and derives the per-layer metrics from them. The
two hottest engine-internal calls, ``EventQueue.pop`` and
``ChannelState.busy_seconds``, are counted (and the latter timed) without a
span each: they sit inside the engine layer, and a span per call would hold
about a million spans in memory for one run.
"""

from __future__ import annotations

import sys
from array import array
from pathlib import Path
from time import perf_counter_ns

# Per-layer metric name -> unit, in report order.
LAYER_METRICS = {
    "topology.generate_s": "s",
    "topology.channels": "count",
    "cli.build_inputs_s": "s",
    "cli.generate_scenario_s": "s",
    "engine.run_s": "s",
    "engine.self_s": "s",
    "engine.events": "count",
    "engine.events_per_s": "1/s",
    "engine.sample_s": "s",
    "engine.sample_calls": "count",
    "engine.load_samples": "count",
    "engine.packets": "count",
    "engine.dropped": "count",
    "routing.paths_s": "s",
    "routing.paths_calls": "count",
    "routing.paths_hit_ratio": "ratio",
    "routing.paths_fill_ratio": "ratio",
    "routing.cost_view_s": "s",
    "routing.rebuild_s": "s",
    "routing.rebuild_calls": "count",
    "routing.tables_used_ratio": "ratio",
    "protocol.split_s": "s",
    "protocol.split_calls": "count",
    "protocol.response_s": "s",
    "protocol.response_calls": "count",
    "metrics.summarize_s": "s",
    "metrics.write_csv_s": "s",
    "metrics.write_histogram_s": "s",
    "metrics.bytes_written": "bytes",
    "trace.overhead_ratio": "ratio",
}

# Span name -> per-layer metric that sums the spans' inclusive durations.
_SPAN_TIMES = {
    "topology.generate_topology": "topology.generate_s",
    "cli.build_inputs": "cli.build_inputs_s",
    "cli.generate_scenario": "cli.generate_scenario_s",
    "engine.Simulation.run": "engine.run_s",
    "routing.RouteSet.paths": "routing.paths_s",
    "routing.compute_cost_view": "routing.cost_view_s",
    "routing.rebuild_tables": "routing.rebuild_s",
    "protocol.split_interest": "protocol.split_s",
    "protocol.make_data_response": "protocol.response_s",
    "metrics.summarize": "metrics.summarize_s",
    "metrics.write_csv": "metrics.write_csv_s",
    "metrics.write_histogram": "metrics.write_histogram_s",
}


class Tracer:
    """Records spans around wrapped callables until ``uninstall``."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        # Counters kept at the same boundaries as the spans.
        self.channels = 0
        self.events = 0
        self.sample_calls = 0
        self.sample_ns = 0
        self.paths_calls = 0
        self.paths_returned = 0
        self.paths_wanted = 0
        self._paths_keys: set[tuple[int, int, int]] = set()
        self._table_serial: dict[int, int] = {}
        self._tables_used: set[int] = set()
        self.tables_built = 0
        self.bytes_written = 0

    # -- recording --------------------------------------------------------

    def begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0)
        self._stack.append(index)
        self.span_start.append(perf_counter_ns())
        return index

    def end(self, index: int) -> None:
        self.span_end[index] = perf_counter_ns()
        self._stack.pop()

    def _patch(self, owner, attr, make_wrapper):
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def _span(self, owner, attr, name, observe=None):
        def make(original):
            def traced(*args, **kwargs):
                index = self.begin(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self.end(index)
                if observe is not None:
                    observe(args, result)
                return result
            return traced
        self._patch(owner, attr, make)

    def install(self) -> None:
        """Wrap the public callables of the icnsim modules."""
        from icnsim import cli, engine, metrics, protocol, routing, topology
        self._span(topology, "generate_topology", "topology.generate_topology", self._on_topology)
        self._span(cli, "build_inputs", "cli.build_inputs")
        self._span(cli, "generate_scenario", "cli.generate_scenario")
        self._span(engine.Simulation, "run", "engine.Simulation.run")
        self._span(routing.RouteSet, "paths", "routing.RouteSet.paths", self._on_paths)
        self._span(routing, "compute_cost_view", "routing.compute_cost_view")
        self._span(routing, "rebuild_tables", "routing.rebuild_tables", self._on_rebuild)
        self._span(protocol, "split_interest", "protocol.split_interest")
        self._span(protocol, "make_data_response", "protocol.make_data_response")
        self._span(metrics, "summarize", "metrics.summarize")
        self._span(metrics, "write_csv", "metrics.write_csv", self._on_files)
        self._span(metrics, "write_histogram", "metrics.write_histogram", self._on_files)
        self._patch(engine.EventQueue, "pop", self._counted_pop)
        self._patch(engine.ChannelState, "busy_seconds", self._timed_sample)
        if self.missing:
            print(f"trace: not found, left unwrapped: {', '.join(self.missing)}", file=sys.stderr)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- counters ---------------------------------------------------------

    def _counted_pop(self, original):
        def pop(queue):
            self.events += 1
            return original(queue)
        return pop

    def _timed_sample(self, original):
        def busy_seconds(state, lo, hi):
            start = perf_counter_ns()
            result = original(state, lo, hi)
            self.sample_ns += perf_counter_ns() - start
            self.sample_calls += 1
            return result
        return busy_seconds

    def _on_topology(self, args, topology):
        self.channels += len(topology.channels)

    def _on_rebuild(self, args, result):
        # The engine only ever looks up its newest tables, so the id of a live
        # table identifies it even though ids of collected tables are reused.
        self._table_serial[id(result[0])] = self.tables_built
        self.tables_built += 1

    def _on_paths(self, args, paths):
        table, node, prefix_id = args[0], args[1], args[2]
        serial = self._table_serial.get(id(table), -1)
        self.paths_calls += 1
        self.paths_returned += len(paths)
        self.paths_wanted += table.k
        self._paths_keys.add((serial, node, prefix_id))
        self._tables_used.add(serial)

    def _on_files(self, args, result):
        for path in result if isinstance(result, list) else [result]:
            self.bytes_written += Path(path).stat().st_size

    # -- results ----------------------------------------------------------

    def durations(self):
        """(inclusive, self) nanoseconds per span name."""
        count = len(self.span_name)
        child_ns = [0] * count
        for i in range(count):
            parent = self.span_parent[i]
            if parent >= 0:
                child_ns[parent] += self.span_end[i] - self.span_start[i]
        inclusive = dict.fromkeys(self.names, 0)
        own = dict.fromkeys(self.names, 0)
        for i in range(count):
            name = self.names[self.span_name[i]]
            duration = self.span_end[i] - self.span_start[i]
            inclusive[name] += duration
            own[name] += duration - child_ns[i]
        return inclusive, own

    def layer_metrics(self, runs) -> dict[str, float]:
        """Per-layer metrics of one traced operation (``trace.overhead_ratio``
        is added by the caller). ``runs`` are the output checks of its runs."""
        inclusive, own = self.durations()
        out: dict[str, float] = {}
        for span, metric in _SPAN_TIMES.items():
            out[metric] = inclusive.get(span, 0) / 1e9
        out["engine.self_s"] = own.get("engine.Simulation.run", 0) / 1e9
        out["topology.channels"] = self.channels
        out["engine.events"] = self.events
        out["engine.events_per_s"] = self.events / out["engine.run_s"] if out["engine.run_s"] else 0.0
        out["engine.sample_s"] = self.sample_ns / 1e9
        out["engine.sample_calls"] = self.sample_calls
        out["engine.load_samples"] = sum(r["load_samples"] for r in runs)
        out["engine.packets"] = sum(r["records"] for r in runs)
        out["engine.dropped"] = sum(r["dropped"] for r in runs)
        calls = self.paths_calls
        out["routing.paths_calls"] = calls
        out["routing.paths_hit_ratio"] = (calls - len(self._paths_keys)) / calls if calls else 0.0
        out["routing.paths_fill_ratio"] = self.paths_returned / self.paths_wanted if calls else 0.0
        out["routing.rebuild_calls"] = self.tables_built
        used = len(self._tables_used - {-1})
        out["routing.tables_used_ratio"] = used / self.tables_built if self.tables_built else 0.0
        out["protocol.split_calls"] = self._count("protocol.split_interest")
        out["protocol.response_calls"] = self._count("protocol.make_data_response")
        out["metrics.bytes_written"] = self.bytes_written
        return out

    def _count(self, name):
        nid = self._name_ids.get(name)
        return 0 if nid is None else self.span_name.count(nid)

    def write_spans(self, path) -> None:
        """One CSV row per span: id,name,start_ns,end_ns,parent."""
        with open(path, "w", newline="") as f:
            f.write("id,name,start_ns,end_ns,parent\n")
            names = self.names
            f.writelines(
                f"{i},{names[n]},{s},{e},{p}\n"
                for i, (n, s, e, p) in enumerate(zip(self.span_name, self.span_start,
                                                     self.span_end, self.span_parent)))
