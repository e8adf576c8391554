#!/usr/bin/env python3
"""icnsim benchmark: run one workload and print every metric, then a JSON line.

    python3 perfbench/run.py --workload desk-batch --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 9 --trace 1

Each operation runs in a fresh child process (``op.py``), one at a time. A
run derives ``DISTINCT_INPUTS`` input seeds from ``--seed``, runs one
operation on each, then repeats them in turn until ``--seconds`` is used up
(at least one repeat, so that every run checks that a seed reproduces its
simulated outputs exactly). With ``--trace 1`` a traced operation and one
more untraced one follow on the last operation's input seed; they give the
per-layer metrics and the tracing overhead. End-to-end numbers always come
from the untraced loop.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``). Given several workloads
or seeds, metric names there are prefixed with ``<workload>@<seed>/``; pass
a second seed to check a claim on held-out inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from op import WORKLOADS
from spans import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Run time and memory vary by about 10% between topologies, as much as from
# one repetition to the next on a shared host: operations on several
# topologies per run keep a run's figures close to the workload's typical ones.
DISTINCT_INPUTS = 5
MIN_OPS = DISTINCT_INPUTS + 1
# A run, its trace included, ends within this many seconds even if children hang.
RUN_LIMIT_S = 165.0

END_TO_END = {
    "wall_rel": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "delivery_mean_s": "s",
    "delivery_p99_s": "s",
    "delivered_ratio": "ratio",
    "load_std_mbps": "Mbps",
}
# Simulated metrics of a run combine its input seeds: by the mean, except the
# tail, where one topology with a congested bottleneck can double the mean.
SIMULATED = {"delivery_mean_s": statistics.fmean, "delivery_p99_s": statistics.median,
             "delivered_ratio": statistics.fmean, "load_std_mbps": statistics.fmean}


def input_seeds(seed: int) -> list[int]:
    return [seed * DISTINCT_INPUTS + i for i in range(DISTINCT_INPUTS)]


def run_op(workload: str, seed: int, timeout: float, spans_path: Path | None = None) -> dict:
    """One operation in a child process; returns its measurements or an error."""
    spec = {"workload": workload, "seed": seed, "out_dir": str(OUT / "op"),
            "spans_path": None if spans_path is None else str(spans_path)}
    try:
        proc = subprocess.run([sys.executable, str(HERE / "op.py"), json.dumps(spec)],
                              cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"ok": False, "seed": seed, "error": f"timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            return {**json.loads(lines[-1]), "seed": seed}
        except json.JSONDecodeError:
            pass
    tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
    return {"ok": False, "seed": seed, "error": f"exit {proc.returncode}, no result: {tail}"}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    inputs = input_seeds(seed)
    OUT.mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    ops: list[dict] = []
    durations: list[float] = []
    reference: dict[int, str] = {}
    while True:
        elapsed = time.monotonic() - start
        if len(ops) >= MIN_OPS and elapsed + statistics.median(durations) > seconds:
            break
        if elapsed >= RUN_LIMIT_S - 5:
            break
        op_start = time.monotonic()
        op = run_op(workload, inputs[len(ops) % DISTINCT_INPUTS], RUN_LIMIT_S - elapsed)
        durations.append(time.monotonic() - op_start)
        _check_repeat(op, reference)
        ops.append(op)

    trace_ops: list[dict] = []
    if trace:
        # The traced operation sits between two untraced ones on one input
        # seed, the loop's last and one more, so that the overhead ratio
        # cancels a steady drift in host speed.
        trace_seed = ops[-1]["seed"]
        spans_path = OUT / f"spans-{workload}-{trace_seed}.csv"
        for spans in (spans_path, None):
            remaining = RUN_LIMIT_S - (time.monotonic() - start)
            if remaining < 5:
                break
            op = run_op(workload, trace_seed, remaining, spans)
            _check_repeat(op, reference)
            trace_ops.append(op)
    result = {"workload": workload, "seed": seed, "inputs": inputs, "ops": ops,
              "trace_ops": trace_ops}
    (OUT / f"ops-{workload}-{seed}.json").write_text(json.dumps(result, indent=1))
    return result


def _check_repeat(op: dict, reference: dict[int, str]) -> None:
    """A seed's later operations must reproduce its first one's simulated outputs."""
    if not op["ok"]:
        return
    first = reference.setdefault(op["seed"], op["digest"])
    if op["digest"] != first:
        op["ok"] = False
        op["error"] = f"outputs of seed {op['seed']} differ from its first operation"


# Host measurements, each the median over a run's operations. wall_s and
# reference_s are printed but not bounded: the host's speed moves both.
HOST = {"wall_s": "s", "reference_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def end_to_end(ops: list[dict]) -> dict[str, float]:
    """End-to-end metrics, plus the raw wall and reference times they use."""
    good = [op for op in ops if op["ok"]]
    out = {name: statistics.median(op[name] for op in good) for name in HOST}
    out["wall_rel"] = statistics.median(op["wall_s"] / op["reference_s"] for op in good)
    first_per_seed = {}
    for op in good:
        first_per_seed.setdefault(op["seed"], op["simulated"])
    for name, combine in SIMULATED.items():
        out[name] = combine([sim[name] for sim in first_per_seed.values()])
    return out


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def report(result: dict, trace: bool) -> dict[str, float] | None:
    """Print the run's metrics; returns the ones the JSON line carries."""
    ops = result["ops"] + result["trace_ops"]
    good = [op for op in result["ops"] if op["ok"]]
    failed = [op for op in ops if not op["ok"]]
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"input seeds {','.join(map(str, result['inputs']))}")
    print(f"  operations: attempted {len(ops)}, failed {len(failed)}")
    for op in failed:
        print(f"  FAILED seed {op['seed']}: {op['error']}")
    if not good:
        return None
    e2e = end_to_end(result["ops"])
    print(f"  end to end (untraced, {len(good)} operations)")
    for name, unit in {**END_TO_END, **HOST}.items():
        line = f"    {name:<18} {e2e[name]:>14.6f} {unit}"
        if name in HOST:
            q1, q3 = _quartiles([op[name] for op in good])
            line += f"   median of {len(good)}; q1 {q1:.6f}, q3 {q3:.6f}"
        elif name in SIMULATED:
            how = "median" if SIMULATED[name] is statistics.median else "mean"
            line += f"   {how} over {len({op['seed'] for op in good})} input seeds"
        else:
            line += f"   median of {len(good)} wall_s / reference_s"
        print(line)
    if not trace:
        return e2e
    sandwich = [result["ops"][-1], *result["trace_ops"]]
    if len(sandwich) < 3 or not all(op["ok"] for op in sandwich):
        return None
    before, traced, after = sandwich
    layers = {**traced["layers"],
              "trace.overhead_ratio": traced["wall_s"] / statistics.fmean(
                  [before["wall_s"], after["wall_s"]])}
    print(f"  per layer (traced operation on seed {traced['seed']}; spans in "
          f"perfbench/out/spans-{result['workload']}-{traced['seed']}.csv)")
    for name, unit in LAYER_METRICS.items():
        print(f"    {name:<28} {layers[name]:>16.6f} {unit}")
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="icnsim benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, nargs="+", required=True,
                        help="workload seed; further seeds give held-out runs")
    parser.add_argument("--seconds", type=float, default=36.0,
                        help="measuring time per workload and seed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "icnsim" / "__init__.py").is_file():
        print(f"error: icnsim sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print(f"icnsim benchmark  nproc {os.cpu_count()}  python {platform.python_version()}  "
          f"numpy {metadata.version('numpy')}  seconds {args.seconds:g}  trace {args.trace}")

    units = LAYER_METRICS if args.trace else END_TO_END
    several = len(workloads) * len(args.seed) > 1
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    complete = True
    for workload in workloads:
        for seed in args.seed:
            result = measure(workload, seed, args.seconds, bool(args.trace))
            ops = result["ops"] + result["trace_ops"]
            attempted += len(ops)
            failed += sum(not op["ok"] for op in ops)
            values = report(result, bool(args.trace))
            if values is None:
                complete = False
                continue
            prefix = f"{workload}@{seed}/" if several else ""
            for name, unit in units.items():
                metrics[prefix + name] = {"value": values[name], "unit": unit}
    print(json.dumps({"correct": failed == 0 and complete, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if complete else 1


if __name__ == "__main__":
    raise SystemExit(main())
