#!/usr/bin/env python3
"""The LMerge benchmark: three workloads, end-to-end and per-layer metrics.

Run from the repository root (the program is imported from ``src/``)::

    python3 perfbench/run.py --workload replicas-r3 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --self-check

``--trace 0`` prints the end-to-end metrics, measured untraced;
``--trace 1`` wraps the calls into each layer and prints the per-layer
metrics instead.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the run's calibration time and pass counts.  The plan is driven
only through ``attach``, ``process_batch``, ``close`` and ``output``.
See README.md for the workloads, the metrics and reference figures.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import statistics
import sys
import time
import tracemalloc
import traceback
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT_DIR = os.path.join(HERE, "out")
# The program is imported from the checkout's src/ and from nowhere else,
# so a copy installed elsewhere is never measured by mistake.
if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"perfbench: no program at {SRC}/repro; run from a checkout")
sys.path.insert(0, SRC)

import check  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
from repro.temporal.elements import Adjust, Insert, Stable  # noqa: E402

#: Timed passes a run makes however short ``--seconds`` is.
MIN_PASSES = 2


@dataclass
class Spec:
    name: str
    #: ``make_inputs(seed, small)`` -> inputs.Workload
    make_inputs: Callable
    #: ``build()`` -> a plan with attach/process_batch/output
    build: Callable
    sharded: bool


def _specs() -> Dict[str, Spec]:
    from repro.lmerge import LMergeR3, LMergeR4, ReclamationPolicy, shard

    def replica_inputs(seed: int, small: bool):
        return inputs.replicas(seed, inserts=1200 if small else 12_000)

    def lagged_inputs(seed: int, small: bool):
        if small:
            return inputs.lagged(seed, events=800, lag=200)
        return inputs.lagged(seed, events=5000, lag=1000)

    return {
        "replicas-r3": Spec("replicas-r3", replica_inputs, LMergeR3, False),
        "lagged-r4": Spec(
            "lagged-r4", lagged_inputs,
            lambda: LMergeR4(reclamation=ReclamationPolicy()), False,
        ),
        # The object envelope, not the columnar one: the columnar
        # envelope's shared-memory rings corrupt frames now and then
        # (README, "Left out").
        "shard2-process-object-r3": Spec(
            "shard2-process-object-r3", replica_inputs,
            lambda: shard(LMergeR3, 2, backend="process", envelope="object"),
            True,
        ),
    }


# ----------------------------------------------------------------------
# One pass: set up a plan, hand in every turn, close it, check the output
# ----------------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (ceil-based)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_pass(spec: Spec, work, layers=None) -> dict:
    """Run the workload once through a fresh plan, in a closed loop.

    Every output insert's latency runs from when the first copy of its
    ``(Vs, payload)`` was handed in to the return of the call after which
    it appears in ``plan.output``; an output ``stable(t)`` is timed from
    the hand-in of the first input ``stable(>= t)``.
    """
    gc.collect()
    gc.freeze()
    started = perf_counter()
    plan = spec.build()
    for stream_id in range(work.inputs):
        plan.attach(stream_id)
    ready = perf_counter()
    turns = work.turns
    n = len(turns)
    starts = [0.0] * n
    ends = [0.0] * n
    marks = [0] * n  # len(output) right after each call
    output = plan.output
    try:
        with tracing.Patches() as patches:
            hand_in = plan.process_batch
            close = getattr(plan, "close", None)
            if layers is not None:
                hand_in, close = layers.install(plan, patches)
            for index, (stream_id, chunk) in enumerate(turns):
                starts[index] = perf_counter()
                hand_in(chunk, stream_id)
                ends[index] = perf_counter()
                marks[index] = len(output)
            if close is not None:
                close()
            closed = perf_counter()
            heap_peak = tracemalloc.get_traced_memory()[1]  # 0 untraced
    except BaseException:
        if spec.sharded:
            with contextlib.suppress(Exception):
                plan.close()  # joins the workers
        raise
    insert_lat: List[float] = []
    cti_lat: List[float] = []
    turn = 0
    first_turn = work.first_turn
    for position, element in enumerate(output):
        while turn < n and marks[turn] <= position:
            turn += 1
        visible = ends[turn] if turn < n else closed
        cls = element.__class__
        if cls is Insert:
            origin = starts[first_turn[(element.vs, element.payload)]]
            insert_lat.append(visible - origin)
        elif cls is Stable:
            cti_lat.append(visible - starts[work.stable_turn(element.vc)])
    result = {
        "setup_s": ready - started,
        "throughput_eps": work.elements / (closed - starts[0]),
        "insert_latency_p50_ms": percentile(insert_lat, 0.50) * 1e3,
        "insert_latency_p99_ms": percentile(insert_lat, 0.99) * 1e3,
        "cti_latency_p50_ms": percentile(cti_lat, 0.50) * 1e3,
        "cti_latency_p90_ms": percentile(cti_lat, 0.90) * 1e3,
        "output_elements": len(output),
        "heap_peak": heap_peak,
        "problems": check.check_output(output, work.expected),
        "output": output,
    }
    if layers is not None:
        result["layers"] = layers.collect(plan)
    return result


def heap_pass(spec: Spec, work) -> dict:
    """One untimed pass under tracemalloc; ``peak_heap_mb`` is the
    benchmark process's peak Python-heap growth from set-up to close."""
    gc.collect()
    gc.freeze()
    tracemalloc.start()
    try:
        result = run_pass(spec, work)
    finally:
        tracemalloc.stop()
    result["peak_heap_mb"] = result["heap_peak"] / 1e6
    return result


def calibrate() -> float:
    """Milliseconds for a fixed pure-Python loop (host-speed marker)."""
    started = perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return (perf_counter() - started) * 1e3


# ----------------------------------------------------------------------
# Per-layer attribution (the traced run)
# ----------------------------------------------------------------------


class KernelLayers:
    """Unsharded plan: each turn is split into same-class runs and each
    ``process_batch`` call is timed as ``lmerge.insert/adjust/stable``
    (the merge dispatches per run already, so its output is unchanged)."""

    def __init__(self, recorder) -> None:
        self.recorder = recorder

    def install(self, plan, patches):
        rec = self.recorder
        rec.spans.clear()  # the trace file keeps the last pass
        self.calls = 0
        self.nodes_peak = 0
        self.bytes_peak = 0
        timed = {
            Insert: rec.wrap("lmerge.insert", plan.process_batch),
            Adjust: rec.wrap("lmerge.adjust", plan.process_batch),
            Stable: rec.wrap("lmerge.stable", plan.process_batch),
        }

        def turn(chunk, stream_id) -> None:
            i, n = 0, len(chunk)
            while i < n:
                cls = chunk[i].__class__
                j = i + 1
                while j < n and chunk[j].__class__ is cls:
                    j += 1
                timed[cls](chunk[i:j], stream_id)
                self.calls += 1
                i = j
            self.nodes_peak = max(self.nodes_peak, plan.index_nodes)
            if rec.trace % 16 == 0:
                self.bytes_peak = max(self.bytes_peak, plan.memory_bytes())

        return _per_turn_trace(rec, turn), None

    def collect(self, plan) -> Dict[str, float]:
        seconds = self.recorder.seconds()
        stats = plan.stats
        return {
            "lmerge.insert_s": seconds["lmerge.insert"],
            "lmerge.adjust_s": seconds["lmerge.adjust"],
            "lmerge.stable_s": seconds["lmerge.stable"],
            "lmerge.calls": self.calls,
            "lmerge.stable_scan_nodes": plan.stable_scan_nodes,
            "lmerge.dropped_frozen": plan.dropped_frozen,
            "lmerge.pruned_nodes": plan.pruned_nodes,
            "lmerge.emit_ratio": stats.inserts_out / stats.inserts_in,
            "structures.index_nodes_peak": max(self.nodes_peak, plan.index_nodes),
            "structures.state_bytes_peak": max(self.bytes_peak, plan.memory_bytes()),
        }


class ExchangeLayers:
    """2-shard process plan: wraps the exchange functions of the calling side
    (partition, submit, poll, union, close) after the workers have
    forked, so the workers run unwrapped code."""

    def __init__(self, recorder) -> None:
        self.recorder = recorder

    def install(self, plan, patches):
        from repro.operators.exchange import ShardUnion

        shard_module = sys.modules["repro.lmerge.shard"]
        rec = self.recorder
        rec.spans.clear()  # the trace file keeps the last pass
        runtime = plan.runtime
        for name in ("submit", "poll", "close"):
            patches.set(runtime, name, rec.wrap(f"parallel.{name}", getattr(runtime, name)))
        patches.set(
            shard_module, "partition_batch",
            rec.wrap("exchange.partition", shard_module.partition_batch),
        )
        patches.set(
            ShardUnion, "receive_batch",
            rec.wrap("exchange.union", ShardUnion.receive_batch),
        )
        return (
            _per_turn_trace(rec, plan.process_batch),
            _per_turn_trace(rec, plan.close, "bench.close"),
        )

    def collect(self, plan) -> Dict[str, float]:
        seconds = self.recorder.seconds()
        shards = plan.shard_stats
        loads = [s.inserts_in for s in shards]
        return {
            "lmerge.emit_ratio": sum(s.inserts_out for s in shards) / sum(loads),
            "exchange.partition_s": seconds["exchange.partition"],
            "exchange.union_s": seconds["exchange.union"],
            "exchange.shard_imbalance": max(loads) / (sum(loads) / len(loads)),
            "parallel.submit_s": seconds["parallel.submit"],
            "parallel.poll_s": seconds["parallel.poll"],
            "parallel.close_s": seconds["parallel.close"],
        }


def _per_turn_trace(rec, fn, name: str = "bench.turn"):
    """*fn* as the root span of a fresh trace per call."""
    traced = rec.wrap(name, fn)

    def call(*args):
        rec.trace += 1
        return traced(*args)

    return call


#: Per-layer metric -> unit, as BENCHMARK.json lists them.  A workload
#: that does not run a layer reports 0 for it (README, "Per-layer").
PER_LAYER_UNITS = {
    "lmerge.insert_s": "s",
    "lmerge.adjust_s": "s",
    "lmerge.stable_s": "s",
    "lmerge.calls": "count",
    "lmerge.stable_scan_nodes": "count",
    "lmerge.dropped_frozen": "count",
    "lmerge.pruned_nodes": "count",
    "lmerge.emit_ratio": "ratio",
    "structures.index_nodes_peak": "count",
    "structures.state_bytes_peak": "bytes",
    "exchange.partition_s": "s",
    "exchange.union_s": "s",
    "exchange.shard_imbalance": "ratio",
    "parallel.submit_s": "s",
    "parallel.poll_s": "s",
    "parallel.close_s": "s",
    "obs.traced_throughput_eps": "elem/s",
    "load.generate_s": "s",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_eps": "elem/s",
    "insert_latency_p50_ms": "ms",
    "insert_latency_p99_ms": "ms",
    "cti_latency_p50_ms": "ms",
    "cti_latency_p90_ms": "ms",
    "peak_heap_mb": "MB",
    "output_elements": "count",
}


# ----------------------------------------------------------------------
# A run: warm up, then timed passes for --seconds, then medians
# ----------------------------------------------------------------------


def _median(passes: List[dict], key: str) -> float:
    return statistics.median(p[key] for p in passes)


def canonical(output, sharded: bool) -> list:
    """What a traced pass must reproduce exactly.  The sharded plan's
    union interleaves shard outputs, and emits its combined stables, as
    they arrive; per key its data elements are fixed."""
    elements = list(output)
    if not sharded:
        return elements
    data = [e for e in elements if e.__class__ is not Stable]
    return sorted(data, key=lambda e: (e.vs, e.payload))


def run(spec: Spec, seed: int, seconds: float, traced: bool) -> dict:
    calibration_before = calibrate()
    started = perf_counter()
    work = spec.make_inputs(seed, False)
    generate_s = perf_counter() - started
    warm = run_pass(spec, work)  # untimed; also the traced reference
    correct = not warm["problems"]
    reference = canonical(warm["output"], spec.sharded)
    warm = None
    heap_mb = None
    if not traced:
        heap = heap_pass(spec, work)
        correct = correct and not heap["problems"]
        heap_mb = heap["peak_heap_mb"]
        heap = None
    recorder = tracing.SpanRecorder() if traced else None
    layers = None
    if traced:
        layers = (ExchangeLayers if spec.sharded else KernelLayers)(recorder)
    passes: List[dict] = []
    attempted = failed = 0
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(passes) < MIN_PASSES:
        attempted += work.elements
        try:
            result = run_pass(spec, work, layers)
        except Exception:
            traceback.print_exc()
            failed += work.elements
            passes.append({"failed": True})
            continue
        if result["problems"]:
            correct = False
            print(f"{spec.name} output check failed: {result['problems'][:5]}", file=sys.stderr)
        if traced and canonical(result["output"], spec.sharded) != reference:
            correct = False
            print(f"{spec.name}: traced output differs from untraced output", file=sys.stderr)
        result["output"] = None
        passes.append(result)
    calibration_after = calibrate()
    done = [p for p in passes if not p.get("failed")]
    if traced:
        metrics = _layer_metrics(done, generate_s)
        os.makedirs(OUT_DIR, exist_ok=True)
        recorder.write_jsonl(os.path.join(OUT_DIR, f"trace-{spec.name}-seed{seed}.jsonl"))
        units = PER_LAYER_UNITS
    else:
        # Medians over passes: a stall that hits one pass moves one
        # value, not the run's.
        metrics = {k: _median(done, k) for k in END_TO_END_UNITS if k != "peak_heap_mb"}
        metrics["peak_heap_mb"] = heap_mb
        units = END_TO_END_UNITS
    print(json.dumps({
        "workload": spec.name,
        "seed": seed,
        "trace": int(traced),
        "passes": len(done),
        "calibration_ms": [round(calibration_before, 3), round(calibration_after, 3)],
        "generate_s": generate_s,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }))
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def _layer_metrics(passes: List[dict], generate_s: float) -> dict:
    metrics = {name: 0.0 for name in PER_LAYER_UNITS}
    for name in passes[0]["layers"]:
        metrics[name] = statistics.median(p["layers"][name] for p in passes)
    metrics["obs.traced_throughput_eps"] = _median(passes, "throughput_eps")
    metrics["load.generate_s"] = generate_s
    return metrics


def self_check(seed: int) -> int:
    """Reduced-size run of every workload, traced and untraced, with the
    output check; then show the check rejects broken outputs."""
    failures = 0
    for spec in _specs().values():
        work = spec.make_inputs(seed, True)
        plain = run_pass(spec, work)
        layers = (ExchangeLayers if spec.sharded else KernelLayers)(tracing.SpanRecorder())
        traced = run_pass(spec, work, layers)
        problems = plain["problems"] + traced["problems"]
        if canonical(traced["output"], spec.sharded) != canonical(plain["output"], spec.sharded):
            problems.append("traced output differs from untraced output")
        problems += check.self_test(list(plain["output"]), work.expected)
        status = "FAIL" if problems else "ok"
        print(f"{status} {spec.name}: {work.elements} elements, {plain['output_elements']} out")
        for problem in problems:
            print(f"    {problem}")
        failures += bool(problems)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if args.self_check:
        return self_check(args.seed)
    specs = _specs()
    if args.workload not in specs:
        parser.error(f"--workload must be one of {sorted(specs)}")
    result = run(specs[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
