"""Spans recorded around calls into avmodels, and the per-layer numbers they give.

``install(tracer)`` wraps the names the CLI module looks up (and the grid
model's ``compute_perception``) in this process; the wrapped composition
builders also wrap each ``Component.step`` of the built composition. A span
is ``[name, start_ns, end_ns, parent]``, where parent is the index of the
enclosing span or -1; the op id is added when spans from several worker
processes are merged. Spans stay in memory until the worker exits.
"""
from __future__ import annotations

import collections
import dataclasses
import time
from typing import Dict, List, Sequence

GRID_COMPONENTS = ("OBSTACLES_MANAGER", "MAP_MANAGER", "MOVE_CAR",
                   "LIDAR_MANAGER", "SCHEDULER", "RESTRAND")

# (metric, unit, better) of every per-layer number; a pass reports the sum
# over its ops, except the rates and ratios derived at the end. model.* adds
# up grid_model.* and control_model.*.
LAYER_METRICS = (
    [("model.step_s", "s", "lower"),
     ("model.step_calls", "count", "lower"),
     ("model.step_outputs", "count", "lower"),
     ("grid_model.step_s", "s", "lower")]
    + [(f"grid_model.step_s.{c}", "s", "lower") for c in GRID_COMPONENTS]
    + [
        ("grid_model.step_calls", "count", "lower"),
        ("grid_model.step_outputs", "count", "lower"),
        ("perception.compute_s", "s", "lower"),
        ("perception.calls", "count", "lower"),
        ("control_model.step_s", "s", "lower"),
        ("control_model.step_calls", "count", "lower"),
        ("kernel.explore_s", "s", "lower"),
        ("kernel.self_s", "s", "lower"),
        ("kernel.states", "count", "lower"),
        ("kernel.transitions", "count", "lower"),
        ("kernel.states_per_s", "1/s", "higher"),
        ("kernel.outputs_per_transition", "ratio", "lower"),
        ("testgen.product_s", "s", "lower"),
        ("testgen.product_states", "count", "lower"),
        ("testgen.extract_s", "s", "lower"),
        ("testgen.fold_s", "s", "lower"),
        ("testgen.replay_s", "s", "lower"),
        ("testgen.witness_len", "count", "lower"),
        ("aut.export_s", "s", "lower"),
        ("aut.import_s", "s", "lower"),
        ("aut.bytes", "bytes", "lower"),
        ("minimize.s", "s", "lower"),
        ("minimize.states_in", "count", "lower"),
        ("minimize.blocks", "count", "lower"),
        ("properties.consistent_moves_s", "s", "lower"),
        ("properties.deadlock_s", "s", "lower"),
        ("properties.inevitable_termination_s", "s", "lower"),
        ("scenarios.load_s", "s", "lower"),
        ("cli.self_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)

# The per-layer metrics of the JSON result line: the layers that every
# workload exercises, so that no reported time is a constant 0. The table
# prints all of LAYER_METRICS.
REPORTED = ("model.step_s", "model.step_calls", "model.step_outputs",
            "kernel.explore_s", "kernel.self_s", "kernel.states", "kernel.transitions",
            "kernel.states_per_s", "kernel.outputs_per_transition",
            "scenarios.load_s", "cli.self_s", "trace.overhead_s")

# span name -> metric that sums the span durations
DURATIONS = {
    "kernel.explore": "kernel.explore_s",
    "perception.compute": "perception.compute_s",
    "testgen.product": "testgen.product_s",
    "testgen.extract": "testgen.extract_s",
    "testgen.fold": "testgen.fold_s",
    "testgen.replay": "testgen.replay_s",
    "aut.export": "aut.export_s",
    "aut.import": "aut.import_s",
    "minimize": "minimize.s",
    "properties.consistent_moves": "properties.consistent_moves_s",
    "properties.deadlock": "properties.deadlock_s",
    "properties.inevitable_termination": "properties.inevitable_termination_s",
    "scenarios.load": "scenarios.load_s",
}
# span name -> metric that sums the span self times
SELF_TIMES = {"kernel.explore": "kernel.self_s", "cli.main": "cli.self_s"}


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self.counts: Dict[str, int] = collections.Counter()
        self._stack: List[int] = []

    def wrap(self, name: str, fn, on_result=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result
        return traced

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n


def install(tracer: Tracer) -> None:
    """Wrap the CLI's collaborators so every call records a span."""
    from avmodels import cli, grid_model, properties, testgen

    def wrap_steps(prefix):
        def on_outputs(outputs):
            tracer.count(f"{prefix}.step_calls")
            tracer.count(f"{prefix}.step_outputs", len(outputs))

        def on_comp(comp):
            comp.components = tuple(
                dataclasses.replace(c, step=tracer.wrap(f"{prefix}.step.{c.id}", c.step,
                                                        on_outputs))
                for c in comp.components)
        return on_comp

    def on_lts(lts):
        tracer.count("kernel.states", lts.num_states)
        tracer.count("kernel.transitions", len(lts.transitions))

    def on_minimized(lts):
        tracer.count("minimize.blocks", lts.num_states)

    def on_witness(witness):
        if witness is not None:
            tracer.count("testgen.witness_len", len(witness))

    w = tracer.wrap
    cli.main = w("cli.main", cli.main)
    cli.load_scenario = w("scenarios.load", cli.load_scenario)
    cli.build_grid_composition = w("grid_model.build", cli.build_grid_composition,
                                   wrap_steps("grid_model"))
    cli.build_control_composition = w("control_model.build", cli.build_control_composition,
                                      wrap_steps("control_model"))
    cli.explore = w("kernel.explore", cli.explore, on_lts)
    cli.export_aut = w("aut.export", cli.export_aut)
    cli.import_aut = w("aut.import", cli.import_aut)
    minimize = cli.minimize

    def counted_minimize(lts):
        tracer.count("minimize.states_in", lts.num_states)
        return minimize(lts)
    cli.minimize = w("minimize", counted_minimize, on_minimized)
    grid_model.compute_perception = w("perception.compute", grid_model.compute_perception)
    properties.check_consistent_updates = w("properties.consistent_moves",
                                            properties.check_consistent_updates)
    properties.check_deadlock_freedom = w("properties.deadlock",
                                          properties.check_deadlock_freedom)
    properties.check_inevitable_termination = w("properties.inevitable_termination",
                                                properties.check_inevitable_termination)
    testgen.product_with_purpose = w("testgen.product", testgen.product_with_purpose,
                                     lambda r: tracer.count("testgen.product_states",
                                                            r[0].num_states))
    testgen.extract_test = w("testgen.extract", testgen.extract_test, on_witness)
    testgen.trace_to_scenario = w("testgen.fold", testgen.trace_to_scenario)
    testgen.replay = w("testgen.replay", testgen.replay)


def self_times(spans: Sequence[list]) -> List[int]:
    """Each span's duration minus the part of it that its children cover."""
    children: Dict[int, List[int]] = collections.defaultdict(list)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0
        reach = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def layer_totals(spans: Sequence[list], counts: Dict[str, int]) -> Dict[str, float]:
    """Summed per-layer seconds and counts of one op's spans."""
    totals: Dict[str, float] = collections.defaultdict(float)
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        dur = (end - start) / 1e9
        if name in DURATIONS:
            totals[DURATIONS[name]] += dur
        if name in SELF_TIMES:
            totals[SELF_TIMES[name]] += own / 1e9
        if name.startswith("grid_model.step."):
            totals["grid_model.step_s"] += dur
            totals["grid_model.step_s." + name.rsplit(".", 1)[1]] += dur
        elif name.startswith("control_model.step."):
            totals["control_model.step_s"] += dur
        if name == "perception.compute":
            totals["perception.calls"] += 1
    for name, n in counts.items():
        totals[name] += n
    return dict(totals)


def derive(totals: Dict[str, float]) -> Dict[str, float]:
    """Add the rates and ratios of a pass's summed totals."""
    out = dict(totals)
    for what in ("step_s", "step_calls", "step_outputs"):
        out[f"model.{what}"] = (totals.get(f"grid_model.{what}", 0)
                                + totals.get(f"control_model.{what}", 0))
    explore_s = totals.get("kernel.explore_s", 0.0)
    transitions = totals.get("kernel.transitions", 0)
    outputs = out["model.step_outputs"]
    out["kernel.states_per_s"] = totals.get("kernel.states", 0) / explore_s if explore_s else 0.0
    out["kernel.outputs_per_transition"] = outputs / transitions if transitions else 0.0
    return out
