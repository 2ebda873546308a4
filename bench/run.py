"""Benchmark of the avmodels command line, end to end and layer by layer.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each workload is a batch of CLI commands (ops) over seeded input files (see
workloads.py). Every op runs in a new worker process, one at a time, the way
a user runs the commands in a batch; the worker calls
``avmodels.cli.main(argv)`` in-process and checks the output against the
reference answer. A run makes one full pass over the batch, then keeps
running ops in list order while the next one fits in --seconds. An op's
latency is the median of its runs; wall_s, one pass, sums those medians.

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics. With --trace 1 the run makes one pass that runs each op untraced
and then traced, and reports the per-layer metrics of the traced runs, plus
the tracing overhead (traced wall_s minus untraced wall_s). Traced spans are written to
.bench_runs/trace-WORKLOAD-seedN.json.gz as JSON lines
[op id, name, start ns, end ns, parent index].
"""
from __future__ import annotations

import argparse
import gzip
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List

import checks
import tracing
from workloads import CONFIGS, ROOT, WORKLOADS, make_workload

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
RUNS_DIR = os.path.join(ROOT, ".bench_runs")
SETUPS = 5
RUN_LIMIT_S = 170  # a run must end within 180 s, whatever an op does
KINDS = ("explore", "minimize", "check", "testgen", "render")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    pass


def _env(hash_seed: int) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def _time_left(deadline: float) -> float:
    left = deadline - time.perf_counter()
    if left <= 0:
        raise BenchError(f"the run passed its {RUN_LIMIT_S} s limit")
    return left


def run_setups(workload: str, seed: int, workdir: str, rng: random.Random, deadline: float):
    """Time SETUPS fresh processes that import avmodels and write the inputs."""
    expected = {name: checks.digest_bytes(data)
                for name, data in make_workload(workload, seed).files.items()}
    times, problems = [], []
    for _ in range(SETUPS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, WORKER, "setup", workload, str(seed), workdir],
                              env=_env(rng.randrange(2**32)), capture_output=True, text=True,
                              timeout=_time_left(deadline))
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError(f"set-up of {workload} failed:\n{proc.stderr.strip()}")
        if json.loads(proc.stdout) != expected:
            problems.append("set-up wrote inputs that differ from the same seed's")
    return times, problems


def run_op(op, index: int, workdir: str, trace: bool, hash_seed: int, deadline: float) -> dict:
    request = os.path.join(workdir, f".op{index}.request.json")
    result = os.path.join(workdir, f".op{index}.result.json")
    if os.path.exists(result):
        os.remove(result)
    with open(request, "w", encoding="utf-8") as fh:
        json.dump({"op": op.to_json(), "workdir": workdir, "trace": trace,
                   "result": result}, fh)
    try:
        proc = subprocess.run([sys.executable, WORKER, "op", request], env=_env(hash_seed),
                              capture_output=True, text=True, timeout=_time_left(deadline))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{op.id} did not end within the run's {RUN_LIMIT_S} s limit")
    if proc.returncode != 0 or not os.path.exists(result):
        return {"latency_s": None,
                "problems": [f"worker exited {proc.returncode}: {proc.stderr.strip()[-800:]}"]}
    with open(result, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _percentile_note(values: List[float]) -> str:
    """The highest of p99/p90/p75/p50 with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return f" p{p}={statistics.quantiles(values, n=100)[p - 1]:.4g}"
    return ""


def _latencies(runs) -> List[float]:
    return [r["latency_s"] for r in runs if r.get("latency_s") is not None]


def _wall(per_op) -> float:
    """One pass over the op list: the sum of each op's median latency."""
    return sum(statistics.median(lat) for lat in map(_latencies, per_op) if lat)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    rng = random.Random(f"bench:{workload}:{seed}")
    os.makedirs(RUNS_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=RUNS_DIR)
    try:
        setup_times, problems = run_setups(workload, seed, workdir, rng, deadline)
        wl = make_workload(workload, seed)
        ops = wl.ops
        plain: List[List[dict]] = [[] for _ in ops]   # untraced results, per op
        traced: List[List[dict]] = [[] for _ in ops]
        if trace:
            # each op untraced, then traced: adjacent runs share the machine's
            # slow speed swings, so their difference shows the tracing cost
            for i, op in enumerate(ops):
                for runs, traced_run in ((plain, False), (traced, True)):
                    runs[i].append(run_op(op, i, workdir, traced_run, rng.randrange(2**32),
                                          deadline))
        else:
            # one full pass, then ops in list order while the next one fits
            start = time.perf_counter()
            cost = [0.0] * len(ops)
            n = 0
            while n < len(ops) or time.perf_counter() - start + cost[n % len(ops)] <= seconds:
                i = n % len(ops)
                began = time.perf_counter()
                plain[i].append(run_op(ops[i], i, workdir, False, rng.randrange(2**32),
                                       deadline))
                cost[i] = time.perf_counter() - began
                n += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # an op's outputs must be byte-identical in each of its runs, each a new process
    for i in range(len(ops)):
        runs = plain[i] + traced[i]
        for problem in checks.compare_digests([r.get("digests", {}) for r in runs]):
            runs[-1].setdefault("problems", []).append(problem)
    failures = problems + [f"{op.id} run {k + 1}: {'; '.join(r['problems'])}"
                           for op, a, b in zip(ops, plain, traced)
                           for k, r in enumerate(a + b) if r.get("problems")]
    report = {
        "workload": workload, "seed": seed,
        "passes": min(len(runs) for runs in plain),
        "attempted": SETUPS + sum(len(runs) for runs in plain + traced),
        "failed": len(failures), "failures": failures,
        "metrics": {
            "setup_s": statistics.median(setup_times),
            "wall_s": _wall(plain),
            "peak_rss_mb": max((statistics.median(r["rss_mb"] for r in runs if "rss_mb" in r)
                                for runs in plain if any("rss_mb" in r for r in runs)),
                               default=0.0),
        },
        "ops": [(op.id, op.kind, _latencies(runs)) for op, runs in zip(ops, plain)],
        "commands": {},
    }
    for kind in KINDS:
        lat = [x for _, k, lats in report["ops"] if k == kind for x in lats]
        if lat:
            report["commands"][kind] = lat
    if trace:
        totals: Dict[str, float] = {}
        for runs in traced:
            for k, v in runs[0].get("layers", {}).items():
                totals[k] = totals.get(k, 0.0) + v
        layers = tracing.derive(totals)
        layers["trace.overhead_s"] = _wall(traced) - report["metrics"]["wall_s"]
        report["layers"] = {name: layers.get(name, 0.0) for name, _, _ in tracing.LAYER_METRICS}
        _write_spans(workload, seed, ops, traced)
    return report


def _write_spans(workload, seed, ops, traced) -> None:
    path = os.path.join(RUNS_DIR, f"trace-{workload}-seed{seed}.json.gz")
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for op, runs in zip(ops, traced):
            for r in runs:
                for name, begin, end, parent in r.get("spans", ()):
                    fh.write(json.dumps([op.id, name, begin, end, parent]) + "\n")


def print_table(reports: List[dict], trace: bool) -> None:
    cols = (["setup_s [s]", "wall_s [s]"] + [f"{k}_s [s]" for k in KINDS]
            + ["peak_rss_mb [MB]", "fail_ratio [ratio]"])
    print("workload".ljust(16) + "".join(c.rjust(22) for c in cols))
    for rep in reports:
        cells = [f"{rep['metrics']['setup_s']:.4f} (n={SETUPS})",
                 f"{rep['metrics']['wall_s']:.3f} (n={rep['passes']})"]
        for kind in KINDS:
            lat = rep["commands"].get(kind)
            cells.append(f"{statistics.median(lat):.3f} (n={len(lat)}){_percentile_note(lat)}"
                         if lat else "-")
        cells.append(f"{rep['metrics']['peak_rss_mb']:.1f}")
        cells.append(f"{rep['failed']}/{rep['attempted']}")
        print(rep["workload"].ljust(16) + "".join(c.rjust(22) for c in cells))
    print()
    for rep in reports:
        for op_id, _, lat in rep["ops"]:
            if lat:
                print(f"{rep['workload']:16}{op_id:44}"
                      f"{statistics.median(lat):10.3f} s (n={len(lat)})")
    if trace:
        print()
        print("layer metric".ljust(44) + "".join(r["workload"].rjust(18) for r in reports))
        for name, unit, _ in tracing.LAYER_METRICS:
            print(f"{name} [{unit}]".ljust(44)
                  + "".join(f"{r['layers'][name]:.6g}".rjust(18) for r in reports))
    for rep in reports:
        for failure in rep["failures"][:10]:
            print(f"FAILED {rep['workload']}: {failure}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (os.path.isfile(os.path.join(ROOT, "src", "avmodels", "cli.py"))
            and os.path.isdir(CONFIGS)):
        print(f"error: {ROOT} has no src/avmodels or configs to benchmark", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        deadline = time.perf_counter() + RUN_LIMIT_S * len(names)
        reports = [run_workload(w, args.seed, args.seconds, bool(args.trace), deadline)
                   for w in names]
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print_table(reports, bool(args.trace))
    key = "layers" if args.trace else "metrics"
    units = ({name: unit for name, unit, _ in tracing.LAYER_METRICS
              if name in tracing.REPORTED} if args.trace else dict(END_TO_END))
    prefix = len(reports) > 1  # --workload all names each metric by its workload
    metrics = {(f"{rep['workload']}.{name}" if prefix else name):
               {"value": rep[key][name], "unit": unit}
               for rep in reports for name, unit in units.items()}
    print(json.dumps({
        "correct": all(rep["failed"] == 0 for rep in reports),
        "attempted": sum(rep["attempted"] for rep in reports),
        "failed": sum(rep["failed"] for rep in reports),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
