"""One benchmark process: the set-up of a workload, or one CLI op.

    python3 bench/worker.py setup WORKLOAD SEED WORKDIR
    python3 bench/worker.py op REQUEST.json

``setup`` imports avmodels, generates the workload's input files into
WORKDIR and prints their sha256 digests as JSON. ``op`` runs one command
through ``avmodels.cli.main(argv)`` in this process, with WORKDIR as the
current directory, then checks the result against the op's reference answer
and writes a JSON result next to the request. The command's latency is timed
around ``cli.main`` only; peak RSS is read right after it, before the checks.
run.py starts these processes one at a time and sets PYTHONPATH to the
checkout's src directory.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import checks
import tracing
from workloads import ROOT, Op, make_workload


def _import_program():
    import avmodels
    src = os.path.join(ROOT, "src")
    if not os.path.abspath(avmodels.__file__).startswith(src + os.sep):
        raise SystemExit(f"avmodels was imported from {avmodels.__file__}, not from {src}")
    from avmodels import cli
    return cli


def setup(workload: str, seed: int, workdir: str) -> None:
    _import_program()
    wl = make_workload(workload, seed)
    for name, data in wl.files.items():
        with open(os.path.join(workdir, name), "wb") as fh:
            fh.write(data)
    print(json.dumps({name: checks.digest(os.path.join(workdir, name))
                      for name in sorted(wl.files)}))


def run_op(request_path: str) -> None:
    with open(request_path, "r", encoding="utf-8") as fh:
        req = json.load(fh)
    op = Op.from_json(req["op"])
    workdir = req["workdir"]
    cli = _import_program()
    from avmodels import testgen
    tracer = None
    if req["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    os.chdir(workdir)
    out, err = io.StringIO(), io.StringIO()
    problems = []
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(op.argv))
        except SystemExit as e:
            code = e.code
        except Exception:
            code = None
            problems.append("raised " + traceback.format_exc(limit=-3))
    latency = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not problems:
        problems = checks.check_op(op, code, out.getvalue(), workdir)
    if not problems and op.kind == "testgen" and "sim" in op.expect:
        problems = checks.check_replay(workdir, op.expect["scenario"], op.expect["sim"],
                                       testgen.replay)
    result = {
        "latency_s": latency,
        "rss_mb": rss_mb,
        "exit": code,
        "problems": problems + ([err.getvalue().strip()[-500:]] if problems else []),
        "digests": {name: checks.digest(os.path.join(workdir, name)) for name in op.outputs},
    }
    if tracer is not None:
        aut = os.path.join(workdir, op.expect.get("aut", ""))
        if op.kind in ("explore", "minimize") and os.path.isfile(aut):
            tracer.count("aut.bytes", os.path.getsize(aut))
        result["layers"] = tracing.layer_totals(tracer.spans, tracer.counts)
        result["spans"] = tracer.spans
    with open(req["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def main(argv) -> None:
    if argv[:1] == ["setup"] and len(argv) == 4:
        setup(argv[1], int(argv[2]), argv[3])
    elif argv[:1] == ["op"] and len(argv) == 2:
        run_op(argv[1])
    else:
        raise SystemExit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])
