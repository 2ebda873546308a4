"""Tests of the benchmark itself: input generation, checkers and span arithmetic.

    python3 -m pytest bench/test_bench.py
"""
import json
import os
import subprocess
import sys

import pytest

import checks
import tracing
from workloads import LATTICE_POOL, ROOT, WORKLOADS, Op, make_workload, street_lattice

sys.path.insert(0, os.path.join(ROOT, "src"))


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(name):
    first, again = make_workload(name, 7), make_workload(name, 7)
    assert first.files == again.files
    assert first.ops == again.ops


def test_seeds_vary_the_generated_inputs():
    for name, generated in (("grid-witness", "variant.json"), ("city-verify", "lattice.json")):
        variants = {make_workload(name, seed).files[generated] for seed in range(8)}
        assert len(variants) > 4, name


def test_ops_have_unique_ids_and_outputs():
    for name in WORKLOADS:
        ops = make_workload(name, 3).ops
        assert len({op.id for op in ops}) == len(ops)
        outputs = [out for op in ops for out in op.outputs]
        assert len(set(outputs)) == len(outputs)


def test_lattice_variants_are_isomorphic_to_their_pool_entry():
    from avmodels.control_model import build_control_composition
    from avmodels.kernel import explore
    from avmodels.scenarios import scenario_from_json
    seen = set()
    for seed in range(40):
        data, size, _ = street_lattice(seed)
        if size in seen:
            continue
        seen.add(size)
        lts = explore(build_control_composition(scenario_from_json(data)))
        assert (lts.num_states, len(lts.transitions)) == size
    assert len(seen) == len({entry[1] for entry in LATTICE_POOL})


def _aut(path, states, rows):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"des (0, {len(rows)}, {states})\n")
        fh.writelines(f'({a}, "{label}", {b})\n' for a, label, b in rows)


EXPLORE = Op("explore:x", "explore", ("explore",), {"exit": 0, "states": [3, 2], "aut": "x.aut"},
             ("x.aut",))


def test_checker_accepts_the_reference_answer(tmp_path):
    _aut(tmp_path / "x.aut", 3, [(0, "A", 1), (1, "B", 2)])
    assert checks.check_op(EXPLORE, 0, "states=3 transitions=2\n", str(tmp_path)) == []


def test_checker_flags_a_tampered_aut(tmp_path):
    path = tmp_path / "x.aut"
    _aut(path, 3, [(0, "A", 1), (1, "B", 2)])
    before = {"x.aut": checks.digest(str(path))}
    _aut(path, 3, [(0, "A", 1)])  # a transition dropped
    assert checks.check_op(EXPLORE, 0, "states=3 transitions=2\n", str(tmp_path))
    _aut(path, 3, [(0, "A", 1), (1, "C", 2)])  # a label changed, sizes intact
    after = {"x.aut": checks.digest(str(path))}
    assert checks.check_op(EXPLORE, 0, "states=3 transitions=2\n", str(tmp_path)) == []
    assert checks.compare_digests([before, after]) == ["x.aut differs between pass 1 and pass 2"]
    assert checks.compare_digests([before, before, before]) == []


def test_checker_flags_wrong_sizes_verdicts_and_exit_codes(tmp_path):
    _aut(tmp_path / "x.aut", 3, [(0, "A", 1), (1, "B", 2)])
    assert checks.check_op(EXPLORE, 0, "states=4 transitions=2\n", str(tmp_path))
    assert checks.check_op(EXPLORE, 3, "states=3 transitions=2\n", str(tmp_path))
    check = Op("check:x", "check", ("check",),
               {"exit": 0, "verdict": "pass", "property": "deadlock"})
    good = json.dumps({"property": "deadlock", "verdict": "pass"})
    bad = json.dumps({"property": "deadlock", "verdict": "fail"})
    assert checks.check_op(check, 0, good, str(tmp_path)) == []
    assert checks.check_op(check, 0, bad, str(tmp_path))


def test_checker_flags_a_wrong_witness_length():
    out = "witness length={} ticks=4 terminal=COLLISION\n"
    assert checks.check_witness(out.format(30), 30, "COLLISION") == []
    assert checks.check_witness(out.format(29), 30, "COLLISION") == [
        "witness length 29, expected 30"]
    assert checks.check_witness(out.format(30), 30, None) == ["terminal COLLISION, expected none"]
    assert checks.check_witness("inconclusive: ...", 30, "COLLISION")


def test_self_time_is_parent_minus_covered_children():
    spans = [
        ["root", 0, 100, -1],
        ["a", 10, 30, 0],
        ["b", 20, 50, 0],    # overlaps a: [10, 50] is covered once
        ["c", 90, 120, 0],   # clipped to the parent's end: 10 covered
        ["a.1", 12, 18, 1],  # a grandchild counts against a, not root
    ]
    assert tracing.self_times(spans) == [50, 14, 30, 30, 6]
    totals = tracing.layer_totals(
        [["cli.main", 0, 1_000_000_000, -1], ["kernel.explore", 0, 600_000_000, 0],
         ["grid_model.step.LIDAR_MANAGER", 100_000_000, 300_000_000, 1]], {})
    assert totals["cli.self_s"] == pytest.approx(0.4)
    assert totals["kernel.explore_s"] == pytest.approx(0.6)
    assert totals["kernel.self_s"] == pytest.approx(0.4)
    assert totals["grid_model.step_s.LIDAR_MANAGER"] == pytest.approx(0.2)


def test_traced_worker_runs_and_checks_one_op(tmp_path):
    with open(os.path.join(ROOT, "configs", "free.json"), "rb") as fh:
        (tmp_path / "free.json").write_bytes(fh.read())
    probe = subprocess.run(
        [sys.executable, "-m", "avmodels.cli", "explore", "--scenario", "free.json",
         "--out", "probe.aut"], cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")})
    states = [int(x.split("=")[1]) for x in probe.stdout.split()]
    op = Op("explore:free", "explore", ("explore", "--scenario", "free.json", "--out", "f.aut"),
            {"exit": 0, "states": states, "aut": "f.aut"}, ("f.aut",))
    request = tmp_path / "req.json"
    request.write_text(json.dumps({"op": op.to_json(), "workdir": str(tmp_path), "trace": True,
                                   "result": str(tmp_path / "res.json")}))
    worker = os.path.join(ROOT, "bench", "worker.py")
    subprocess.run([sys.executable, worker, "op", str(request)], check=True,
                   env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")})
    result = json.loads((tmp_path / "res.json").read_text())
    assert result["problems"] == []
    layers = result["layers"]
    assert layers["kernel.states"] == states[0]
    assert 0 < layers["kernel.self_s"] < layers["kernel.explore_s"]
    assert layers["grid_model.step_calls"] > 0
    assert {span[0] for span in result["spans"]} >= {"cli.main", "kernel.explore", "aut.export"}
