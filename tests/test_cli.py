"""End-to-end runs of the command line front end via main(argv)."""
import contextlib
import gc
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from avmodels import cli, kernel
from avmodels.aut import import_aut
from avmodels.cli import main
from avmodels.kernel import ExplorationLimits, explore
from avmodels.scenarios import ScenarioError, scenario_from_json
from avmodels.values import text
from oracles import random_grid_json
from test_values import value_strategy

ROOT = pathlib.Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"

TINY_GRAPH = {
    "vertices": [0, 1],
    "edges": [[0, "A", 1], [1, "A_bis", 0]],
    "car": {"position": "A", "destination": "A_bis"},
    "obstacles": [],
}

TINY_GRID = {
    "width": 4, "height": 4,
    "static": [{"kind": "Rock", "x": 0, "y": 0}],
    "mobile": [{"kind": "Walker", "x": 3, "y": 0, "speed": 1,
                "moves": ["down", "down"]}],
    "car": {"x": 0, "y": 3, "speed": 1, "moves": ["right", "right"]},
    "dist_min": 6,
}


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def run_main(argv):
    """main(argv) with its output captured: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_documented_exit(code, out, err):
    """A documented exit code, no traceback, and on exit 2 one error line,
    the last line written to stderr."""
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in out + err
    if code == 2:
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and err.endswith(errors[0] + "\n"), err


@pytest.fixture
def tiny_graph(tmp_path):
    return write_json(tmp_path / "graph.json", TINY_GRAPH)


@pytest.fixture
def tiny_grid(tmp_path):
    return write_json(tmp_path / "grid.json", TINY_GRID)


def test_explore_writes_an_aut_file(tmp_path, tiny_grid, capsys):
    out = tmp_path / "tiny.aut"
    assert main(["explore", "--scenario", tiny_grid, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    lts = import_aut(out.open())
    assert printed == f"states={lts.num_states} transitions={len(lts.transitions)}\n"
    assert lts.num_states > 10


def test_explore_truncation_writes_a_partial_and_exits_3(tmp_path, tiny_grid,
                                                         capsys):
    out = tmp_path / "part.aut"
    code = main(["explore", "--scenario", tiny_grid, "--out", str(out),
                 "--max-states", "5"])
    captured = capsys.readouterr()
    assert code == 3
    assert "truncated" in captured.err
    assert "(partial)" in captured.out
    assert import_aut(out.open()).num_states == 5


def test_minimize_round_trip(tmp_path, tiny_grid, capsys):
    big, small = tmp_path / "big.aut", tmp_path / "small.aut"
    main(["explore", "--scenario", tiny_grid, "--out", str(big)])
    assert main(["minimize", str(big), str(small)]) == 0
    assert " -> " in capsys.readouterr().out
    assert import_aut(small.open()).num_states <= import_aut(big.open()).num_states


def test_check_passes_on_the_tiny_graph(tmp_path, tiny_graph, capsys):
    out = tmp_path / "g.aut"
    main(["explore", "--scenario", tiny_graph, "--out", str(out)])
    capsys.readouterr()
    for prop in ("consistent-moves", "inevitable-termination", "deadlock"):
        code = main(["check", "--lts", str(out), "--property", prop,
                     "--scenario", tiny_graph])
        verdict = json.loads(capsys.readouterr().out)
        assert code == 0 and verdict["verdict"] == "pass"


def test_check_reports_violations_with_exit_1(tmp_path, capsys):
    blocked = dict(TINY_GRAPH,
                   obstacles=[{"position": "A_bis", "moves": [{"turn": 5}]}])
    scenario = write_json(tmp_path / "blocked.json", blocked)
    out = tmp_path / "blocked.aut"
    main(["explore", "--scenario", scenario, "--out", str(out)])
    capsys.readouterr()
    code = main(["check", "--lts", str(out), "--property", "deadlock",
                 "--scenario", scenario])
    verdict = json.loads(capsys.readouterr().out)
    assert code == 1
    assert verdict["verdict"] == "fail"
    assert verdict["counterexample"]  # a replayable trace, not just a flag


def test_check_exits_3_when_its_product_passes_a_limit(tmp_path, tiny_graph, capsys,
                                                      monkeypatch):
    out = tmp_path / "g.aut"
    main(["explore", "--scenario", tiny_graph, "--out", str(out)])
    capsys.readouterr()
    # every check searches its product through kernel.search
    monkeypatch.setattr(kernel, "explore", lambda system, limits, goal: explore(
        system, ExplorationLimits(max_states=5), goal))
    for prop in ("consistent-moves", "inevitable-termination", "deadlock"):
        code = main(["check", "--lts", str(out), "--property", prop,
                     "--scenario", tiny_graph])
        printed, err = capsys.readouterr()
        assert code == 3 and printed == ""  # no verdict
        assert err == "truncated: max_states\n"


def test_consistent_moves_requires_a_graph_scenario(tmp_path, tiny_grid, capsys):
    out = tmp_path / "grid.aut"
    main(["explore", "--scenario", tiny_grid, "--out", str(out)])
    code = main(["check", "--lts", str(out), "--property", "consistent-moves"])
    assert code == 2
    assert "street graph" in capsys.readouterr().err


def test_testgen_produces_a_replayable_sim(tmp_path, tiny_grid, capsys):
    purpose = write_json(tmp_path / "p.json",
                         [{"gate": "END_OBSTACLE", "offers": ["Walker"]}])
    sim_path = tmp_path / "sim.json"
    code = main(["testgen", "--scenario", tiny_grid, "--purpose", purpose,
                 "--out", str(sim_path)])
    printed = capsys.readouterr().out
    assert code == 0
    assert "witness length=" in printed and "terminal=END" in printed
    sim = json.loads(sim_path.read_text())
    assert sim["terminal"] == "END"
    assert sim["ticks"]


def test_testgen_inconclusive_exits_1(tmp_path, tiny_grid, capsys):
    purpose = write_json(tmp_path / "p.json",
                         [{"gate": "COLLISION", "offers": ["Rock"]}])
    code = main(["testgen", "--scenario", tiny_grid, "--purpose", purpose,
                 "--out", str(tmp_path / "sim.json")])
    assert code == 1
    assert "inconclusive" in capsys.readouterr().out


def test_testgen_limits_bound_the_product_it_searches(tmp_path, capsys):
    # the swerve witness lies 19 product states in, far below the 22,983
    # states of the whole grid.json model
    sim_path = tmp_path / "sim.json"
    code = main(["testgen", "--scenario", str(CONFIGS / "grid.json"),
                 "--purpose", str(CONFIGS / "purpose_random_swerve.json"),
                 "--out", str(sim_path), "--max-states", "100"])
    assert code == 0
    assert "witness length=18 " in capsys.readouterr().out
    assert sim_path.exists()


def test_testgen_truncation_exits_3_without_a_sim(tmp_path, tiny_grid, capsys):
    purpose = write_json(tmp_path / "p.json",
                         [{"gate": "COLLISION", "offers": ["Rock"]}])
    sim_path = tmp_path / "sim.json"
    code = main(["testgen", "--scenario", tiny_grid, "--purpose", purpose,
                 "--out", str(sim_path), "--max-states", "5"])
    captured = capsys.readouterr()
    assert code == 3
    assert "truncated" in captured.err
    assert not sim_path.exists()


def test_testgen_warns_about_unknown_gates(tmp_path, tiny_grid, capsys):
    purpose = write_json(tmp_path / "p.json", [{"gate": "TELEPORT"}])
    code = main(["testgen", "--scenario", tiny_grid, "--purpose", purpose,
                 "--out", str(tmp_path / "sim.json")])
    captured = capsys.readouterr()
    assert code == 1
    assert "warning: purpose step 0: gate TELEPORT" in captured.err


def test_testgen_rejects_graph_scenarios(tmp_path, tiny_graph, capsys):
    purpose = write_json(tmp_path / "p.json", [{"gate": "ARRIVAL"}])
    code = main(["testgen", "--scenario", tiny_graph, "--purpose", purpose,
                 "--out", str(tmp_path / "sim.json")])
    assert code == 2


def test_render_draws_every_tick(tmp_path, tiny_grid, capsys):
    purpose = write_json(tmp_path / "p.json",
                         [{"gate": "END_OBSTACLE", "offers": ["Walker"]}])
    sim_path = tmp_path / "sim.json"
    main(["testgen", "--scenario", tiny_grid, "--purpose", purpose,
          "--out", str(sim_path)])
    capsys.readouterr()
    code = main(["render", "--scenario", tiny_grid, "--sim", str(sim_path)])
    printed = capsys.readouterr().out
    assert code == 0
    assert "tick 0 (initial)" in printed
    assert "terminal: END" in printed
    first = printed.split("tick")[1]
    assert "#" in first and "C" in first and "W" in first


@pytest.mark.parametrize("car_from, car_to, pedestrian_to", [
    ([6, 9], [6, 12], [4, 5]),
    ([6, 9], "ab", [4, 5]),
    ([6, 9], [6.5, 8], [4, 5]),
    ([6, 9], [True, 8], [4, 5]),
    ([6, 9], [-1, -2], [4, 5]),
    ([6], [6, 8], [4, 5]),
    ([6, 9], [6, 8], [10, 5]),
], ids=["car-off-map", "string-cell", "float-cell", "bool-cell", "negative-cell",
        "one-element-cell", "obstacle-off-map"])
def test_render_rejects_bad_cells_with_exit_2(tmp_path, capsys, car_from, car_to,
                                              pedestrian_to):
    sim = {"ticks": [{
        "obstacles": {"Pedestrian": {"from": [3, 5], "to": pedestrian_to,
                                     "direction": "right"}},
        "car": {"from": car_from, "to": car_to},
    }], "terminal": None}
    sim_path = write_json(tmp_path / "sim.json", sim)
    code = main(["render", "--scenario", str(CONFIGS / "grid.json"), "--sim", sim_path])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


DEEP = "[" * 3000 + "]" * 3000  # deeper than the interpreter's recursion limit


@pytest.mark.parametrize("command, inputs, code", [
    ("explore", {"scenario.json": dict(TINY_GRAPH, edges=5)}, 2),
    ("explore", {"scenario.json": dict(TINY_GRAPH, obstacles=5)}, 2),
    ("explore", {"scenario.json": dict(
        TINY_GRAPH, obstacles=[{"position": "A_bis", "moves": 5}])}, 2),
    ("explore", {"scenario.json": dict(TINY_GRID, static=5)}, 2),
    ("explore", {"scenario.json": dict(TINY_GRID, mobile=5)}, 2),
    ("explore", {"scenario.json": dict(TINY_GRID, car=dict(TINY_GRID["car"], moves=[[1]]))}, 2),
    ("explore", {"scenario.json": dict(
        TINY_GRID, mobile=[dict(TINY_GRID["mobile"][0], moves=[{}])])}, 2),
    ("testgen", {"scenario.json": TINY_GRID,
                 "purpose.json": [{"gate": "TICK", "offers": [DEEP]}]}, 2),
    # a label that is not canonical value text stays an opaque label
    ("minimize", {"in.aut": f'des (0, 1, 1)\n(0, "G !{DEEP}", 0)\n'}, 0),
    ("explore", {"scenario.json": dict(
        TINY_GRID, static=[dict(TINY_GRID["static"][0], kind=True)])}, 2),
    ("explore", {"scenario.json": dict(
        TINY_GRID, static=[dict(TINY_GRID["static"][0], kind=None)])}, 2),
    ("testgen", {"scenario.json": dict(
        TINY_GRID, mobile=[dict(TINY_GRID["mobile"][0], kind=True)]),
                 "purpose.json": [{"gate": "TICK"}]}, 2),
    ("testgen", {"scenario.json": dict(
        TINY_GRID, mobile=[dict(TINY_GRID["mobile"][0], kind=None)]),
                 "purpose.json": [{"gate": "TICK"}]}, 2),
], ids=["edges-not-a-list", "obstacles-not-a-list", "moves-not-a-list",
        "static-not-a-list", "mobile-not-a-list", "car-move-a-list", "obstacle-move-an-object",
        "deep-purpose-offer", "deep-aut-label", "static-kind-true", "static-kind-null",
        "mobile-kind-true", "mobile-kind-null"])
def test_malformed_inputs_exit_with_a_documented_code(tmp_path, capsys, command, inputs, code):
    for name, data in inputs.items():
        path = tmp_path / name
        path.write_text(data if isinstance(data, str) else json.dumps(data))
    argv = {
        "explore": ["explore", "--scenario", "scenario.json", "--out", "out.aut"],
        "testgen": ["testgen", "--scenario", "scenario.json", "--purpose", "purpose.json",
                    "--out", "sim.json"],
        "minimize": ["minimize", "in.aut", "out.aut"],
    }[command]
    assert main([a if a.startswith("-") or a == command else str(tmp_path / a)
                 for a in argv]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error:")


@pytest.mark.parametrize("command", ["explore", "testgen"])
def test_oversized_grid_exits_2_before_allocating_it(tmp_path, capsys, command):
    # a million rows of the bundled width would take seconds and hundreds of
    # MB to lay out as perception maps; the cell limit rejects it at parse time
    grid = json.loads((CONFIGS / "grid.json").read_text())
    scenario = write_json(tmp_path / "tall.json", dict(grid, height=1000000))
    purpose = str(CONFIGS / "purpose_collision_pedestrian.json")
    argv = {"explore": ["explore", "--scenario", scenario, "--out", str(tmp_path / "out.aut")],
            "testgen": ["testgen", "--scenario", scenario, "--purpose", purpose,
                        "--out", str(tmp_path / "sim.json")]}[command]
    t0 = time.monotonic()
    assert main(argv) == 2
    assert time.monotonic() - t0 < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error:") and "65536 cells" in err


@pytest.mark.parametrize("section", ["static", "mobile"])
def test_oversized_obstacle_exits_2_before_listing_its_cells(tmp_path, capsys, section):
    # 10^10 cells of one rectangle; its size alone says it cannot fit
    grid = json.loads((CONFIGS / "grid.json").read_text())
    huge = dict(grid[section][0], w=100000, h=100000)
    data = dict(grid, **{section: [huge] + grid[section][1:]})
    with pytest.raises(ScenarioError, match=rf"{section}\[0\]: .* does not fit the 10 x 10 grid"):
        scenario_from_json(data)
    t0 = time.monotonic()
    assert main(["explore", "--scenario", write_json(tmp_path / "huge.json", data),
                 "--out", str(tmp_path / "out.aut")]) == 2
    assert time.monotonic() - t0 < 1.0
    assert capsys.readouterr().err.startswith(f"error: {section}[0]: ")


@pytest.mark.parametrize("section,flag,value", [
    ("static", "transparent", "false"), ("mobile", "cyclic", "no"), ("car", "cyclic", 0)])
def test_a_flag_that_is_not_a_json_boolean_exits_2(tmp_path, capsys, section, flag, value):
    grid = json.loads((CONFIGS / "grid.json").read_text())
    if section == "car":
        data, where = dict(grid, car=dict(grid["car"], **{flag: value})), f"car.{flag}"
    else:
        entry = dict(grid[section][0], **{flag: value})
        data, where = dict(grid, **{section: [entry] + grid[section][1:]}), f"{section}[0].{flag}"
    scenario = write_json(tmp_path / "flag.json", data)
    for argv in (["explore", "--scenario", scenario, "--out", str(tmp_path / "out.aut")],
                 ["render", "--scenario", scenario, "--sim", write_json(tmp_path / "sim.json", [])]):
        assert main(argv) == 2
        assert capsys.readouterr().err == \
            f"error: {where}: expected true or false, got {value!r}\n"


@pytest.mark.parametrize("field, data, got", [
    ("car.position", dict(TINY_GRAPH, car={"position": ["A"], "destination": "A_bis"}), "['A']"),
    ("car.destination", dict(TINY_GRAPH, car={"position": "A", "destination": 1}), "1"),
    ("obstacles[0].position", dict(TINY_GRAPH, obstacles=[{"position": ["A_bis"]}]), "['A_bis']"),
], ids=["car-position", "car-destination", "obstacle-position"])
def test_a_street_position_that_is_not_a_name_exits_2_naming_the_field(tmp_path, capsys,
                                                                        field, data, got):
    scenario = write_json(tmp_path / "scenario.json", data)
    aut = tmp_path / "one.aut"
    aut.write_text("des (0, 0, 1)\n")
    for argv in (["explore", "--scenario", scenario, "--out", str(tmp_path / "out.aut")],
                 ["check", "--lts", str(aut), "--property", "deadlock", "--scenario", scenario]):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {field}: expected a street name, got {got}\n"


@pytest.mark.parametrize("data, message", [
    ([], "scenario must be a JSON object"),
    ({}, "scenario has neither street-graph keys (vertices/edges) nor grid keys (width/height)"),
    (dict(TINY_GRID, height=-1), "height: expected a non-negative integer, got -1"),
    (dict(TINY_GRAPH, vertices=[0, [1]]), "vertices: expected a list of names or numbers"),
    (dict(TINY_GRAPH, edges=[[0, "A", 1], [1, "A_bis"]]),
     "edges[1]: expected [source, street, target]"),
    # true == 1, so this edge would otherwise leave vertex 1
    ({"vertices": [0, 1], "edges": [[True, "High_Street", 0], [0, "Low_Street", 1]],
      "car": {"position": "High_Street", "destination": "Low_Street"}},
     "edges[0]: expected [source, street, target]"),
    (dict(TINY_GRAPH, car="A"), "car: expected an object"),
    (dict(TINY_GRID, car=[0, 3]), "car: expected an object"),
    (dict(TINY_GRAPH, obstacles=["A_bis"]), "obstacles[0]: expected an object"),
    (dict(TINY_GRAPH, obstacles=[{"position": "A_bis", "moves": ["random", "jump"]}]),
     """obstacles[0].moves[1]: expected "random", "leave" or {"turn": n}, got 'jump'"""),
    (dict(TINY_GRID, static=[5]), "static[0]: expected an object"),
    (dict(TINY_GRID, width=0), "degenerate grid"),
    (dict(TINY_GRID, static=[dict(TINY_GRID["static"][0], w=0)]),
     "static[0]: Rock: extent must be positive"),
    (dict(TINY_GRID, mobile=[dict(TINY_GRID["mobile"][0], kind=True)]),
     "mobile[0].kind: expected a kind name, got True"),
], ids=["not-an-object", "no-model-keys", "negative-height", "vertex-a-list", "short-edge",
        "boolean-edge-endpoint", "graph-car-a-string", "grid-car-a-list", "obstacle-a-string",
        "unknown-move-word", "static-a-number", "zero-width", "zero-extent", "kind-a-boolean"])
def test_a_malformed_scenario_exits_2_with_its_one_error_line(tmp_path, data, message):
    code, out, err = run_main(["explore", "--scenario", write_json(tmp_path / "s.json", data),
                               "--out", str(tmp_path / "out.aut")])
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("tick, message", [
    ({"obstacles": []}, "tick 1: obstacles must be an object"),
    ({"obstacles": {}, "car": {"to": [6, 8]}},
     "tick 1: car must be null or an object with from and to"),
], ids=["obstacles-a-list", "car-move-without-from"])
def test_a_malformed_sim_exits_2_naming_the_file_and_the_tick(tmp_path, tick, message):
    sim = write_json(tmp_path / "sim.json", {"ticks": [tick]})
    code, out, err = run_main(["render", "--scenario", str(CONFIGS / "grid.json"), "--sim", sim])
    assert (code, out, err) == (2, "", f"error: {sim}: {message}\n")


def pedestrian(source, target, direction="right"):
    return {"Pedestrian": {"from": source, "to": target, "direction": direction}}


def other_car(source, target, direction="up"):
    return {"Other_Car": {"from": source, "to": target, "direction": direction}}


# configs/grid.json's first two rounds: Other_Car and the Pedestrian follow
# their scripts, the car's first move is none and its second up
ROUND_1 = {"obstacles": {**other_car([6, 7], [6, 6]), **pedestrian([3, 5], [4, 5])},
           "car": {"from": [6, 9], "to": [6, 9]}}
ROUND_2_OBSTACLES = {**other_car([6, 6], [6, 5]), **pedestrian([4, 5], [5, 5])}


# each sim is a run of the model up to the one fault its id names; before a
# crash no script or random move of grid.json points an obstacle at a building
# next to it, so the move into a building breaks Other_Car's script too
@pytest.mark.parametrize("ticks, message", [
    ([{"obstacles": {**other_car([6, 7], [6, 6]), **pedestrian([0, 0], [4, 5])}}],
     "tick 1: Pedestrian moves from (0, 0) to (4, 5) right: "
     "no run of the model makes this move"),
    ([{"obstacles": {**other_car([6, 7], [6, 6]), **pedestrian([3, 5], [4, 5], 3)}}],
     "tick 1: obstacles.Pedestrian.direction: bad direction 3: "
     "need one of up, down, left, right, none"),
    ([{"obstacles": other_car([6, 7], [7, 7], "right")}],
     "tick 1: Other_Car moves from (6, 7) to (7, 7) right: "
     "no run of the model makes this move"),
    ([{"obstacles": ROUND_1["obstacles"], "car": {"from": [6, 9], "to": [6, 10]}}],
     "tick 1: the car moves from (6, 9) to (6, 10): no run of the model makes this move"),
    ([ROUND_1, {"obstacles": ROUND_2_OBSTACLES, "car": {"from": [6, 9], "to": [6, 8]}},
      {"obstacles": {**other_car([6, 5], [6, 5], "none"), **pedestrian([5, 5], [6, 5])}}],
     "tick 3: Pedestrian moves from (5, 5) to (6, 5) right: "
     "no run of the model makes this move"),
    ([ROUND_1, {"obstacles": {**other_car([6, 6], [6, 5]), **pedestrian([3, 5], [4, 5])}}],
     "tick 2: Pedestrian moves from (3, 5) to (4, 5) right: "
     "no run of the model makes this move"),
    ([{"obstacles": ROUND_1["obstacles"], "car": {"from": [6, 8], "to": [6, 9]}}],
     "tick 1: the car moves from (6, 8) to (6, 9): no run of the model makes this move"),
    ([{"obstacles": other_car([6, 7], [6, 5], "left"), "car": {"from": [6, 9], "to": [2, 9]}}],
     "tick 1: Other_Car moves from (6, 7) to (6, 5) left: "
     "no run of the model makes this move"),
    ([ROUND_1, {"obstacles": ROUND_2_OBSTACLES, "car": {"from": [6, 9], "to": [6, 7]}}],
     "tick 2: the car moves from (6, 9) to (6, 7): no run of the model makes this move"),
    ([{"obstacles": {**pedestrian([3, 5], [4, 5]), **other_car([6, 7], [6, 6])}}],
     "tick 1: Pedestrian moves from (3, 5) to (4, 5) right: "
     "no run of the model makes this move"),
    ([ROUND_1, {"obstacles": other_car([6, 6], [6, 5]), "car": {"from": [6, 9], "to": [6, 8]}}],
     "tick 2: the car moves from (6, 9) to (6, 8): no run of the model makes this move"),
], ids=["from-elsewhere", "direction-a-number", "into-a-building", "off-the-map",
        "onto-an-obstacle", "from-the-old-cell", "car-from-elsewhere",
        "jumps-and-turns", "car-beyond-its-speed", "out-of-mobile-order", "pedestrian-skipped"])
def test_render_rejects_a_move_the_model_cannot_make(tmp_path, ticks, message):
    sim = write_json(tmp_path / "sim.json", {"ticks": ticks})
    code, out, err = run_main(["render", "--scenario", str(CONFIGS / "grid.json"), "--sim", sim])
    assert (code, out, err) == (2, "", f"error: {sim}: {message}\n")


def test_non_ascii_aut_names_the_file_and_the_line(tmp_path, capsys):
    aut = tmp_path / "bad.aut"
    aut.write_bytes(b'des (0, 1, 2)\n(0, "caf\xd9", 1)\n')
    for argv in (["minimize", str(aut), str(tmp_path / "out.aut")],
                 ["check", "--lts", str(aut), "--property", "deadlock"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert str(aut) in err and "line 2" in err


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_minimize_reads_an_aut_from_a_pipe(tmp_path, capsys):
    # a pipe cannot seek back; the city's .aut is read from it in chunks
    city, expected = tmp_path / "city.aut", tmp_path / "city_min.aut"
    assert main(["explore", "--scenario", str(CONFIGS / "crossroad.json"),
                 "--out", str(city)]) == 0
    assert main(["minimize", str(city), str(expected)]) == 0
    data = city.read_bytes()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    for layout, text in (("exported", data), ("loose", data.replace(b", ", b",  "))):
        out = tmp_path / f"{layout}_min.aut"
        subprocess.run([sys.executable, "-m", "avmodels.cli", "minimize", "/dev/stdin",
                        str(out)], input=text, env=env, check=True, timeout=300)
        assert out.read_bytes() == expected.read_bytes(), layout


def test_a_header_promising_a_million_states_exits_2_at_once(tmp_path, capsys):
    aut = tmp_path / "lie.aut"
    aut.write_text("des (0, 0, 1000000)\n")
    for argv in (["minimize", str(aut), str(tmp_path / "out.aut")],
                 ["check", "--lts", str(aut), "--property", "deadlock"]):
        t0 = time.monotonic()
        assert main(argv) == 2
        assert time.monotonic() - t0 < 0.1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {aut}: line 1: header promises 1000000 states")


def test_an_aut_number_past_the_int_digit_limit_names_the_file_and_the_line(tmp_path, capsys):
    aut = tmp_path / "long.aut"
    aut.write_text(f'des (0, 1, 2)\n({"1" * 5000}, "a", 1)\n')
    for argv in (["minimize", str(aut), str(tmp_path / "out.aut")],
                 ["check", "--lts", str(aut), "--property", "deadlock"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {aut}: line 2: bad transition: Exceeds the limit")
        assert err.count("\n") == 1


@pytest.mark.parametrize("offer", ["1" * 5000, "٣", "Position(²,1)"],
                         ids=["long-natural", "arabic-indic", "superscript"])
def test_a_purpose_offer_that_is_not_ascii_value_text_exits_2_naming_the_step(
        tmp_path, tiny_grid, capsys, offer):
    purpose = write_json(tmp_path / "p.json", [{"gate": "TICK"},
                                               {"gate": "GRID_CAR", "offers": [offer]}])
    assert main(["testgen", "--scenario", tiny_grid, "--purpose", purpose,
                 "--out", str(tmp_path / "sim.json")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: purpose step 1 offer 0: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("content, message", [
    (b"\xff[]", "is not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 0"),
    (b"[" * 100000, "is not valid JSON: maximum recursion depth exceeded"),
    (b"[" + b"1" * 5000 + b"]", "is not valid JSON: Exceeds the limit (4300 digits)"),
], ids=["not-utf-8", "nested-too-deeply", "number-past-the-digit-limit"])
@pytest.mark.parametrize("role", ["scenario", "purpose", "sim"])
def test_a_json_input_python_cannot_decode_exits_2_naming_the_file(tmp_path, tiny_grid, capsys,
                                                                   role, content, message):
    bad = tmp_path / f"{role}.json"
    bad.write_bytes(content)
    files = {"scenario": tiny_grid, "purpose": write_json(tmp_path / "p.json", [{"gate": "TICK"}]),
             "sim": write_json(tmp_path / "s.json", {"ticks": []}), role: str(bad)}
    command = ["render", "--sim", files["sim"]] if role == "sim" else [
        "testgen", "--purpose", files["purpose"], "--out", str(tmp_path / "out.json")]
    assert main(command + ["--scenario", files["scenario"]]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {bad} {message}")
    assert err.count("\n") == 1


AUT_LABELS = (
    # canonical
    "TICK", "ARRIVAL", "END_OBSTACLE", "G !7", "CAR_MOVE !brakes", "CAR_MOVE !turned_n(0)",
    "CAR_MOVE !turned_n(9)", "UPDATE_POSITION !A", "UPDATE_POSITION !A_bis",
    "UPDATE_POSITION !Nowhere",
    # opaque
    "G !007", "CAR_MOVE !007", "UPDATE_POSITION A", "not !a value",
    # offers the consistent-moves monitor cannot read
    "CAR_MOVE", "CAR_MOVE !3", "CAR_MOVE !turned_n(true)", "CAR_MOVE !brakes !brakes",
    "UPDATE_POSITION", "UPDATE_POSITION !3", "UPDATE_POSITION !Position(1,2)",
)
AUT_JUNK = ('(0 "a" 1)', "", "   ", "des (0, 1, 1)", '(0, "a"b", 0)', '(x, "a", 0)',
            '(0, "caf\u00e9", 0)', '(0, "a", 99)')


@st.composite
def aut_files(draw):
    """.aut text, mostly well formed: a header that may lie about its counts or
    be malformed, transitions over canonical, opaque and unreadable labels, and
    now and then one junk line."""
    nstates = draw(st.integers(1, 5))
    state = st.integers(0, nstates - 1)
    lines = draw(st.lists(st.builds('({}, "{}", {})'.format, state,
                                    st.sampled_from(AUT_LABELS), state), max_size=10))
    if draw(st.integers(0, 4)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(AUT_JUNK)))
    initial, ntrans = draw(st.sampled_from([(0, len(lines))] * 9 + [
        (0, len(lines) + 1), (0, max(0, len(lines) - 1)), (nstates, len(lines))]))
    header = draw(st.sampled_from([f"des ({initial}, {ntrans}, {nstates})"] * 9 + [
        f"des ({initial}, {ntrans})", f"res ({initial}, {ntrans}, {nstates})", ""]))
    return "\n".join([header] + lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(text=aut_files())
def test_generated_aut_files_exit_with_a_documented_code(tmp_path_factory, text):
    work = tmp_path_factory.mktemp("fuzz")
    aut, scenario = work / "in.aut", write_json(work / "graph.json", TINY_GRAPH)
    aut.write_bytes(text.encode("utf-8"))
    runs = [["minimize", str(aut), str(work / "out.aut")]] + [
        ["check", "--lts", str(aut), "--property", prop, "--scenario", scenario]
        for prop in ("consistent-moves", "inevitable-termination", "deadlock")]
    for argv in runs:
        code, _, err = run_main(argv)
        assert code in (0, 1, 2, 3), argv
        if code == 2:
            assert err.startswith("error:"), argv


KINDS = ("Building", "Walker", "Cart")


@st.composite
def grid_scenarios(draw):
    """Grid-scenario JSON of at most 6 x 6 cells whose rectangles may overlap
    or stick out, whose scripts may be cyclic or empty, and whose car may be
    anywhere, on the grid or off it."""
    width, height = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    x, y = st.sampled_from(range(width + 1)), st.sampled_from(range(height + 1))
    size, cyclic = st.sampled_from((1, 1, 1, 1, 2, 3)), st.sampled_from((False, False, True))
    moves = st.lists(st.sampled_from(("up", "down", "left", "right", "none", "random")),
                     max_size=3)
    static = [{"kind": draw(st.sampled_from(KINDS)), "x": draw(x), "y": draw(y),
               "w": draw(size), "h": draw(size)} for _ in range(draw(st.integers(0, 2)))]
    mobile = [{"kind": kind, "x": draw(x), "y": draw(y), "w": draw(size), "h": draw(size),
               "cyclic": draw(cyclic), "moves": draw(moves)}
              for kind in KINDS[:draw(st.integers(0, 2))]]
    car = {"x": draw(x), "y": draw(y), "cyclic": draw(cyclic), "moves": draw(moves)}
    return {"width": width, "height": height, "static": static, "mobile": mobile,
            "car": car, "dist_min": draw(st.integers(0, 3))}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=grid_scenarios())
def test_every_command_accepts_and_rejects_the_same_grid_scenarios(tmp_path_factory, data):
    work = tmp_path_factory.mktemp("grid")
    scenario = write_json(work / "scenario.json", data)
    sim = write_json(work / "empty.sim.json", {"ticks": [], "terminal": None})
    runs = [["render", "--scenario", scenario, "--sim", sim],
            ["explore", "--scenario", scenario, "--out", str(work / "out.aut"),
             "--max-states", "200"],
            ["testgen", "--scenario", scenario, "--purpose",
             str(CONFIGS / "purpose_arrival.json"), "--out", str(work / "out.sim.json"),
             "--max-states", "200"]]
    codes = []
    for argv in runs:
        code, out, err = run_main(argv)
        codes.append(code)
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in out + err, argv
    assert codes.count(2) in (0, len(runs)), codes


STREET_NAMES = ("A", "B_bis", "Main_Street", "Main Street", "true", "Position", "9th", "")


@st.composite
def street_scenarios(draw):
    """Street-graph JSON over 2..4 vertices whose street names may not be
    symbol names (spaces, reserved words, a leading digit, empty) or may
    repeat, with the car, its destination and up to two obstacles on drawn
    streets."""
    n = draw(st.integers(2, 4))
    vertex = st.integers(0, n - 1)
    edges = [[draw(vertex), name, draw(vertex)]
             for name in draw(st.lists(st.sampled_from(STREET_NAMES), min_size=1, max_size=5))]
    street = st.sampled_from([name for _, name, _ in edges])
    op = st.sampled_from(("random", "leave", {"turn": 0}, {"turn": 1}))
    return {"vertices": list(range(n)), "edges": edges,
            "car": {"position": draw(street), "destination": draw(street)},
            "obstacles": [{"position": draw(street), "moves": draw(st.lists(op, max_size=2))}
                          for _ in range(draw(st.integers(0, 2)))]}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=street_scenarios())
def test_every_command_accepts_and_rejects_the_same_street_scenarios(tmp_path_factory, data):
    work = tmp_path_factory.mktemp("street")
    scenario = write_json(work / "scenario.json", data)
    aut = work / "one.aut"
    aut.write_text("des (0, 0, 1)\n")
    runs = [["explore", "--scenario", scenario, "--out", str(work / "out.aut"),
             "--max-states", "200"]] + [
        ["check", "--lts", str(aut), "--property", prop, "--scenario", scenario]
        for prop in ("consistent-moves", "deadlock")]
    codes = []
    for argv in runs:
        code, out, err = run_main(argv)
        codes.append(code)
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in out + err, argv
    assert codes.count(2) in (0, len(runs)), codes


GATES = ("CAR_MOVE", "CAR_POSITION", "OBSTACLE_POSITION", "GRID_UPDATE", "GRID_CAR",
         "LIDAR_MAP", "COLLISION", "END_OBSTACLE", "ARRIVAL", "TICK", "TELEPORT", "tick")
OFFERS = ("*", "Walker", "Cart", "Rock", "up", "random", "true", "Position(1,1)")
BAD_OFFERS = ("Position(1)", "[1,", "Foo(", "-3", "a b", "٣", "²", "Position(٣,1)",
              "1" * 5000, None, 3, True, [])
BAD_STEPS = ({}, {"offers": []}, {"gate": ""}, {"gate": 5}, {"gate": "TICK", "offers": "*"},
             "TICK", None, ["TICK"])
BAD_PURPOSES = ([], {"gate": "TICK"}, "TICK", 5, None, [[]])


@st.composite
def purposes(draw):
    """Purpose JSON: mostly lists of steps over model and unknown gates whose
    offers are wildcards, names the models use or other value texts; now and
    then a malformed offer (non-ASCII digits and naturals past int()'s digit
    limit included), a malformed step or a purpose that is not a list."""
    def one(good, bad):
        return draw(st.sampled_from(bad) if draw(st.integers(0, 11)) == 11 else good)

    offer = st.one_of(st.sampled_from(OFFERS), value_strategy.map(text),
                      st.text(alphabet="[](),019aZ_*٣", max_size=6))
    step = st.fixed_dictionaries({"gate": st.sampled_from(GATES)},
                                 optional={"offers": st.lists(offer, max_size=3)})
    steps = [one(step, BAD_STEPS) for _ in range(draw(st.integers(1, 4)))]
    for entry in steps:
        if isinstance(entry, dict) and entry.get("offers"):
            entry["offers"] = [one(st.just(o), BAD_OFFERS) for o in entry["offers"]]
    return one(st.just(steps), BAD_PURPOSES)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), purpose=purposes())
def test_generated_purposes_exit_with_a_documented_code(tmp_path_factory, seed, purpose):
    work = tmp_path_factory.mktemp("purpose")
    scenario = write_json(work / "scenario.json", random_grid_json(random.Random(seed)))
    code, out, err = run_main(["testgen", "--scenario", scenario, "--purpose",
                               write_json(work / "purpose.json", purpose),
                               "--out", str(work / "sim.json"), "--max-states", "300"])
    assert_documented_exit(code, out, err)


@st.composite
def sims(draw, kinds):
    """Simulation JSON: tick lists that move the scenario's obstacles or
    unknown ones, and the car, to cells on or off the grid, with now and then
    a value of the wrong shape in place of a cell, a move, a tick or the
    whole sim."""
    coord = st.one_of(st.integers(0, 5), st.integers(-3, 9), st.sampled_from((10**20, 2.5, True)))
    cell = st.one_of(st.lists(coord, min_size=2, max_size=2),
                     st.sampled_from(([1], [1, 2, 3], "ab", None, {"x": 1})))
    move = st.fixed_dictionaries({"from": cell, "to": cell,
                                  "direction": st.sampled_from(("up", "left", 3))})
    tick = st.one_of(
        st.fixed_dictionaries(
            {"obstacles": st.dictionaries(st.sampled_from(kinds + ("Ghost",)),
                                          st.one_of(move, st.sampled_from(([], "up", None))),
                                          max_size=2)},
            optional={"car": st.one_of(st.none(), st.fixed_dictionaries({"from": cell,
                                                                         "to": cell}))}),
        st.sampled_from(({}, [], "tick", 0, {"obstacles": []})))
    terminal = st.sampled_from((None, "ARRIVAL", "COLLISION", "END", "CRASH", [], 1))
    return draw(st.one_of(
        st.fixed_dictionaries({"ticks": st.lists(tick, max_size=4), "terminal": terminal}),
        st.sampled_from(([], "sim", 5, {"ticks": 5}, {"ticks": "ab"}, {"terminal": "END"}))))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), data=st.data())
def test_generated_sims_render_or_exit_with_a_documented_code(tmp_path_factory, seed, data):
    work = tmp_path_factory.mktemp("sim")
    scenario = random_grid_json(random.Random(seed))
    sim = data.draw(sims(tuple(ob["kind"] for ob in scenario["mobile"])))
    code, out, err = run_main(["render", "--scenario", write_json(work / "scenario.json", scenario),
                               "--sim", write_json(work / "sim.json", sim)])
    assert_documented_exit(code, out, err)
    assert code in (0, 2)
    assert (out.startswith("tick 0 (initial)\n") if code == 0 else out == "")


def test_missing_files_exit_2(tmp_path, capsys):
    assert main(["explore", "--scenario", str(tmp_path / "none.json"),
                 "--out", str(tmp_path / "x.aut")]) == 2
    assert main(["check", "--lts", str(tmp_path / "none.aut"),
                 "--property", "deadlock"]) == 2
    capsys.readouterr()


def test_expose_grid_is_for_grids_only(tmp_path, tiny_graph, capsys):
    code = main(["explore", "--scenario", tiny_graph,
                 "--out", str(tmp_path / "x.aut"), "--expose-grid"])
    assert code == 2
    assert "expose-grid" in capsys.readouterr().err


def test_unknown_property_is_an_argparse_error(tmp_path):
    with pytest.raises(SystemExit):
        main(["check", "--lts", "x.aut", "--property", "nonsense"])


def test_reference_configs_parse(capsys, tmp_path):
    # the shipped example scenarios stay loadable through the CLI path
    code = main(["explore", "--scenario", str(CONFIGS / "crossroad.json"),
                 "--out", str(tmp_path / "c.aut"), "--max-states", "3000"])
    assert code == 3  # the full graph model is larger than this cap


def _exit_path(name, tmp_path, monkeypatch):
    """(argv, expected exit code or the exception main lets through) for one
    way out of main."""
    grid = write_json(tmp_path / "grid.json", TINY_GRID)
    unreachable = write_json(tmp_path / "p.json", [{"gate": "COLLISION", "offers": ["Rock"]}])
    if name == "check-fails":
        blocked = write_json(tmp_path / "blocked.json", dict(
            TINY_GRAPH, obstacles=[{"position": "A_bis", "moves": [{"turn": 5}]}]))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["explore", "--scenario", blocked, "--out", str(tmp_path / "b.aut")]) == 0
        return ["check", "--lts", str(tmp_path / "b.aut"), "--property", "deadlock",
                "--scenario", blocked], 1
    if name == "uncaught":
        def boom(args):
            raise RuntimeError(f"collector enabled: {gc.isenabled()}")
        monkeypatch.setattr(cli, "cmd_explore", boom)
    explore_grid = ["explore", "--scenario", grid, "--out", str(tmp_path / "out.aut")]
    return {
        "explore": (explore_grid, 0),
        "testgen-inconclusive": (["testgen", "--scenario", grid, "--purpose", unreachable,
                                  "--out", str(tmp_path / "sim.json")], 1),
        "cli-error": (["explore", "--scenario", write_json(tmp_path / "g.json", TINY_GRAPH),
                       "--out", str(tmp_path / "out.aut"), "--expose-grid"], 2),
        "bad-scenario": (["explore", "--scenario", write_json(tmp_path / "bad.json", dict(
            TINY_GRAPH, obstacles=[{"position": ["A_bis"]}])), "--out", str(tmp_path / "out.aut")], 2),
        "limit": (explore_grid + ["--max-states", "10"], 3),
        "uncaught": (explore_grid, RuntimeError),
    }[name]


@pytest.fixture
def restore_collector():
    """Puts the cyclic collector back as the test found it."""
    was = gc.isenabled()
    yield
    (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["collecting", "paused-by-caller"])
@pytest.mark.parametrize("name", ["explore", "check-fails", "testgen-inconclusive", "cli-error",
                                  "bad-scenario", "limit", "uncaught"])
def test_main_leaves_the_cyclic_collector_as_it_found_it(tmp_path, capsys, monkeypatch,
                                                         restore_collector, name, enabled):
    argv, want = _exit_path(name, tmp_path, monkeypatch)
    (gc.enable if enabled else gc.disable)()
    if want is RuntimeError:
        with pytest.raises(RuntimeError, match="collector enabled: False"):
            main(argv)
    else:
        assert main(argv) == want
    assert gc.isenabled() is enabled
    capsys.readouterr()


@pytest.mark.parametrize("scenario, expose_grid", [
    (str(CONFIGS / "crossroad.json"), False),  # 22,474 states
    (random_grid_json(random.Random(14)), True),  # corpus scenario grid-00
], ids=["crossroad", "corpus-grid-00"])
def test_a_command_leaves_almost_no_cyclic_garbage(tmp_path, capsys, restore_collector,
                                                   scenario, expose_grid):
    # main pauses the cyclic collector because what a command builds holds
    # no reference cycles: reference counting frees the explored model, so a
    # collection afterwards finds only a few hundred objects of any run
    if not isinstance(scenario, str):
        scenario = write_json(tmp_path / "scenario.json", scenario)
    argv = ["explore", "--scenario", scenario, "--out", str(tmp_path / "out.aut")]
    gc.disable()  # no automatic collection between the command and the count
    gc.collect()
    assert main(argv + (["--expose-grid"] if expose_grid else [])) == 0
    assert gc.collect() < 1000
    assert "states=" in capsys.readouterr().out


# explores every bundled scenario, grid.json with exposed grids too, and
# generates every manifest witness into the directory named by argv[2]; the
# inconclusive testgen of a building collision, which exits 1, leaves its
# exit code, stdout and stderr there
EVERY_OUTPUT = """
import contextlib, io, json, sys
from avmodels.cli import main
configs, out = sys.argv[1], sys.argv[2]
runs = [["explore", "--scenario", f"{configs}/{name}.json", "--out", f"{out}/{name}.aut"]
        for name in ("free", "highway", "tcross", "crossroad", "grid")]
runs.append(["explore", "--scenario", f"{configs}/grid.json", "--out", f"{out}/grid-exposed.aut",
             "--expose-grid"])
for i, entry in enumerate(json.load(open(f"{configs}/manifest.json"))):
    if entry["outcome"] == "witness":
        runs.append(["testgen", "--scenario", f"{configs}/{entry['scenario']}",
                     "--purpose", f"{configs}/{entry['purpose']}", "--out", f"{out}/{i}.sim.json"]
                    + (["--expose-grid"] if entry.get("expose_grid") else []))
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
stdout, stderr = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
    code = main(["testgen", "--scenario", f"{configs}/grid.json", "--purpose",
                 f"{configs}/purpose_collision_building.json", "--out", f"{out}/building.sim.json"])
with open(f"{out}/building.log", "w") as log:
    log.write(f"exit {code}\\n-- stdout\\n{stdout.getvalue()}-- stderr\\n{stderr.getvalue()}")
"""


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    runs = []
    for seed in ("1", "2"):
        out = tmp_path / seed
        out.mkdir()
        path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(path))
        runs.append((out, subprocess.Popen(
            [sys.executable, "-c", EVERY_OUTPUT, str(CONFIGS), str(out)], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)))
    try:
        for _, proc in runs:
            log, _ = proc.communicate(timeout=300)
            assert proc.returncode == 0, log
    finally:
        for _, proc in runs:
            proc.kill()
    (one, _), (two, _) = runs
    names = sorted(p.name for p in one.iterdir())
    assert len(names) == 5 + 1 + 9 + 1
    assert (one / "building.log").read_text() == (
        "exit 1\n-- stdout\ninconclusive: the purpose is not reachable in this scenario\n"
        "-- stderr\n")
    assert names == sorted(p.name for p in two.iterdir())
    for name in names:
        assert (one / name).read_bytes() == (two / name).read_bytes(), name
