"""The benchmark's workloads: seeded input files, op lists and reference answers.

A workload is a list of CLI commands (ops) over a handful of scenario and
purpose files. ``make_workload(name, seed)`` returns the files as bytes and
the ops with the answer each must produce. This module does not import
avmodels, so inputs are generated without the program under test.

Seeded inputs keep the amount of work fixed across seeds, so run-to-run
spread measures the program and not the seed:

* grid variants are ``grid.json`` mirrored left to right (by a seed bit) with
  its two mobile obstacles renamed from a seeded pool. Both transforms are
  isomorphisms of the model, so every variant has exactly the bundled
  state/transition counts, witness lengths and verdicts. Varying the
  pedestrian's start row and the number of ``random`` steps instead gives
  830 to 97k states for small parameter changes.
* street lattices are 4x4 grids of two-way streets (48 streets) with two
  obstacles of one ``random`` move each. The seed picks one of four
  placements whose state counts lie within 2.2% of each other (19.4k-20.2k)
  and then renames every vertex and street. Unrestricted placements give
  5.6k-35k states; a third obstacle or a second ``random`` move ran past
  100 s per pipeline.
"""
from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = os.path.join(ROOT, "configs")

WORKLOADS = ("grid-witness", "grid-exhaustive", "city-verify")

# Reference answers for the bundled inputs (and, by isomorphism, their variants).
GRID_SIZE = (22983, 24233)
GRID_EXPOSED_MIN = (2159, 3386)
CROSSROAD_SIZE = (22474, 52639)
CROSSROAD_MIN = (15890, 41762)
# Shortest witness length per grid purpose; the outcome and terminal come
# from configs/manifest.json.
WITNESS_LEN = {
    "purpose_collision_pedestrian.json": 30,
    "purpose_random_swerve.json": 18,
    "purpose_collision_any.json": 30,
}

CAR_NAMES = ("Other_Car", "Delivery_Van", "Taxi", "Bus", "Tractor", "Ambulance")
WALKER_NAMES = ("Pedestrian", "Cyclist", "Jogger", "Child", "Dog", "Skater")
STREET_STEMS = ("St", "Road", "Avenue", "Lane", "Way", "Row")

LATTICE_N = 4
# (car street, destination, obstacle streets) in base names St_<from>_<to>,
# with the explored (states, transitions) and the minimized ones.
LATTICE_POOL = (
    (("St_5_4", "St_6_5", ("St_2_6", "St_15_14")), (19362, 45470), (13167, 34871)),
    (("St_12_8", "St_5_1", ("St_15_11", "St_7_6")), (20222, 47515), (13647, 36141)),
    (("St_9_13", "St_11_15", ("St_9_8", "St_10_14")), (20232, 47213), (14024, 36783)),
    (("St_1_0", "St_5_6", ("St_3_2", "St_6_5")), (19362, 45470), (13167, 34871)),
)

PROPERTIES = ("consistent-moves", "deadlock", "inevitable-termination")


@dataclass(frozen=True)
class Op:
    """One CLI command. Paths in argv are relative to the work directory.

    expect holds the reference answer: exit code, and depending on the
    command the LTS sizes, the verdict, or the witness length, terminal and
    the scenario it must replay against. outputs lists the files whose bytes
    must not change between passes.
    """
    id: str
    kind: str
    argv: Tuple[str, ...]
    expect: Dict = field(default_factory=dict)
    outputs: Tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {"id": self.id, "kind": self.kind, "argv": list(self.argv),
                "expect": self.expect, "outputs": list(self.outputs)}

    @staticmethod
    def from_json(d) -> "Op":
        return Op(d["id"], d["kind"], tuple(d["argv"]), d["expect"], tuple(d["outputs"]))


@dataclass(frozen=True)
class Workload:
    name: str
    files: Dict[str, bytes]
    ops: Tuple[Op, ...]


def _read_config(name: str) -> bytes:
    with open(os.path.join(CONFIGS, name), "rb") as fh:
        return fh.read()


def _dump(data) -> bytes:
    return (json.dumps(data, indent=1, sort_keys=True) + "\n").encode("ascii")


def _manifest_terminal(scenario: str, purpose: str) -> Tuple[str, Optional[str]]:
    for entry in json.loads(_read_config("manifest.json")):
        if (entry["scenario"], entry["purpose"]) == (scenario, purpose) \
                and not entry.get("expose_grid", False):
            return entry["outcome"], entry.get("terminal")
    raise KeyError(f"{scenario} with {purpose} is not in the manifest")


def grid_variant(seed: int) -> dict:
    """grid.json under a seeded mirror and renaming of its mobile obstacles."""
    rng = random.Random(f"grid-variant:{seed}")
    data = json.loads(_read_config("grid.json"))
    if rng.random() < 0.5:
        width = data["width"]
        swap = {"left": "right", "right": "left"}
        for ob in data["static"] + data["mobile"]:
            ob["x"] = width - ob["x"] - ob.get("w", 1)
        car = data["car"]
        car["x"] = width - 1 - car["x"]
        for mover in data["mobile"] + [car]:
            mover["moves"] = [swap.get(m, m) for m in mover["moves"]]
    car_ob, walker = data["mobile"]
    car_ob["kind"] = rng.choice(CAR_NAMES)
    walker["kind"] = rng.choice(WALKER_NAMES)
    return data


def street_lattice(seed: int) -> Tuple[dict, Tuple[int, int], Tuple[int, int]]:
    """A pool lattice with seeded vertex and street names, and its sizes."""
    rng = random.Random(f"street-lattice:{seed}")
    (car, dest, obstacles), size, small = LATTICE_POOL[rng.randrange(len(LATTICE_POOL))]
    n = LATTICE_N
    vid = list(range(n * n))
    rng.shuffle(vid)
    stem = rng.choice(STREET_STEMS)
    names = {}
    edges = []
    for r in range(n):
        for c in range(n):
            for dr, dc in ((0, 1), (1, 0), (0, -1), (-1, 0)):
                r2, c2 = r + dr, c + dc
                if 0 <= r2 < n and 0 <= c2 < n:
                    a, b = r * n + c, r2 * n + c2
                    name = f"{stem}_{vid[a]}_{vid[b]}"
                    names[f"St_{a}_{b}"] = name
                    edges.append([vid[a], name, vid[b]])
    data = {
        "vertices": sorted(vid),
        "edges": edges,
        "car": {"position": names[car], "destination": names[dest]},
        "obstacles": [{"position": names[s], "moves": ["random"]} for s in obstacles],
    }
    return data, size, small


def _testgen(op_id, scenario, purpose, manifest_scenario):
    """The testgen op and, for a witness, the render op that draws it."""
    outcome, terminal = _manifest_terminal(manifest_scenario, purpose)
    sim = op_id.split(":", 1)[1].replace(":", "-") + ".sim.json"
    argv = ("testgen", "--scenario", scenario, "--purpose", purpose, "--out", sim)
    if outcome == "inconclusive":
        return [Op(op_id, "testgen", argv, {"exit": 1})]
    expect = {"exit": 0, "witness_len": WITNESS_LEN[purpose], "terminal": terminal,
              "sim": sim, "scenario": scenario}
    render = Op(op_id.replace("testgen", "render"), "render",
                ("render", "--scenario", scenario, "--sim", sim),
                {"exit": 0, "sim": sim})
    return [Op(op_id, "testgen", argv, expect, (sim,)), render]


def _pipeline(tag, scenario, size, small, properties, expose=False):
    aut, min_aut = f"{tag}.aut", f"{tag}.min.aut"
    argv = ("explore", "--scenario", scenario, "--out", aut)
    ops = [
        Op(f"explore:{tag}", "explore", argv + (("--expose-grid",) if expose else ()),
           {"exit": 0, "states": list(size), "aut": aut}, (aut,)),
        Op(f"minimize:{tag}", "minimize", ("minimize", aut, min_aut),
           {"exit": 0, "states": list(size), "min": list(small), "aut": min_aut},
           (min_aut,)),
    ]
    for prop in properties:
        ops.append(Op(f"check:{tag}:{prop}", "check",
                      ("check", "--lts", aut, "--property", prop, "--scenario", scenario),
                      {"exit": 0, "verdict": "pass", "property": prop}))
    return ops


def make_workload(name: str, seed: int) -> Workload:
    if name == "grid-witness":
        files = {"grid.json": _read_config("grid.json"),
                 "variant.json": _dump(grid_variant(seed))}
        ops = []
        for op_id, scenario, purpose in (
                ("testgen:grid:pedestrian", "grid.json", "purpose_collision_pedestrian.json"),
                ("testgen:grid:swerve", "grid.json", "purpose_random_swerve.json"),
                ("testgen:variant:any", "variant.json", "purpose_collision_any.json")):
            files[purpose] = _read_config(purpose)
            ops += _testgen(op_id, scenario, purpose, "grid.json")
    elif name == "grid-exhaustive":
        purpose = "purpose_collision_building.json"
        files = {"grid.json": _read_config("grid.json"),
                 "variant.json": _dump(grid_variant(seed)),
                 purpose: _read_config(purpose)}
        ops = _testgen("testgen:variant:building", "variant.json", purpose, "grid.json")
        ops += _pipeline("grid", "grid.json", GRID_SIZE, GRID_EXPOSED_MIN,
                         ("deadlock", "inevitable-termination"), expose=True)
    elif name == "city-verify":
        lattice, size, small = street_lattice(seed)
        files = {"crossroad.json": _read_config("crossroad.json"),
                 "lattice.json": _dump(lattice)}
        ops = _pipeline("crossroad", "crossroad.json", CROSSROAD_SIZE, CROSSROAD_MIN, PROPERTIES)
        ops += _pipeline("lattice", "lattice.json", size, small, PROPERTIES)
    else:
        raise KeyError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")
    return Workload(name, files, tuple(ops))
