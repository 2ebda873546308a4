"""End-to-end acceptance checks, one test per criterion.

Each test wraps its body in conftest.criterion(...), which prints a one-line
pass/FAIL summary (with wall time) after the run. Time budgets and size
windows are asserted inside the blocks, so blowing one fails its criterion.
"""
import io
import json
import pathlib
import random
import time
from dataclasses import dataclass
from typing import Optional, Tuple

from avmodels.aut import export_aut, import_aut
from avmodels.control_model import build_control_composition, consistent_move
from avmodels.grid_model import build_grid_composition
from avmodels.kernel import explore
from avmodels.minimize import minimize, partition
from avmodels.perception import build_grid_map, compute_perception
from avmodels.properties import (
    check_consistent_updates, check_inevitable_termination,
    product_with_monitor,
)
from avmodels.scenarios import load_scenario, scenario_from_json
from avmodels.testgen import (
    extract_test, parse_purpose, product_with_purpose, replay,
    trace_to_scenario,
)
from avmodels.values import Sym

from conftest import criterion
from oracles import (
    bisimilar_by_game, brute_force_edges, lts_edge_set, naive_bisimulation,
    oracle_perception, partition_to_relation, random_composition, random_lts,
    trace_exists,
)
from test_control_model import CITY, city_scenario
from test_grid_model import round_monitor

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def test_criterion_1_rendezvous_semantics_match_brute_force():
    with criterion("criterion 1  rendezvous semantics vs brute force, 200 compositions"):
        t0 = time.monotonic()
        rng = random.Random(2024)
        for _ in range(200):
            comp = random_composition(rng)  # <=3 components, <=4 local states
            assert lts_edge_set(explore(comp), comp) == brute_force_edges(comp)
        assert time.monotonic() - t0 < 10.0


def test_criterion_2_minimization_vs_fixpoint_and_game_oracles():
    with criterion("criterion 2  minimization vs fixpoint and game oracles"):
        t0 = time.monotonic()
        rng = random.Random(4096)
        for _ in range(100):
            lts = random_lts(rng, max_states=200)
            assert partition_to_relation(partition(lts)) == naive_bisimulation(lts)
            once = minimize(lts)
            twice = minimize(once)
            assert twice.num_states == once.num_states
            assert sorted((s, a.text(), d) for s, a, d in twice.transitions) == \
                   sorted((s, a.text(), d) for s, a, d in once.transitions)
        rng = random.Random(31)
        for _ in range(20):
            lts = random_lts(rng, max_states=500)
            assert bisimilar_by_game(lts, minimize(lts))
        assert time.monotonic() - t0 < 30.0


def test_criterion_3_street_graph_crossroad_model():
    with criterion("criterion 3  street-graph crossroad: size, properties, reduction"):
        t0 = time.monotonic()
        scn = load_scenario(CONFIGS / "crossroad.json")
        lts = explore(build_control_composition(scn))
        assert 1_000 <= lts.num_states <= 1_000_000
        assert check_consistent_updates(lts, scn.gmap).passed
        assert check_inevitable_termination(
            lts, end_obstacle_total=len(scn.obstacles)).passed
        small = minimize(lts)
        assert small.num_states < lts.num_states
        assert time.monotonic() - t0 < 60.0


def test_criterion_4_grid_crossroad_round_structure(grid_reference):
    with criterion("criterion 4  grid crossroad: size, round structure, reduction"):
        t0 = time.monotonic()
        scn, lts = grid_reference.scn, grid_reference.lts
        assert 1_000 <= lts.num_states <= 1_000_000
        # the round protocol holds on every reachable trace
        assert product_with_monitor(lts, round_monitor(scn)) is None
        small = minimize(lts)
        assert small.num_states <= lts.num_states
        assert len(small.transitions) <= len(lts.transitions)
        # the budget still covers exploring, done once by the shared fixture
        assert time.monotonic() - t0 + grid_reference.explore_s < 60.0


# --------------------------------------------------------------------------
# criterion 5: hand-built lidar scenes against the exact-geometry oracle


@dataclass(frozen=True)
class Scene:
    name: str
    placed: tuple  # (kind, transparent, anchor, w, h)
    car: Tuple[int, int]
    spots: dict  # (dx, dy) -> expected code
    placed2: Optional[tuple] = None  # optional second tick
    car2: Optional[Tuple[int, int]] = None
    spots2: Optional[dict] = None
    size: Tuple[int, int] = (9, 9)


SCENES = (
    Scene("open field", (), (4, 4),
          {(0, 0): "C", (2, 2): "F", (-2, -2): "F"}),
    Scene("map corner", (), (0, 0),
          {(-1, 0): "U", (0, -2): "U", (1, 1): "F"}),
    Scene("east border", (), (8, 4),
          {(1, 0): "U", (2, 0): "U", (-1, 0): "F"}),
    Scene("wall shadow", (("Wall", False, (4, 3), 1, 1),), (4, 4),
          {(0, -1): "O", (0, -2): "U"}),
    Scene("glass see-through", (("Bush", True, (4, 3), 1, 1),), (4, 4),
          {(0, -1): "T", (0, -2): "F"}),
    Scene("corner graze", (("Wall", False, (4, 3), 1, 1),), (4, 4),
          # diagonals cross the wall's corner, the flatter ray does not
          {(-1, -1): "U", (1, -1): "U", (-2, -1): "F"}),
    Scene("wide building", (("Wall", False, (3, 4), 3, 1),), (4, 5),
          # only the cell straight above is clear; the diagonal rays to the
          # wall's other cells graze a corner shared with an opaque cell
          {(0, -1): "O", (-1, -1): "U", (1, -1): "U",
           (-2, -2): "U", (-1, -2): "U", (0, -2): "U",
           (1, -2): "U", (2, -2): "U"}),
    Scene("opaque newcomer is M", (("Dog", False, (3, 3), 1, 1),), (4, 4),
          {(-1, -1): "O", (-1, 0): "F"},
          placed2=(("Dog", False, (3, 4), 1, 1),),
          # the newcomer also hides its own old cell from the diagonal ray
          spots2={(-1, 0): "M", (-1, -1): "U"}),
    Scene("transparent newcomer is N", (("Cat", True, (3, 3), 1, 1),), (4, 4),
          {(-1, -1): "T"},
          placed2=(("Cat", True, (3, 4), 1, 1),),
          spots2={(-1, 0): "N", (-1, -1): "F"}),
    Scene("lingering occupant stays O", (("Dog", False, (3, 4), 1, 1),), (4, 4),
          {(-1, 0): "O"},
          placed2=(("Dog", False, (3, 4), 1, 1),),
          spots2={(-1, 0): "O"}),
    Scene("outside the last window is not fresh",
          (("Dog", False, (7, 4), 1, 1),), (4, 4),
          {(2, 0): "F"},
          placed2=(("Dog", False, (7, 4), 1, 1),), car2=(5, 4),
          spots2={(2, 0): "O"}),
    Scene("unveiled occupant is O, not M",
          (("Wall", False, (3, 3), 1, 1), ("Dog", False, (2, 2), 1, 1)), (4, 4),
          {(-2, -2): "U"},
          placed2=(("Wall", False, (3, 3), 1, 1), ("Dog", False, (2, 2), 1, 1)),
          car2=(2, 4),
          spots2={(0, -2): "O"}),
    Scene("opaque behind glass",
          (("Bush", True, (4, 3), 1, 1), ("Dog", False, (4, 2), 1, 1)), (4, 4),
          {(0, -1): "T", (0, -2): "O"}),
    Scene("two-by-two block", (("Wall", False, (5, 5), 2, 2),), (4, 4),
          {(1, 1): "O", (2, 2): "U", (2, 1): "U"}),
)


def test_criterion_5_lidar_scenes_vs_exact_geometry_oracle():
    with criterion(f"criterion 5  {len(SCENES)} lidar scenes vs exact-geometry oracle"):
        assert len(SCENES) >= 12
        for scene in SCENES:
            w, h = scene.size
            m1 = build_grid_map(w, h, scene.placed, scene.car)
            got1 = compute_perception(m1)
            want1 = oracle_perception(m1)
            assert got1 == want1, scene.name
            for (dx, dy), code in scene.spots.items():
                assert got1[dy + 2][dx + 2] == code, (scene.name, dx, dy)
            if scene.placed2 is None:
                continue
            car2 = scene.car2 or scene.car
            m2 = build_grid_map(w, h, scene.placed2, car2)
            got2 = compute_perception(m2, got1, scene.car)
            want2 = oracle_perception(m2, want1, scene.car)
            assert got2 == want2, scene.name
            for (dx, dy), code in (scene.spots2 or {}).items():
                assert got2[dy + 2][dx + 2] == code, (scene.name, dx, dy)


# --------------------------------------------------------------------------
# criterion 6: the scenario corpus runs to its documented outcomes


def test_criterion_6_scenario_corpus_outcomes(grid_reference, grid_reference_exposed):
    with criterion("criterion 6  scenario corpus runs to its documented outcomes"):
        t0 = time.monotonic()
        manifest = json.loads((CONFIGS / "manifest.json").read_text())
        assert len(manifest) == 10
        witnesses = json.loads((GOLDEN / "witnesses.json").read_text())
        cache = {("grid.json", False): grid_reference.lts,
                 ("grid.json", True): grid_reference_exposed.lts}
        for entry in manifest:
            scn = load_scenario(CONFIGS / entry["scenario"])
            expose = bool(entry.get("expose_grid"))
            key = (entry["scenario"], expose)
            if key not in cache:
                cache[key] = explore(build_grid_composition(scn, expose_grid=expose))
            purpose = parse_purpose(
                json.loads((CONFIGS / entry["purpose"]).read_text()))
            prod, warnings = product_with_purpose(
                build_grid_composition(scn, expose_grid=expose), purpose)
            assert not warnings, entry["name"]
            trace = extract_test(prod)
            # on the fly finds what the search over the whole explored LTS
            # finds, and visits no more states than that LTS has
            explored, explored_warnings = product_with_purpose(cache[key], purpose)
            assert not explored_warnings, entry["name"]
            assert extract_test(explored) == trace, entry["name"]
            assert prod.num_states <= cache[key].num_states, entry["name"]
            want = witnesses[entry["name"]]  # the labels the goldens pin
            assert (None if trace is None else [a.text() for a in trace]) == want, entry["name"]
            if entry["outcome"] == "inconclusive":
                assert trace is None, entry["name"]
                continue
            assert trace is not None, entry["name"]
            # the witness really ends in the purposed action
            assert purpose.patterns[-1].matches(trace[-1]), entry["name"]
            sim = trace_to_scenario(trace)
            assert sim.terminal == entry.get("terminal"), entry["name"]
            taken = tuple(replay(scn, sim))
            assert trace_to_scenario(taken) == sim, entry["name"]
            if not expose:  # the replay runs the model without the grid offers
                assert taken == trace, entry["name"]
            if entry["purpose"] == "purpose_collision_pedestrian.json":
                assert prod.num_states <= 2_000  # of the model's 22,983
                assert trace[-1].gate == "COLLISION"
                assert trace[-1].offers == (Sym("Pedestrian"),)
                assert taken[-1].gate == "COLLISION"
        assert (time.monotonic() - t0 + grid_reference.explore_s
                + grid_reference_exposed.explore_s < 120.0)


# --------------------------------------------------------------------------
# criterion 7: aut round-trips, and the golden files are bit-stable


def _roundtrip(lts):
    buf = io.BytesIO()
    export_aut(lts, buf)
    back = import_aut(io.BytesIO(buf.getvalue()))
    assert back.num_states == lts.num_states
    assert back.initial == lts.initial
    assert sorted((s, a.text(), d) for s, a, d in back.transitions) == \
           sorted((s, a.text(), d) for s, a, d in lts.transitions)


def _golden_lts(name: str):
    data = json.loads((GOLDEN / f"{name}.json").read_text())
    scn = scenario_from_json(data)
    if name.startswith("control"):
        return explore(build_control_composition(scn))
    return explore(build_grid_composition(scn))


def test_criterion_7_aut_roundtrip_and_goldens():
    with criterion("criterion 7  aut round-trip and byte-stable goldens"):
        rng = random.Random(777)
        for _ in range(30):
            lts = random_lts(rng, max_states=200)
            _roundtrip(lts)
            _roundtrip(minimize(lts))
        for name in ("control_tiny", "grid_tiny", "grid_random_car"):
            lts = _golden_lts(name)
            _roundtrip(lts)
            want = (GOLDEN / f"{name}.aut").read_bytes()
            for _ in range(2):  # regenerating must reproduce the bytes exactly
                buf = io.BytesIO()
                export_aut(lts, buf)
                assert buf.getvalue() == want, name
                lts = _golden_lts(name)


# --------------------------------------------------------------------------
# criterion 8: a corrupted consistency relation is caught and replayable


def test_criterion_8_corrupted_consistency_relation_is_caught():
    with criterion("criterion 8  corrupted consistency relation is caught"):
        comp = build_control_composition(city_scenario())
        lts = explore(comp)

        def corrupted(gmap, street, control, target):
            # claims no move may ever land on Corporation_Street
            return consistent_move(gmap, street, control, target) \
                and target != "Corporation_Street"

        assert check_consistent_updates(lts, CITY).passed
        verdict = check_consistent_updates(lts, CITY, corrupted)
        assert verdict.kind == "fail"
        assert verdict.trace
        assert trace_exists(lts, verdict.trace)
        assert verdict.trace[-1].gate == "UPDATE_POSITION"
        assert verdict.trace[-1].offers == (Sym("Corporation_Street"),)
        # checked on the fly, the composition gives the same counterexample
        assert check_consistent_updates(comp, CITY, corrupted) == verdict
