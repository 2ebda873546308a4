"""Purpose parsing, the purpose product, trace folding and scenario replay."""
import json

import pytest

from avmodels.cli import main
from avmodels.grid_model import build_grid_composition
from avmodels.kernel import Action
from avmodels.perception import obstacle_value, position_value
from avmodels.scenarios import scenario_from_json
from avmodels.testgen import (
    ActionPattern, FoldError, ObstacleMove, PurposeError, ReplayError,
    SimScenario, SimTick, TestPurpose, extract_test, parse_purpose,
    product_with_purpose, replay, trace_to_scenario,
)
from avmodels.values import Sym

from oracles import lts_from_triples, outgoing


@pytest.fixture(scope="module")
def reference(grid_reference):
    return grid_reference.scn, grid_reference.lts


def simple(gate):
    return Action(gate)


# ---------------------------------------------------------------------------
# patterns and purpose parsing

def test_pattern_matching():
    act = Action("COLLISION", (Sym("Pedestrian"),))
    assert ActionPattern("COLLISION").matches(act)
    assert ActionPattern("COLLISION", (Sym("Pedestrian"),)).matches(act)
    assert ActionPattern("COLLISION", ("*",)).matches(act)
    assert not ActionPattern("COLLISION", (Sym("Other_Car"),)).matches(act)
    assert not ActionPattern("COLLISION", ()).matches(act)      # arity
    assert not ActionPattern("ARRIVAL").matches(act)


def test_parse_purpose_happy_path():
    purpose = parse_purpose([
        {"gate": "CAR_POSITION"},
        {"gate": "COLLISION", "offers": ["Pedestrian"]},
        {"gate": "OBSTACLE_POSITION", "offers": ["*", "*", "down"]},
    ])
    assert purpose.patterns[0] == ActionPattern("CAR_POSITION")
    assert purpose.patterns[1] == ActionPattern("COLLISION", (Sym("Pedestrian"),))
    assert purpose.patterns[2].offers == ("*", "*", Sym("down"))


def test_parse_purpose_rejects_garbage():
    for bad in (
        {"gate": "X"},                       # not a list
        [],                                  # empty
        [{"offers": []}],                    # no gate
        [{"gate": 3}],
        [{"gate": ""}],
        [{"gate": "X", "offers": "nope"}],
        [{"gate": "X", "offers": [7]}],
        [{"gate": "X", "offers": ["!!"]}],   # unparseable value text
    ):
        with pytest.raises(PurposeError):
            parse_purpose(bad)


def test_empty_purpose_is_rejected():
    with pytest.raises(PurposeError):
        TestPurpose(())


# ---------------------------------------------------------------------------
# purpose product and witness extraction

def test_product_cursor_and_witness():
    lts = lts_from_triples(3, 0, (
        (0, simple("a"), 1), (1, simple("b"), 2), (2, simple("c"), 0),
    ))
    product, warnings = product_with_purpose(
        lts, TestPurpose((ActionPattern("b"),)))
    assert warnings == []
    witness = extract_test(product)
    assert witness == (simple("a"), simple("b"))


def test_product_warns_on_gates_missing_from_the_model():
    lts = lts_from_triples(2, 0, ((0, simple("a"), 1),))
    product, warnings = product_with_purpose(
        lts, TestPurpose((ActionPattern("zzz"),)))
    assert warnings == ["purpose step 0: gate zzz never occurs in the model"]
    assert extract_test(product) is None


def test_product_stops_at_the_first_accepting_state():
    lts = lts_from_triples(5, 0, (
        (0, simple("a"), 1), (1, simple("b"), 2), (1, simple("c"), 3),
        (2, simple("a"), 4),
    ))
    product, warnings = product_with_purpose(lts, TestPurpose((ActionPattern("b"),)))
    assert warnings == []
    # c and everything behind the accepting state stay unexplored
    assert product.state_payload == ((0, 1), (1, 1), (2, 0))  # (state, patterns left)
    assert outgoing(product)[-1] == []
    assert extract_test(product) == (simple("a"), simple("b"))


def test_a_grid_product_node_is_the_local_ids_then_the_patterns_left(reference):
    # over the composition each node is one flat tuple; over its explored
    # Lts a node stays (state, patterns left), and both products agree
    scn, lts = reference
    comp = build_grid_composition(scn)
    purpose = parse_purpose([{"gate": "COLLISION", "offers": ["Pedestrian"]}])
    product, _ = product_with_purpose(comp, purpose)
    assert product.num_states == 1_139
    assert all(type(node) is tuple and len(node) == len(comp.components) + 1
               and node[-1] in (0, 1) for node in product.state_payload)
    assert product.state_payload[-1][-1] == 0
    assert len(comp.local_states(product.state_payload[-1][:-1])) == len(comp.components)
    over_lts, _ = product_with_purpose(lts, purpose)
    assert all(type(s) is int for s, _ in over_lts.state_payload)
    assert ([left for _, left in over_lts.state_payload]
            == [node[-1] for node in product.state_payload])
    assert extract_test(over_lts) == extract_test(product)


def test_extract_test_needs_a_product():
    with pytest.raises(PurposeError):
        extract_test(lts_from_triples(1, 0, ()))


def test_ordered_patterns_must_match_in_order():
    lts = lts_from_triples(4, 0, (
        (0, simple("b"), 1), (1, simple("a"), 2), (2, simple("b"), 3),
    ))
    product, _ = product_with_purpose(
        lts, TestPurpose((ActionPattern("a"), ActionPattern("b"))))
    # the first b is skipped: the cursor needs a before it counts a b
    assert extract_test(product) == (simple("b"), simple("a"), simple("b"))


# ---------------------------------------------------------------------------
# trace folding

def ob_move(kind, src, dst, direction, resolved=None, transparent=False):
    new = obstacle_value(kind, dst, 1, 1, 1, direction, transparent)
    prev = obstacle_value(kind, src, 1, 1, 1, "none", transparent)
    return Action("OBSTACLE_POSITION",
                  (new, prev, Sym(resolved or direction)))


def car_move(src, dst):
    return Action("CAR_POSITION", (position_value(src), position_value(dst)))


def announce(kind):
    return Action("GRID_UPDATE", (Sym(kind),))


def end_of(kind):
    return Action("END_OBSTACLE", (Sym(kind),))


def test_fold_one_round():
    sim = trace_to_scenario((
        announce("W"), ob_move("W", (0, 0), (1, 0), "right"),
        car_move((4, 4), (4, 3)),
        Action("GRID_CAR", (position_value((4, 3)),)),
        Action("LIDAR_MAP"), Action("TICK"),
    ))
    assert sim == SimScenario((
        SimTick((ObstacleMove("W", (0, 0), (1, 0), "right"),),
                ((4, 4), (4, 3))),
    ))
    assert sim.terminal is None


def test_fold_stops_at_collision_and_keeps_the_partial_tick():
    sim = trace_to_scenario((
        ob_move("W", (0, 0), (1, 0), "right"),
        car_move((1, 1), (1, 0)),
        Action("COLLISION", (Sym("W"),)),
        Action("TICK"),   # wind-down after the crash is not folded
    ))
    assert sim.terminal == "COLLISION"
    assert len(sim.ticks) == 1
    assert sim.ticks[0].car == ((1, 1), (1, 0))


def test_fold_ends_when_the_last_obstacle_ends():
    sim = trace_to_scenario((
        ob_move("W", (0, 0), (0, 1), "down"), car_move((4, 4), (4, 4)),
        Action("TICK"),
        end_of("W"),
    ))
    assert sim.terminal == "END"
    assert len(sim.ticks) == 1


def test_fold_rejects_protocol_violations():
    with pytest.raises(FoldError):
        trace_to_scenario((ob_move("W", (0, 0), (1, 0), "right"),
                           ob_move("W", (1, 0), (2, 0), "right")))
    with pytest.raises(FoldError):
        trace_to_scenario((car_move((4, 4), (4, 3)),
                           ob_move("W", (0, 0), (1, 0), "right")))
    with pytest.raises(FoldError):
        trace_to_scenario((car_move((4, 4), (4, 3)),
                           car_move((4, 3), (4, 2))))
    with pytest.raises(FoldError):
        trace_to_scenario((Action("REQUEST_PATH"),))
    for offers in ((Sym("W"),), (Sym("W"), Sym("W"), Sym("down"))):
        with pytest.raises(FoldError):
            trace_to_scenario((Action("OBSTACLE_POSITION", offers),))


# W has one move and V two, so W ends after the first round and V after the
# second; the car stays where it is
ROUNDS = scenario_from_json({
    "width": 6, "height": 6,
    "mobile": [{"kind": "W", "x": 0, "y": 0, "moves": ["right"]},
               {"kind": "V", "x": 0, "y": 5, "moves": ["right", "right"]}],
    "car": {"x": 5, "y": 2, "moves": ["none", "none", "none"]}})
W_1 = ob_move("W", (0, 0), (1, 0), "right")
V_1, V_2 = ob_move("V", (0, 5), (1, 5), "right"), ob_move("V", (1, 5), (2, 5), "right")
STAY = car_move((5, 2), (5, 2))


# the fold projects these traces without checking rounds across ticks;
# replay rejects the sim each one folds into, at the step the model cannot take
@pytest.mark.parametrize("trace, message", [
    ((W_1, V_1, STAY, Action("TICK"), end_of("W"), STAY, Action("TICK")),
     "tick 2: the car moves from (5, 2) to (5, 2)"),
    ((W_1, V_1, STAY, Action("TICK"), end_of("W"),
      ob_move("W", (1, 0), (2, 0), "right"), V_2, STAY, Action("TICK")),
     "tick 2: W moves from (1, 0) to (2, 0) right"),
    ((W_1, STAY, Action("TICK"), end_of("V")),
     "tick 1: the car moves from (5, 2) to (5, 2)"),
    ((W_1, V_1, STAY, Action("TICK"), end_of("W"), end_of("W"), end_of("V")),
     "tick 1: the last END_OBSTACLE"),
], ids=["tick-closed-before-every-live-obstacle-moved", "moved-while-ended",
        "ended-but-never-moved", "ended-twice"])
def test_replay_rejects_a_trace_that_breaks_the_rounds(trace, message):
    sim = trace_to_scenario(trace)
    with pytest.raises(ReplayError) as err:
        replay(ROUNDS, sim)
    assert str(err.value) == f"{message}: no run of the model makes this move"


def test_replay_takes_the_rounds_the_model_makes():
    sim = trace_to_scenario((W_1, V_1, STAY, Action("TICK"), end_of("W"), V_2, STAY,
                             Action("TICK"), end_of("V")))
    assert sim.terminal == "END"
    assert trace_to_scenario(replay(ROUNDS, sim)) == sim


WALKER = {"kind": "Walker", "x": 0, "y": 0, "moves": ["right"]}
PARKED = {"kind": "Parked", "x": 0, "y": 3, "moves": []}


@pytest.mark.parametrize("mobile", [[WALKER, PARKED], [PARKED, WALKER], [PARKED]],
                         ids=["walker-first", "parked-first", "parked-alone"])
def test_an_obstacle_without_moves_ends_in_the_first_round(tmp_path, capsys, mobile):
    # Parked ends before the first TICK, so it is no live obstacle and its
    # END is no terminal; the fold learns the live set at that TICK
    data = {"width": 6, "height": 6, "mobile": mobile,
            "car": {"x": 5, "y": 5, "moves": ["none", "none"]}}
    scenario, purpose = tmp_path / "scn.json", tmp_path / "purpose.json"
    scenario.write_text(json.dumps(data))
    purpose.write_text(json.dumps([{"gate": "TICK"}]))
    sim_path = tmp_path / "sim.json"
    assert main(["testgen", "--scenario", str(scenario), "--purpose", str(purpose),
                 "--out", str(sim_path)]) == 0
    assert capsys.readouterr().err == ""
    sim = SimScenario.from_json(json.loads(sim_path.read_text()))
    assert sim.terminal is None
    assert [[m.kind for m in t.obstacles] for t in sim.ticks] == [
        ["Walker"] if WALKER in mobile else []]
    assert trace_to_scenario(replay(scenario_from_json(data), sim)) == sim


def test_sim_scenario_json_round_trip():
    sim = SimScenario((
        SimTick((ObstacleMove("W", (0, 0), (1, 0), "right"),),
                ((4, 4), (4, 3))),
        SimTick((ObstacleMove("W", (1, 0), (1, 0), "none"),), None),
    ), terminal="COLLISION")
    assert SimScenario.from_json(sim.to_json()) == sim
    with pytest.raises(FoldError):
        SimScenario.from_json({"ticks": [], "terminal": "EXPLOSION"})
    with pytest.raises(FoldError):
        SimScenario.from_json({"nope": 1})


# ---------------------------------------------------------------------------
# end to end on the reference scenario: purpose -> witness -> fold -> replay

def run_purpose(reference, raw_purpose):
    scn, lts = reference
    product, warnings = product_with_purpose(lts, parse_purpose(raw_purpose))
    assert warnings == []
    witness = extract_test(product)
    assert witness is not None
    return scn, witness


def test_collision_with_the_pedestrian_is_reproducible(reference):
    scn, witness = run_purpose(
        reference, [{"gate": "COLLISION", "offers": ["Pedestrian"]}])
    assert witness[-1].text() == "COLLISION !Pedestrian"
    sim = trace_to_scenario(witness)
    assert sim.terminal == "COLLISION"
    taken = replay(scn, sim)
    assert taken[-1].gate == "COLLISION"
    # replaying reproduces exactly the folded behaviour
    assert trace_to_scenario(tuple(taken)) == sim


def test_arrival_witness_is_reproducible(reference):
    scn, witness = run_purpose(reference, [{"gate": "ARRIVAL"}])
    sim = trace_to_scenario(witness)
    assert sim.terminal == "ARRIVAL"
    # the car's whole script runs; the last tick is the partial round in
    # which the obstacles move once more before the arrival fires
    assert sum(1 for t in sim.ticks if t.car is not None) == 4
    taken = replay(scn, sim)
    assert trace_to_scenario(tuple(taken)) == sim


def test_wildcard_offers_select_random_moves(reference):
    scn, witness = run_purpose(
        reference,
        [{"gate": "OBSTACLE_POSITION", "offers": ["*", "*", "random"]}])
    hit = witness[-1]
    assert hit.gate == "OBSTACLE_POSITION"
    assert hit.offers[2] == Sym("random")
    sim = trace_to_scenario(witness)
    taken = replay(scn, sim)
    assert trace_to_scenario(tuple(taken)) == sim


def test_end_terminal_replay_waits_for_every_end():
    # scripted walkers in opposite corners, car parked far away: the runs
    # end by script exhaustion only, and the first END arrives as a bridge
    # while the replay is still matching the second walker's moves
    from avmodels.perception import CarSpec, GridScenario, ObstacleRec
    scn = GridScenario(6, 6, static=(),
                       mobile=(ObstacleRec("W1", 0, 0, speed=1,
                                           moves=("right",)),
                               ObstacleRec("W2", 0, 5, speed=1,
                                           moves=("right", "right", "right")),),
                       car=CarSpec(5, 0, moves=("none", "none", "none", "none")))
    product, warnings = product_with_purpose(
        build_grid_composition(scn),
        parse_purpose([{"gate": "END_OBSTACLE", "offers": ["W1"]},
                       {"gate": "END_OBSTACLE", "offers": ["W2"]}]))
    assert warnings == []
    witness = extract_test(product)
    sim = trace_to_scenario(witness)
    assert sim.terminal == "END"
    taken = replay(scn, sim)
    assert sum(1 for a in taken if a.gate == "END_OBSTACLE") == 2
    assert trace_to_scenario(tuple(taken)) == sim


def test_end_purpose_on_the_reference_rides_through_a_crash(reference):
    # with the car gone the rounds shrink, so the shortest trace reaching
    # both ENDs starts with a collision; folding stops at that terminal and
    # the replayed scenario is the crash, not the wind-down behind it
    scn, witness = run_purpose(
        reference,
        [{"gate": "END_OBSTACLE", "offers": ["Other_Car"]},
         {"gate": "END_OBSTACLE", "offers": ["Pedestrian"]}])
    sim = trace_to_scenario(witness)
    assert sim.terminal == "COLLISION"
    taken = replay(scn, sim)
    assert trace_to_scenario(tuple(taken)) == sim


def test_replay_reports_where_it_diverged(reference):
    scn, _ = reference
    impossible = SimScenario((
        SimTick((ObstacleMove("Other_Car", (6, 7), (0, 0), "left"),), None),
    ))
    with pytest.raises(ReplayError) as err:
        replay(scn, impossible)
    assert err.value.step == 0
    assert err.value.tick == 1
    assert "Other_Car" in str(err.value)


def test_replay_matches_the_source_cell_of_a_move(reference):
    # both moves are the model's first round but for Other_Car's source cell
    scn, _ = reference
    pedestrian = ObstacleMove("Pedestrian", (3, 5), (4, 5), "right")
    moved = SimScenario((SimTick((ObstacleMove("Other_Car", (6, 7), (6, 6), "up"),
                                  pedestrian)),))
    assert trace_to_scenario(replay(scn, moved)) == moved
    wrong_from = SimScenario((SimTick((ObstacleMove("Other_Car", (0, 0), (6, 6), "up"),
                                       pedestrian)),))
    with pytest.raises(ReplayError) as err:
        replay(scn, wrong_from)
    assert (err.value.step, err.value.tick) == (0, 1)
    assert str(err.value) == ("tick 1: Other_Car moves from (0, 0) to (6, 6) up: "
                              "no run of the model makes this move")


def test_replay_error_counts_the_steps_every_run_matched(reference):
    # the pedestrian witness with its last car move redirected: every step
    # before that move replays, so the error names that step and that move
    scn, witness = run_purpose(
        reference, [{"gate": "COLLISION", "offers": ["Pedestrian"]}])
    sim = trace_to_scenario(witness)
    *ticks, last = sim.ticks
    bad = SimScenario(tuple(ticks) + (SimTick(last.obstacles, (last.car[0], (0, 0))),))
    with pytest.raises(ReplayError) as err:
        replay(scn, bad)
    steps_before = sum(len(t.obstacles) + (t.car is not None) + 1 for t in ticks)
    assert err.value.step == steps_before + len(last.obstacles)
    assert err.value.tick == len(sim.ticks)
    assert str(err.value) == (f"tick {len(sim.ticks)}: the car moves from {last.car[0]} "
                              "to (0, 0): no run of the model makes this move")


def test_unreachable_purpose_is_inconclusive(reference):
    scn, lts = reference
    # the car never drives into the north-west building
    product, warnings = product_with_purpose(
        lts, parse_purpose([{"gate": "COLLISION", "offers": ["Building_NW"]}]))
    assert warnings == []
    assert extract_test(product) is None
