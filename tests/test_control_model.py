import pytest

from avmodels.control_model import (
    BRAKES, LEAVE, RANDOM, ControlScenario, GraphMap, Itinerary, MapError,
    ObstacleScript, Turn, build_control_composition, compute_itinerary,
    consistent_move, decode_grid, expand_random, grid_value, itinerary_value,
    successors,
)
from avmodels.kernel import ExplorationLimits, explore
from avmodels.properties import (
    check_consistent_updates, check_deadlock_freedom,
    check_inevitable_termination,
)
from avmodels.values import Nat, Rec, Seq, Sym, ValueError_, text

from oracles import outgoing

# the nine-crossroad city used throughout: 11 two-way streets, each
# direction its own edge, declared clockwise from the northwest corner
CITY_EDGES = (
    (0, "Coronation_Street", 1), (0, "Corporation_Street", 3),
    (1, "Coronation_Street_bis", 0), (1, "Deansgate", 2), (1, "Market_Street", 4),
    (2, "Deansgate_bis", 1), (2, "Oxford_Road", 5),
    (3, "Corporation_Street_bis", 0), (3, "Peter_Street", 4), (3, "King_Street", 6),
    (4, "Market_Street_bis", 1), (4, "Peter_Street_bis", 3), (4, "Quay_Street", 5),
    (5, "Oxford_Road_bis", 2), (5, "Quay_Street_bis", 4), (5, "Cross_Street", 8),
    (6, "King_Street_bis", 3), (6, "John_Dalton_Street", 7),
    (7, "John_Dalton_Street_bis", 6), (7, "Albert_Square", 8),
    (8, "Albert_Square_bis", 7), (8, "Cross_Street_bis", 5),
)
CITY = GraphMap(tuple(range(9)), CITY_EDGES)


def city_scenario(obstacles=()):
    return ControlScenario(CITY, "Coronation_Street", "Albert_Square",
                           tuple(obstacles))


def test_successors_follow_declaration_order():
    assert successors(CITY, "Coronation_Street") == (
        "Coronation_Street_bis", "Deansgate", "Market_Street")
    assert successors(CITY, "Albert_Square") == (
        "Albert_Square_bis", "Cross_Street_bis")
    with pytest.raises(MapError):
        successors(CITY, "Sesame_Street")


def test_graph_map_validation():
    with pytest.raises(MapError):
        GraphMap((0, 0), ())
    with pytest.raises(MapError):
        GraphMap((0, 1), ((0, "A", 2),))
    with pytest.raises(MapError):
        GraphMap((0, 1), ((0, "A", 1), (1, "A", 0)))


@pytest.mark.parametrize("name", ["Main Street", "true"])
def test_street_names_must_be_symbol_names(name):
    # labels carry streets as symbols, so a street that no label could name
    # is rejected with the map, not when the car first reaches it
    with pytest.raises(MapError, match=f"street name '{name}' is not a symbol name"):
        GraphMap((0, 1), ((0, "A", 1), (1, name, 1)))


def test_itinerary_shortest_and_deterministic():
    it = compute_itinerary(CITY, "Coronation_Street", "Albert_Square")
    assert it.reachable and len(it.controls) == 5
    # first-visit-wins: the route through the lowest successor indices
    assert it.controls == (Turn(0), Turn(1), Turn(2), Turn(1), Turn(1))
    assert compute_itinerary(CITY, "Albert_Square", "Albert_Square") == \
        Itinerary((), True)


def test_itinerary_avoids_blocked_streets():
    direct = compute_itinerary(CITY, "Coronation_Street", "Albert_Square")
    blocked = frozenset({"Coronation_Street_bis"})
    detour = compute_itinerary(CITY, "Coronation_Street", "Albert_Square",
                               blocked)
    assert detour.reachable
    assert detour.controls != direct.controls
    assert detour.controls[0] != Turn(0)
    unreachable = compute_itinerary(CITY, "Coronation_Street", "Albert_Square",
                                    frozenset({"Albert_Square"}))
    assert unreachable == Itinerary((), False)


def test_consistent_move_and_expand_random():
    assert consistent_move(CITY, "Coronation_Street", BRAKES,
                           "Coronation_Street")
    assert consistent_move(CITY, "Coronation_Street", Turn(1), "Deansgate")
    assert not consistent_move(CITY, "Coronation_Street", Turn(1),
                               "Market_Street")
    assert not consistent_move(CITY, "Coronation_Street", Turn(7), "Deansgate")
    assert expand_random(CITY, "Albert_Square") == (Turn(0), Turn(1), LEAVE)


def test_scenario_validation():
    with pytest.raises(MapError):
        ControlScenario(CITY, "Nope_Street", "Albert_Square")
    with pytest.raises(MapError):
        city_scenario([ObstacleScript("Coronation_Street", ())])  # on the car
    with pytest.raises(MapError):
        city_scenario([ObstacleScript("Deansgate", (BRAKES,))])   # bad op


def test_zero_obstacle_run_arrives_and_terminates():
    lts = explore(build_control_composition(city_scenario()))
    assert "ARRIVAL" in lts.alphabet()
    assert "COLLISION" not in lts.alphabet()
    assert check_consistent_updates(lts, CITY).passed
    assert check_inevitable_termination(lts, end_obstacle_total=0).passed
    assert check_deadlock_freedom(lts, end_obstacle_total=0).passed
    # exactly one maximal run modulo nothing: the composition is a pipeline
    # of request/answer steps, so the trace to arrival is unique
    labels = [a.gate for _, a, _ in lts.transitions]
    assert labels.count("ARRIVAL") == 1


def test_blocked_destination_without_escape_deadlocks():
    # the obstacle squats on the destination and its scripted turn can
    # never fire, so the car waits for a path forever
    scn = city_scenario([ObstacleScript("Albert_Square", (Turn(7),))])
    lts = explore(build_control_composition(scn))
    verdict = check_deadlock_freedom(lts, end_obstacle_total=1)
    assert verdict.kind == "fail"
    assert any(a.gate == "CURRENT_PATH" and text(a.offers[0]) == "[]"
               for a in verdict.trace)
    term = check_inevitable_termination(lts, end_obstacle_total=1)
    assert not term.passed


def test_obstacle_turning_into_the_cars_path_can_collide():
    scn = city_scenario([ObstacleScript("Corporation_Street_bis", (Turn(1),))])
    lts = explore(build_control_composition(scn))
    assert "COLLISION" in lts.alphabet()
    # collisions end the run: no action ever follows one
    out = outgoing(lts)
    for src, act, dst in lts.transitions:
        if act.gate == "COLLISION":
            assert out[dst] == []
    # the car also still has runs that arrive
    assert "ARRIVAL" in lts.alphabet()
    assert check_consistent_updates(lts, CITY).passed
    assert check_deadlock_freedom(lts, end_obstacle_total=1).passed


def test_moving_obstacles_still_terminate():
    scn = city_scenario([ObstacleScript("Peter_Street", (RANDOM,)),
                         ObstacleScript("Quay_Street", (RANDOM,))])
    lts = explore(build_control_composition(scn),
                  ExplorationLimits(max_states=200_000))
    assert check_inevitable_termination(lts, end_obstacle_total=2).passed
    assert check_deadlock_freedom(lts, end_obstacle_total=2).passed
    assert check_consistent_updates(lts, CITY).passed


def test_exploration_is_reproducible():
    scn = city_scenario([ObstacleScript("Peter_Street", (Turn(0), LEAVE))])
    a = explore(build_control_composition(scn))
    b = explore(build_control_composition(scn))
    assert a.num_states == b.num_states
    assert [(s, x.text(), d) for s, x, d in a.transitions] == \
           [(s, x.text(), d) for s, x, d in b.transitions]


def test_itinerary_value_encoding():
    it = Itinerary((Turn(2), Turn(0)), True)
    assert text(itinerary_value(it)) == "[turned_n(2),turned_n(0)]"
    assert text(itinerary_value(Itinerary((), False))) == "[]"
    assert text(grid_value(("Peter_Street",))) == "Radar([Peter_Street])"


def test_decode_grid_inverts_grid_value():
    assert decode_grid(grid_value({"Quay_Street", "Deansgate"})) == ("Deansgate", "Quay_Street")
    assert decode_grid(grid_value(())) == ()
    for bad in (Sym("Radar"), Rec("Radar", ()), Rec("Radar", (Seq((Nat(1),)),)),
                Rec("Radar", (Seq((Sym("b"), Sym("a"))),)),
                Rec("Grid", (Seq((Sym("a"),)),))):
        with pytest.raises(ValueError_):
            decode_grid(bad)
