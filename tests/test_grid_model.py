"""Behavioural tests for the grid-world composition.

The two deep checks replay the explored state space against independent
bookkeeping: a round-structure monitor validates the protocol ordering on
every reachable trace, and a perception replay recomputes each published
lidar frame from scratch out of the actions seen on the way there.
"""
import tracemalloc

import pytest

from avmodels.grid_model import build_grid_composition
from avmodels.kernel import Receive, explore, parse_action
from avmodels.minimize import minimize
from avmodels.perception import (
    CarSpec, GridScenario, ObstacleRec, build_grid_map, compute_perception,
    move_allowed, perception_value, rect_cells,
)
from avmodels.properties import (
    VIOLATION, Monitor, check_deadlock_freedom, check_inevitable_termination,
    product_with_monitor,
)
from avmodels.scenarios import load_scenario, read_json
from avmodels.testgen import extract_test, parse_purpose, product_with_purpose
from avmodels.values import Rec, Sym, ValueError_

from conftest import CONFIGS
from oracles import outgoing, trace_exists


@pytest.fixture(scope="module")
def reference(grid_reference):
    return grid_reference.scn, grid_reference.lts


@pytest.fixture(scope="module")
def reference_exposed(grid_reference_exposed):
    return grid_reference_exposed.scn, grid_reference_exposed.lts


# ---------------------------------------------------------------------------
# round structure

def round_monitor(scn):
    """Observer for the per-tick protocol: every live obstacle announces
    itself then moves (or ends, once), afterwards the car moves or arrives,
    a car move is followed by the grid handshake and the lidar frame (or a
    collision), and TICK closes the round. Once the car is gone rounds are
    obstacle moves and TICK only.
    """
    live0 = frozenset(ob.kind for ob in scn.mobile)

    def step(st, act):
        live, moved, stage, car_alive = st
        gate = act.gate
        if gate == "GRID_UPDATE":
            kind = act.offers[0].name
            if stage != "idle" or kind not in live or kind in moved:
                return VIOLATION
            return (live, moved, ("announced", kind), car_alive)
        if gate == "OBSTACLE_POSITION":
            kind = act.offers[0].fields[0].name
            if stage != ("announced", kind):
                return VIOLATION
            return (live, moved | {kind}, "idle", car_alive)
        if gate == "END_OBSTACLE":
            kind = act.offers[0].name
            if stage != "idle" or kind not in live or kind in moved:
                return VIOLATION
            return (live - {kind}, moved, "idle", car_alive)
        if gate == "CAR_POSITION":
            if stage != "idle" or moved != live or not car_alive:
                return VIOLATION
            return (live, moved, "car_moved", True)
        if gate == "ARRIVAL":
            if stage != "idle" or moved != live or not car_alive:
                return VIOLATION
            return (live, moved, "round_over", False)
        if gate == "COLLISION":
            if stage != "car_moved":
                return VIOLATION
            return (live, moved, "round_over", False)
        if gate == "GRID_CAR":
            if stage != "car_moved":
                return VIOLATION
            return (live, moved, "car_published", True)
        if gate == "LIDAR_MAP":
            if stage != "car_published":
                return VIOLATION
            return (live, moved, "round_over", True)
        if gate == "TICK":
            between_rounds = stage == "round_over" or (
                stage == "idle" and moved == live and not car_alive)
            if not between_rounds:
                return VIOLATION
            return (live, frozenset(), "idle", car_alive)
        return VIOLATION  # unexpected gate in a grid trace

    return Monitor((live0, frozenset(), "idle", True), step)


def test_reference_scenario_size_and_verdicts(reference):
    scn, lts = reference
    assert 1_000 <= lts.num_states <= 1_000_000
    gates = {a.gate for _, a, _ in lts.transitions}
    assert {"GRID_UPDATE", "OBSTACLE_POSITION", "CAR_POSITION", "GRID_CAR",
            "LIDAR_MAP", "TICK", "END_OBSTACLE", "ARRIVAL",
            "COLLISION"} <= gates
    assert check_deadlock_freedom(lts, end_obstacle_total=2).passed
    assert check_inevitable_termination(lts, end_obstacle_total=2).passed


def test_every_reachable_trace_follows_the_round_protocol(reference):
    scn, lts = reference
    assert product_with_monitor(lts, round_monitor(scn)) is None


def test_round_protocol_holds_with_exposed_grid(reference_exposed):
    scn, lts = reference_exposed
    assert product_with_monitor(lts, round_monitor(scn)) is None


def test_exposing_the_grid_does_not_change_the_state_space(
        reference, reference_exposed):
    _, plain = reference
    _, exposed = reference_exposed
    assert plain.num_states == exposed.num_states
    assert len(plain.transitions) == len(exposed.transitions)


def test_minimization_shrinks_the_reference_scenario(reference):
    _, lts = reference
    small = minimize(lts)
    assert small.num_states < lts.num_states
    assert {a.text() for _, a, _ in small.transitions} == \
        {a.text() for _, a, _ in lts.transitions}


# ---------------------------------------------------------------------------
# perception soundness: recompute every published frame

def replay_perception(scn, lts):
    """Walk the exposed LTS keeping book on where everything is (from the
    actions alone) and recompute each LIDAR_MAP offer with the perception
    pipeline. Ended obstacles stay on the map: they stop moving but keep
    their last footprint. Returns the number of frames checked.
    """
    statics = [(ob.kind, ob.transparent, ob.anchor(), ob.w, ob.h)
               for ob in scn.static]
    spec = {ob.kind: ob for ob in scn.mobile}
    out = outgoing(lts)
    init = (tuple(sorted((ob.kind, ob.anchor()) for ob in scn.mobile)),
            (scn.car.x, scn.car.y), None, None)
    ext = {lts.initial: init}
    stack = [lts.initial]
    frames = 0
    while stack:
        s = stack.pop()
        anchors_t, car, prev, prev_car = ext[s]
        anchors = dict(anchors_t)
        for act, dst in out[s]:
            a2, car2, prev2, pc2 = anchors, car, prev, prev_car
            gate = act.gate
            if gate == "OBSTACLE_POSITION":
                new = act.offers[0]
                rect = new.fields[1]
                a2 = dict(anchors)
                a2[new.fields[0].name] = (rect.fields[0].n, rect.fields[1].n)
            elif gate == "CAR_POSITION":
                car2 = (act.offers[1].x, act.offers[1].y)
            elif gate == "LIDAR_MAP":
                placed = statics + [
                    (k, spec[k].transparent, anchors[k], spec[k].w, spec[k].h)
                    for k in sorted(anchors)]
                truth = build_grid_map(scn.width, scn.height, placed, car)
                grid = compute_perception(truth, prev, prev_car)
                assert act.offers == (perception_value(grid),)
                prev2, pc2 = grid, car
                frames += 1
            nxt = (tuple(sorted(a2.items())), car2, prev2, pc2)
            if dst in ext:
                # the mirror is a function of the state, however reached
                assert ext[dst] == nxt
            else:
                ext[dst] = nxt
                stack.append(dst)
    return frames


def test_every_lidar_frame_matches_recomputed_perception(reference_exposed):
    scn, lts = reference_exposed
    frames = replay_perception(scn, lts)
    print(f"lidar frames checked: {frames}")
    assert frames > 100


def test_equal_obstacle_records_are_one_object(reference_exposed):
    _, lts = reference_exposed
    shared = {}
    records = 0
    for _, act, _ in lts.transitions:
        if act.gate == "OBSTACLE_POSITION":
            for v in act.offers[:2]:  # the new and the previous Obstacle record
                records += 1
                assert shared.setdefault(v, v) is v
    assert records > 2 * len(shared) > 0


# two obstacles and a car with random moves, a wall and the restraint
RANDOM_WALK = GridScenario(5, 5, static=(ObstacleRec("Wall", 0, 2),),
                           mobile=(ObstacleRec("Walker", 2, 0, speed=1, moves=("random",) * 2),
                                   ObstacleRec("Cart", 4, 0, speed=1, moves=("down", "left"))),
                           car=CarSpec(2, 4, moves=("random",) * 2), dist_min=1)


def test_receivers_decode_equal_copies_of_shared_records_alike():
    # the receivers look a shared record up by id(); an equal record parsed
    # back from the label text is another object and goes through
    # decode_obstacle, and must lead to the same next local state
    comp = build_grid_composition(RANDOM_WALK)
    lts = explore(comp)
    moves = [a for a in lts.labels if a.gate == "OBSTACLE_POSITION"]
    copies = [parse_action(a.text()) for a in moves]
    assert copies == moves and all(c.offers[0] is not a.offers[0] and c.offers[1] is not a.offers[1]
                                   for a, c in zip(moves, copies))
    malformed = (Rec("Obstacle", (Sym("Walker"),)),) + moves[0].offers[1:]
    results = set()
    for state in lts.state_payload:
        if not any(a.gate == "OBSTACLE_POSITION" for a, _ in comp.enabled_actions(state)):
            continue
        for c, local in zip(comp.components, comp.local_states(state)):
            if c.id not in ("MAP_MANAGER", "LIDAR_MANAGER"):
                continue
            (accept,) = [f for r, f in c.step(local) if r == Receive("OBSTACLE_POSITION")]
            for act, copy in zip(moves, copies):
                got = accept(local, act.offers)
                assert accept(local, copy.offers) == got
                results.add((c.id, got is None))
            with pytest.raises(ValueError_):
                accept(local, malformed)
    # every receiver accepted some move, and MAP_MANAGER refused some
    assert results == {("MAP_MANAGER", False), ("MAP_MANAGER", True), ("LIDAR_MANAGER", False)}


def test_manager_offers_only_the_random_moves_the_distance_rule_allows():
    # the manager alone restrains random moves: in every reached manager
    # state it offers exactly the in-bounds free resolutions (and none) that
    # move_allowed permits from its car cell, and it leaves some free ones out
    scn = RANDOM_WALK
    comp = build_grid_composition(scn)
    lts = explore(comp)
    k = [c.id for c in comp.components].index("OBSTACLES_MANAGER")
    walls = {cell for ob in scn.static for cell in rect_cells(ob.anchor(), ob.w, ob.h)}
    random_states = left_out = 0
    for local in {comp.local_states(state)[k] for state in lts.state_payload}:
        offered = {a.offers[0].fields[3].name for a, _ in comp.components[k].step(local)
                   if a.gate == "OBSTACLE_POSITION" and a.offers[2] == Sym("random")}
        if not offered:
            continue
        random_states += 1
        (car, anchors, _), _, i = local
        ob = scn.mobile[i]
        taken = walls | {car} | {cell for j, other in enumerate(scn.mobile) if j != i
                                 for cell in rect_cells(anchors[j], other.w, other.h)}
        free = {"none"}
        for d, (dx, dy) in (("up", (0, -1)), ("down", (0, 1)),
                            ("left", (-1, 0)), ("right", (1, 0))):
            x, y = anchors[i][0] + dx * ob.speed, anchors[i][1] + dy * ob.speed
            if all(0 <= cx < scn.width and 0 <= cy < scn.height and (cx, cy) not in taken
                   for cx, cy in rect_cells((x, y), ob.w, ob.h)):
                free.add(d)
        allowed = {d for d in free if move_allowed(car, anchors[i], ob.speed, d, scn.dist_min)}
        assert offered == allowed
        left_out += len(free - allowed)
    assert random_states > 0 and left_out > 0


def test_car_position_receivers_replace_only_the_car_cell():
    # every CAR_POSITION receiver, handed its local state: for any car
    # move, the shared offer and an equal copy parsed back from its text,
    # it keeps the rest of that state and takes the new car cell
    scn = RANDOM_WALK

    def occupant(anchors, cell):
        placed = [(ob.kind, ob.anchor(), ob) for ob in scn.static]
        placed += [(ob.kind, anchor, ob) for ob, anchor in zip(scn.mobile, anchors)]
        return next((kind for kind, a, ob in placed if cell in rect_cells(a, ob.w, ob.h)), None)

    def map_next(st, cell):
        (_, anchors), live, car_dead, _ = st
        hit = occupant(anchors, cell)
        return (cell, anchors), live, car_dead, ("coll", hit) if hit else ("grid_car",)

    expected = {
        "OBSTACLES_MANAGER": lambda st, cell: ((cell,) + st[0][1:],) + st[1:],
        "MAP_MANAGER": map_next,
        "LIDAR_MANAGER": lambda st, cell: ((cell, st[0][1]), st[1], st[2], False),
    }
    comp = build_grid_composition(scn)
    lts = explore(comp)
    moves = [a for a in lts.labels if a.gate == "CAR_POSITION"]
    copies = [parse_action(a.text()) for a in moves]
    assert copies == moves and all(c.offers[1] is not a.offers[1] for a, c in zip(moves, copies))
    outcomes = set()
    for state in lts.state_payload:
        for c, local in zip(comp.components, comp.local_states(state)):
            for accept in [f for r, f in c.step(local) if r == Receive("CAR_POSITION")]:
                for act, copy in zip(moves, copies):
                    want = expected[c.id](local, (act.offers[1].x, act.offers[1].y))
                    assert accept(local, act.offers) == want == accept(local, copy.offers)
                    outcomes.add((c.id, want[3][0] if c.id == "MAP_MANAGER" else None))
    assert outcomes == {("OBSTACLES_MANAGER", None), ("MAP_MANAGER", "coll"),
                        ("MAP_MANAGER", "grid_car"), ("LIDAR_MANAGER", None)}


def test_exploring_the_exposed_grid_allocates_at_most_900_bytes_per_state():
    # explore's memory on the exposed grid is mostly the kernel's step cache:
    # with slot-indexed entries, one receiver function per component and
    # gate and a bare id for a single successor, among the offers and in
    # the receivers' memo, the tracemalloc peak is 600 bytes per state (610
    # on Python 3.10); a 1-tuple per memo entry took 622, a
    # functools.partial per receiving local state and a 1-tuple per single
    # successor 760, and a dict of gates per entry and a closure per
    # receiver about 1,060
    scn = load_scenario(str(CONFIGS / "grid.json"))
    tracemalloc.start()
    try:
        lts = explore(build_grid_composition(scn, expose_grid=True))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lts.num_states == 22_983
    assert peak / lts.num_states <= 900


def test_a_testgen_over_the_whole_grid_allocates_at_most_590_bytes_per_product_state():
    # no run reaches this purpose, so its product spans the grid. A first
    # run fills the interpreter's free lists, which tracemalloc does not
    # see, so the measured run does not depend on the tests before it. Flat
    # (*ids, patterns left) nodes and bare ids in the receivers' memo take
    # that run's peak to 555 bytes per product state (561 on Python 3.10, 553
    # on 3.12); a (state, patterns left) 2-tuple per node and a 1-tuple per
    # memo entry took 620 (659 on 3.10, 641 on 3.12)
    scn = load_scenario(str(CONFIGS / "grid.json"))
    purpose = parse_purpose(read_json(str(CONFIGS / "purpose_collision_building.json")))
    product_with_purpose(build_grid_composition(scn), purpose)
    tracemalloc.start()
    try:
        product, _ = product_with_purpose(build_grid_composition(scn), purpose)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert extract_test(product) is None
    assert product.num_states == 22_983
    assert peak / product.num_states <= 590


# ---------------------------------------------------------------------------
# small scenarios with hand-checked behaviour

def test_blocked_scripted_move_stays_in_place_but_turns():
    scn = GridScenario(5, 5,
                       static=(ObstacleRec("Wall", 2, 1),),
                       mobile=(ObstacleRec("Walker", 2, 2, speed=1,
                                           moves=("up",)),),
                       car=CarSpec(4, 4))
    lts = explore(build_grid_composition(scn))
    moves = [a for _, a, _ in lts.transitions if a.gate == "OBSTACLE_POSITION"]
    assert len({a.text() for a in moves}) == 1
    new, prev, resolved = moves[0].offers
    assert resolved.name == "up"
    assert new.fields[3].name == "up"          # direction resolves anyway
    assert new.fields[1] == prev.fields[1]     # footprint did not move
    assert product_with_monitor(lts, round_monitor(scn)) is None


def test_distance_restraint_prunes_receding_random_moves():
    # walker at (0,0), car at (4,4): with dist_min 0 every random move must
    # strictly close the Manhattan gap, leaving exactly right and down
    scn = GridScenario(5, 5, static=(),
                       mobile=(ObstacleRec("Walker", 0, 0, speed=1,
                                           moves=("random",)),),
                       car=CarSpec(4, 4), dist_min=0)
    lts = explore(build_grid_composition(scn))
    out = outgoing(lts)
    first = [a for a, _ in out[1] if a.gate == "OBSTACLE_POSITION"]
    assert [a for a, _ in out[0]][0].gate == "GRID_UPDATE"
    assert {a.offers[0].fields[3].name for a in first} == {"right", "down"}


def test_boxed_walker_with_restraint_deadlocks():
    # both closing moves are walled off and "none" recedes by not closing
    # in, so the walker has no permitted move at all: the round can never
    # finish and the composition wedges after the announcement
    scn = GridScenario(5, 5,
                       static=(ObstacleRec("Wall_E", 1, 0),
                               ObstacleRec("Wall_S", 0, 1)),
                       mobile=(ObstacleRec("Walker", 0, 0, speed=1,
                                           moves=("random",)),),
                       car=CarSpec(4, 4), dist_min=0)
    lts = explore(build_grid_composition(scn))
    verdict = check_deadlock_freedom(lts, end_obstacle_total=1)
    assert verdict.kind == "fail"
    assert [a.gate for a in verdict.trace] == ["GRID_UPDATE"]
    assert trace_exists(lts, verdict.trace)


def test_cyclic_car_never_terminates():
    scn = GridScenario(3, 3, static=(), mobile=(),
                       car=CarSpec(1, 1, cyclic=True, moves=("none",)))
    lts = explore(build_grid_composition(scn))
    assert "ARRIVAL" not in lts.alphabet()
    verdict = check_inevitable_termination(lts, end_obstacle_total=0)
    assert verdict.kind == "fail_lasso"
    assert sorted(a.gate for a in verdict.cycle) == \
        sorted(["CAR_POSITION", "GRID_CAR", "LIDAR_MAP", "TICK"])
    assert trace_exists(lts, verdict.trace + verdict.cycle)


def test_cyclic_obstacle_never_ends():
    scn = GridScenario(2, 3, static=(),
                       mobile=(ObstacleRec("Bouncer", 0, 0, speed=1,
                                           cyclic=True, moves=("down", "up")),),
                       car=CarSpec(1, 2))
    lts = explore(build_grid_composition(scn))
    assert "END_OBSTACLE" not in lts.alphabet()
    assert "ARRIVAL" in lts.alphabet()
    # arrival happens on every run, so the full check passes; the rounds
    # that keep going behind it show up once ARRIVAL is not terminal
    assert check_inevitable_termination(lts, end_obstacle_total=1).passed
    verdict = check_inevitable_termination(
        lts, terminal_gates=("COLLISION", "END_OBSTACLE"),
        end_obstacle_total=1)
    assert verdict.kind == "fail_lasso"
    assert {a.gate for a in verdict.cycle} == \
        {"GRID_UPDATE", "OBSTACLE_POSITION", "TICK"}


def test_rounds_continue_after_a_collision(reference):
    scn, lts = reference
    out = outgoing(lts)
    assert any(a.gate == "COLLISION" and out[dst]
               for _, a, dst in lts.transitions)


def test_cyclic_mobile_without_moves_is_rejected():
    with pytest.raises(ValueError):
        GridScenario(3, 3, static=(),
                     mobile=(ObstacleRec("Spin", 0, 0, cyclic=True, moves=()),),
                     car=CarSpec(2, 2))
