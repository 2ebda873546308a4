import random

import pytest
from hypothesis import given, settings, strategies as st

from avmodels.perception import (
    CarSpec, GridError, GridScenario, ObstacleRec, build_grid_map,
    compute_perception, decode_obstacle, move_allowed, obstacle_value,
    occluded, perception_value, position_value, step_position, supercover,
)

from oracles import exact_occluded, exact_supercover


def grid_of(picture: str):
    """'UFFFF/UUFFF/...' -> perception grid tuple, top row first."""
    return tuple(tuple(row) for row in picture.split("/"))


def build(width, height, placed, car):
    return build_grid_map(width, height, placed, car)


# --- twelve perception scenes checked cell by cell against hand-derived
# grids (window rows are dy=-2..2 top to bottom, columns dx=-2..2)

def test_scene_01_empty_map_all_visible():
    m = build(5, 5, [], (2, 2))
    assert compute_perception(m) == grid_of("FFFFF/FFFFF/FFCFF/FFFFF/FFFFF")


def test_scene_02_corner_car_clips_window():
    m = build(5, 5, [], (0, 0))
    assert compute_perception(m) == grid_of("UUUUU/UUUUU/UUCFF/UUFFF/UUFFF")


def test_scene_03_opaque_rock_on_window_edge():
    m = build(5, 5, [("Rock", False, (2, 1), 1, 1)], (2, 3))
    assert compute_perception(m) == grid_of("FFOFF/FFFFF/FFCFF/FFFFF/UUUUU")


def test_scene_04_shadow_cone_behind_rock():
    m = build(5, 7, [("Rock", False, (2, 3), 1, 1)], (2, 4))
    assert compute_perception(m) == grid_of("UUUUU/FUOUF/FFCFF/FFFFF/FFFFF")


def test_scene_05_transparent_bush_hides_nothing():
    m = build(5, 7, [("Bush", True, (2, 3), 1, 1)], (2, 4))
    assert compute_perception(m) == grid_of("FFFFF/FFTFF/FFCFF/FFFFF/FFFFF")


def test_scene_06_lateral_shadow_with_corner_grazing():
    m = build(5, 5, [("Rock", False, (1, 2), 1, 1)], (2, 2))
    assert compute_perception(m) == grid_of("UFFFF/UUFFF/UOCFF/UUFFF/UFFFF")


def test_scene_07_opaque_mover_marked_m():
    before = build(5, 5, [("Walker", False, (0, 2), 1, 1)], (2, 2))
    prev = compute_perception(before)
    assert prev == grid_of("FFFFF/FFFFF/OFCFF/FFFFF/FFFFF")
    after = build(5, 5, [("Walker", False, (1, 2), 1, 1)], (2, 2))
    assert compute_perception(after, prev, (2, 2)) == \
        grid_of("UFFFF/UUFFF/UMCFF/UUFFF/UFFFF")


def test_scene_08_transparent_mover_marked_n():
    before = build(5, 5, [("Kid", True, (0, 2), 1, 1)], (2, 2))
    prev = compute_perception(before)
    assert prev == grid_of("FFFFF/FFFFF/TFCFF/FFFFF/FFFFF")
    after = build(5, 5, [("Kid", True, (1, 2), 1, 1)], (2, 2))
    assert compute_perception(after, prev, (2, 2)) == \
        grid_of("FFFFF/FFFFF/FNCFF/FFFFF/FFFFF")


def test_scene_09_no_m_for_cells_outside_previous_window():
    before = build(5, 5, [("Walker", False, (4, 2), 1, 1)], (0, 2))
    prev = compute_perception(before)
    assert prev == grid_of("UUFFF/UUFFF/UUCFF/UUFFF/UUFFF")
    after = build(5, 5, [("Walker", False, (4, 2), 1, 1)], (2, 2))
    assert compute_perception(after, prev, (0, 2)) == \
        grid_of("FFFFF/FFFFF/FFCFO/FFFFF/FFFFF")


def test_scene_10_stationary_obstacle_stays_o():
    m = build(5, 5, [("Walker", False, (1, 2), 1, 1)], (2, 2))
    prev = compute_perception(m)
    assert compute_perception(m, prev, (2, 2)) == prev


def test_scene_11_small_map_u_ring():
    m = build(3, 3, [], (1, 1))
    assert compute_perception(m) == grid_of("UUUUU/UFFFU/UFCFU/UFFFU/UUUUU")


def test_scene_12_wide_truck_shades_its_flank():
    m = build(6, 6, [("Truck", False, (1, 1), 2, 1)], (1, 3))
    assert compute_perception(m) == grid_of("UFOOU/UFFFF/UFCFF/UFFFF/UFFFF")


# --- line of sight against exact rational geometry

def test_supercover_diagonal_corner_graze():
    cells = supercover((0, 0), (2, 2))
    assert set(cells) == {(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2)}
    assert cells[0] == (0, 0) and cells[-1] == (2, 2)


def test_supercover_single_cell_and_straight_lines():
    assert supercover((3, 3), (3, 3)) == [(3, 3)]
    assert supercover((0, 0), (3, 0)) == [(0, 0), (1, 0), (2, 0), (3, 0)]
    assert supercover((2, 4), (2, 1)) == [(2, 4), (2, 3), (2, 2), (2, 1)]


def test_supercover_matches_exact_geometry_exhaustively():
    for ax in range(4):
        for ay in range(4):
            for bx in range(4):
                for by in range(4):
                    got = set(supercover((ax, ay), (bx, by)))
                    want = exact_supercover((ax, ay), (bx, by))
                    assert got == want, ((ax, ay), (bx, by))


@settings(max_examples=200)
@given(st.tuples(st.integers(0, 30), st.integers(0, 30)),
       st.tuples(st.integers(0, 30), st.integers(0, 30)))
def test_supercover_matches_exact_geometry_random(a, b):
    assert set(supercover(a, b)) == exact_supercover(a, b)


def test_occluded_matches_exact_oracle_on_random_maps():
    rng = random.Random(4242)
    for _ in range(50):
        w, h = rng.randint(3, 8), rng.randint(3, 8)
        opaque, placed = set(), []
        for _ in range(rng.randint(1, 6)):
            c = (rng.randrange(w), rng.randrange(h))
            if c in opaque:
                continue
            opaque.add(c)
            placed.append((f"R{len(placed)}", False, c, 1, 1))
        free = [(x, y) for x in range(w) for y in range(h)
                if (x, y) not in opaque]
        if len(free) < 2:
            continue
        car = rng.choice(free)
        m = build(w, h, placed, car)
        for target in free + list(opaque):
            if target == car:
                continue
            assert occluded(m, car, target) == \
                exact_occluded(opaque, car, target), (car, target, opaque)


# --- movement helpers

def test_step_position_bounds_and_speed():
    assert step_position((2, 2), "up", 1, 5, 5) == (2, 1)
    assert step_position((2, 2), "down", 2, 5, 5) == (2, 4)
    assert step_position((2, 2), "none", 3, 5, 5) == (2, 2)
    assert step_position((0, 2), "left", 1, 5, 5) is None
    assert step_position((2, 2), "right", 3, 5, 5) is None


def test_move_allowed_distance_rule():
    # close in: anything goes
    assert move_allowed((0, 0), (2, 1), 1, "right", 3)
    # far: must strictly decrease the Manhattan distance
    assert not move_allowed((0, 0), (4, 4), 1, "right", 3)
    assert not move_allowed((0, 0), (4, 4), 1, "none", 3)
    assert move_allowed((0, 0), (4, 4), 1, "left", 3)
    assert move_allowed((0, 0), (4, 4), 1, "up", 3)
    # speed-2 overshoot that still reduces distance is allowed
    assert move_allowed((0, 4), (0, 7), 2, "up", 0)
    # speed-2 overshoot past the car that increases distance is not
    assert not move_allowed((0, 4), (0, 5), 2, "up", 0)


def test_build_grid_map_rejects_bad_layouts():
    with pytest.raises(GridError):
        build(3, 3, [("A", False, (2, 2), 2, 1)], None)      # sticks out
    with pytest.raises(GridError):
        build(3, 3, [("A", False, (0, 0), 2, 2),
                     ("B", False, (1, 1), 1, 1)], None)       # overlap
    with pytest.raises(GridError):
        build(3, 3, [("A", False, (0, 0), 1, 1)], (0, 0))     # car on A
    with pytest.raises(GridError):
        build(3, 3, [], (3, 0))                               # car outside


def test_scenario_validation():
    with pytest.raises(GridError):
        GridScenario(5, 5, (), (ObstacleRec("a", 0, 0, moves=("up",)),
                               ObstacleRec("a", 2, 2, moves=("up",))),
                     CarSpec(4, 4))
    with pytest.raises(GridError):
        GridScenario(5, 5, (ObstacleRec("s", 0, 0, moves=("up",)),), (),
                     CarSpec(4, 4))
    with pytest.raises(ValueError):
        CarSpec(1, 1, speed=0)
    # every grid rule is checked when the object is constructed
    cases = [
        (lambda: GridScenario(300, 300, (), (), CarSpec(0, 0)),
         "exceeds the limit of 65536 cells"),
        (lambda: GridScenario(5, 5, (ObstacleRec("Wall", 3, 0, w=3),), (), CarSpec(0, 4)),
         r"static\[0\]: Wall of 3 x 1 at \(3, 0\) does not fit the 5 x 5 grid"),
        (lambda: GridScenario(5, 5, (), (ObstacleRec("Walker", 0, 10 ** 9, h=10 ** 9),),
                              CarSpec(0, 0)),
         r"mobile\[0\]: Walker of .* does not fit the 5 x 5 grid"),
        (lambda: GridScenario(6, 6, (ObstacleRec("Building", 0, 0, w=3, h=3),),
                              (ObstacleRec("Walker", 1, 1, moves=("up",)),), CarSpec(5, 5)),
         r"Walker overlaps Building at \(1,1\)"),
        (lambda: GridScenario(5, 5, (ObstacleRec("Rock", 2, 2),), (), CarSpec(2, 2)),
         r"car placed on Rock at \(2, 2\)"),
        (lambda: GridScenario(5, 5, (), (), CarSpec(5, 0)), "car out of the map"),
        (lambda: GridScenario(5, 5, (), (), CarSpec(0, -1)), "car out of the map"),
        (lambda: ObstacleRec("Spin", 0, 0, speed=1, cyclic=True), "Spin: cyclic without moves"),
        (lambda: CarSpec(0, 0, cyclic=True), "car: cyclic without moves"),
        (lambda: CarSpec(0, 0, moves=("up", "sideways")), "car: bad move 'sideways'"),
        (lambda: ObstacleRec("3", 0, 0), "obstacle kind '3' is not a symbol name"),
    ]
    for build_it, message in cases:
        with pytest.raises(GridError, match=message):
            build_it()


def test_value_encoders_round_trip_text():
    from avmodels.values import parse_value, text
    v = obstacle_value("Car2", (1, 2), 2, 1, 3, "left", True)
    assert text(v) == "Obstacle(Car2,Rect(1,2,2,1),3,left,true)"
    assert parse_value(text(v)) == v
    assert text(position_value((4, 5))) == "Position(4,5)"
    g = compute_perception(build(3, 3, [], (1, 1)))
    assert parse_value(text(perception_value(g))) == perception_value(g)


def test_decode_obstacle_inverts_obstacle_value():
    from avmodels.values import Bool, Nat, Pos, Rec, Seq, Sym, ValueError_, parse_value
    fields = ("Car2", (1, 2), 2, 1, 3, "left", True)
    assert decode_obstacle(obstacle_value(*fields)) == fields
    good = "Obstacle(Car2,Rect(1,2,2,1),3,left,true)"
    for bad in (good.replace("Obstacle", "Obstacles"), good.replace("Rect", "Box"),
                good.replace(",true", ""), good.replace("Car2", "Rect(1)"),
                good.replace("left", "7"), good.replace("true", "1"),
                "Obstacle(Car2,Rect(1,2,2),3,left,true)"):
        with pytest.raises(ValueError_):
            decode_obstacle(parse_value(bad))
    for bad in (Sym("Obstacle"), Nat(3), Bool(True), Rec("Obstacle", ())):
        with pytest.raises(ValueError_):
            decode_obstacle(bad)
    # near misses: each differs from a good value in one field's shape or type
    v = obstacle_value(*fields)
    rect = v.fields[1]

    def with_field(rec, k, f):
        return Rec(rec.name, rec.fields[:k] + (f,) + rec.fields[k + 1:])

    for bad in (with_field(v, 1, Rec("Rect", rect.fields + (Nat(1),))),
                with_field(v, 0, Nat(2)),
                with_field(v, 2, Sym("fast")),
                with_field(v, 4, Nat(1)),
                with_field(v, 1, Pos(1, 2)),
                Seq(v.fields),
                with_field(v, 1, with_field(rect, 1, Bool(True))),
                with_field(v, 3, Rec("left", ())),
                Rec("Obstacle", list(v.fields)),
                with_field(v, 1, Rec("Rect", list(rect.fields)))):
        with pytest.raises(ValueError_):
            decode_obstacle(bad)


def test_decode_obstacle_round_trips_random_obstacles():
    from avmodels.values import parse_value, text
    rng = random.Random(2024)
    for _ in range(300):
        fields = (rng.choice(("Car", "Walker", "b_2", "x")),
                  (rng.randrange(60), rng.randrange(60)), rng.randint(1, 5), rng.randint(1, 5),
                  rng.randrange(4), rng.choice(("up", "down", "left", "right", "none", "random")),
                  rng.random() < 0.5)
        v = obstacle_value(*fields)
        assert decode_obstacle(v) == fields
        assert decode_obstacle(parse_value(text(v))) == fields
