"""Grid-world composition: obstacle manager, ground-truth map, car, lidar,
scheduler and the random-move restraint.

Each round, every live obstacle announces itself (GRID_UPDATE !kind) and
moves (OBSTACLE_POSITION), then the car moves (CAR_POSITION) or arrives, the
map hands the car position to the lidar (GRID_CAR), the lidar publishes its
perception (LIDAR_MAP) and the round closes with TICK. A crash right after a
car move raises COLLISION !kind instead of the lidar handshake; an obstacle
out of moves emits END_OBSTACLE !kind in place of its slot, once.

OBSTACLE_POSITION and CAR_POSITION are wide rendezvous: everyone who needs
actor positions synchronizes on them and keeps a mirror of the world (car
cell, obstacle anchors and directions). Offers must match bit for bit, so
all participants derive candidate moves from the same helper over the same
mirror; each then applies only its own filter: the manager follows the
script, the scheduler enforces round order, the restraint prunes random
moves that stray from the car, the map and lidar just track.
"""
from __future__ import annotations

from typing import Dict, Optional

from .kernel import Action, Component, Composition
from .perception import (
    DIRECTIONS,
    GridError,
    GridScenario,
    build_grid_map,
    compute_perception,
    initiate_map,
    move_allowed,
    obstacle_value,
    perception_value,
    position_value,
    rect_cells,
    step_position,
    RANDOM_DIR,
)
from .values import Sym

STEP_DIRS = ("up", "down", "left", "right")


def build_grid_composition(scn: GridScenario, expose_grid: bool = False) -> Composition:
    initiate_map(scn)  # validates placement
    width, height = scn.width, scn.height
    mobiles = scn.mobile
    n = len(mobiles)
    kinds = tuple(ob.kind for ob in mobiles)
    for ob in mobiles:
        if ob.cyclic and not ob.moves:
            raise GridError(f"{ob.kind}: cyclic without moves")
    if scn.car.cyclic and not scn.car.moves:
        raise GridError("car: cyclic without moves")

    static_cells = {}
    for ob in scn.static:
        for c in rect_cells(ob.anchor(), ob.w, ob.h):
            static_cells[c] = ob
    all_kinds = sorted({ob.kind for ob in scn.static} | set(kinds))

    # a view is (car cell, obstacle anchors, obstacle directions); every
    # component embeds one and they stay in lockstep by construction
    initial_view = ((scn.car.x, scn.car.y),
                    tuple(ob.anchor() for ob in mobiles),
                    tuple(ob.direction for ob in mobiles))

    def rec_value(i: int, anchor, direction):
        ob = mobiles[i]
        return obstacle_value(ob.kind, anchor, ob.w, ob.h, ob.speed,
                              direction, ob.transparent)

    _cand: Dict[tuple, tuple] = {}

    def obstacle_candidates(view, i):
        """(scripted, action, resolved, new_anchor) for every move obstacle i
        could announce from this view. Blocked non-random moves stay in
        place but still resolve their direction; random resolves to any
        in-bounds free direction, or to none.
        """
        key = (view, i)
        hit = _cand.get(key)
        if hit is not None:
            return hit
        car, anchors, dirs = view
        ob = mobiles[i]
        blocked = set(static_cells)
        blocked.add(car)
        for j in range(n):
            if j != i:
                blocked.update(rect_cells(anchors[j], mobiles[j].w, mobiles[j].h))

        def lands_ok(anchor):
            if anchor is None:
                return False
            return all(0 <= x < width and 0 <= y < height and (x, y) not in blocked
                       for x, y in rect_cells(anchor, ob.w, ob.h))

        prev_val = rec_value(i, anchors[i], dirs[i])
        out = []

        def emit(scripted, resolved, anchor):
            act = Action("OBSTACLE_POSITION",
                         (rec_value(i, anchor, resolved), prev_val, Sym(scripted)))
            out.append((scripted, act, resolved, anchor))

        for d in DIRECTIONS:
            target = step_position(anchors[i], d, ob.speed, width, height)
            emit(d, d, target if lands_ok(target) else anchors[i])
        for d in STEP_DIRS:
            target = step_position(anchors[i], d, ob.speed, width, height)
            if lands_ok(target):
                emit(RANDOM_DIR, d, target)
        emit(RANDOM_DIR, "none", anchors[i])
        entry = tuple(out)
        _cand[key] = entry
        return entry

    _car_cand: Dict[tuple, tuple] = {}

    def car_candidates(car):
        """(scripted, action, new cell). Bounds are the only constraint;
        driving onto an occupied cell is what triggers COLLISION."""
        hit = _car_cand.get(car)
        if hit is not None:
            return hit
        prev = position_value(car)
        out = []

        def emit(scripted, cell):
            out.append((scripted, Action("CAR_POSITION", (prev, position_value(cell))), cell))

        for d in DIRECTIONS:
            target = step_position(car, d, scn.car.speed, width, height)
            emit(d, target if target is not None else car)
        for d in STEP_DIRS:
            target = step_position(car, d, scn.car.speed, width, height)
            if target is not None:
                emit(RANDOM_DIR, target)
        emit(RANDOM_DIR, car)
        entry = tuple(out)
        _car_cand[car] = entry
        return entry

    def view_after_obstacle(view, i, resolved, anchor):
        car, anchors, dirs = view
        return (car,
                anchors[:i] + (anchor,) + anchors[i + 1:],
                dirs[:i] + (resolved,) + dirs[i + 1:])

    def view_after_car(view, cell):
        return (cell, view[1], view[2])

    def occupant_kind(view, cell) -> Optional[str]:
        if cell in static_cells:
            return static_cells[cell].kind
        _, anchors, _ = view
        for j in range(n):
            if cell in rect_cells(anchors[j], mobiles[j].w, mobiles[j].h):
                return mobiles[j].kind
        return None

    grid_update = {k: Action("GRID_UPDATE", (Sym(k),)) for k in kinds}
    end_obstacle = {k: Action("END_OBSTACLE", (Sym(k),)) for k in kinds}
    collisions = {k: Action("COLLISION", (Sym(k),)) for k in all_kinds}
    ARRIVAL = Action("ARRIVAL")
    TICK = Action("TICK")

    # --- OBSTACLES_MANAGER: owns the scripts, walks its own slot order
    def mgr_norm(idx, scripts):
        for k in range(n):
            j = (idx + k) % n
            if not scripts[j][1]:
                return j
        return None

    def mgr_step(st):
        view, scripts, idx, stage = st
        out = []
        for _, act, cell in car_candidates(view[0]):
            out.append((act, (view_after_car(view, cell), scripts, idx, stage)))
        if idx is None:
            return out
        remaining, ended = scripts[idx]
        kind = kinds[idx]
        if stage == "say":
            if not remaining:
                scripts2 = scripts[:idx] + ((remaining, True),) + scripts[idx + 1:]
                out.append((end_obstacle[kind],
                            (view, scripts2, mgr_norm(idx + 1, scripts2), "say")))
            else:
                out.append((grid_update[kind], (view, scripts, idx, "move")))
        else:
            scripted = remaining[0]
            for s, act, resolved, anchor in obstacle_candidates(view, idx):
                if s != scripted:
                    continue
                rest = remaining[1:]
                if not rest and mobiles[idx].cyclic:
                    rest = tuple(mobiles[idx].moves)
                scripts2 = scripts[:idx] + ((rest, False),) + scripts[idx + 1:]
                out.append((act, (view_after_obstacle(view, idx, resolved, anchor),
                                  scripts2, mgr_norm(idx + 1, scripts2), "say")))
        return out

    mgr_scripts = tuple((tuple(ob.moves), False) for ob in mobiles)
    manager = Component(
        "OBSTACLES_MANAGER",
        frozenset({"GRID_UPDATE", "OBSTACLE_POSITION", "END_OBSTACLE", "CAR_POSITION"}),
        (initial_view, mgr_scripts, mgr_norm(0, mgr_scripts), "say"),
        mgr_step)

    # --- round slot order, walked by MAP_MANAGER and SCHEDULER alike
    def next_slot(live, car_dead, j):
        """Round phase from slot j on: the next live obstacle, then the car
        while it runs, then TICK while any obstacle lives."""
        while j < n and not live[j]:
            j += 1
        if j < n:
            return ("obs", j)
        if not car_dead:
            return ("car",)
        if any(live):
            return ("tick",)
        return ("halted",)

    # --- MAP_MANAGER: ground truth and round phasing; an obstacle's slot
    # opens with its "say" stage (GRID_UPDATE or END_OBSTACLE)
    def map_norm(live, car_dead, j):
        slot = next_slot(live, car_dead, j)
        return slot + ("say",) if slot[0] == "obs" else slot

    def map_step(st):
        view, live, car_dead, phase = st
        out = []
        tag = phase[0]
        if tag == "obs":
            _, i, stage = phase
            if stage == "say":
                out.append((grid_update[kinds[i]], (view, live, car_dead, ("obs", i, "move"))))
                live2 = live[:i] + (False,) + live[i + 1:]
                out.append((end_obstacle[kinds[i]],
                            (view, live2, car_dead, map_norm(live2, car_dead, i + 1))))
            else:
                for _, act, resolved, anchor in obstacle_candidates(view, i):
                    v2 = view_after_obstacle(view, i, resolved, anchor)
                    out.append((act, (v2, live, car_dead, map_norm(live, car_dead, i + 1))))
        elif tag == "car":
            for _, act, cell in car_candidates(view[0]):
                v2 = view_after_car(view, cell)
                hit = occupant_kind(view, cell)
                nxt = ("coll", hit) if hit else ("grid_car",)
                out.append((act, (v2, live, car_dead, nxt)))
            out.append((ARRIVAL, (view, live, True, ("tick",))))
        elif tag == "coll":
            out.append((collisions[phase[1]], (view, live, True, ("tick",))))
        elif tag == "grid_car":
            out.append((Action("GRID_CAR", (position_value(view[0]),)),
                        (view, live, car_dead, ("tick",))))
        elif tag == "tick":
            out.append((TICK, (view, live, car_dead, map_norm(live, car_dead, 0))))
        return out

    map_init_live = tuple(True for _ in mobiles)
    map_manager = Component(
        "MAP_MANAGER",
        frozenset({"GRID_UPDATE", "OBSTACLE_POSITION", "END_OBSTACLE", "CAR_POSITION",
                   "ARRIVAL", "COLLISION", "GRID_CAR", "TICK"}),
        (initial_view, map_init_live, False, map_norm(map_init_live, False, 0)),
        map_step)

    # --- MOVE_CAR: the car's own script
    def car_step(st):
        pos, remaining, dead = st
        if dead:
            return []
        out = [(collisions[k], (pos, remaining, True)) for k in all_kinds]
        if remaining:
            scripted = remaining[0]
            for s, act, cell in car_candidates(pos):
                if s != scripted:
                    continue
                rest = remaining[1:]
                if not rest and scn.car.cyclic:
                    rest = tuple(scn.car.moves)
                out.append((act, (cell, rest, False)))
        else:
            out.append((ARRIVAL, (pos, remaining, True)))
        return out

    move_car = Component(
        "MOVE_CAR",
        frozenset({"CAR_POSITION", "ARRIVAL", "COLLISION"}),
        ((scn.car.x, scn.car.y), tuple(scn.car.moves), False),
        car_step)

    # --- LIDAR_MANAGER: mirrors the world, publishes the 5x5 perception
    def make_map(view):
        car, anchors, _ = view
        placed = [(ob.kind, ob.transparent, ob.anchor(), ob.w, ob.h) for ob in scn.static]
        placed.extend((mobiles[j].kind, mobiles[j].transparent, anchors[j],
                       mobiles[j].w, mobiles[j].h) for j in range(n))
        return build_grid_map(width, height, placed, car)

    def lidar_step(st):
        view, prev, prev_car, duty = st
        out = []
        if duty:
            grid = compute_perception(make_map(view), prev, prev_car)
            offers = (perception_value(grid),) if expose_grid else ()
            out.append((Action("LIDAR_MAP", offers), (view, grid, view[0], False)))
            return out
        for i in range(n):
            for _, act, resolved, anchor in obstacle_candidates(view, i):
                out.append((act, (view_after_obstacle(view, i, resolved, anchor),
                                  prev, prev_car, False)))
        for _, act, cell in car_candidates(view[0]):
            out.append((act, (view_after_car(view, cell), prev, prev_car, False)))
        out.append((Action("GRID_CAR", (position_value(view[0]),)), (view, prev, prev_car, True)))
        out.append((TICK, st))
        return out

    lidar = Component(
        "LIDAR_MANAGER",
        frozenset({"OBSTACLE_POSITION", "CAR_POSITION", "GRID_CAR", "TICK"}),
        (initial_view, None, None, False),
        lidar_step)

    # --- SCHEDULER: slot order, without the map's say/move granularity
    def sched_step(st):
        view, live, car_dead, phase = st
        out = []
        tag = phase[0]
        if tag == "obs":
            i = phase[1]
            for _, act, resolved, anchor in obstacle_candidates(view, i):
                out.append((act, (view_after_obstacle(view, i, resolved, anchor),
                                  live, car_dead, next_slot(live, car_dead, i + 1))))
            live2 = live[:i] + (False,) + live[i + 1:]
            out.append((end_obstacle[kinds[i]],
                        (view, live2, car_dead, next_slot(live2, car_dead, i + 1))))
        elif tag == "car":
            for _, act, cell in car_candidates(view[0]):
                out.append((act, (view_after_car(view, cell), live, car_dead, ("tick",))))
            out.append((ARRIVAL, (view, live, True, ("tick",))))
        elif tag == "tick":
            for k in all_kinds:
                out.append((collisions[k], (view, live, True, ("tick",))))
            out.append((TICK, (view, live, car_dead, next_slot(live, car_dead, 0))))
        return out

    scheduler = Component(
        "SCHEDULER",
        frozenset({"OBSTACLE_POSITION", "CAR_POSITION", "END_OBSTACLE",
                   "ARRIVAL", "COLLISION", "TICK"}),
        (initial_view, map_init_live, False, next_slot(map_init_live, False, 0)),
        sched_step)

    # --- RESTRAND: vetoes random moves that wander away from the car
    def restrand_step(view):
        out = []
        for i in range(n):
            for scripted, act, resolved, anchor in obstacle_candidates(view, i):
                if scripted == RANDOM_DIR:
                    _, anchors, _ = view
                    if not move_allowed(view[0], anchors[i], mobiles[i].speed,
                                        resolved, scn.dist_min):
                        continue
                out.append((act, view_after_obstacle(view, i, resolved, anchor)))
        for _, act, cell in car_candidates(view[0]):
            out.append((act, view_after_car(view, cell)))
        return out

    restrand = Component(
        "RESTRAND",
        frozenset({"OBSTACLE_POSITION", "CAR_POSITION"}),
        initial_view,
        restrand_step)

    return Composition([manager, map_manager, move_car, lidar, scheduler, restrand])
