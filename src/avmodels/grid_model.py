"""Grid-world composition of four components: obstacle manager,
ground-truth map, car and lidar. The map (MAP_MANAGER) alone keeps the round
order, and the manager alone restrains random moves.

Each round, every live obstacle announces itself (GRID_UPDATE !kind) and
moves (OBSTACLE_POSITION), then the car moves (CAR_POSITION) or arrives, the
map hands the car position to the lidar (GRID_CAR), the lidar publishes its
perception (LIDAR_MAP) and the round closes with TICK. A crash right after a
car move raises COLLISION !kind instead of the lidar handshake; an obstacle
out of moves emits END_OBSTACLE !kind in place of its slot, once.

Only the actor that decides a move offers it: the manager offers each
obstacle's scripted move (every resolution of a random one that keeps to the
distance rule of move_allowed) and MOVE_CAR the car's. Everyone else
receives the move that fires and keeps what it needs of it: the manager the
car cell, the map and the lidar every actor's cells.

A composition builds each label value once: each OBSTACLE_POSITION action
per obstacle, new anchor and direction, previous anchor and direction and
scripted move, each GRID_CAR action per cell, each Obstacle record and each
Sym, so that the kernel finds them by identity. The receivers decode a
shared Obstacle record through a table keyed by its id(), which stays valid
while the cache of records keeps the record alive, and any other value with
decode_obstacle. Each receiver is one function per component and gate, made
once per composition; the kernel hands it the local state with the offers.
"""
from __future__ import annotations

import functools

from .kernel import Action, Component, Composition, Receive
from .perception import (
    DIRECTIONS,
    GridScenario,
    build_grid_map,
    compute_perception,
    decode_obstacle,
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
    width, height = scn.width, scn.height
    mobiles = scn.mobile
    n = len(mobiles)
    kinds = tuple(ob.kind for ob in mobiles)
    index = {k: i for i, k in enumerate(kinds)}

    static_cells = {c: ob.kind for ob in scn.static for c in rect_cells(ob.anchor(), ob.w, ob.h)}
    car0 = (scn.car.x, scn.car.y)
    anchors0 = tuple(ob.anchor() for ob in mobiles)

    # each label value is built once per composition, so equal labels reach
    # the kernel as one object: sym covers directions, kinds and perception cells
    sym = functools.cache(Sym)
    decoded = {}  # id(shared record) -> decode_obstacle of it; rec_value's cache keeps it alive

    @functools.cache
    def rec_value(i: int, anchor, direction):
        ob = mobiles[i]
        fields = (ob.kind, anchor, ob.w, ob.h, ob.speed, direction, ob.transparent)
        v = obstacle_value(*fields)
        decoded[id(v)] = fields
        return v

    def decode(v) -> tuple:
        """decode_obstacle(v), looked up for a shared record."""
        fields = decoded.get(id(v))
        return decode_obstacle(v) if fields is None else fields

    @functools.cache
    def move_action(i, anchor, direction, prev_anchor, prev_direction, scripted) -> Action:
        return Action("OBSTACLE_POSITION", (rec_value(i, anchor, direction),
                                            rec_value(i, prev_anchor, prev_direction),
                                            sym(scripted)))

    grid_car = functools.cache(lambda cell: Action("GRID_CAR", (position_value(cell),)))

    def with_anchor(anchors, i, anchor):
        return anchors[:i] + (anchor,) + anchors[i + 1:]

    def cell_of(pos):
        return (pos.x, pos.y)

    def obstacle_moves(view, i, scripted):
        """(action, resolved, new anchor) for each way obstacle i can carry
        out its scripted move. A move onto an occupied or off-map cell stays
        in place but still resolves its direction; random resolves to any
        in-bounds free direction, or to none, that move_allowed permits
        from the car cell.
        """
        car, anchors, dirs = view
        ob = mobiles[i]
        # the cells a move may not enter: the car's, the buildings' and the other obstacles'
        taken = {car, *static_cells}.union(*(rect_cells(anchors[j], mobiles[j].w, mobiles[j].h)
                                             for j in range(n) if j != i))

        def target(d):
            anchor = step_position(anchors[i], d, ob.speed, width, height)
            if anchor is not None and all(0 <= x < width and 0 <= y < height
                                          and (x, y) not in taken
                                          for x, y in rect_cells(anchor, ob.w, ob.h)):
                return anchor
            return None

        if scripted == RANDOM_DIR:
            resolutions = [(d, target(d)) for d in STEP_DIRS] + [("none", anchors[i])]
            options = [(d, anchor) for d, anchor in resolutions if anchor is not None
                       and move_allowed(car, anchors[i], ob.speed, d, scn.dist_min)]
        else:
            options = [(scripted, target(scripted) or anchors[i])]
        return [(move_action(i, anchor, d, anchors[i], dirs[i], scripted), d, anchor)
                for d, anchor in options]

    def car_targets(car, scripted):
        """Cells the car's scripted move can reach, in DIRECTIONS order for
        random. Bounds are the only constraint (an off-map move stays put);
        driving onto an occupied cell is what triggers COLLISION."""
        cells = []
        for d in DIRECTIONS if scripted == RANDOM_DIR else (scripted,):
            cell = step_position(car, d, scn.car.speed, width, height) or car
            if cell not in cells:
                cells.append(cell)
        return cells

    def occupant_kind(anchors, cell):
        """Kind of the building or obstacle that covers cell, or None."""
        if cell in static_cells:
            return static_cells[cell]
        for j in range(n):
            if cell in rect_cells(anchors[j], mobiles[j].w, mobiles[j].h):
                return kinds[j]
        return None

    grid_update = {k: Action("GRID_UPDATE", (sym(k),)) for k in kinds}
    end_obstacle = {k: Action("END_OBSTACLE", (sym(k),)) for k in kinds}
    ARRIVAL = Action("ARRIVAL")
    TICK = Action("TICK")

    # --- OBSTACLES_MANAGER: owns the scripts, walks its own slot order; its
    # view is (car cell, obstacle anchors, obstacle directions)
    def mgr_norm(idx, scripts):
        for k in range(n):
            j = (idx + k) % n
            if not scripts[j][1]:
                return j
        return None

    def mgr_car_moved(st, offers):
        view, scripts, idx = st
        return (cell_of(offers[1]),) + view[1:], scripts, idx

    def mgr_step(st):
        """An obstacle with moves left offers GRID_UPDATE, which keeps the
        state, and its moves; MAP_MANAGER's phase puts the announcement
        first. One out of moves offers END_OBSTACLE."""
        view, scripts, idx = st
        out = [(Receive("CAR_POSITION"), mgr_car_moved)]
        if idx is None:
            return out
        remaining = scripts[idx][0]
        kind = kinds[idx]
        if not remaining:
            scripts2 = scripts[:idx] + ((remaining, True),) + scripts[idx + 1:]
            out.append((end_obstacle[kind], (view, scripts2, mgr_norm(idx + 1, scripts2))))
            return out
        out.append((grid_update[kind], st))
        rest = remaining[1:]
        if not rest and mobiles[idx].cyclic:
            rest = tuple(mobiles[idx].moves)
        scripts2 = scripts[:idx] + ((rest, False),) + scripts[idx + 1:]
        car, anchors, dirs = view
        for act, resolved, anchor in obstacle_moves(view, idx, remaining[0]):
            view2 = (car, with_anchor(anchors, idx, anchor), with_anchor(dirs, idx, resolved))
            out.append((act, (view2, scripts2, mgr_norm(idx + 1, scripts2))))
        return out

    mgr_scripts = tuple((tuple(ob.moves), False) for ob in mobiles)
    manager = Component(
        "OBSTACLES_MANAGER",
        frozenset({"GRID_UPDATE", "OBSTACLE_POSITION", "END_OBSTACLE", "CAR_POSITION"}),
        ((car0, anchors0, tuple(ob.direction for ob in mobiles)),
         mgr_scripts, mgr_norm(0, mgr_scripts)),
        mgr_step)

    # --- MAP_MANAGER: ground truth (car cell, obstacle anchors) and the
    # round order
    def map_norm(live, car_dead, j):
        """Round phase from slot j on: the next live obstacle's "say" stage
        (GRID_UPDATE or END_OBSTACLE), then the car while it runs, then TICK
        while any obstacle lives."""
        while j < n and not live[j]:
            j += 1
        if j < n:
            return ("obs", j, "say")
        if not car_dead:
            return ("car",)
        if any(live):
            return ("tick",)
        return ("halted",)

    def map_obstacle_moved(st, offers):
        (car, anchors), live, car_dead, (_, i, _) = st
        kind, anchor = decode(offers[0])[:2]
        if kind != kinds[i]:
            return None
        return ((car, with_anchor(anchors, i, anchor)), live, car_dead,
                map_norm(live, car_dead, i + 1))

    def map_car_moved(st, offers):
        (_, anchors), live, car_dead, _ = st
        cell = cell_of(offers[1])
        hit = occupant_kind(anchors, cell)
        return (cell, anchors), live, car_dead, ("coll", hit) if hit else ("grid_car",)

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
                out.append((Receive("OBSTACLE_POSITION"), map_obstacle_moved))
        elif tag == "car":
            out.append((Receive("CAR_POSITION"), map_car_moved))
            out.append((ARRIVAL, (view, live, True, ("tick",))))
        elif tag == "coll":
            out.append((Action("COLLISION", (sym(phase[1]),)), (view, live, True, ("tick",))))
        elif tag == "grid_car":
            out.append((grid_car(view[0]), (view, live, car_dead, ("tick",))))
        elif tag == "tick":
            out.append((TICK, (view, live, car_dead, map_norm(live, car_dead, 0))))
        return out

    map_init_live = tuple(True for _ in mobiles)
    map_manager = Component(
        "MAP_MANAGER",
        frozenset({"GRID_UPDATE", "OBSTACLE_POSITION", "END_OBSTACLE", "CAR_POSITION",
                   "ARRIVAL", "COLLISION", "GRID_CAR", "TICK"}),
        ((car0, anchors0), map_init_live, False, map_norm(map_init_live, False, 0)),
        map_step)

    # --- MOVE_CAR: the car's own script
    def car_crashed(st, offers):
        return st[0], st[1], True

    def car_step(st):
        pos, remaining, dead = st
        if dead:
            return []
        out = [(Receive("COLLISION"), car_crashed)]
        if remaining:
            rest = remaining[1:]
            if not rest and scn.car.cyclic:
                rest = tuple(scn.car.moves)
            for cell in car_targets(pos, remaining[0]):
                out.append((Action("CAR_POSITION", (position_value(pos), position_value(cell))),
                            (cell, rest, False)))
        else:
            out.append((ARRIVAL, (pos, remaining, True)))
        return out

    move_car = Component(
        "MOVE_CAR",
        frozenset({"CAR_POSITION", "ARRIVAL", "COLLISION"}),
        (car0, tuple(scn.car.moves), False),
        car_step)

    # --- LIDAR_MANAGER: tracks the actors' cells, publishes the 5x5 perception
    static_placed = [(ob.kind, ob.transparent, ob.anchor(), ob.w, ob.h) for ob in scn.static]

    def make_map(car, anchors):
        placed = static_placed + [(mobiles[j].kind, mobiles[j].transparent, anchors[j],
                                   mobiles[j].w, mobiles[j].h) for j in range(n)]
        return build_grid_map(width, height, placed, car)

    def lidar_obstacle_moved(st, offers):
        (car, anchors), prev, prev_car, _ = st
        kind, anchor = decode(offers[0])[:2]
        return (car, with_anchor(anchors, index[kind], anchor)), prev, prev_car, False

    def lidar_car_moved(st, offers):
        (_, anchors), prev, prev_car, _ = st
        return (cell_of(offers[1]), anchors), prev, prev_car, False

    def lidar_step(st):
        view, prev, prev_car, duty = st
        car, anchors = view
        if duty:
            grid = compute_perception(make_map(car, anchors), prev, prev_car)
            offers = (perception_value(grid, sym),) if expose_grid else ()
            return [(Action("LIDAR_MAP", offers), (view, grid, car, False))]
        return [(Receive("OBSTACLE_POSITION"), lidar_obstacle_moved),
                (Receive("CAR_POSITION"), lidar_car_moved),
                (grid_car(car), (view, prev, prev_car, True)),
                (TICK, st)]

    lidar = Component(
        "LIDAR_MANAGER",
        frozenset({"OBSTACLE_POSITION", "CAR_POSITION", "GRID_CAR", "TICK"}),
        ((car0, anchors0), None, None, False),
        lidar_step)

    return Composition([manager, map_manager, move_car, lidar])
