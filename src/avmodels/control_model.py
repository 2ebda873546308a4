"""Street-graph driving model.

The city is a directed graph whose edges are named streets and whose vertices
are crossroads. The car sits on a street (an edge); moving means picking one
of the outgoing edges of the street's head vertex, by index. Obstacles occupy
streets and follow finite scripts of operations.

build_control_composition wires six components around twelve gates:

    RADAR     --UPDATE_GRID-->       fed by the map, reports changes
    RADAR     --CURRENT_GRID-->      to ACTION
    GPS       --UPDATE_POSITION-->   fed by the map
    DECISION  --REQUEST_POSITION/CURRENT_POSITION--> GPS
    ACTION    --REQUEST_PATH--> DECISION (+ map, see below)
    DECISION  --CURRENT_PATH--> ACTION, or ARRIVAL with the map
    ACTION    --CAR_MOVE/COLLISION--> MAP
    OBSTACLES --OBSTACLE_MOVE/END_OBSTACLE--> MAP

REQUEST_PATH also synchronizes with the map so a path request can only fire
when the map is idle (post-move position/grid pushes delivered); otherwise
DECISION could plan from a stale GPS position and produce a turn index that
is invalid at the car's real street.

The side that produces a value offers it; the side that only follows it
receives it: RADAR the grid, GPS the street, DECISION the grid to plan
against and the position to plan from (it computes the itinerary then),
ACTION the current grid and the itinerary, and the map any path request,
each with one function per component and gate, fn(local state, offers).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Dict, FrozenSet, List, Tuple, Union

from .kernel import Action, Component, Composition, Receive, search
from .values import Nat, Rec, Seq, Sym, Value, ValueError_

BRAKES = "brakes"
LEAVE = "leave"
RANDOM = "random"


@dataclass(frozen=True)
class Turn:
    """Take the n-th outgoing street at the current street's head vertex."""
    n: int


Control = Union[Turn, str]  # Turn or BRAKES
Op = Union[Turn, str]       # Turn, LEAVE or RANDOM (scripts only)


class MapError(ValueError):
    pass


Vertex = Union[int, str]


@dataclass(frozen=True)
class GraphMap:
    vertices: Tuple[Vertex, ...]
    edges: Tuple[Tuple[Vertex, str, Vertex], ...]  # (src, street, dst) in declaration order
    # street -> the streets leaving its head vertex, in declaration order
    _next: dict = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        leaving: Dict[Vertex, List[str]] = {v: [] for v in self.vertices}
        if len(leaving) != len(self.vertices):
            raise MapError("duplicate vertices")
        head = {}
        for src, street, dst in self.edges:
            if src not in leaving or dst not in leaving:
                raise MapError(f"edge {street} endpoint not a vertex")
            if street in head:
                raise MapError(f"duplicate street name {street}")
            try:
                Sym(street)  # labels carry the street as a symbol
            except ValueError_:
                raise MapError(f"street name {street!r} is not a symbol name") from None
            head[street] = dst
            leaving[src].append(street)
        out = {v: tuple(streets) for v, streets in leaving.items()}
        object.__setattr__(self, "_next", {street: out[v] for street, v in head.items()})

    def streets(self) -> Tuple[str, ...]:
        return tuple(s for _, s, _ in self.edges)

    def has_street(self, street: str) -> bool:
        return street in self._next


def successors(gmap: GraphMap, street: str) -> Tuple[str, ...]:
    """Streets leaving the head vertex of street, in edge declaration order."""
    try:
        return gmap._next[street]
    except KeyError:
        raise MapError(f"unknown street {street}") from None


def consistent_move(gmap: GraphMap, street: str, control: Control, target: str) -> bool:
    """Does applying control on street legitimately land on target?"""
    if control == BRAKES:
        return target == street
    if isinstance(control, Turn):
        succ = successors(gmap, street)
        return 0 <= control.n < len(succ) and target == succ[control.n]
    raise MapError(f"not a control: {control!r}")


def expand_random(gmap: GraphMap, street: str) -> Tuple[Op, ...]:
    """Concrete operations a 'random' script entry can resolve to."""
    return tuple(Turn(i) for i in range(len(successors(gmap, street)))) + (LEAVE,)


@dataclass(frozen=True)
class Itinerary:
    controls: Tuple[Turn, ...]
    reachable: bool


def compute_itinerary(gmap: GraphMap, origin: str, destination: str,
                      blocked: FrozenSet[str] = frozenset()) -> Itinerary:
    """Shortest control sequence from origin to destination avoiding blocked
    streets. Ties resolve to the smallest successor index at the earliest
    divergence point, which is what breadth-first search with in-order
    expansion and first-visit-wins produces. The origin may be blocked (the
    car is already there); a blocked destination is unreachable.
    """
    for s in (origin, destination):
        if not gmap.has_street(s):
            raise MapError(f"unknown street {s}")

    def turns(street):
        return [(Turn(i), nxt) for i, nxt in enumerate(successors(gmap, street))
                if nxt not in blocked]

    _, trace = search(SimpleNamespace(initial_state=origin, enabled_actions=turns),
                      lambda street: street == destination)
    return Itinerary((), False) if trace is None else Itinerary(trace, True)


# ---------------------------------------------------------------------------
# label value encodings

def control_value(control: Control) -> Value:
    if control == BRAKES:
        return Sym(BRAKES)
    if isinstance(control, Turn):
        return Rec("turned_n", (Nat(control.n),))
    raise MapError(f"not a control: {control!r}")


def grid_value(occupied) -> Value:
    return Rec("Radar", (Seq(tuple(Sym(s) for s in sorted(occupied))),))


def decode_grid(v: Value) -> Tuple[str, ...]:
    """Inverse of grid_value: the sorted occupied streets. Raises
    ValueError_ on any other value."""
    try:
        streets = tuple(s.name for s in v.fields[0].items)
    except (AttributeError, IndexError, TypeError):
        streets = None
    if streets is None or grid_value(streets) != v:
        raise ValueError_(f"not a Radar value: {v!r}")
    return streets


def itinerary_value(it: Itinerary) -> Value:
    return Seq(tuple(control_value(c) for c in it.controls))


# ---------------------------------------------------------------------------
# scenario and composition

@dataclass(frozen=True)
class ObstacleScript:
    street: str
    moves: Tuple[Op, ...]


@dataclass(frozen=True)
class ControlScenario:
    gmap: GraphMap
    car_street: str
    destination: str
    obstacles: Tuple[ObstacleScript, ...] = ()

    def __post_init__(self):
        for s in (self.car_street, self.destination):
            if not self.gmap.has_street(s):
                raise MapError(f"unknown street {s}")
        seen = set()
        for i, ob in enumerate(self.obstacles):
            if not self.gmap.has_street(ob.street):
                raise MapError(f"obstacle {i} on unknown street {ob.street}")
            if ob.street == self.car_street or ob.street in seen:
                raise MapError(f"obstacle {i} starts on an occupied street")
            seen.add(ob.street)
            for m in ob.moves:
                if not (m in (LEAVE, RANDOM) or isinstance(m, Turn)):
                    raise MapError(f"obstacle {i}: bad op {m!r}")

    @property
    def end_obstacle_total(self) -> int:
        """END_OBSTACLEs that end a run: one per obstacle."""
        return len(self.obstacles)


def build_control_composition(scn: ControlScenario) -> Composition:
    gmap = scn.gmap

    # --- RADAR: tracks the map's grid, reports changes to ACTION
    def radar_updated(st, offers):
        return decode_grid(offers[0]), st[1]

    def radar_step(st):
        known, last_sent = st
        out = [(Receive("UPDATE_GRID"), radar_updated)]
        if known is not None and known != last_sent:
            out.append((Action("CURRENT_GRID", (grid_value(known),)), (known, known)))
        return out

    radar = Component("RADAR", frozenset({"UPDATE_GRID", "CURRENT_GRID"}),
                      (None, None), radar_step)

    # --- GPS: tracks the exact street, answers position requests
    def gps_updated(st, offers):
        return offers[0].name, False

    def gps_step(st):
        street, answering = st
        if answering:
            return [(Action("CURRENT_POSITION", (Sym(street),)), (street, False))]
        return [(Receive("UPDATE_POSITION"), gps_updated),
                (Action("REQUEST_POSITION"), (street, True))]

    gps = Component("GPS",
                    frozenset({"UPDATE_POSITION", "REQUEST_POSITION", "CURRENT_POSITION"}),
                    (scn.car_street, False), gps_step)

    # --- DECISION: turns (position, perceived grid) into an itinerary
    def asked(st, offers):
        return "asked", decode_grid(offers[0])

    def plan(st, offers):
        street = offers[0].name
        if street == scn.destination:
            return ("arrival",)
        it = compute_itinerary(gmap, street, scn.destination, frozenset(st[1]))
        return "reply", itinerary_value(it)

    def decision_step(st):
        tag = st[0]
        if tag == "idle":
            return [(Receive("REQUEST_PATH"), asked)]
        if tag == "asked":
            return [(Action("REQUEST_POSITION"), ("awaiting", st[1]))]
        if tag == "awaiting":
            return [(Receive("CURRENT_POSITION"), plan)]
        if tag == "arrival":
            return [(Action("ARRIVAL"), ("done",))]
        if tag == "reply":
            return [(Action("CURRENT_PATH", (st[1],)), ("idle",))]
        return []  # done

    decision = Component("DECISION",
                         frozenset({"REQUEST_PATH", "REQUEST_POSITION", "CURRENT_POSITION",
                                    "CURRENT_PATH", "ARRIVAL"}),
                         ("idle",), decision_step)

    # --- ACTION: drives, braking when perception changed under its feet
    def changed(st, offers):
        g2 = decode_grid(offers[0])
        if st[0] == "awaiting":
            return "awaiting", st[1], g2
        return None if st[0] == "wait" and g2 == st[1] else ("request", g2)

    def follow(st, offers):
        _, g_sent, g_now = st
        steps = offers[0].items
        if not steps:
            return ("wait", g_now)
        if g_now != g_sent:
            return ("brake", g_now)
        return ("move", steps[0], g_now)

    def action_step(st):
        tag = st[0]
        out = []
        if tag != "halted":
            out.append((Action("COLLISION"), ("halted",)))
        if tag in ("wait", "request", "awaiting"):
            out.append((Receive("CURRENT_GRID"), changed))
        if tag == "request":
            out.append((Action("REQUEST_PATH", (grid_value(st[1]),)), ("awaiting", st[1], st[1])))
        elif tag == "awaiting":
            out.append((Receive("CURRENT_PATH"), follow))
        elif tag == "brake":
            out.append((Action("CAR_MOVE", (control_value(BRAKES),)), ("request", st[1])))
        elif tag == "move":
            out.append((Action("CAR_MOVE", (st[1],)), ("request", st[2])))
        return out

    action = Component("ACTION",
                       frozenset({"CURRENT_GRID", "REQUEST_PATH", "CURRENT_PATH",
                                  "CAR_MOVE", "COLLISION"}),
                       ("wait", None), action_step)

    # --- OBSTACLES: all scripts under one roof; the label carries the index
    def obstacles_step(st):
        out = []
        for i, (street, remaining, ended) in enumerate(st):
            if not remaining:
                if not ended:
                    sub = (street, remaining, True)
                    out.append((Action("END_OBSTACLE", (Nat(i),)),
                                st[:i] + (sub,) + st[i + 1:]))
                continue
            m = remaining[0]
            ops = expand_random(gmap, street) if m == RANDOM else (m,)
            for op in ops:
                if op == LEAVE:
                    sub = (None, (), False)
                    offers = (Nat(i), Sym(LEAVE), Sym(street))
                else:  # a Turn
                    succ = successors(gmap, street)
                    if op.n >= len(succ):
                        continue  # invalid scripted turn never fires
                    sub = (succ[op.n], remaining[1:], False)
                    offers = (Nat(i), control_value(op), Sym(succ[op.n]))
                out.append((Action("OBSTACLE_MOVE", offers), st[:i] + (sub,) + st[i + 1:]))
        return out

    obstacles_init = tuple((ob.street, tuple(ob.moves), False) for ob in scn.obstacles)
    obstacles = Component("OBSTACLES", frozenset({"OBSTACLE_MOVE", "END_OBSTACLE"}),
                          obstacles_init, obstacles_step)

    # --- MAP_MANAGEMENT: ground truth, validity filter, update pushes
    def unchanged(st, offers):
        return st

    def grid_of(obst):
        return tuple(sorted(s for s in obst if s is not None))

    def map_step(st):
        phase, car, obst, live = st
        out = []
        if phase == "init":
            out.append((Action("UPDATE_GRID", (grid_value(grid_of(obst)),)),
                        ("idle", car, obst, live)))
        elif phase == "idle":
            occupied = set(obst) - {None}
            for i, s in enumerate(obst):
                if s is None or not live[i]:
                    continue
                out.append((Action("OBSTACLE_MOVE", (Nat(i), Sym(LEAVE), Sym(s))),
                            ("push_grid", car, obst[:i] + (None,) + obst[i + 1:], live)))
                for k, target in enumerate(successors(gmap, s)):
                    if target == car or target in occupied:
                        continue
                    out.append((Action("OBSTACLE_MOVE",
                                       (Nat(i), control_value(Turn(k)), Sym(target))),
                                ("push_grid", car, obst[:i] + (target,) + obst[i + 1:], live)))
            for i, alive in enumerate(live):
                if not alive:
                    continue
                live2 = live[:i] + (False,) + live[i + 1:]
                nxt = "halted" if (live and not any(live2)) else "idle"
                out.append((Action("END_OBSTACLE", (Nat(i),)), (nxt, car, obst, live2)))
            out.append((Action("CAR_MOVE", (control_value(BRAKES),)), ("push_pos", car, obst, live)))
            for k, target in enumerate(successors(gmap, car)):
                nxt = "collision" if target in occupied else "push_pos"
                out.append((Action("CAR_MOVE", (control_value(Turn(k)),)),
                            (nxt, target, obst, live)))
            out.append((Receive("REQUEST_PATH"), unchanged))
            out.append((Action("ARRIVAL"), ("halted", car, obst, live)))
        elif phase == "push_pos":
            out.append((Action("UPDATE_POSITION", (Sym(car),)), ("push_grid", car, obst, live)))
        elif phase == "push_grid":
            out.append((Action("UPDATE_GRID", (grid_value(grid_of(obst)),)),
                        ("idle", car, obst, live)))
        elif phase == "collision":
            out.append((Action("COLLISION"), ("halted", car, obst, live)))
        return out

    map_init = ("init", scn.car_street,
                tuple(ob.street for ob in scn.obstacles),
                tuple(True for _ in scn.obstacles))
    map_mgmt = Component("MAP_MANAGEMENT",
                         frozenset({"UPDATE_GRID", "UPDATE_POSITION", "REQUEST_PATH",
                                    "OBSTACLE_MOVE", "END_OBSTACLE", "CAR_MOVE",
                                    "COLLISION", "ARRIVAL"}),
                         map_init, map_step)

    return Composition([radar, gps, decision, action, obstacles, map_mgmt])
