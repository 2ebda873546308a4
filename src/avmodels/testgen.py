"""Test-purpose guided scenario generation.

A test purpose is an ordered list of action patterns. Its monitor counts
down the patterns still to match: a transition matching the next pattern
takes one off, anything else leaves the count in place. The purpose product
is the kernel.Product of the model with that monitor, so its states are
(model state, patterns left), and the states with none left are accepting.
The product is explored on the fly and breadth first up to the first
accepting state; a shortest trace into it is the generated test. For
grid-model witnesses the trace folds into a tick-by-tick scenario that
replays against the model.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from . import values
from .kernel import (
    Action, Composition, ExplorationLimits, Lts, Monitor, Product, explore, goal_trace,
)
from .perception import GridScenario, decode_obstacle
from .grid_model import build_grid_composition

WILDCARD = "*"

TERMINALS = ("ARRIVAL", "COLLISION", "END")
BRIDGE_GATES = frozenset({"GRID_UPDATE", "GRID_CAR", "LIDAR_MAP", "END_OBSTACLE"})


class PurposeError(ValueError):
    pass


class FoldError(ValueError):
    """A trace does not follow the grid model's round structure."""


class ReplayError(ValueError):
    def __init__(self, step: int, msg: str):
        super().__init__(f"replay diverged at step {step}: {msg}")
        self.step = step


@dataclass(frozen=True)
class ActionPattern:
    gate: str
    offers: Optional[Tuple[Union[values.Value, str], ...]] = None  # None: any offers

    def matches(self, act: Action) -> bool:
        if act.gate != self.gate:
            return False
        if self.offers is None:
            return True
        if len(self.offers) != len(act.offers):
            return False
        return all(p == WILDCARD or p == o for p, o in zip(self.offers, act.offers))


@dataclass(frozen=True)
class TestPurpose:
    __test__ = False  # keep pytest from collecting the class by its name

    patterns: Tuple[ActionPattern, ...]

    def __post_init__(self):
        if not self.patterns:
            raise PurposeError("empty purpose")


def parse_purpose(data) -> TestPurpose:
    """From JSON: a list of {"gate": g, "offers": ["*" | canonical text]}.
    A missing offers key matches any offer arity.
    """
    if not isinstance(data, list):
        raise PurposeError("purpose must be a JSON list")
    patterns = []
    for i, entry in enumerate(data):
        if not isinstance(entry, dict) or "gate" not in entry:
            raise PurposeError(f"purpose step {i}: need an object with a gate")
        gate = entry["gate"]
        if not isinstance(gate, str) or not gate:
            raise PurposeError(f"purpose step {i}: bad gate {gate!r}")
        offers = None
        if "offers" in entry:
            raw = entry["offers"]
            if not isinstance(raw, list):
                raise PurposeError(f"purpose step {i}: offers must be a list")
            parsed = []
            for j, o in enumerate(raw):
                if o == WILDCARD:
                    parsed.append(WILDCARD)
                    continue
                if not isinstance(o, str):
                    raise PurposeError(f"purpose step {i} offer {j}: not a string")
                try:
                    parsed.append(values.parse_value(o))
                except values.ValueError_ as e:
                    raise PurposeError(f"purpose step {i} offer {j}: {e}")
            offers = tuple(parsed)
        patterns.append(ActionPattern(gate, offers))
    return TestPurpose(tuple(patterns))


def _purpose_monitor(patterns: Tuple[ActionPattern, ...]) -> Monitor:
    n = len(patterns)

    def step(left, act):
        return left - 1 if left and patterns[n - left].matches(act) else left

    return Monitor(n, step)


def _accepting(node: tuple) -> bool:
    return node[1] == 0


def product_with_purpose(system, purpose: TestPurpose,
                         limits: ExplorationLimits = ExplorationLimits()
                         ) -> Tuple[Lts, List[str]]:
    """Explore the product of system (a Composition or an Lts) with the
    purpose on the fly, up to its first accepting state. The payload is
    (system state, patterns left) and the limits count product states.
    A purpose gate that the explored part never fires gets a warning: the
    search ran dry without it. Raises ExplorationLimitError on a limit.
    """
    product = explore(Product(system, _purpose_monitor(purpose.patterns)), limits,
                      goal=_accepting)
    alphabet = product.alphabet()
    warnings = [f"purpose step {i}: gate {p.gate} never occurs in the model"
                for i, p in enumerate(purpose.patterns) if p.gate not in alphabet]
    return product, warnings


def extract_test(product: Lts) -> Optional[Tuple[Action, ...]]:
    """Shortest trace to the accepting state of a product from
    product_with_purpose; None when it holds none.
    """
    if product.state_payload is None:
        raise PurposeError("not a purpose product: no payload")
    return goal_trace(product, _accepting)


# ---------------------------------------------------------------------------
# trace folding and replay

@dataclass(frozen=True)
class ObstacleMove:
    kind: str
    source: Tuple[int, int]
    target: Tuple[int, int]
    direction: str


@dataclass(frozen=True)
class SimTick:
    obstacles: Tuple[ObstacleMove, ...]
    car: Optional[Tuple[Tuple[int, int], Tuple[int, int]]] = None


@dataclass(frozen=True)
class SimScenario:
    ticks: Tuple[SimTick, ...]
    terminal: Optional[str] = None  # ARRIVAL | COLLISION | END | None

    def to_json(self) -> dict:
        return {
            "ticks": [
                {
                    "obstacles": {
                        m.kind: {"from": list(m.source), "to": list(m.target),
                                 "direction": m.direction}
                        for m in t.obstacles
                    },
                    "car": None if t.car is None
                    else {"from": list(t.car[0]), "to": list(t.car[1])},
                }
                for t in self.ticks
            ],
            "terminal": self.terminal,
        }

    @staticmethod
    def from_json(data) -> "SimScenario":
        try:
            ticks = []
            for t in data["ticks"]:
                moves = tuple(
                    ObstacleMove(kind, _cell(m["from"]), _cell(m["to"]), m["direction"])
                    for kind, m in t["obstacles"].items())
                car = None
                if t.get("car") is not None:
                    car = (_cell(t["car"]["from"]), _cell(t["car"]["to"]))
                ticks.append(SimTick(moves, car))
            terminal = data.get("terminal")
        except (AttributeError, KeyError, TypeError) as e:
            raise FoldError(f"bad simulation scenario JSON: {e}")
        if terminal is not None and terminal not in TERMINALS:
            raise FoldError(f"bad terminal {terminal!r}")
        return SimScenario(tuple(ticks), terminal)


def _cell(raw) -> Tuple[int, int]:
    if (not isinstance(raw, list) or len(raw) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in raw)):
        raise FoldError(f"bad cell {raw!r}: need a list of two integers")
    return raw[0], raw[1]


def _decode_obstacle_move(act: Action) -> ObstacleMove:
    try:
        kind, target, _, _, _, direction, _ = decode_obstacle(act.offers[0])
        source = decode_obstacle(act.offers[1])[1]
    except (IndexError, values.ValueError_) as e:
        raise FoldError(f"bad OBSTACLE_POSITION offers in {act.text()!r}: {e}")
    return ObstacleMove(kind, source, target, direction)


def trace_to_scenario(trace: Sequence[Action]) -> SimScenario:
    """Fold a grid-model trace into ticks. Bookkeeping actions are dropped;
    the round structure (live obstacles once each, then the car, then TICK)
    is validated as it goes. Folding stops at the first terminal: arrival,
    collision, or the last live obstacle ending.
    """
    live: Optional[set] = None  # lazily learned from the first round
    first_round_kinds: List[str] = []
    ticks: List[SimTick] = []
    moved: List[ObstacleMove] = []
    car_move = None
    terminal = None
    in_first_round = True
    for act in trace:
        g = act.gate
        if g in ("GRID_UPDATE", "GRID_CAR", "LIDAR_MAP"):
            continue
        if g == "OBSTACLE_POSITION":
            mv = _decode_obstacle_move(act)
            if car_move is not None:
                raise FoldError(f"{mv.kind} moved after the car in one tick")
            if in_first_round:
                if mv.kind in first_round_kinds:
                    raise FoldError(f"{mv.kind} moved twice in one tick")
                first_round_kinds.append(mv.kind)
            else:
                if any(m.kind == mv.kind for m in moved):
                    raise FoldError(f"{mv.kind} moved twice in one tick")
                if live is not None and mv.kind not in live:
                    raise FoldError(f"{mv.kind} moved while ended")
            moved.append(mv)
            continue
        if g == "CAR_POSITION":
            if car_move is not None:
                raise FoldError("two car moves in one tick")
            try:
                car_move = ((act.offers[0].x, act.offers[0].y),
                            (act.offers[1].x, act.offers[1].y))
            except (AttributeError, IndexError) as e:
                raise FoldError(f"bad CAR_POSITION offers in {act.text()!r}: {e}")
            continue
        if g == "TICK":
            if live is None:
                live = set(first_round_kinds)
                in_first_round = False
            if {m.kind for m in moved} != live:
                raise FoldError("tick closed before every live obstacle moved")
            ticks.append(SimTick(tuple(moved), car_move))
            moved, car_move = [], None
            continue
        if g == "END_OBSTACLE":
            if len(act.offers) != 1 or not isinstance(act.offers[0], values.Sym):
                raise FoldError(f"bad END_OBSTACLE offers in {act.text()!r}")
            kind = act.offers[0].name
            if live is None:
                live = set(first_round_kinds)
                in_first_round = False
            if kind not in live:
                raise FoldError(f"{kind} ended twice")
            live.discard(kind)
            if not live:
                terminal = "END"
                break
            continue
        if g == "ARRIVAL":
            terminal = "ARRIVAL"
            break
        if g == "COLLISION":
            terminal = "COLLISION"
            break
        raise FoldError(f"gate {g} does not belong to a grid-model trace")
    if moved or car_move is not None:
        ticks.append(SimTick(tuple(moved), car_move))  # partial final tick
    return SimScenario(tuple(ticks), terminal)


def _matches_move(act: Action, mv: ObstacleMove) -> bool:
    if act.gate != "OBSTACLE_POSITION":
        return False
    got = _decode_obstacle_move(act)
    return (got.kind, got.target, got.direction) == (mv.kind, mv.target, mv.direction)


def _matches_car(act: Action, car) -> bool:
    if act.gate != "CAR_POSITION" or len(act.offers) != 2:
        return False
    prev, new = act.offers
    return (prev.x, prev.y) == tuple(car[0]) and (new.x, new.y) == tuple(car[1])


def replay(scn: GridScenario, sim: SimScenario,
           composition: Optional[Composition] = None) -> List[Action]:
    """Drive the composition along a folded scenario and return the complete
    label sequence it took, bookkeeping included. Raises ReplayError with
    the index of the first scenario step that cannot be matched.
    """
    comp = composition if composition is not None else build_grid_composition(scn)
    state = comp.initial_state
    taken: List[Action] = []
    step = 0

    def advance_to(want, description, also_bridge=frozenset()):
        nonlocal state
        budget = 4 * (len(scn.mobile) + 4)
        bridgeable = BRIDGE_GATES | also_bridge
        while True:
            enabled = comp.enabled_actions(state)
            for act, succ in enabled:
                if want(act):
                    taken.append(act)
                    state = succ
                    return act
            bridges = [(a, s) for a, s in enabled if a.gate in bridgeable]
            if not bridges:
                raise ReplayError(step, f"expected {description}, model offers "
                                        f"{sorted({a.gate for a, _ in enabled})}")
            act, succ = bridges[0]
            taken.append(act)
            state = succ
            budget -= 1
            if budget <= 0:
                raise ReplayError(step, f"no {description} within the round")

    for i, tick in enumerate(sim.ticks):
        for mv in tick.obstacles:
            advance_to(lambda a, mv=mv: _matches_move(a, mv),
                       f"{mv.kind} -> {mv.target}")
            step += 1
        if tick.car is not None:
            advance_to(lambda a, car=tick.car: _matches_car(a, car),
                       f"car -> {tick.car[1]}")
            step += 1
        if i + 1 < len(sim.ticks):
            # the folded trace may stop mid-round, so the last tick is
            # never required to close with TICK
            advance_to(lambda a: a.gate == "TICK", "TICK")
            step += 1
    if sim.terminal == "ARRIVAL":
        advance_to(lambda a: a.gate == "ARRIVAL", "ARRIVAL")
    elif sim.terminal == "COLLISION":
        advance_to(lambda a: a.gate == "COLLISION", "COLLISION")
    elif sim.terminal == "END":
        # earlier ends fire while bridging; only wait for the ones missing.
        # The last ones sit at the head of the round after the final folded
        # tick, so crossing that one TICK is part of the wind-down.
        total = sum(1 for m in scn.mobile if not m.cyclic)
        while sum(1 for a in taken if a.gate == "END_OBSTACLE") < total:
            advance_to(lambda a: a.gate == "END_OBSTACLE", "END_OBSTACLE",
                       also_bridge=frozenset({"TICK"}))
    return taken
