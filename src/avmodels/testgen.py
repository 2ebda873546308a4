"""Test-purpose guided scenario generation.

A test purpose is an ordered list of action patterns. Its monitor counts
down the patterns still to match: a transition matching the next pattern
takes one off, anything else leaves the count in place. The purpose product
is the kernel.Product of the model with that monitor: its states are the
model state and then the patterns left, accepting with none left. The
product is explored on the fly and breadth first up to the first accepting
state; a shortest trace into it is the generated test. For grid-model
witnesses the trace folds into a tick-by-tick scenario; the fold only
projects the moves onto ticks, and replay is the judge of a scenario.
Replaying one is a search too: the product of the model with a monitor that
counts the scenario's steps matched, up to the state where all are.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Optional, Sequence, Tuple, Union

from . import values
from .kernel import (
    Action, ExplorationLimits, Lts, Monitor, Product, explore, goal_trace, search,
)
from .perception import DIRECTIONS, GridScenario, decode_obstacle
from .grid_model import build_grid_composition

WILDCARD = "*"

TERMINALS = ("ARRIVAL", "COLLISION", "END")
BRIDGE_GATES = frozenset({"GRID_UPDATE", "GRID_CAR", "LIDAR_MAP", "END_OBSTACLE"})


class PurposeError(ValueError):
    pass


class FoldError(ValueError):
    """A trace or a sim's JSON that a simulation scenario cannot hold."""


class ReplayError(ValueError):
    """No explored run of the model matches a scenario's step-th step
    (0-based): a move, TICK or terminal of its 1-based tick."""

    def __init__(self, step: int, tick: int, msg: str):
        super().__init__(f"tick {tick}: {msg}")
        self.step = step
        self.tick = tick


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
    return node[-1] == 0


def product_with_purpose(system, purpose: TestPurpose,
                         limits: ExplorationLimits = ExplorationLimits()
                         ) -> Tuple[Lts, List[str]]:
    """Explore the product of system (a Composition or an Lts) with the
    purpose on the fly, up to its first accepting state. A payload node is
    the system state followed by the patterns left, and the limits count
    product states.
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
        """Raises FoldError naming the tick and the field that is malformed."""
        if not isinstance(data, dict) or not isinstance(data.get("ticks"), list):
            raise FoldError("a simulation scenario must be an object with a ticks list")
        ticks = []
        for i, t in enumerate(data["ticks"], start=1):
            if not isinstance(t, dict):
                raise FoldError(f"tick {i} must be an object")
            if not isinstance(t.get("obstacles"), dict):
                raise FoldError(f"tick {i}: obstacles must be an object")
            moves = []
            for kind, m in t["obstacles"].items():
                where = f"tick {i}: obstacles.{kind}"
                if not isinstance(m, dict) or not {"from", "to", "direction"} <= m.keys():
                    raise FoldError(f"{where} must be an object with from, to and direction")
                if m["direction"] not in DIRECTIONS:
                    raise FoldError(f"{where}.direction: bad direction {m['direction']!r}: "
                                    f"need one of {', '.join(DIRECTIONS)}")
                moves.append(ObstacleMove(kind, _cell(m["from"], f"{where}.from"),
                                          _cell(m["to"], f"{where}.to"), m["direction"]))
            car = t.get("car")
            if car is not None:
                if not isinstance(car, dict) or not {"from", "to"} <= car.keys():
                    raise FoldError(f"tick {i}: car must be null or an object with from and to")
                car = (_cell(car["from"], f"tick {i}: car.from"),
                       _cell(car["to"], f"tick {i}: car.to"))
            ticks.append(SimTick(tuple(moves), car))
        terminal = data.get("terminal")
        if terminal is not None and terminal not in TERMINALS:
            raise FoldError(f"bad terminal {terminal!r}")
        return SimScenario(tuple(ticks), terminal)


def _cell(raw, where: str) -> Tuple[int, int]:
    if (not isinstance(raw, list) or len(raw) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in raw)):
        raise FoldError(f"{where}: bad cell {raw!r}: need a list of two integers")
    return raw[0], raw[1]


def _decode_obstacle_move(act: Action) -> ObstacleMove:
    try:
        kind, target, _, _, _, direction, _ = decode_obstacle(act.offers[0])
        source = decode_obstacle(act.offers[1])[1]
    except (IndexError, values.ValueError_) as e:
        raise FoldError(f"bad OBSTACLE_POSITION offers in {act.text()!r}: {e}")
    return ObstacleMove(kind, source, target, direction)


def trace_to_scenario(trace: Sequence[Action]) -> SimScenario:
    """Fold a grid-model trace into ticks, dropping bookkeeping actions;
    replay, not the fold, judges the rounds. Folding stops at the first
    terminal: arrival, collision, or the last live obstacle (one that moved
    in the first round) ending after the first TICK. Raises FoldError only
    where a sim cannot say what the trace says: an undecodable offer, a gate
    the grid model lacks, or, within one tick, a second car move, a second
    move of one obstacle or an obstacle move after the car's.
    """
    live: Optional[set] = None  # the kinds that moved in the first round
    ticks: List[SimTick] = []
    moved: List[ObstacleMove] = []
    car_move = None
    terminal = None
    for act in trace:
        g = act.gate
        if g in ("GRID_UPDATE", "GRID_CAR", "LIDAR_MAP"):
            continue
        if g == "OBSTACLE_POSITION":
            mv = _decode_obstacle_move(act)
            if car_move is not None:
                raise FoldError(f"{mv.kind} moved after the car in one tick")
            if any(m.kind == mv.kind for m in moved):
                raise FoldError(f"{mv.kind} moved twice in one tick")
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
                live = {m.kind for m in moved}
            ticks.append(SimTick(tuple(moved), car_move))
            moved, car_move = [], None
            continue
        if g == "END_OBSTACLE":
            if len(act.offers) != 1 or not isinstance(act.offers[0], values.Sym):
                raise FoldError(f"bad END_OBSTACLE offers in {act.text()!r}")
            if live is not None:
                live.discard(act.offers[0].name)
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
    return act.gate == "OBSTACLE_POSITION" and _decode_obstacle_move(act) == mv


def _matches_car(act: Action, car) -> bool:
    if act.gate != "CAR_POSITION" or len(act.offers) != 2:
        return False
    prev, new = act.offers
    return (prev.x, prev.y) == tuple(car[0]) and (new.x, new.y) == tuple(car[1])


def replay(scn: GridScenario, sim: SimScenario) -> List[Action]:
    """The complete label sequence, bookkeeping included, of the grid model's
    run along a folded scenario, found by a search of the model's product
    with a monitor of (steps matched, END_OBSTACLEs seen). The steps are
    each tick's obstacle moves, in the scenario's mobile order, its car move
    and TICK (the folded trace may stop mid-round, so the last tick does not
    close with one), then an ARRIVAL or COLLISION terminal. A move matches
    on its mover, source cell, target cell and direction. A transition
    matching the next step advances the monitor; bookkeeping leaves it in
    place, and so does TICK once an END terminal only waits for every
    non-cyclic obstacle to end; every other transition is cut. Raises
    ReplayError naming the first step no explored run matched and its tick;
    a terminal, and the wait for the last END_OBSTACLE, belong to the last
    tick.
    """
    last = len(sim.ticks) or 1
    steps: List[Tuple[Callable[[Action], bool], int, str]] = []
    for i, tick in enumerate(sim.ticks, start=1):
        for mv in tick.obstacles:
            steps.append((partial(_matches_move, mv=mv), i, f"{mv.kind} moves from "
                          f"{mv.source} to {mv.target} {mv.direction}"))
        if tick.car is not None:
            steps.append((partial(_matches_car, car=tick.car), i,
                          f"the car moves from {tick.car[0]} to {tick.car[1]}"))
        if i < last:
            steps.append((ActionPattern("TICK").matches, i, "TICK"))
    if sim.terminal in ("ARRIVAL", "COLLISION"):
        steps.append((ActionPattern(sim.terminal).matches, last, sim.terminal))
    n = len(steps)
    wind_down = sim.terminal == "END"
    ends_wanted = scn.end_obstacle_total if wind_down else 0

    def step(seen, act):
        matched, ends = seen
        if matched < n and steps[matched][0](act):
            return matched + 1, ends
        if act.gate in BRIDGE_GATES:
            return matched, ends + (act.gate == "END_OBSTACLE")
        if wind_down and matched == n and act.gate == "TICK":
            return seen
        return None

    explored, trace = search(Product(build_grid_composition(scn), Monitor((0, 0), step)),
                             lambda node: node[-1][0] == n and node[-1][1] >= ends_wanted)
    if trace is None:
        at = max(node[-1][0] for node in explored.state_payload)
        tick, what = steps[at][1:] if at < n else (last, "the last END_OBSTACLE")
        raise ReplayError(at, tick, f"{what}: no run of the model makes this move")
    return list(trace)
