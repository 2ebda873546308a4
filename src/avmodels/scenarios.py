"""Scenario files: JSON descriptions of the two models.

Street-graph form::

    {"vertices": ["A", ...],
     "edges": [["A", "Main_Street", "B"], ...],
     "car": {"position": "Main_Street", "destination": "High_Street"},
     "obstacles": [{"position": "High_Street",
                    "moves": ["random", {"turn": 0}, "leave"]}]}

Grid form::

    {"width": 10, "height": 10,
     "static": [{"kind": "Building", "x": 0, "y": 0, "w": 4, "h": 4}],
     "mobile": [{"kind": "Pedestrian", "x": 3, "y": 5, "speed": 1,
                 "transparent": true, "moves": ["right", "random"]}],
     "car": {"x": 6, "y": 9, "speed": 1, "moves": ["up", "up"]},
     "dist_min": 4}

This module checks the JSON shape and types only. The grid rules belong to
`perception.GridScenario`, which checks them all when it is constructed.
"""
from __future__ import annotations

import json
from typing import Union

from .control_model import ControlScenario, GraphMap, ObstacleScript, Turn, \
    LEAVE, RANDOM
from .perception import CarSpec, GridError, GridScenario, ObstacleRec

Scenario = Union[ControlScenario, GridScenario]


class ScenarioError(ValueError):
    pass


def read_json(path: str):
    """The JSON value in a UTF-8 file: a scenario, a purpose or a sim. Raises
    ScenarioError naming the file when it cannot be read or decoded."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise ScenarioError(f"cannot read {path}: {e}")
    except UnicodeDecodeError as e:
        raise ScenarioError(f"{path} is not UTF-8 text: {e}")
    except (ValueError, RecursionError) as e:  # bad syntax, too many digits or too deep
        raise ScenarioError(f"{path} is not valid JSON: {e}")


def load_scenario(path: str) -> Scenario:
    return scenario_from_json(read_json(path))


def scenario_from_json(data) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a JSON object")
    if "edges" in data or "vertices" in data:
        return _graph_scenario(data)
    if "width" in data or "height" in data:
        return _grid_scenario(data)
    raise ScenarioError("scenario has neither street-graph keys (vertices/edges)"
                        " nor grid keys (width/height)")


def _req(data: dict, key: str, where: str):
    if key not in data:
        raise ScenarioError(f"{where}: missing {key!r}")
    return data[key]


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ScenarioError(f"{where}: expected a list, got {value!r}")
    return value


def _nat(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ScenarioError(f"{where}: expected a non-negative integer, got {value!r}")
    return value


def _flag(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ScenarioError(f"{where}: expected true or false, got {value!r}")
    return value


def _name(value, where: str, of: str) -> str:
    if not isinstance(value, str):
        raise ScenarioError(f"{where}: expected a {of} name, got {value!r}")
    return value


def _vertex(value) -> bool:
    """A vertex is a name or a number; a JSON boolean would alias 0 or 1."""
    return isinstance(value, (str, int)) and not isinstance(value, bool)


def _graph_scenario(data) -> ControlScenario:
    vertices = _req(data, "vertices", "scenario")
    raw_edges = _list(_req(data, "edges", "scenario"), "edges")
    if not isinstance(vertices, list) or not all(map(_vertex, vertices)):
        raise ScenarioError("vertices: expected a list of names or numbers")
    edges = []
    for i, e in enumerate(raw_edges):
        if (not isinstance(e, list) or len(e) != 3
                or not isinstance(e[1], str) or not (_vertex(e[0]) and _vertex(e[2]))):
            raise ScenarioError(f"edges[{i}]: expected [source, street, target]")
        edges.append((e[0], e[1], e[2]))
    try:
        gmap = GraphMap(tuple(vertices), tuple(edges))
    except Exception as e:
        raise ScenarioError(f"bad street graph: {e}")
    car = _req(data, "car", "scenario")
    if not isinstance(car, dict):
        raise ScenarioError("car: expected an object")
    position = _name(_req(car, "position", "car"), "car.position", "street")
    destination = _name(_req(car, "destination", "car"), "car.destination", "street")
    obstacles = []
    for i, ob in enumerate(_list(data.get("obstacles", []), "obstacles")):
        where = f"obstacles[{i}]"
        if not isinstance(ob, dict):
            raise ScenarioError(f"{where}: expected an object")
        street = _name(_req(ob, "position", where), f"{where}.position", "street")
        moves = []
        for j, mv in enumerate(_list(ob.get("moves", []), f"{where}.moves")):
            if mv in (RANDOM, LEAVE):
                moves.append(mv)
            elif isinstance(mv, dict) and set(mv) == {"turn"}:
                moves.append(Turn(_nat(mv["turn"], f"{where}.moves[{j}].turn")))
            else:
                raise ScenarioError(f'{where}.moves[{j}]: expected "random", '
                                    f'"leave" or {{"turn": n}}, got {mv!r}')
        obstacles.append(ObstacleScript(street, tuple(moves)))
    try:
        return ControlScenario(gmap, position, destination, tuple(obstacles))
    except Exception as e:
        raise ScenarioError(f"bad scenario: {e}")


def _moves(raw, where: str):
    for j, mv in enumerate(_list(raw, where)):
        if not isinstance(mv, str):
            raise ScenarioError(f"{where}[{j}]: expected a move word, got {mv!r}")
    return tuple(raw)


def _obstacle(ob, where: str, mobile: bool) -> ObstacleRec:
    if not isinstance(ob, dict):
        raise ScenarioError(f"{where}: expected an object")
    fields = dict(
        kind=_name(_req(ob, "kind", where), f"{where}.kind", "kind"),
        x=_nat(_req(ob, "x", where), f"{where}.x"),
        y=_nat(_req(ob, "y", where), f"{where}.y"),
        w=_nat(ob.get("w", 1), f"{where}.w"),
        h=_nat(ob.get("h", 1), f"{where}.h"),
        transparent=_flag(ob.get("transparent", False), f"{where}.transparent"),
    )
    if mobile:
        fields.update(speed=_nat(ob.get("speed", 1), f"{where}.speed"),
                      cyclic=_flag(ob.get("cyclic", False), f"{where}.cyclic"),
                      moves=_moves(_req(ob, "moves", where), f"{where}.moves"))
    try:
        return ObstacleRec(**fields)
    except GridError as e:
        raise ScenarioError(f"{where}: {e}")


def _grid_scenario(data) -> GridScenario:
    width = _nat(_req(data, "width", "scenario"), "width")
    height = _nat(_req(data, "height", "scenario"), "height")
    static = [_obstacle(ob, f"static[{i}]", False)
              for i, ob in enumerate(_list(data.get("static", []), "static"))]
    mobile = [_obstacle(ob, f"mobile[{i}]", True)
              for i, ob in enumerate(_list(data.get("mobile", []), "mobile"))]
    raw_car = _req(data, "car", "scenario")
    if not isinstance(raw_car, dict):
        raise ScenarioError("car: expected an object")
    try:
        car = CarSpec(
            x=_nat(_req(raw_car, "x", "car"), "car.x"),
            y=_nat(_req(raw_car, "y", "car"), "car.y"),
            speed=_nat(raw_car.get("speed", 1), "car.speed"),
            cyclic=_flag(raw_car.get("cyclic", False), "car.cyclic"),
            moves=_moves(raw_car.get("moves", []), "car.moves"),
        )
        return GridScenario(width, height, tuple(static), tuple(mobile), car,
                            dist_min=_nat(data.get("dist_min", 0), "dist_min"))
    except GridError as e:
        raise ScenarioError(str(e))
