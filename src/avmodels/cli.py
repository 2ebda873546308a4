"""Command line front end.

    avmodels explore  --scenario S.json --out L.aut [--max-states N]
                      [--max-depth N] [--expose-grid]
    avmodels minimize IN.aut OUT.aut
    avmodels check    --lts L.aut --property NAME [--scenario S.json]
    avmodels testgen  --scenario S.json --purpose P.json --out SIM.json
                      [--max-states N] [--max-depth N] [--expose-grid]
    avmodels render   --scenario S.json --sim SIM.json

Exit codes: 0 success / property holds, 1 property violated or purpose
inconclusive, 2 usage or input errors, 3 exploration limit hit.

Each command runs with Python's cyclic garbage collector paused: what it
builds (state tuples, transition arrays, explore's index, the step cache, a
parsed .aut) holds no reference cycles, so reference counting frees all of
it, and the collector would only rescan that growing heap. main restores the
collector as it found it on every way out; library calls that do not go
through main are unaffected.
"""
from __future__ import annotations

import argparse
import gc
import json
import sys

from . import properties, testgen
from .aut import AutFormatError, export_aut, import_aut
from .control_model import ControlScenario, build_control_composition
from .grid_model import build_grid_composition
from .kernel import ExplorationLimitError, ExplorationLimits, Lts, explore
from .minimize import minimize
from .perception import GridScenario, rect_cells
from .scenarios import load_scenario, read_json
from .testgen import FoldError, ReplayError, SimScenario

PROPERTIES = ("consistent-moves", "inevitable-termination", "deadlock")

EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3


class CliError(Exception):
    def __init__(self, msg: str, code: int = EXIT_USAGE):
        super().__init__(msg)
        self.code = code


def _build(scn, expose_grid: bool):
    if isinstance(scn, ControlScenario):
        if expose_grid:
            raise CliError("--expose-grid only applies to grid scenarios")
        return build_control_composition(scn)
    return build_grid_composition(scn, expose_grid=expose_grid)


def _write_aut(lts: Lts, path: str) -> None:
    try:
        with open(path, "w", encoding="ascii") as fh:
            export_aut(lts, fh)
    except OSError as e:
        raise CliError(f"cannot write {path}: {e}")


def _read_aut(path: str) -> Lts:
    try:
        with open(path, "rb") as fh:  # import_aut checks the bytes are ASCII
            return import_aut(fh)
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}")
    except AutFormatError as e:
        raise CliError(f"{path}: {e}")


def cmd_explore(args) -> int:
    scn = load_scenario(args.scenario)
    try:
        lts = explore(_build(scn, args.expose_grid),
                      ExplorationLimits(max_states=args.max_states, max_depth=args.max_depth))
    except ExplorationLimitError as e:
        _write_aut(e.partial, args.out)
        print(f"truncated: {e.reason}", file=sys.stderr)
        print(f"states={e.partial.num_states} "
              f"transitions={len(e.partial.dst)} (partial)")
        return EXIT_LIMIT
    _write_aut(lts, args.out)
    print(f"states={lts.num_states} transitions={len(lts.dst)}")
    return 0


def cmd_minimize(args) -> int:
    lts = _read_aut(args.input)
    small = minimize(lts)
    _write_aut(small, args.output)
    print(f"states={lts.num_states} transitions={len(lts.dst)} -> "
          f"states={small.num_states} transitions={len(small.dst)}")
    return 0


def cmd_check(args) -> int:
    lts = _read_aut(args.lts)
    scn = load_scenario(args.scenario) if args.scenario else None
    end_total = scn.end_obstacle_total if scn is not None else None
    if args.property == "consistent-moves":
        if not isinstance(scn, ControlScenario):
            raise CliError("consistent-moves needs --scenario with a street graph")
        verdict = properties.check_consistent_updates(lts, scn.gmap)
    elif args.property == "inevitable-termination":
        verdict = properties.check_inevitable_termination(
            lts, end_obstacle_total=end_total)
    else:
        verdict = properties.check_deadlock_freedom(
            lts, end_obstacle_total=end_total)
    print(json.dumps(verdict.to_json(), indent=2))
    return 0 if verdict.passed else EXIT_FAIL


def cmd_testgen(args) -> int:
    scn = load_scenario(args.scenario)
    if not isinstance(scn, GridScenario):
        raise CliError("testgen needs a grid scenario")
    purpose = testgen.parse_purpose(read_json(args.purpose))
    product, warnings = testgen.product_with_purpose(
        _build(scn, args.expose_grid), purpose,
        ExplorationLimits(max_states=args.max_states, max_depth=args.max_depth))
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    witness = testgen.extract_test(product)
    if witness is None:
        print("inconclusive: the purpose is not reachable in this scenario")
        return EXIT_FAIL
    sim = testgen.trace_to_scenario(witness)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(sim.to_json(), fh, indent=2)
            fh.write("\n")
    except OSError as e:
        raise CliError(f"cannot write {args.out}: {e}")
    print(f"witness length={len(witness)} ticks={len(sim.ticks)} "
          f"terminal={sim.terminal or 'none'}")
    return 0


def _frame(scn: GridScenario, anchors, car) -> str:
    rows = [["."] * scn.width for _ in range(scn.height)]
    for ob in scn.static:
        for x, y in rect_cells(ob.anchor(), ob.w, ob.h):
            rows[y][x] = "t" if ob.transparent else "#"
    for ob in scn.mobile:
        mark = ob.kind[0].lower() if ob.transparent else ob.kind[0].upper()
        for x, y in rect_cells(anchors[ob.kind], ob.w, ob.h):
            rows[y][x] = mark
    if car is not None:
        x, y = car
        rows[y][x] = "X" if rows[y][x] != "." else "C"
    return "\n".join("".join(r) for r in rows)


def cmd_render(args) -> int:
    scn = load_scenario(args.scenario)
    if not isinstance(scn, GridScenario):
        raise CliError("render needs a grid scenario")
    try:
        sim = SimScenario.from_json(read_json(args.sim))
        testgen.replay(scn, sim)  # the model is the one judge of a sim
    except (FoldError, ReplayError) as e:
        raise CliError(f"{args.sim}: {e}")
    anchors = {ob.kind: ob.anchor() for ob in scn.mobile}
    car = (scn.car.x, scn.car.y)
    frames = [_frame(scn, anchors, car)]
    for tick in sim.ticks:
        for mv in tick.obstacles:
            anchors[mv.kind] = mv.target
        if tick.car is not None:
            car = tick.car[1]
        frames.append(_frame(scn, anchors, car))
    for i, frame in enumerate(frames):
        print(f"tick {i}" if i else "tick 0 (initial)")
        print(frame)
    if sim.terminal:
        print(f"terminal: {sim.terminal}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avmodels",
        description="Explore, minimize and check the driving models.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("explore", help="generate the state space of a scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True, help="output .aut file")
    p.add_argument("--max-states", type=int, default=1_000_000)
    p.add_argument("--max-depth", type=int, default=0,
                   help="0 means unbounded depth")
    p.add_argument("--expose-grid", action="store_true",
                   help="publish perception grids on LIDAR_MAP labels")
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser("minimize", help="strong bisimulation quotient of an .aut")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("check", help="check a temporal property on an .aut")
    p.add_argument("--lts", required=True)
    p.add_argument("--property", required=True, choices=PROPERTIES)
    p.add_argument("--scenario", help="scenario the LTS came from")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("testgen", help="derive a scenario from a test purpose")
    p.add_argument("--scenario", required=True)
    p.add_argument("--purpose", required=True, help="JSON action-pattern list")
    p.add_argument("--out", required=True, help="output simulation JSON")
    p.add_argument("--max-states", type=int, default=1_000_000,
                   help="bound on the purpose-product states searched")
    p.add_argument("--max-depth", type=int, default=0)
    p.add_argument("--expose-grid", action="store_true")
    p.set_defaults(func=cmd_testgen)

    p = sub.add_parser("render", help="draw a simulation scenario tick by tick")
    p.add_argument("--scenario", required=True)
    p.add_argument("--sim", required=True)
    p.set_defaults(func=cmd_render)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()  # see the module docstring
    try:
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except ExplorationLimitError as e:  # a product of testgen or check; no output
        print(f"truncated: {e.reason}", file=sys.stderr)
        return EXIT_LIMIT
    except ValueError as e:  # scenario, purpose, sim and value errors
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
