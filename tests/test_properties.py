"""Monitor products, trace replay and the terminal-pruned liveness checks."""
import collections
import pathlib
import random

import pytest

from avmodels.control_model import (
    BRAKES, ControlScenario, GraphMap, Turn, build_control_composition, consistent_move,
)
from avmodels.grid_model import build_grid_composition
from avmodels.kernel import Action, explore
from avmodels.properties import (
    VIOLATION, Monitor, PropertySchemaError, Verdict,
    check_consistent_updates, check_deadlock_freedom,
    check_inevitable_termination, consistent_updates_monitor,
    product_with_monitor,
)
from avmodels.scenarios import load_scenario
from avmodels.values import Nat, Rec, Sym

from oracles import lts_from_triples, random_composition, trace_exists

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"


def simple(gate):
    return Action(gate)


def forbid(gate):
    def step(state, act):
        return VIOLATION if act.gate == gate else state
    return Monitor(0, step)


# ---------------------------------------------------------------------------
# monitor product

def test_product_finds_shortest_violation():
    lts = lts_from_triples(6, 0, (
        (0, simple("a"), 1), (1, simple("a"), 2), (2, simple("bad"), 3),
        (0, simple("b"), 4), (4, simple("bad"), 5),
    ))
    trace = product_with_monitor(lts, forbid("bad"))
    assert trace == (simple("b"), simple("bad"))


def test_product_passes_when_nothing_matches():
    lts = lts_from_triples(2, 0, ((0, simple("a"), 1),))
    assert product_with_monitor(lts, forbid("bad")) is None


def test_product_tracks_monitor_state():
    # two "a" in a row is the offence, a single one is fine
    def step(state, act):
        if act.gate != "a":
            return 0
        return VIOLATION if state else 1

    lts = lts_from_triples(4, 0, (
        (0, simple("a"), 1), (1, simple("b"), 2), (2, simple("a"), 1),
        (1, simple("a"), 3),
    ))
    trace = product_with_monitor(lts, Monitor(0, step))
    assert trace == (simple("a"), simple("a"))


def test_trace_exists_walks_nondeterminism():
    lts = lts_from_triples(4, 0, (
        (0, simple("a"), 1), (0, simple("a"), 2), (2, simple("b"), 3),
    ))
    assert trace_exists(lts, (simple("a"), simple("b")))
    assert not trace_exists(lts, (simple("b"),))
    assert not trace_exists(lts, (simple("a"), simple("b"), simple("a")))
    assert trace_exists(lts, ())


# ---------------------------------------------------------------------------
# consistent position updates

GMAP = GraphMap((0, 1, 2), (
    (0, "A", 1), (1, "B", 2), (1, "A_bis", 0),
))


def upd(street):
    return Action("UPDATE_POSITION", (Sym(street),))


def mov(control):
    if control == BRAKES:
        return Action("CAR_MOVE", (Sym(BRAKES),))
    return Action("CAR_MOVE", (Rec("turned_n", (Nat(control.n),)),))


def path_lts(*actions):
    return lts_from_triples(len(actions) + 1, 0,
                            tuple((i, a, i + 1) for i, a in enumerate(actions)))


def test_consistent_updates_accepts_a_real_drive():
    lts = path_lts(upd("A"), mov(Turn(0)), upd("B"))
    assert check_consistent_updates(lts, GMAP).passed


def test_consistent_updates_rejects_a_wrong_street():
    lts = path_lts(upd("A"), mov(Turn(0)), upd("A_bis"))
    verdict = check_consistent_updates(lts, GMAP)
    assert verdict.kind == "fail"
    assert [a.gate for a in verdict.trace] == \
        ["UPDATE_POSITION", "CAR_MOVE", "UPDATE_POSITION"]
    assert trace_exists(lts, verdict.trace)


def test_braking_keeps_the_street():
    lts = path_lts(upd("A"), mov(BRAKES), upd("A"))
    assert check_consistent_updates(lts, GMAP).passed
    bad = path_lts(upd("A"), mov(BRAKES), upd("B"))
    assert check_consistent_updates(bad, GMAP).kind == "fail"


def test_first_update_anchors_an_unknown_position():
    assert check_consistent_updates(path_lts(upd("B")), GMAP).passed
    assert check_consistent_updates(path_lts(upd("A_bis")), GMAP).passed


def test_consistency_relation_is_injectable():
    bad = path_lts(upd("A"), mov(Turn(0)), upd("A_bis"))
    anything = check_consistent_updates(bad, GMAP,
                                        consistent=lambda g, s, c, t: True)
    assert anything.passed
    nothing = check_consistent_updates(
        path_lts(upd("A"), mov(Turn(0)), upd("B")), GMAP,
        consistent=lambda g, s, c, t: False)
    assert nothing.kind == "fail"


def test_unreadable_offers_raise_schema_errors():
    with pytest.raises(PropertySchemaError):
        check_consistent_updates(
            path_lts(Action("UPDATE_POSITION", (Nat(3),))), GMAP)
    with pytest.raises(PropertySchemaError):
        check_consistent_updates(
            path_lts(upd("A"), Action("CAR_MOVE", (Nat(1),))), GMAP)
    with pytest.raises(PropertySchemaError):
        check_consistent_updates(path_lts(Action("CAR_MOVE")), GMAP)


def test_each_street_set_and_control_is_computed_once():
    # 40 branches take the same two moves from the same street sets
    calls = []

    def counting(gmap, s, c, t):
        calls.append((s, c, t))
        return consistent_move(gmap, s, c, t)

    branches = 40
    transitions = []
    for b in range(branches):
        mid, end = 1 + 2 * b, 2 + 2 * b
        transitions += [(0, mov(Turn(0)), mid), (mid, mov(BRAKES), end)]
    lts = lts_from_triples(1 + 2 * branches, 0, tuple(transitions))
    assert check_consistent_updates(lts, GMAP, consistent=counting).passed
    streets = GMAP.streets()
    turned = {t for s in streets for t in streets if consistent_move(GMAP, s, Turn(0), t)}
    # one pass over streets x set for (every street, Turn(0)), one for (turned, BRAKES)
    assert 0 < len(calls) <= len(streets) * len(streets) + len(streets) * len(turned)


def test_bad_car_move_raises_after_a_cached_step():
    monitor = consistent_updates_monitor(GMAP)
    good = monitor.step(monitor.initial, mov(Turn(0)))
    assert monitor.step(monitor.initial, mov(Turn(0))) == good
    with pytest.raises(PropertySchemaError):
        monitor.step(monitor.initial, Action("CAR_MOVE", (Nat(1),)))
    with pytest.raises(PropertySchemaError):
        monitor.step(monitor.initial, Action("CAR_MOVE"))


def test_unrelated_gates_pass_vacuously():
    lts = lts_from_triples(3, 0, ((0, simple("TICK"), 1), (1, simple("TICK"), 2)))
    assert check_consistent_updates(lts, GMAP).passed


# ---------------------------------------------------------------------------
# inevitable termination and deadlock freedom

def test_termination_passes_behind_a_terminal_action():
    lts = path_lts(simple("work"), simple("ARRIVAL"))
    assert check_inevitable_termination(lts).passed
    assert check_deadlock_freedom(lts).passed


def test_termination_fails_on_a_bare_sink():
    lts = path_lts(simple("work"))
    verdict = check_inevitable_termination(lts)
    assert verdict.kind == "fail"
    assert verdict.trace == (simple("work"),)
    assert check_deadlock_freedom(lts).kind == "fail"


def test_termination_fails_on_a_terminal_free_loop():
    lts = lts_from_triples(2, 0, ((0, simple("go"), 1), (1, simple("loop"), 1)))
    verdict = check_inevitable_termination(lts)
    assert verdict.kind == "fail_lasso"
    assert verdict.trace == (simple("go"),)
    assert verdict.cycle == (simple("loop"),)
    assert trace_exists(lts, verdict.trace + verdict.cycle)
    # loops are not deadlocks
    assert check_deadlock_freedom(lts).passed


def test_lasso_prefix_may_be_empty():
    lts = lts_from_triples(1, 0, ((0, simple("spin"), 0),))
    verdict = check_inevitable_termination(lts)
    assert verdict.kind == "fail_lasso"
    assert verdict.trace == ()
    assert verdict.cycle == (simple("spin"),)


def test_only_the_last_end_obstacle_is_terminal():
    lts = path_lts(simple("END_OBSTACLE"))
    assert check_inevitable_termination(lts, end_obstacle_total=1).passed
    # expecting two of them, the single one is not yet the end of the world
    verdict = check_inevitable_termination(lts, end_obstacle_total=2)
    assert verdict.kind == "fail"
    assert verdict.trace == (simple("END_OBSTACLE"),)


def test_end_obstacle_counts_accumulate_along_a_run():
    lts = path_lts(simple("END_OBSTACLE"), simple("tock"),
                   simple("END_OBSTACLE"))
    assert check_inevitable_termination(lts, end_obstacle_total=2).passed
    assert check_deadlock_freedom(lts, end_obstacle_total=2).passed


def test_custom_terminal_gates():
    lts = path_lts(simple("DONE"))
    assert check_inevitable_termination(lts, terminal_gates=("DONE",)).passed
    assert check_inevitable_termination(lts).kind == "fail"


def test_a_model_gate_named_stuck_is_an_ordinary_action():
    behind = lts_from_triples(2, 0, ((0, simple("STUCK"), 1), (1, simple("ARRIVAL"), 1)))
    assert check_deadlock_freedom(behind).passed
    assert check_inevitable_termination(behind).passed
    verdict = check_deadlock_freedom(path_lts(simple("STUCK")))
    assert verdict.kind == "fail" and verdict.trace == (simple("STUCK"),)
    assert check_deadlock_freedom(lts_from_triples(1, 0, ())).trace == ()


class CountingSystem:
    """A system that counts the enabled_actions calls per state."""

    def __init__(self, system):
        self.system = system
        self.initial_state = system.initial_state
        self.calls = collections.Counter()

    def enabled_actions(self, state):
        self.calls[state] += 1
        return self.system.enabled_actions(state)


def test_liveness_checks_step_each_system_state_once():
    systems = [random_composition(random.Random(seed)) for seed in range(30)]
    for name in ("free", "highway", "tcross"):
        scn = load_scenario(str(CONFIGS / f"{name}.json"))
        systems.append(build_grid_composition(scn))
    for comp in systems:
        for check in (check_deadlock_freedom, check_inevitable_termination):
            counting = CountingSystem(comp)
            assert check(counting) == check(comp)
            assert max(counting.calls.values()) == 1


# ---------------------------------------------------------------------------
# verdict serialization

def test_verdict_json_shape():
    plain = Verdict("deadlock", "fail", (simple("a"), simple("b")))
    assert plain.to_json() == {
        "property": "deadlock",
        "verdict": "fail",
        "counterexample": ["a", "b"],
    }
    lasso = Verdict("inevitable-termination", "fail_lasso",
                    (simple("a"),), (simple("b"),))
    as_json = lasso.to_json()
    assert as_json["counterexample"] == ["a", "b"]
    assert as_json["cycle"] == ["b"]
    assert not lasso.passed


# ---------------------------------------------------------------------------
# any system: a composition and the LTS explored from it

def verdicts(system, gmap=None, end_total=None, gate_sets=((),)):
    out = []
    for extra in gate_sets:
        gates = ("ARRIVAL", "COLLISION", "END_OBSTACLE") + extra
        out.append(check_deadlock_freedom(system, gates, end_total).to_json())
        out.append(check_inevitable_termination(system, gates, end_total).to_json())
    if gmap is not None:
        out.append(check_consistent_updates(system, gmap).to_json())
    return out


def test_a_composition_and_its_explored_lts_give_equal_verdicts(grid_reference):
    kinds = set()
    for seed in range(60):
        comp = random_composition(random.Random(seed))
        lts = explore(comp)
        got = verdicts(comp, gate_sets=((), ("a",), ("b_loc", "i")))
        assert got == verdicts(lts, gate_sets=((), ("a",), ("b_loc", "i"))), seed
        assert product_with_monitor(comp, forbid("c")) == product_with_monitor(lts, forbid("c"))
        kinds.update(v["verdict"] for v in got)
    assert kinds == {"pass", "fail", "fail_lasso"}
    for name in ("free", "highway", "tcross", "crossroad", "grid"):
        scn = load_scenario(str(CONFIGS / f"{name}.json"))
        if isinstance(scn, ControlScenario):
            comp = build_control_composition(scn)
            lts = explore(comp)
            args = dict(gmap=scn.gmap, end_total=len(scn.obstacles))
        else:
            comp = build_grid_composition(scn)
            lts = grid_reference.lts if name == "grid" else explore(comp)
            args = dict(end_total=sum(1 for m in scn.mobile if not m.cyclic))
        assert verdicts(comp, **args) == verdicts(lts, **args), name
