"""Temporal property checks over transition systems.

Checks run as observer products: a kernel.Product of the system with a
monitor, whose nodes are the system state followed by the monitor state,
node[-1]. A safety monitor steps to VIOLATION; the liveness checks' monitor
counts the END_OBSTACLE actions taken, cuts the edges of terminal actions
and ends at the _STUCK edge of a state with no way out. kernel.search
explores each product breadth first, on the fly up to the first violation,
so the checked system may be an explored Lts or a Composition; a product
past explore's default limits raises ExplorationLimitError. Verdicts carry the counterexample as a
replayable label sequence (for lassos, a prefix plus the repeating cycle).
"""
from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import List, Optional, Sequence, Tuple

from . import control_model
from .control_model import BRAKES, GraphMap, Turn
from .kernel import Action, Monitor, Product, search, shortest_trace
from .values import Nat, Rec, Sym

VIOLATION = ("violation",)

TERMINAL_GATES = ("ARRIVAL", "COLLISION", "END_OBSTACLE")
_STUCK = Action("STUCK")  # matched by identity, so a model's STUCK gate is not it


class PropertySchemaError(ValueError):
    """A monitored gate carries offers the monitor cannot read."""


@dataclass(frozen=True)
class Verdict:
    property: str
    kind: str  # "pass" | "fail" | "fail_lasso"
    trace: Tuple[Action, ...] = ()
    cycle: Tuple[Action, ...] = ()

    @property
    def passed(self) -> bool:
        return self.kind == "pass"

    def to_json(self) -> dict:
        out = {
            "property": self.property,
            "verdict": self.kind,
            "counterexample": [a.text() for a in self.trace + self.cycle],
        }
        if self.kind == "fail_lasso":
            out["cycle"] = [a.text() for a in self.cycle]
        return out


def product_with_monitor(system, monitor: Monitor):
    """Breadth-first product of system (an Lts or a Composition) with the
    monitor, up to the first VIOLATION. Returns None on pass or the shortest
    label trace reaching VIOLATION.
    """
    return search(Product(system, monitor), lambda node: node[-1] == VIOLATION)[1]


# ---------------------------------------------------------------------------
# consistent position updates

def _street_offer(act: Action) -> str:
    if len(act.offers) != 1 or not isinstance(act.offers[0], Sym):
        raise PropertySchemaError(f"bad {act.gate} offers in {act.text()!r}")
    return act.offers[0].name


def _control_offer(act: Action):
    if len(act.offers) == 1:
        v = act.offers[0]
        if isinstance(v, Sym) and v.name == BRAKES:
            return BRAKES
        if (isinstance(v, Rec) and v.name == "turned_n" and len(v.fields) == 1
                and isinstance(v.fields[0], Nat)):
            return Turn(v.fields[0].n)
    raise PropertySchemaError(f"bad CAR_MOVE offers in {act.text()!r}")


def consistent_updates_monitor(gmap: GraphMap, consistent=None) -> Monitor:
    """Tracks the set of streets the car could be on. UPDATE_POSITION must
    name one of them (and pins the set down); CAR_MOVE evolves the set
    through the consistency relation. The initial position is unknown, so
    the first update anchors the monitor. A CAR_MOVE step depends only on
    the street set and the control, so the monitor computes it once per
    distinct pair and keeps it for its own lifetime; consistent must be a
    pure function.
    """
    if consistent is None:
        consistent = control_model.consistent_move
    streets = gmap.streets()
    every = frozenset(streets)
    moves = {}  # (street set, control) -> next street set

    def step(state, act):
        if act.gate == "UPDATE_POSITION":
            s = _street_offer(act)
            if s not in state:
                return VIOLATION
            return frozenset({s})
        if act.gate == "CAR_MOVE":
            c = _control_offer(act)
            nxt = moves.get((state, c))
            if nxt is None:
                nxt = moves[state, c] = frozenset(
                    t for t in streets for s in state if consistent(gmap, s, c, t))
            return nxt
        return state

    return Monitor(every, step)


def check_consistent_updates(system, gmap: GraphMap, consistent=None) -> Verdict:
    trace = product_with_monitor(system, consistent_updates_monitor(gmap, consistent))
    if trace is None:
        return Verdict("consistent-moves", "pass")
    return Verdict("consistent-moves", "fail", trace)


# ---------------------------------------------------------------------------
# inevitable termination / deadlock freedom

def _escape(system, terminal_gates, end_obstacle_total):
    """Explore the product of system with its END_OBSTACLE count, pruned at
    terminal actions, up to the first state whose system state has no way
    out, terminal or not; its one edge, _STUCK, takes the count to the goal.
    An END_OBSTACLE among the terminal gates is terminal only at its
    end_obstacle_total-th occurrence (None behaves like 1). Returns the
    explored part and a shortest trace to that state, or None if there is none.
    """
    need = 1 if end_obstacle_total is None else max(1, end_obstacle_total)
    terminal = frozenset(terminal_gates)

    def count(c, act):
        if act is _STUCK:
            return _STUCK
        if act.gate not in terminal:
            return c
        return c + 1 if act.gate == "END_OBSTACLE" and c + 1 < need else None

    def edges(state):
        return system.enabled_actions(state) or [(_STUCK, state)]

    stepped = SimpleNamespace(initial_state=system.initial_state, enabled_actions=edges)
    product, trace = search(Product(stepped, Monitor(0, count)), lambda node: node[-1] is _STUCK)
    return product, None if trace is None else trace[:-1]


def _find_cycle(lts) -> Optional[tuple]:
    """The smallest state on some cycle of an explored product (iterative
    Tarjan for the SCCs over its transition arrays), with a shortest cycle
    through it. Returns (state, cycle labels) or None.
    """
    n = lts.num_states
    offsets, dst = lts.offsets, lts.dst
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: List[int] = []
    cyclic: List[List[int]] = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        work = [[root, offsets[root]]]  # each frame: node, its next transition
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            frame = work[-1]
            node, k = frame
            end = offsets[node + 1]
            while k < end:
                nxt = dst[k]
                k += 1
                if index[nxt] < 0:
                    index[nxt] = low[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack[nxt] = True
                    work.append([nxt, offsets[nxt]])
                    break
                if on_stack[nxt]:
                    low[node] = min(low[node], index[nxt])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == node:
                            break
                    if len(comp) > 1 or node in dst[offsets[node]:end]:
                        cyclic.append(comp)
                continue
            frame[1] = k
    if not cyclic:
        return None
    members = set(min(cyclic, key=min))
    entry = min(members)

    # searching from a fresh start (-1) with entry's edges makes the return
    # to entry a discovery, so the goal test finds it
    def within(node):
        return [(act, nxt) for act, nxt in lts.enabled_actions(entry if node < 0 else node)
                if nxt in members]

    _, cycle = search(SimpleNamespace(initial_state=-1, enabled_actions=within),
                      lambda node: node == entry)
    return entry, cycle


def check_inevitable_termination(system,
                                 terminal_gates: Sequence[str] = TERMINAL_GATES,
                                 end_obstacle_total: Optional[int] = None) -> Verdict:
    """Every maximal run must reach a terminal action: arrival, collision,
    or the last expected END_OBSTACLE. Fails on a reachable terminal-free
    sink (finite escape) or cycle (infinite escape, reported as a lasso).
    """
    product, trace = _escape(system, terminal_gates, end_obstacle_total)
    if trace is not None:
        return Verdict("inevitable-termination", "fail", trace)
    hit = _find_cycle(product)
    if hit is not None:
        entry, cycle = hit
        return Verdict("inevitable-termination", "fail_lasso",
                       shortest_trace(product, entry), cycle)
    return Verdict("inevitable-termination", "pass")


def check_deadlock_freedom(system,
                           terminal_gates: Sequence[str] = TERMINAL_GATES,
                           end_obstacle_total: Optional[int] = None) -> Verdict:
    """No sink state may be reachable without passing a terminal action.
    Winding-down states behind ARRIVAL/COLLISION/final END_OBSTACLE are
    legitimate; anything else with no way out is a deadlock.
    """
    _, trace = _escape(system, terminal_gates, end_obstacle_total)
    if trace is None:
        return Verdict("deadlock", "pass")
    return Verdict("deadlock", "fail", trace)
