"""Temporal property checks over explored transition systems.

Checks run as observer products: a deterministic monitor walks every
transition of the LTS alongside the state space. Verdicts carry the
counterexample as a replayable label sequence (for lassos, a prefix plus the
repeating cycle).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Set, Tuple

from . import control_model
from .control_model import BRAKES, GraphMap, Turn
from .kernel import Action, Lts, bfs, trace_to
from .values import Nat, Rec, Sym

VIOLATION = ("violation",)

TERMINAL_GATES = ("ARRIVAL", "COLLISION", "END_OBSTACLE")


class PropertySchemaError(ValueError):
    """A monitored gate carries offers the monitor cannot read."""


@dataclass(frozen=True)
class Monitor:
    """Deterministic observer: step(state, action) -> state or VIOLATION."""
    initial: Hashable
    step: Callable[[Hashable, Action], Hashable] = field(compare=False)


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


def trace_exists(lts: Lts, labels: Sequence[Action]) -> bool:
    """Is there a path from the initial state along exactly these labels?"""
    cur = {lts.initial}
    out = lts.outgoing()
    for act in labels:
        cur = {dst for s in cur for a, dst in out[s] if a == act}
        if not cur:
            return False
    return True


def product_with_monitor(lts: Lts, monitor: Monitor):
    """Breadth-first product walk. Returns (None) on pass or the shortest
    label trace reaching VIOLATION.
    """
    out = lts.outgoing()

    def successors(node):
        s, m = node
        for act, dst in out[s]:
            yield act, (dst, monitor.step(m, act))

    parents, found = bfs((lts.initial, monitor.initial), successors,
                         lambda node: node[1] == VIOLATION)
    return None if found is None else trace_to(parents, found)


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


def check_consistent_updates(lts: Lts, gmap: GraphMap, consistent=None) -> Verdict:
    trace = product_with_monitor(lts, consistent_updates_monitor(gmap, consistent))
    if trace is None:
        return Verdict("consistent-moves", "pass")
    return Verdict("consistent-moves", "fail", trace)


# ---------------------------------------------------------------------------
# inevitable termination / deadlock freedom

def _pruned_product(lts: Lts, terminal_gates, end_obstacle_total):
    """Reachable (state, end-count) product where traversal stops at terminal
    actions. END_OBSTACLE is terminal only at its end_obstacle_total-th
    occurrence (None behaves like 1). Returns adjacency over product nodes
    and the BFS parent map, whose keys are in discovery order (for shortest
    prefixes).
    """
    need = 1 if end_obstacle_total is None else max(1, end_obstacle_total)
    counted = "END_OBSTACLE" in terminal_gates
    out = lts.outgoing()
    adj: Dict[tuple, List[Tuple[Action, tuple]]] = {}

    def successors(node):
        s, c = node
        edges = []
        for act, dst in out[s]:
            if act.gate == "END_OBSTACLE" and counted:
                c2 = c + 1
                if c2 >= need:
                    continue  # terminal occurrence
            elif act.gate in terminal_gates:
                continue
            else:
                c2 = c
            edges.append((act, (dst, c2)))
        adj[node] = edges
        return edges

    parents, _ = bfs((lts.initial, 0), successors)
    return adj, parents


def _find_cycle(adj, order) -> Optional[tuple]:
    """Earliest-discovered node on some cycle of the pruned product
    (iterative Tarjan for the SCCs), with a shortest cycle through it.
    Returns (node, cycle labels) or None.
    """
    index: Dict[tuple, int] = {}
    low: Dict[tuple, int] = {}
    on_stack: Set[tuple] = set()
    stack: List[tuple] = []
    sccs: List[List[tuple]] = []
    counter = [0]
    for root in adj:
        if root in index:
            continue
        work = [(root, iter(adj[root]))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for _, nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = counter[0]
                    counter[0] += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(adj[nxt])))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                sccs.append(comp)
    scc_of: Dict[tuple, int] = {}
    cyclic_ids = set()
    for sid, comp in enumerate(sccs):
        for node in comp:
            scc_of[node] = sid
        if len(comp) > 1 or any(nxt == comp[0] for _, nxt in adj[comp[0]]):
            cyclic_ids.add(sid)
    if not cyclic_ids:
        return None
    entry = next(node for node in order if scc_of[node] in cyclic_ids)
    members = set(sccs[scc_of[entry]])
    return entry, _shortest_cycle(adj, members, entry)


def _shortest_cycle(adj, members, entry) -> Tuple[Action, ...]:
    # searching from a fresh sentinel with entry's edges makes the return to
    # entry a discovery, so the goal test finds it
    sentinel = object()

    def successors(node):
        edges = adj[entry if node is sentinel else node]
        return ((act, nxt) for act, nxt in edges if nxt in members)

    parents, found = bfs(sentinel, successors, lambda node: node == entry)
    if found is None:
        raise AssertionError("entry was reported cyclic but no cycle found")
    return trace_to(parents, found)


def check_inevitable_termination(lts: Lts,
                                 terminal_gates: Sequence[str] = TERMINAL_GATES,
                                 end_obstacle_total: Optional[int] = None) -> Verdict:
    """Every maximal run must reach a terminal action: arrival, collision,
    or the last expected END_OBSTACLE. Fails on a reachable terminal-free
    sink (finite escape) or cycle (infinite escape, reported as a lasso).
    """
    gates = frozenset(terminal_gates)
    adj, parents = _pruned_product(lts, gates, end_obstacle_total)
    out = lts.outgoing()
    for node in parents:  # BFS order: first hit is a shortest prefix
        if not out[node[0]]:
            return Verdict("inevitable-termination", "fail", trace_to(parents, node))
    hit = _find_cycle(adj, parents)
    if hit is not None:
        entry, cycle = hit
        return Verdict("inevitable-termination", "fail_lasso",
                       trace_to(parents, entry), cycle)
    return Verdict("inevitable-termination", "pass")


def check_deadlock_freedom(lts: Lts,
                           terminal_gates: Sequence[str] = TERMINAL_GATES,
                           end_obstacle_total: Optional[int] = None) -> Verdict:
    """No sink state may be reachable without passing a terminal action.
    Winding-down states behind ARRIVAL/COLLISION/final END_OBSTACLE are
    legitimate; anything else with no way out is a deadlock.
    """
    gates = frozenset(terminal_gates)
    _, parents = _pruned_product(lts, gates, end_obstacle_total)
    out = lts.outgoing()
    for node in parents:
        if not out[node[0]]:
            return Verdict("deadlock", "fail", trace_to(parents, node))
    return Verdict("deadlock", "pass")
