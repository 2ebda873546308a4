"""Multiway-rendezvous composition kernel and explicit-state exploration.

A component's step function lists its moves from a local state. A move is
either (action, next-state), which offers the action's values concretely,
or (Receive(gate), accept), which takes whatever values fire on the gate:
accept(local_state, offers) returns the next local state, or None to refuse
them, like LNT's `G (?x) where guard` in the receiver's current state.

Offers o fire on a synchronized gate g iff at least one component that lists
g in its sync set offers (g, o) concretely, and every such component either
offers (g, o) or has a receiver on g that accepts o; all of them advance
together, each to any of its concrete successors for o or its accepting
receivers' results. A gate nobody offers concretely never fires. Actions on
gates outside every sync set move only their owner, as does the internal
action; receiving on a gate outside the component's own sync set is an
error.

A composition's states are tuples of local-state ids, one per component: it
numbers each component's distinct local states once, in the order they first
appear among the step outputs (the initial one is 0), and local_states
decodes a state back to the tuple of local states. Component states must be
hashable, since the numbering looks them up by equality. Each distinct label
has one canonical Action, so equal labels of an explored LTS are one object;
a step output that is a canonical object is found by its id(), and only
another object is hashed to find its equal (hash-consing: a model that
builds each label once is never hashed again). The rendezvous matches offers
by identity and memoizes receivers' results per action id, without hashing
nested values, and accept still gets the offers tuple itself. The step cache
is a list per component indexed by local id, and each entry is one tuple
built once: the solo moves, two bitmasks over the synchronized gates (the
member gates where the local state neither offers nor receives, and the
gates it offers concretely), then one slot per member gate (None if
blocked). A slot holds the offers on the gate, each (action, next id), or
(action, next ids tuple) for two or more successors; with receivers it is a
list of the offers, the receivers' memo and their accept functions. The
memo, made the first time the gate is tried (most receivers never are), is
all that changes later; it holds one result as a bare id, as the offers
do. On a miss, accept gets the member's local state, so one accept
function per component and gate serves every local state. A
rendezvous reads each member's slot without a table lookup. enabled_actions
ORs the masks over a state's components and tries only the gates someone
offers and no member blocks, which are the only ones that can fire. A member
with one alternative for an offer is written straight into the successor,
and itertools.product runs only over the members with two or more, which
gives the order of a product over all members. Ids follow first appearance,
gates are numbered by their first member (each component's gates in name
order) and offers keep their first-seen order, so exploration order does not
depend on them.

explore is the one breadth-first search of the package. It walks any system
with an initial_state and enabled_actions(state): a composition, an Lts, or a
Product of either with a Monitor, optionally up to the first state meeting a
goal; shortest_trace reads a shortest trace to any state back from the Lts
it returns. An Lts stores its transitions as CADP's BCG files and mCRL2's
LTS library do: grouped by source, with the offset of each state's first
transition (compressed sparse row), two int arrays (label id, target) and
one table of labels. The source of a transition is where it lies between
the offsets, so no array holds it. explore appends ints to those arrays as
it goes, giving a label its id the first time it fires, so an explored
system, products included, never holds a tuple per transition. A Product
node is one flat tuple, the system state and then the monitor state
(node[-1]); the monitor's step cuts an edge by returning None. The property
observers, the END_OBSTACLE count of the liveness checks, the testgen
purpose and the replay of a folded scenario are all monitors. search
explores up to a goal and returns the trace to it.
"""
from __future__ import annotations

import itertools
import operator
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Set, Tuple, Union

from . import values
from .values import Value

INTERNAL_GATE = "i"


@dataclass(frozen=True)
class Action:
    gate: str
    offers: Tuple[Value, ...] = ()

    def text(self) -> str:
        if not self.offers:
            return self.gate
        return self.gate + " " + " ".join("!" + values.text(v) for v in self.offers)


INTERNAL = Action(INTERNAL_GATE)


def parse_action(label: str) -> Action:
    """Parse a canonical label back into an action.

    Raises values.ValueError_ when the text is not in canonical form.
    """
    if not label or label != label.strip():
        raise values.ValueError_(f"bad label {label!r}")
    parts = label.split(" ")
    gate = parts[0]
    if not values._NAME_RE.match(gate):
        raise values.ValueError_(f"bad gate name {gate!r}")
    offers = []
    for p in parts[1:]:
        if not p.startswith("!"):
            raise values.ValueError_(f"bad offer {p!r} in {label!r}")
        offers.append(values.parse_value(p[1:]))
    return Action(gate, tuple(offers))


@dataclass(frozen=True)
class Receive:
    """A step output (Receive(gate), accept) takes the offers that fire on
    gate: accept(local_state, offers) returns the receiving component's next
    local state, or None to refuse; one function may serve every state."""
    gate: str


StepFn = Callable[[Hashable], List[Tuple[Union[Action, Receive], object]]]


@dataclass(frozen=True)
class Component:
    id: str
    sync_set: frozenset
    initial: Hashable
    step: StepFn = field(compare=False)

    def __post_init__(self):
        if INTERNAL_GATE in self.sync_set:
            raise CompositionError(f"component {self.id}: '{INTERNAL_GATE}' cannot be synchronized")


class CompositionError(ValueError):
    pass


class Composition:
    """A closed system of components with per-gate synchronization sets.

    Its states are tuples of local-state ids, one per component, numbered in
    the order each local state first appears (the initial one is 0);
    local_states decodes a state back to the tuple of local states.
    """

    def __init__(self, components):
        self.components: Tuple[Component, ...] = tuple(components)
        if not self.components:
            raise CompositionError("empty composition")
        ids = [c.id for c in self.components]
        if len(set(ids)) != len(ids):
            raise CompositionError(f"duplicate component ids in {ids}")
        self._member_gates: List[tuple] = [tuple(sorted(c.sync_set)) for c in self.components]
        members: Dict[str, List[Tuple[int, int]]] = {}
        for i, gates in enumerate(self._member_gates):
            for slot, g in enumerate(gates, 3):
                members.setdefault(g, []).append((i, slot))
        # bit k of a gate mask stands for the k-th synchronized gate, in the
        # order of first members, and _gates[k] lists its members as
        # (component, slot) pairs
        self._gates: List[Tuple[Tuple[int, int], ...]] = [tuple(m) for m in members.values()]
        self._gate_bits: Dict[str, int] = {g: 1 << k for k, g in enumerate(members)}
        self._member_bits: List[int] = [
            sum(self._gate_bits[g] for g in c.sync_set) for c in self.components]
        # per component: local id -> local state, local state -> local id,
        # and the step cache, local id -> None or the entry (solo, blocked,
        # offered, part_0, part_1, ...) of the module docstring, part_k at
        # slot 3 + k for the k-th gate of _member_gates[i]: offers in
        # first-seen order, or the list [offers, memo or None, accept, ...];
        # _labels maps each distinct label to its one canonical Action, so
        # offers match by identity, and _canonical maps the id() of each
        # canonical Action, which _labels keeps alive, to the action itself
        self._locals: List[List[Hashable]] = [[c.initial] for c in self.components]
        self._local_ids: List[Dict[Hashable, int]] = [{c.initial: 0} for c in self.components]
        self._steps: List[List[Optional[tuple]]] = [[None] for _ in self.components]
        self._labels: Dict[Action, Action] = {}
        self._canonical: Dict[int, Action] = {}

    @property
    def initial_state(self) -> tuple:
        return (0,) * len(self.components)

    def local_states(self, state: tuple) -> tuple:
        """The tuple of local states that a state of ids stands for."""
        return tuple(local[s] for local, s in zip(self._locals, state))

    def _local_id(self, i: int, local: Hashable) -> int:
        ids = self._local_ids[i]
        lid = ids.get(local)
        if lid is None:
            lid = ids[local] = len(self._locals[i])
            self._locals[i].append(local)
            self._steps[i].append(None)
        return lid

    def _component_steps(self, i: int, lid: int):
        comp = self.components[i]
        labels, canonical = self._labels, self._canonical
        bits = self._gate_bits
        solo: Dict[Tuple[int, int], Tuple[Action, int]] = {}
        gates: Dict[str, Tuple[list, list]] = {}
        member = offered = 0
        for act, nxt in comp.step(self._locals[i][lid]):
            gate = act.gate
            receive = type(act) is Receive
            if not receive:
                known = canonical.get(id(act))
                if known is None:  # not a canonical object: find its equal by hashing
                    known = labels.setdefault(act, act)
                    canonical[id(known)] = known
                act = known
                nxt = self._local_id(i, nxt)
                if gate not in bits:
                    solo.setdefault((id(act), nxt), (act, nxt))
                    continue
            if gate not in comp.sync_set:
                raise CompositionError(
                    f"component {comp.id} {'receives' if receive else 'emits'} "
                    f"synchronized gate {gate} without listing it in its sync set"
                )
            part = gates.get(gate)
            if part is None:
                part = gates[gate] = ([], [])
                member |= bits[gate]
            offers, accepts = part
            if receive:
                if nxt not in accepts:
                    accepts.append(nxt)
                continue
            for k, (a, nxts) in enumerate(offers):
                if a is act:  # another successor for an offer listed before
                    if type(nxts) is int:
                        nxts = (nxts,)
                    if nxt not in nxts:
                        offers[k] = (act, nxts + (nxt,))
                    break
            else:
                offers.append((act, nxt))
            offered |= bits[gate]
        entry = self._steps[i][lid] = (
            tuple(solo.values()), self._member_bits[i] & ~member, offered,
            *(None if part is None else [tuple(part[0]), None] + part[1] if part[1]
              else tuple(part[0]) for part in map(gates.get, self._member_gates[i])))
        return entry

    def enabled_actions(self, state: tuple) -> List[Tuple[Action, tuple]]:
        """All enabled (action, successor) pairs, in deterministic order.

        Gates are tried in the order of their bits, and only those that
        some member offers concretely and where no member is blocked. A
        gate's offers are tried in the order of the shortest offer tuple
        among members with no receiver on it (the lowest index on ties), or
        when every member receives, in member order over all concrete
        offers. An offer's successors follow itertools.product over the
        members' alternatives in member order: a member's concrete
        successors, then its accepting receivers' results.
        """
        out: List[Tuple[Action, tuple]] = []
        per_comp = list(map(list.__getitem__, self._steps, state))
        blocked = offered = 0
        for i, entry in enumerate(per_comp):
            if entry is None:
                entry = per_comp[i] = self._component_steps(i, state[i])
            blocked |= entry[1]
            offered |= entry[2]
            for act, nxt in entry[0]:
                succ = list(state)
                succ[i] = nxt
                out.append((act, tuple(succ)))
        fire = offered & ~blocked
        while fire:
            bit = fire & -fire
            fire ^= bit
            members = self._gates[bit.bit_length() - 1]
            # no member is blocked, so each has a part for the gate
            parts = []
            source = None
            for i, slot in members:
                part = per_comp[i][slot]
                if type(part) is tuple:  # concrete offers, no receiver
                    if source is None or len(part) < len(source):
                        source = part
                    parts.append((i, part, None, None))
                    continue
                accepted = part[1]
                if accepted is None:  # first try of this receiver's gate
                    accepted = part[1] = {}
                parts.append((i, part[0], part, accepted))
            if source is None:
                firsts = {}
                for _, offers, _, _ in parts:
                    for offer in offers:
                        firsts.setdefault(id(offer[0]), offer)
                source = firsts.values()
            for act, _ in source:
                # a member with one alternative goes straight into succ; the
                # product runs over the others, in member order
                succ = list(state)
                choices = []
                for i, offers, part, accepted in parts:
                    for a, alts in offers:
                        if a is act:
                            break
                    else:
                        alts = ()
                    if accepted is not None:
                        got = accepted.get(id(act))
                        if got is None:
                            got = []
                            for accept in itertools.islice(part, 2, None):
                                nxt = accept(self._locals[i][state[i]], act.offers)
                                if nxt is not None:
                                    got.append(self._local_id(i, nxt))
                            got = accepted[id(act)] = got[0] if len(got) == 1 else tuple(got)
                        if alts != ():  # widen to join the concrete successors
                            got = (((alts,) if type(alts) is int else alts)
                                   + ((got,) if type(got) is int else got))
                        alts = got
                    if type(alts) is int:
                        succ[i] = alts
                    elif len(alts) == 1:
                        succ[i] = alts[0]
                    elif alts:
                        choices.append((i, alts))
                    else:
                        break
                else:
                    if not choices:
                        out.append((act, tuple(succ)))
                    else:
                        for combo in itertools.product(*[alts for _, alts in choices]):
                            for (i, _), nxt in zip(choices, combo):
                                succ[i] = nxt
                            out.append((act, tuple(succ)))
        return out


@dataclass(frozen=True)
class ExplorationLimits:
    max_states: int = 1_000_000
    max_depth: int = 0  # 0 = unlimited

    def __post_init__(self):
        if self.max_states < 1:
            raise ValueError(f"max_states must be >= 1, got {self.max_states}")
        if self.max_depth < 0:
            raise ValueError(f"max_depth must be >= 0, got {self.max_depth}")


class Lts:
    """Explicit labelled transition system, stored as int arrays.

    States are 0..num_states-1. A state's transitions are those from
    offsets[state] to offsets[state + 1] (compressed sparse row), and
    transition k goes under labels[lab[k]] to dst[k]: lab and dst are
    array('i'), grouped by source, and labels holds one Action per label
    id, equal actions sharing one id. The source of transition k is the
    state whose range holds k, so no array stores it and no state keeps a
    list of its own. An Lts built from (src, action, dst) triples in any
    order sorts them by source once, stably, and numbers the labels in order
    of first appearance; transitions and outgoing() rebuild the triples and
    the per-state edge lists on demand. state_payload, when present, maps
    indices back to the states of the system they were explored from (a
    Composition's id tuples decode through its local_states). An Lts is
    itself a system that explore accepts.
    """
    __slots__ = ("num_states", "initial", "offsets", "lab", "dst", "labels", "state_payload")

    def __init__(self, num_states: int, initial: int,
                 transitions: Iterable[Tuple[int, Action, int]] = (),
                 state_payload: Optional[tuple] = None):
        ids: Dict[Action, int] = {}
        src, lab, dst = array("i"), array("i"), array("i")
        for s, act, d in transitions:
            src.append(s)
            lab.append(ids.setdefault(act, len(ids)))
            dst.append(d)
        offsets, lab, dst = _by_source(num_states, src, lab, dst)
        self._store(num_states, initial, offsets, lab, dst, tuple(ids), state_payload)

    @classmethod
    def from_arrays(cls, num_states: int, initial: int, offsets: array, lab: array, dst: array,
                    labels: tuple, state_payload: Optional[tuple] = None) -> "Lts":
        """The Lts of the given arrays, which it keeps: lab and dst grouped
        by source, and offsets, num_states + 1 long, where each state's
        transitions start."""
        lts = cls.__new__(cls)
        lts._store(num_states, initial, offsets, lab, dst, labels, state_payload)
        return lts

    def _store(self, num_states, initial, offsets, lab, dst, labels, state_payload):
        self.num_states = num_states
        self.initial = initial
        self.offsets, self.lab, self.dst = offsets, lab, dst
        self.labels = labels
        self.state_payload = state_payload

    @property
    def initial_state(self) -> int:
        return self.initial

    def enabled_actions(self, state: int) -> List[Tuple[Action, int]]:
        labels, lab, dst = self.labels, self.lab, self.dst
        edges = []  # a loop: a comprehension's own frame costs more for a few edges
        for k in range(self.offsets[state], self.offsets[state + 1]):
            edges.append((labels[lab[k]], dst[k]))
        return edges

    @property
    def transitions(self) -> Tuple[Tuple[int, Action, int], ...]:
        return tuple(zip(_sources(self.offsets, 0, self.num_states),
                         map(self.labels.__getitem__, self.lab), self.dst))

    def outgoing(self) -> List[List[Tuple[Action, int]]]:
        return [self.enabled_actions(s) for s in range(self.num_states)]

    def alphabet(self) -> Set[str]:
        return {a.gate for a in self.labels}

    def __eq__(self, other):
        """Equal sizes, payloads and transitions in the same order; the
        label tables may number the actions differently."""
        if not isinstance(other, Lts):
            return NotImplemented
        return ((self.num_states, self.initial, self.state_payload, self.offsets, self.dst)
                == (other.num_states, other.initial, other.state_payload, other.offsets,
                    other.dst)
                and list(map(self.labels.__getitem__, self.lab))
                == list(map(other.labels.__getitem__, other.lab)))

    __hash__ = None

    def __repr__(self):
        return (f"Lts(num_states={self.num_states}, initial={self.initial}, "
                f"transitions={len(self.dst)}, labels={len(self.labels)})")


def _by_source(n: int, src: array, lab: array, dst: array):
    """The offsets of each state's first transition, and lab and dst stably
    sorted by their sources (a counting sort, skipped when they already
    are). src is left as it was."""
    counts = [0] * n  # a list: its items are quicker to add to than an array's
    last, ordered = 0, True
    for s in src:
        counts[s] += 1
        if s < last:
            ordered = False
        last = s
    offsets = array("i", itertools.accumulate(counts, initial=0))
    if ordered:
        return offsets, lab, dst
    order = array("i", [0]) * len(src)
    free = offsets[:-1]
    for k, s in enumerate(src):
        order[free[s]] = k
        free[s] += 1
    return (offsets, *(array("i", map(a.__getitem__, order)) for a in (lab, dst)))


def _sources(offsets: array, first: int, stop: int) -> Iterable[int]:
    """The source of each transition of the states first..stop-1, in order."""
    return itertools.chain.from_iterable(map(
        itertools.repeat, range(first, stop),
        map(operator.sub, offsets[first + 1:stop + 1], offsets[first:stop])))


class ExplorationLimitError(Exception):
    """Raised when exploration hits a limit; carries what was discovered."""

    def __init__(self, partial: Lts, reason: str):
        super().__init__(f"exploration truncated ({reason}) after {partial.num_states} states")
        self.partial = partial
        self.reason = reason


def explore(system, limits: ExplorationLimits = ExplorationLimits(),
            goal: Optional[Callable[[Hashable], bool]] = None) -> Lts:
    """Breadth-first reachable-state enumeration with duplicate detection of
    any system with an initial_state and enabled_actions(state): a
    Composition, an Lts or a product over one. The payload keeps the states
    in discovery order, and the transitions come out grouped by source. A
    label gets its id the first time it fires; equal actions share one, and
    an action object seen before is found by its id(), without hashing its
    offers. An enabled (action, successor) pair that a state lists twice
    gives one transition: edges into one successor are told apart by label
    id. With a goal, the part explored so far is returned right after the
    edge that discovers the first state meeting it (the start included),
    which is then the last state, without outgoing edges. Raises
    ExplorationLimitError when a limit cuts exploration short.
    """
    init = system.initial_state
    index: Dict[Hashable, int] = {init: 0}
    payload: List[Hashable] = [init]
    # per state: the last state that made a transition into it; an array, as
    # a list would keep alive an int object per state from enumerate below
    into = array("i", [-1])
    lab, dst = array("i"), array("i")
    offsets = array("i")  # the first transition of each state walked so far
    labels: List[Action] = []
    label_ids: Dict[Action, int] = {}
    by_object: Dict[int, int] = {}  # id(action) -> label id, for the actions in labels

    def label_id(act: Action) -> int:
        lid = by_object.get(id(act))
        if lid is None:
            lid = label_ids.get(act)
            if lid is None:
                lid = label_ids[act] = by_object[id(act)] = len(labels)
                labels.append(act)
        return lid

    def explored() -> Lts:
        # the states not walked yet have no transitions
        n = len(payload)
        offsets.extend(array("i", [len(dst)]) * (n + 1 - len(offsets)))
        return Lts.from_arrays(n, 0, offsets, lab, dst, tuple(labels), tuple(payload))

    if goal is not None and goal(init):
        return explored()
    # states are numbered in BFS order, so the payload is the queue: it is
    # walked in index order while it grows, and a level's states run from
    # one level end to the next
    depth, level_end = 0, 1
    # read once here, not once per state
    enabled, max_states, max_depth = system.enabled_actions, limits.max_states, limits.max_depth
    index_get = index.get
    add_lab, add_dst = lab.append, dst.append
    for si, state in enumerate(payload):
        offsets.append(len(dst))
        if si == level_end:
            depth, level_end = depth + 1, len(payload)
        if max_depth and depth >= max_depth:
            if enabled(state):
                raise ExplorationLimitError(explored(), "max_depth")
            continue
        for act, succ in enabled(state):
            ti = index_get(succ)
            if ti is None:
                if len(payload) >= max_states:
                    raise ExplorationLimitError(explored(), "max_states")
                ti = len(payload)
                index[succ] = ti
                payload.append(succ)
                into.append(-1)
                if goal is not None and goal(succ):
                    add_lab(label_id(act))
                    add_dst(ti)
                    return explored()
            lid = by_object.get(id(act))  # label_id(act), inlined for the common case
            if lid is None:
                lid = label_id(act)
            if into[ti] != si:
                into[ti] = si
            elif any(dst[k] == ti and lab[k] == lid for k in range(offsets[-1], len(dst))):
                continue  # this state made the same transition already
            add_lab(lid)
            add_dst(ti)
    return explored()


def shortest_trace(lts: Lts, state: int) -> tuple:
    """Labels of a shortest path from the initial state to state in an Lts
    that explore returned. Its states are numbered in breadth-first
    discovery order and the first transition into a state is the edge that
    discovered it, so walking those edges back reaches the initial state.
    That edge leaves a state of a lower index, so for the states up to
    state it lies before state's own transitions. The source of edge k is
    the last state whose transitions start at or before k: states without
    transitions share their offset with the next state.
    """
    via = array("i", [-1]) * (state + 1)
    for k, d in enumerate(itertools.islice(lts.dst, lts.offsets[state])):
        if d <= state and via[d] < 0:
            via[d] = k
    trace = []
    while state != lts.initial:
        k = via[state]
        trace.append(lts.labels[lts.lab[k]])
        state = bisect_right(lts.offsets, k) - 1
    return tuple(reversed(trace))


def search(system, goal: Callable[[Hashable], bool],
           limits: ExplorationLimits = ExplorationLimits()) -> Tuple[Lts, Optional[tuple]]:
    """Explore system up to the first state meeting goal. Returns the
    explored part and a shortest trace to that state, or None when no
    reachable state meets the goal. Raises ExplorationLimitError on a limit.
    The goal is tested once per discovered state and again on the last.
    """
    explored = explore(system, limits, goal)
    return explored, goal_trace(explored, goal)


def goal_trace(lts: Lts, goal: Callable[[Hashable], bool]) -> Optional[tuple]:
    """A shortest trace to the goal state of an Lts that explore returned
    for that goal, or None when it holds none: explore stops at the first
    state meeting the goal, which is then the last one.
    """
    last = lts.num_states - 1
    return shortest_trace(lts, last) if goal(lts.state_payload[last]) else None


@dataclass(frozen=True)
class Monitor:
    """Deterministic observer: step(state, action) returns the next monitor
    state, or None to cut the edge."""
    initial: Hashable
    step: Callable[[Hashable, Action], Optional[Hashable]] = field(compare=False)


class Product:
    """The system whose nodes are the system state followed by the monitor
    state: (*ids, m) over a system of tuple states such as a Composition,
    (s, m) over an Lts. The system's initial state decides the form once, as
    the node (0, m) of a one-component composition is an Lts node too. Each
    edge of the system moves the monitor along; an edge the monitor's step
    returns None for is left out.
    """

    def __init__(self, system, monitor: Monitor):
        self.system, self.monitor = system, monitor
        self.flat = type(system.initial_state) is tuple

    @property
    def initial_state(self) -> tuple:
        init, m = self.system.initial_state, self.monitor.initial
        return init + (m,) if self.flat else (init, m)

    def enabled_actions(self, node: tuple) -> List[Tuple[Action, tuple]]:
        flat, m = self.flat, node[-1]
        step = self.monitor.step
        edges = []
        for act, succ in self.system.enabled_actions(node[:-1] if flat else node[0]):
            m2 = step(m, act)
            if m2 is not None:
                edges.append((act, succ + (m2,) if flat else (succ, m2)))
        return edges
