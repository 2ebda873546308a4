"""Independent reference implementations the tests compare against.

Everything here is deliberately written with different algorithms and data
layouts than the package: rendezvous by trying every concretely offered
value list on every participant, a naive greatest-fixpoint bisimulation,
whole-partition signature refinement, a solved attacker/defender game, exact
rational geometry for line-of-sight, subset replay of traces and
level-by-level shortest distances, an .aut reader that splits the whole text
into lines, and an .aut writer that sorts one row per transition.
"""
from __future__ import annotations

import copy
import itertools
import random
import re
from fractions import Fraction
from typing import Dict, List, Optional, Set, Tuple

from avmodels.aut import AutFormatError, _parse_label
from avmodels.kernel import Action, Component, Composition, Lts, Receive
from avmodels.scenarios import ScenarioError, scenario_from_json
from avmodels.values import Bool, Nat, Pos, Sym


# ---------------------------------------------------------------------------
# rendezvous semantics, the slow obvious way

def brute_force_edges(comp: Composition):
    """All reachable global transitions as a set of (state, action, state),
    computed by direct application of the composition rule: for every value
    list some participant of a synchronized gate offers concretely, each
    participant must take part, by offering exactly that list or by a
    receiver accepting it; everything else moves one component alone.
    """
    comps = comp.components
    participants: Dict[str, Tuple[int, ...]] = {}
    for i, c in enumerate(comps):
        for g in c.sync_set:
            participants.setdefault(g, ())
            participants[g] += (i,)

    def moves(state):
        found = set()
        per = [c.step(s) for c, s in zip(comps, state)]
        # independent moves: internal actions and unsynchronized gates
        for i, steps in enumerate(per):
            for act, nxt in steps:
                if isinstance(act, Receive) or act.gate in participants:
                    continue
                ns = list(state)
                ns[i] = nxt
                found.add((act, tuple(ns)))
        # rendezvous: every participant of the gate, on one value list
        for gate, members in participants.items():
            emitted = {act.offers for i in members for act, _ in per[i]
                       if not isinstance(act, Receive) and act.gate == gate}
            for offers in emitted:
                options = [takers(per[i], state[i], gate, offers) for i in members]
                for pick in itertools.product(*options):
                    ns = list(state)
                    for i, nxt in zip(members, pick):
                        ns[i] = nxt
                    found.add((Action(gate, offers), tuple(ns)))
        return found

    init = tuple(c.initial for c in comps)
    seen = {init}
    frontier = [init]
    edges = set()
    while frontier:
        nxt_frontier = []
        for st in frontier:
            for act, ns in moves(st):
                edges.add((st, act, ns))
                if ns not in seen:
                    seen.add(ns)
                    nxt_frontier.append(ns)
        frontier = nxt_frontier
    return init, seen, edges


def takers(steps, local, gate, offers) -> List:
    """A component's next states from local state local when offers fire on
    gate: its concrete offers of exactly these values and its receivers
    that accept them."""
    out = []
    for act, nxt in steps:
        if act.gate != gate:
            continue
        if isinstance(act, Receive):
            nxt = nxt(local, offers)
            if nxt is not None:
                out.append(nxt)
        elif act.offers == offers:
            out.append(nxt)
    return out


def receiver_cases(comp: Composition, edges) -> Set[str]:
    """Which receiver situations a composition's reachable edges exercise:
    a rendezvous where every participant has a receiver on the gate, one
    where a participant both offers and receives on it, and a concretely
    offered value list that a participant cannot take because its receivers
    refuse it."""
    members: Dict[str, List[int]] = {}
    for i, c in enumerate(comp.components):
        for g in c.sync_set:
            members.setdefault(g, []).append(i)
    cases = set()
    for st in {src for src, _, _ in edges}:
        per = [c.step(s) for c, s in zip(comp.components, st)]
        for gate, ms in members.items():
            receives = [any(isinstance(a, Receive) and a.gate == gate for a, _ in per[i])
                        for i in ms]
            emits = [any(not isinstance(a, Receive) and a.gate == gate for a, _ in per[i])
                     for i in ms]
            fired = any(a.gate == gate for src, a, _ in edges if src == st)
            if fired and all(receives):
                cases.add("every participant receives")
            if fired and any(r and e for r, e in zip(receives, emits)):
                cases.add("one participant offers and receives")
            offered = {a.offers for i in ms for a, _ in per[i]
                       if not isinstance(a, Receive) and a.gate == gate}
            if any(r and not takers(per[i], st[i], gate, o)
                   for o in offered for i, r in zip(ms, receives)):
                cases.add("a receiver refuses an offer")
    return cases


def lts_edge_set(lts: Lts, comp: Composition):
    """The LTS explored from comp as edges between the tuples of local
    states its payload decodes to, for semantic comparison."""
    pay = [comp.local_states(s) for s in lts.state_payload]
    return (pay[lts.initial],
            set(pay),
            {(pay[s], a, pay[d]) for s, a, d in lts.transitions})


# ---------------------------------------------------------------------------
# bisimulation, two more ways

def naive_bisimulation(lts: Lts) -> Set[Tuple[int, int]]:
    """Greatest fixpoint of the bisimulation functional on the full relation."""
    n = lts.num_states
    out: List[Dict[str, List[Tuple[Action, int]]]] = [dict() for _ in range(n)]
    for s, a, d in lts.transitions:
        out[s].setdefault(a.text(), []).append((a, d))
    rel = {(p, q) for p in range(n) for q in range(n)}

    def simulates(p, q, rel):
        for label, steps in out[p].items():
            answers = out[q].get(label, [])
            for _, pd in steps:
                if not any((pd, qd) in rel for _, qd in answers):
                    return False
        return True

    changed = True
    while changed:
        changed = False
        keep = set()
        for p, q in rel:
            if simulates(p, q, rel) and simulates(q, p, rel):
                keep.add((p, q))
            else:
                changed = True
        rel = keep
    return rel


def game_bisimulation(lts: Lts) -> Set[Tuple[int, int]]:
    """Pairs where the defender wins the bisimulation game, by solving the
    safety game over an explicit arena with attractor iteration.

    Positions: ("A", p, q) attacker to move; ("D", label, p2, q, side)
    defender must answer the attacker's move. The attacker wins exactly the
    positions in the least set containing stuck-defender positions and closed
    under "attacker has a move into the set" / "defender has only moves into
    the set".
    """
    n = lts.num_states
    out: List[Dict[str, List[int]]] = [dict() for _ in range(n)]
    for s, a, d in lts.transitions:
        out[s].setdefault(a.text(), []).append(d)

    apos = [("A", p, q) for p in range(n) for q in range(n)]
    succs: Dict[tuple, List[tuple]] = {}
    for p, q in itertools.product(range(n), range(n)):
        ms = []
        for label, dests in out[p].items():
            ms += [("D", label, d, q, "L") for d in dests]
        for label, dests in out[q].items():
            ms += [("D", label, d, p, "R") for d in dests]
        succs[("A", p, q)] = ms
        for m in ms:
            if m not in succs:
                _, label, moved, other, side = m
                replies = out[other].get(label, [])
                succs[m] = [("A", moved, r) if side == "L" else ("A", r, moved)
                            for r in replies]

    attacker_wins = {pos for pos in succs if pos[0] == "D" and not succs[pos]}
    changed = True
    while changed:
        changed = False
        for pos, nxt in succs.items():
            if pos in attacker_wins or not nxt:
                continue
            if pos[0] == "A":
                win = any(m in attacker_wins for m in nxt)
            else:
                win = all(m in attacker_wins for m in nxt)
            if win:
                attacker_wins.add(pos)
                changed = True
    return {(pos[1], pos[2]) for pos in apos if pos not in attacker_wins}


def signature_refinement(lts: Lts) -> List[int]:
    """Block per state of the coarsest strong bisimulation partition, by
    recomputing every state's signature (its block and its set of (action,
    successor block) pairs) each round until the block count stops growing.
    Blocks are numbered by first occurrence in state order."""
    n = lts.num_states
    out: List[List[Tuple[Action, int]]] = [[] for _ in range(n)]
    for src, act, dst in lts.transitions:
        out[src].append((act, dst))
    blocks = [0] * n
    nblocks = 1
    while True:
        sigs: Dict[Tuple[int, frozenset], int] = {}
        new_blocks = [0] * n
        for s in range(n):
            sig = (blocks[s], frozenset((a, blocks[d]) for a, d in out[s]))
            new_blocks[s] = sigs.setdefault(sig, len(sigs))
        if len(sigs) == nblocks:
            return new_blocks
        blocks = new_blocks
        nblocks = len(sigs)


def partition_to_relation(blocks: List[int]) -> Set[Tuple[int, int]]:
    return {(p, q) for p in range(len(blocks)) for q in range(len(blocks))
            if blocks[p] == blocks[q]}


def bisimilar_by_game(a: Lts, b: Lts) -> bool:
    """Whether the initial states of two LTSs are bisimilar, by playing the
    bisimulation game only where it can actually go: explore the pairs
    reachable from the roots (each attacker move recorded with its defender
    replies), then peel off the pairs the attacker wins by backwards
    attractor iteration. The roots are bisimilar iff their pair survives.

    Unlike game_bisimulation above, this never builds the full n*n arena, so
    it stays cheap when one side is a minimized copy of the other.
    """
    def table(lts: Lts) -> List[Dict[str, List[int]]]:
        out: List[Dict[str, List[int]]] = [dict() for _ in range(lts.num_states)]
        for s, act, d in lts.transitions:
            out[s].setdefault(act.text(), []).append(d)
        return out

    out_a, out_b = table(a), table(b)
    root = (a.initial, b.initial)
    challenges: Dict[tuple, List[List[tuple]]] = {}
    parents: Dict[tuple, List[tuple]] = {}
    losing: Set[tuple] = set()
    seen = {root}
    frontier = [root]
    while frontier:
        pair = frontier.pop()
        p, q = pair
        chal: List[List[tuple]] = []
        for label, dests in out_a[p].items():
            replies = out_b[q].get(label, [])
            chal += [[(d, r) for r in replies] for d in dests]
        for label, dests in out_b[q].items():
            replies = out_a[p].get(label, [])
            chal += [[(r, d) for r in replies] for d in dests]
        challenges[pair] = chal
        for replies in chal:
            if not replies:
                losing.add(pair)
            for nxt in replies:
                parents.setdefault(nxt, []).append(pair)
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    work = list(losing)
    while work:
        bad = work.pop()
        for parent in parents.get(bad, ()):
            if parent in losing:
                continue
            if any(replies and all(r in losing for r in replies)
                   for replies in challenges[parent]):
                losing.add(parent)
                work.append(parent)
    return root not in losing


# ---------------------------------------------------------------------------
# exact line-of-sight geometry

def exact_supercover(a, b) -> Set[Tuple[int, int]]:
    """Every grid cell whose closed unit square meets the closed segment from
    the center of a to the center of b, by rational clipping."""
    ax, ay = Fraction(2 * a[0] + 1, 2), Fraction(2 * a[1] + 1, 2)
    bx, by = Fraction(2 * b[0] + 1, 2), Fraction(2 * b[1] + 1, 2)
    dx, dy = bx - ax, by - ay
    cells = set()
    for i in range(min(a[0], b[0]), max(a[0], b[0]) + 1):
        for j in range(min(a[1], b[1]), max(a[1], b[1]) + 1):
            t0, t1 = Fraction(0), Fraction(1)
            ok = True
            for delta, lo, hi, start in ((dx, i, i + 1, ax), (dy, j, j + 1, ay)):
                if delta == 0:
                    if not (lo <= start <= hi):
                        ok = False
                        break
                    continue
                ta = Fraction(lo - start, delta)
                tb = Fraction(hi - start, delta)
                if ta > tb:
                    ta, tb = tb, ta
                t0, t1 = max(t0, ta), min(t1, tb)
            if ok and t0 <= t1:
                cells.add((i, j))
    return cells


def exact_occluded(opaque_cells, origin, target) -> bool:
    between = exact_supercover(origin, target) - {origin, target}
    return any(c in opaque_cells for c in between)


def oracle_perception(m, prev=None, prev_car=None):
    """The 5x5 lidar window rebuilt from scratch: exact rational
    line-of-sight instead of the integer walk, and a dictionary of
    previously seen absolute cells instead of window-relative indexing
    for the M/N freshness flags.
    """
    opaque = {(x, y)
              for y in range(m.height) for x in range(m.width)
              if m.cells[y][x] is not None and not m.table[m.cells[y][x]][1]}
    seen: Dict[Tuple[int, int], str] = {}
    if prev is not None and prev_car is not None:
        for py in range(5):
            for px in range(5):
                seen[(prev_car[0] + px - 2, prev_car[1] + py - 2)] = prev[py][px]
    cx, cy = m.car
    rows = []
    for dy in range(-2, 3):
        row = []
        for dx in range(-2, 3):
            cell = (cx + dx, cy + dy)
            if dx == 0 and dy == 0:
                row.append("C")
                continue
            inside = 0 <= cell[0] < m.width and 0 <= cell[1] < m.height
            if not inside or exact_occluded(opaque, (cx, cy), cell):
                row.append("U")
                continue
            occ = m.cells[cell[1]][cell[0]]
            if occ is None:
                row.append("F")
                continue
            fresh = seen.get(cell) == "F"
            if m.table[occ][1]:
                row.append("N" if fresh else "T")
            else:
                row.append("M" if fresh else "O")
        rows.append(tuple(row))
    return tuple(rows)


# ---------------------------------------------------------------------------
# traces, replayed on every branch at once

def trace_exists(lts: Lts, labels) -> bool:
    """Is there a path from the initial state along exactly these labels?"""
    cur = {lts.initial}
    out = lts.outgoing()
    for act in labels:
        cur = {dst for s in cur for a, dst in out[s] if a == act}
        if not cur:
            return False
    return True


# ---------------------------------------------------------------------------
# .aut text, one whole text split into lines

_HEADER_RE = re.compile(r"des\s*\(\s*([0-9]+)\s*,\s*([0-9]+)\s*,\s*([0-9]+)\s*\)\s*\Z")
_TRANS_RE = re.compile(r"\(\s*([0-9]+)\s*,\s*\"([^\"]*)\"\s*,\s*([0-9]+)\s*\)\s*\Z")


def import_aut_lines(data: str) -> Lts:
    """Read a whole .aut text line by line into an Lts built from triples;
    the reference for every layout import_aut reads and every error it
    reports."""
    try:
        data.encode("ascii")
    except UnicodeEncodeError as e:
        # the line of the first character past ASCII, counted in the text
        # before it with a stand-in for it
        raise AutFormatError(f"not ascii: {e}", len((data[:e.start] + "?").splitlines()))
    lines = data.splitlines()
    if not lines:
        raise AutFormatError("empty file", 1)
    m = _HEADER_RE.match(lines[0].strip())
    if not m:
        raise AutFormatError(f"bad header {lines[0]!r}", 1)
    try:
        initial, ntrans, nstates = (int(g) for g in m.groups())
    except ValueError as e:  # more digits than int() converts
        raise AutFormatError(f"bad header: {e}", 1)
    if nstates > 2 * ntrans + 1:
        raise AutFormatError(
            f"header promises {nstates} states, more than its {ntrans} transitions"
            f" and the initial state can name ({2 * ntrans + 1})", 1)
    transitions = []
    actions: Dict[str, Action] = {}  # label text -> its action
    for ln, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        m = _TRANS_RE.match(raw.strip())
        if not m:
            raise AutFormatError(f"bad transition {raw!r}", ln)
        try:
            src, label, dst = int(m.group(1)), m.group(2), int(m.group(3))
        except ValueError as e:  # more digits than int() converts
            raise AutFormatError(f"bad transition: {e}", ln)
        if src >= nstates or dst >= nstates:
            raise AutFormatError(f"state out of range in {raw!r}", ln)
        act = actions.get(label)
        if act is None:
            act = actions[label] = _parse_label(label)
        transitions.append((src, act, dst))
    if len(transitions) != ntrans:
        raise AutFormatError(
            f"header promises {ntrans} transitions, file has {len(transitions)}",
            len(lines),
        )
    if nstates < 1 or initial >= nstates:
        raise AutFormatError("initial state out of range", 1)
    return Lts(nstates, initial, tuple(transitions))


# ---------------------------------------------------------------------------
# shortest distances, one whole frontier at a time

def shortest_distance(start, neighbours, goal) -> Optional[int]:
    """Edges from start to the nearest node satisfying goal, None when no
    such node is reachable. Each level is a complete frontier, and only a
    visited set is kept (no parents, no queue), so a shortest trace of any
    search must have exactly this length.
    """
    seen = {start}
    frontier = [start]
    level = 0
    while frontier:
        if any(goal(node) for node in frontier):
            return level
        following = []
        for node in frontier:
            for nxt in neighbours(node):
                if nxt not in seen:
                    seen.add(nxt)
                    following.append(nxt)
        frontier = following
        level += 1
    return None


# ---------------------------------------------------------------------------
# random generators (deterministic under a seed)

_POOL = (Nat(0), Nat(1), Nat(2), Bool(True), Bool(False),
         Sym("go"), Sym("stop"), Pos(0, 1), Pos(2, 2))


def random_composition(rng: random.Random, max_components=3, max_states=4,
                       gates=("a", "b", "c")) -> Composition:
    """Up to max_components table-driven components. About a third of the
    moves on synchronized gates are receivers (see _random_accept)."""
    ncomp = rng.randint(1, max_components)
    comps = []
    for ci in range(ncomp):
        nstates = rng.randint(1, max_states)
        sync = sorted(g for g in gates if rng.random() < 0.5)
        table: Dict[int, list] = {}
        for s in range(nstates):
            steps = []
            for _ in range(rng.randint(0, 3)):
                if sync and rng.random() < 0.3:
                    steps.append((Receive(rng.choice(sync)), _random_accept(rng, nstates)))
                    continue
                if rng.random() < 0.2:
                    act = Action("i")
                else:
                    gate = rng.choice(sync) if sync and rng.random() < 0.8 \
                        else rng.choice(gates)
                    if gate not in sync:
                        gate = gate + "_loc"  # unsynchronized, interleaves
                    offers = tuple(rng.choice(_POOL)
                                   for _ in range(rng.randint(0, 2)))
                    act = Action(gate, offers)
                steps.append((act, rng.randrange(nstates)))
            table[s] = steps
        comps.append(Component(f"P{ci}", frozenset(sync), 0,
                               lambda s, t=table: t[s]))
    return Composition(tuple(comps))


def _random_accept(rng: random.Random, nstates: int):
    """A receiver's accept(local, offers): refuse everything, take
    everything to one state, take one arity to a state picked by the first
    value and the local state, or take a random table of value lists."""
    kind = rng.randrange(4)
    target = rng.randrange(nstates)
    if kind == 0:
        return lambda local, offers: None
    if kind == 1:
        return lambda local, offers: target
    if kind == 2:
        arity = rng.randint(0, 2)
        return lambda local, offers: None if len(offers) != arity else \
            (_POOL.index(offers[0]) + target + local) % nstates if offers else target
    table = {tuple(rng.choice(_POOL) for _ in range(rng.randint(0, 2))): rng.randrange(nstates)
             for _ in range(rng.randint(1, 6))}
    return lambda local, offers: table.get(offers)


def random_lts(rng: random.Random, max_states=200, labels=("a", "b", "c", "d")) -> Lts:
    n = rng.randint(1, max_states)
    transitions = []
    for s in range(n):
        for _ in range(rng.randint(0, 3)):
            transitions.append((s, Action(rng.choice(labels)), rng.randrange(n)))
    return Lts(n, 0, tuple(transitions))


ACTION_POOL = (Action("a"), Action("i"), Action("G", (Nat(7),)), Action("G", (Nat(7), Nat(7))),
               Action("CAR_MOVE", (Sym("brakes"),)), Action("UPDATE_POSITION", (Pos(1, 2),)),
               Action("not !a value"))


def unsorted_triples(rng: random.Random, max_states=12, max_transitions=30):
    """(num_states, initial, triples) with sources in random order, at most
    2T + 1 states for T transitions, and about half the actions deep copies:
    equal to a pool action, but distinct objects."""
    ntrans = rng.randint(0, max_transitions)
    n = rng.randint(1, min(max_states, 2 * ntrans + 1))
    triples = []
    for _ in range(ntrans):
        act = rng.choice(ACTION_POOL)
        if rng.random() < 0.5:
            act = copy.deepcopy(act)
        triples.append((rng.randrange(n), act, rng.randrange(n)))
    return n, rng.randrange(n), triples


def sorted_rows_aut(num_states: int, initial: int, triples) -> bytes:
    """The .aut bytes of the triples: one (source, label text, target) row
    per transition, all sorted together."""
    rows = sorted((s, a.text(), d) for s, a, d in triples)
    return "".join([f"des ({initial}, {len(rows)}, {num_states})\n"]
                   + [f'({s}, "{text}", {d})\n' for s, text, d in rows]).encode("ascii")


def mixed_lts(rng: random.Random, labels=("a", "b")) -> Lts:
    """A random LTS with finite-path and cycle-reaching states side by side:
    an acyclic layer whose edges only go forward; a cyclic core (one ring
    plus random edges) with edges into the layer; the same labelled ring
    twice, so bisimilar states sit in different SCCs; and long chains that
    end in a cycle. State numbers are shuffled, so index order follows none
    of these parts."""
    acts = [Action(label) for label in labels]
    edges: List[Tuple[int, Action, int]] = []
    count = 0

    def fresh(k: int) -> List[int]:
        nonlocal count
        count += k
        return list(range(count - k, count))

    layer = fresh(rng.randint(1, 12))
    for i, s in enumerate(layer[:-1]):
        for _ in range(rng.randint(0, 2)):
            edges.append((s, rng.choice(acts), rng.choice(layer[i + 1:])))
    core = fresh(rng.randint(1, 8))
    for s, d in zip(core, core[1:] + core[:1]):
        edges.append((s, rng.choice(acts), d))
    for s in core:
        for _ in range(rng.randint(0, 2)):
            edges.append((s, rng.choice(acts), rng.choice(core + layer)))
    word = [rng.choice(acts) for _ in range(rng.randint(1, 3))]
    for _ in range(2):
        ring = fresh(len(word))
        for i, s in enumerate(ring):
            edges.append((s, word[i], ring[(i + 1) % len(ring)]))
        if rng.random() < 0.5:
            edges.append((ring[0], rng.choice(acts), rng.choice(layer)))
    for _ in range(rng.randint(1, 2)):
        chain = fresh(rng.randint(5, 15))
        for s, d in zip(chain, chain[1:]):
            edges.append((s, rng.choice(acts), d))
        edges.append((chain[-1], rng.choice(acts), rng.choice(chain[-3:])))
        if rng.random() < 0.5:
            edges.append((chain[0], rng.choice(acts), rng.choice(layer)))
    perm = list(range(count))
    rng.shuffle(perm)
    return Lts(count, perm[0], tuple((perm[s], a, perm[d]) for s, a, d in edges))


_MOVES = ("up", "down", "left", "right", "none", "random")


def random_grid_json(rng: random.Random) -> dict:
    """Grid-scenario JSON of 2..5 x 2..5 cells: at most one static rock and
    two mobile obstacles, each anchored on an edge cell about two times in
    three, with scripts of up to four move words (random ones included) that
    may be cyclic, and a car with such a script. Draws again until the
    scenario loads."""
    while True:
        width, height = rng.randint(2, 5), rng.randint(2, 5)

        def cell():
            return (rng.choice((0, width - 1, rng.randrange(width))),
                    rng.choice((0, height - 1, rng.randrange(height))))

        def script():
            moves = [rng.choice(_MOVES) for _ in range(rng.randint(0, 4))]
            return moves, bool(moves) and rng.random() < 0.3

        static = []
        for _ in range(rng.randint(0, 1)):
            x, y = cell()
            static.append({"kind": "Rock", "x": x, "y": y, "transparent": rng.random() < 0.3})
        mobile = []
        for kind in ("Walker", "Cart")[:rng.randint(0, 2)]:
            (x, y), (moves, cyclic) = cell(), script()
            mobile.append({"kind": kind, "x": x, "y": y, "transparent": rng.random() < 0.5,
                           "cyclic": cyclic, "moves": moves})
        (x, y), (moves, cyclic) = cell(), script()
        data = {"width": width, "height": height, "static": static, "mobile": mobile,
                "car": {"x": x, "y": y, "cyclic": cyclic, "moves": moves},
                "dist_min": rng.randint(0, 3)}
        try:
            scenario_from_json(data)
        except ScenarioError:
            continue
        return data


def random_street_json(rng: random.Random) -> dict:
    """Street-graph scenario JSON: 2..4 vertices joined by n..n+3 random
    streets (loops and parallel streets included), the car and its
    destination on random streets, and up to two obstacles on other streets
    with scripts of up to two random, leave or turn operations. Draws again
    until the scenario loads."""
    while True:
        n = rng.randint(2, 4)
        edges = [[rng.randrange(n), f"S{k}", rng.randrange(n)]
                 for k in range(rng.randint(n, n + 3))]
        streets = [street for _, street, _ in edges]
        car = {"position": rng.choice(streets), "destination": rng.choice(streets)}
        free = [s for s in streets if s != car["position"]]
        rng.shuffle(free)
        obstacles = [{"position": s, "moves": [
            rng.choice(("random", "leave", {"turn": rng.randint(0, 2)}))
            for _ in range(rng.randint(0, 2))]} for s in free[:rng.randint(0, 2)]]
        data = {"vertices": list(range(n)), "edges": edges, "car": car,
                "obstacles": obstacles}
        try:
            scenario_from_json(data)
        except ScenarioError:
            continue
        return data
