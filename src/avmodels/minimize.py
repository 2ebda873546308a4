"""Strong bisimulation minimization: a backward sweep over the states whose
every path is finite, then dirty-block partition refinement of the rest.

A state's set of (label, successor block) pairs is its signature, which
_refine's signature() alone computes. The sweep visits the states in Kahn's
order from the sinks over the predecessor lists, so each state comes after
all its successors; its signature is taken once, from their final blocks,
and equal signatures share a block. On these well-founded states that
settles strong bisimulation exactly, one rank at a time (Dovier, Piazza &
Policriti, TCS 311, 2004). A state the sweep never reaches can reach a
cycle, so it has an infinite path and is bisimilar to no settled state,
and a settled state has no unsettled successor.

The unsettled states start as one block, marked dirty, and refinement works
in rounds. Each round groups the members of every dirty block by signature,
all taken against the block ids of the round before, then splits: the
largest group keeps the block's id and every other group gets a new one.
Only a state with a successor that got a new id can change its signature,
so the next round's dirty blocks are those of the predecessors of the moved
states (after Paige & Tarjan, SIAM J. Comput. 1987, and Valmari & Lehtinen,
STACS 2008); a settled block never becomes dirty. When no block is dirty,
two states share a block iff they are strongly bisimilar. That coarsest
partition is unique, and the blocks are renumbered by first occurrence in
state order, so the result is deterministic. The quotient keeps one
transition per (block, label, block) triple. Labels are numbered once, so
signatures and the quotient's triples hold ints, not actions.
"""
from __future__ import annotations

from typing import Dict, List, Tuple

from .kernel import Action, Lts


def minimize(lts: Lts) -> Lts:
    if lts.num_states == 0:
        return Lts(0, 0, ())
    label_ids = _label_ids(lts)
    blocks = _refine(lts, label_ids)
    seen = set()
    quotient: List[Tuple[int, Action, int]] = []
    for src, act, dst in lts.transitions:
        t = (blocks[src], label_ids[id(act)], blocks[dst])
        if t not in seen:
            seen.add(t)
            quotient.append((t[0], act, t[2]))
    return Lts(max(blocks) + 1, blocks[lts.initial], tuple(quotient))


def partition(lts: Lts) -> List[int]:
    """Block index per state for the coarsest strong bisimulation partition.

    The states with only finite paths are settled in one backward sweep.
    Refinement of the rest re-signs only the dirty blocks, those holding a
    predecessor of a state that moved to a new block in the last round. At
    the fixpoint the blocks are renumbered by first occurrence scanning
    states in index order, so the numbering does not depend on the order of
    the sweep or of the splits.
    """
    return _refine(lts, _label_ids(lts))


def _label_ids(lts: Lts) -> Dict[int, int]:
    """id(action) -> label id for the actions of lts, which keeps them alive.
    Equal actions share a label id, and each action object is hashed once,
    however many transitions carry it."""
    ids: Dict[Action, int] = {}
    by_object: Dict[int, int] = {}
    for _, act, _ in lts.transitions:
        if id(act) not in by_object:
            by_object[id(act)] = ids.setdefault(act, len(ids))
    return by_object


def _refine(lts: Lts, label_ids: Dict[int, int]) -> List[int]:
    n = lts.num_states
    out: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    pred: List[List[int]] = [[] for _ in range(n)]
    for src, act, dst in lts.transitions:
        out[src].append((label_ids[id(act)], dst))
        pred[dst].append(src)
    blocks = [-1] * n

    def signature(s: int) -> Tuple[int, ...]:
        # a block id is below n, so lid * n + block names one (label, block);
        # the sweep keeps one per settled block, so a tuple: a frozenset is 4x larger
        return tuple(sorted({lid * n + blocks[d] for lid, d in out[s]}))

    # settle the states whose every path is finite, sinks first (Kahn's
    # order over pred): each one's successors already have their final block
    signatures: Dict[Tuple[int, ...], int] = {}
    pending = [len(succs) for succs in out]  # edges to states not yet settled
    ready = [s for s in range(n) if not out[s]]
    for s in ready:  # grows while it is walked
        blocks[s] = signatures.setdefault(signature(s), len(signatures))
        for p in pred[s]:
            pending[p] -= 1
            if not pending[p]:
                ready.append(p)
    # the rest can reach a cycle: one block for them all, refined against the
    # settled blocks, which no longer change and so need no member list
    rest = [s for s in range(n) if blocks[s] < 0]
    for s in rest:
        blocks[s] = len(signatures)
    members: Dict[int, List[int]] = {len(signatures): rest} if rest else {}
    dirty = set(members)
    while dirty:
        # every signature is taken against the block ids of the last round
        splits = []
        for b in dirty:
            if len(members[b]) > 1:
                groups: Dict[Tuple[int, ...], List[int]] = {}
                for s in members[b]:
                    groups.setdefault(signature(s), []).append(s)
                if len(groups) > 1:
                    splits.append((b, sorted(groups.values(), key=len)))
        moved: List[int] = []
        for b, groups in splits:
            members[b] = groups.pop()  # the largest group keeps the id
            for group in groups:
                new = len(signatures) + len(members)
                members[new] = group
                for s in group:
                    blocks[s] = new
                moved += group
        dirty = {blocks[p] for s in moved for p in pred[s]}
    renumber: Dict[int, int] = {}
    return [renumber.setdefault(b, len(renumber)) for b in blocks]
