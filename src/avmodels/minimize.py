"""Strong bisimulation minimization by dirty-block partition refinement.

A state's signature is its set of (label, successor block) pairs. Refinement
starts from one block holding every state, marked dirty, and works in
rounds. Each round groups the members of every dirty block by signature,
all taken against the block ids of the round before, then splits: the
largest group keeps the block's id and every other group gets a new one.
Only a state with a successor that got a new id can change its signature,
so the next round's dirty blocks are those of the predecessors of the moved
states (after Paige & Tarjan, SIAM J. Comput. 1987, and Valmari & Lehtinen,
STACS 2008). When no block is dirty, two states share a block iff they are
strongly bisimilar. That coarsest partition is unique, and the blocks are
renumbered by first occurrence in state order, so the result is
deterministic. The quotient keeps one transition per (block, label, block)
triple. Labels are numbered once, so signatures and the quotient's triples
hold ints, not actions.
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

    Refinement re-signs only the dirty blocks, those holding a predecessor
    of a state that moved to a new block in the last round. At the fixpoint
    the blocks are renumbered by first occurrence scanning states in index
    order, so the numbering does not depend on the order of the splits.
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
    blocks = [0] * n
    members: List[List[int]] = [list(range(n))]
    dirty = {0}
    while dirty:
        # every signature is taken against the block ids of the last round
        splits = []
        for b in dirty:
            if len(members[b]) > 1:
                groups: Dict[frozenset, List[int]] = {}
                for s in members[b]:
                    groups.setdefault(
                        frozenset((lid, blocks[d]) for lid, d in out[s]), []).append(s)
                if len(groups) > 1:
                    splits.append((b, sorted(groups.values(), key=len)))
        moved: List[int] = []
        for b, groups in splits:
            members[b] = groups.pop()  # the largest group keeps the id
            for group in groups:
                new = len(members)
                members.append(group)
                for s in group:
                    blocks[s] = new
                moved += group
        dirty = {blocks[p] for s in moved for p in pred[s]}
    renumber: Dict[int, int] = {}
    return [renumber.setdefault(b, len(renumber)) for b in blocks]
