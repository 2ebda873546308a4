"""Strong bisimulation minimization by iterated partition refinement.

Starting from one block, states are repeatedly split by their signature: the
set of (label, successor block) pairs. At the fixpoint two states share a
block iff they are strongly bisimilar. The quotient keeps one transition per
(block, label, block) triple and renumbers blocks by first occurrence in
state order, so the result is deterministic. Labels are numbered once, so
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

    Blocks are numbered by first occurrence scanning states in index order.
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
    for src, act, dst in lts.transitions:
        out[src].append((label_ids[id(act)], dst))
    blocks = [0] * n
    nblocks = 1
    while True:
        sigs: Dict[Tuple[int, frozenset], int] = {}
        new_blocks = [0] * n
        for s in range(n):
            sig = (blocks[s], frozenset((lid, blocks[d]) for lid, d in out[s]))
            b = sigs.get(sig)
            if b is None:
                b = len(sigs)
                sigs[sig] = b
            new_blocks[s] = b
        if len(sigs) == nblocks:
            return new_blocks
        blocks = new_blocks
        nblocks = len(sigs)
