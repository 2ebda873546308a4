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
state order, so the result is deterministic.

Label ids come from the Lts, where equal actions share one, so signatures
hold ints, not actions; the transitions are read off the Lts's arrays, and
only the predecessor lists are built. The quotient takes each block's
transitions from its first member, one per (label, block) pair, and keeps
the label table of the Lts.
"""
from __future__ import annotations

import itertools
import operator
from array import array
from typing import Dict, List, Tuple

from .kernel import Lts


def minimize(lts: Lts) -> Lts:
    if lts.num_states == 0:
        return Lts(0, 0, ())
    blocks = _refine(lts)
    # the members of a block have the same (label, successor block) pairs, so
    # the block's first member gives its transitions; blocks are numbered by
    # first member, so the quotient comes out sorted by source
    offsets, lab, dst = lts.offsets, lts.lab, lts.dst
    q_src: List[int] = []
    q_lab: List[int] = []
    q_dst: List[int] = []
    q_offsets = [0]
    for s, b in enumerate(blocks):
        if b < len(q_offsets) - 1:
            continue  # not the block's first member
        made = set()
        start, end = offsets[s], offsets[s + 1]
        for lid, d in zip(lab[start:end], dst[start:end]):
            t = (lid, blocks[d])
            if t not in made:
                made.add(t)
                q_src.append(b)
                q_lab.append(lid)
                q_dst.append(t[1])
        q_offsets.append(len(q_src))
    return Lts.from_arrays(len(q_offsets) - 1, blocks[lts.initial], array("i", q_src),
                           array("i", q_lab), array("i", q_dst), lts.labels,
                           offsets=array("i", q_offsets))


def partition(lts: Lts) -> List[int]:
    """Block index per state for the coarsest strong bisimulation partition.

    The states with only finite paths are settled in one backward sweep.
    Refinement of the rest re-signs only the dirty blocks, those holding a
    predecessor of a state that moved to a new block in the last round. At
    the fixpoint the blocks are renumbered by first occurrence scanning
    states in index order, so the numbering does not depend on the order of
    the sweep or of the splits.
    """
    return _refine(lts)


def _refine(lts: Lts) -> List[int]:
    n = lts.num_states
    offsets, lab, dst = lts.offsets, lts.lab, lts.dst
    pred: List[List[int]] = [[] for _ in range(n)]
    for s, d in zip(lts.src, dst):
        pred[d].append(s)
    blocks = [-1] * n

    def signature(s: int) -> Tuple[int, ...]:
        # a block id is below n, so lid * n + block names one (label, block);
        # the sweep keeps one per settled block, so a tuple: a frozenset is 4x larger
        start, end = offsets[s], offsets[s + 1]
        return tuple(sorted({lid * n + blocks[d]
                             for lid, d in zip(lab[start:end], dst[start:end])}))

    # settle the states whose every path is finite, sinks first (Kahn's
    # order over pred): each one's successors already have their final block
    signatures: Dict[Tuple[int, ...], int] = {}
    # edges to states not yet settled
    pending = list(map(operator.sub, itertools.islice(offsets, 1, None), offsets))
    ready = [s for s in range(n) if not pending[s]]
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
