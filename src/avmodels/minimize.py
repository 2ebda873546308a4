"""Strong bisimulation minimization: a depth-first sweep settles the states
whose every path is finite, then dirty-block partition refinement splits
the rest.

A state's set of (label, successor block) pairs is its signature, which
partition's signature() alone computes. The sweep is one iterative
depth-first search over the Lts's forward arrays, from roots taken from the
last state down. A state finishes in post-order, after all its successors,
so its signature is taken once, from their final blocks, and equal
signatures share a block. On these well-founded states that settles strong
bisimulation exactly, one rank at a time (Dovier, Piazza & Policriti, TCS
311, 2004). A state with a successor on the search path, or with one that
reaches a cycle, reaches a cycle itself: it has an infinite path and is
bisimilar to no settled state, and a settled state has no such successor.
Each state on the path keeps a cursor at its first successor not yet
settled, so the sweep reads each transition a bounded number of times.

The states that reach a cycle start as one block, marked dirty, and
refinement works in rounds. Each round groups the members of every dirty
block by signature, all taken against the block ids of the round before,
then splits: the largest group keeps the block's id and every other group
gets a new one. Only a state with a successor that got a new id can change
its signature, so the next round's dirty blocks are those of the
predecessors of the moved states (after Paige & Tarjan, SIAM J. Comput.
1987, and Valmari & Lehtinen, STACS 2008). A settled state is never a
predecessor of a moved one, so predecessor lists are built for the states
that reach a cycle alone, and for none when every state settles. When no
block is dirty, two states share a block iff they are strongly bisimilar.
That coarsest partition is unique, and the blocks are renumbered by first
occurrence in state order, so the result is deterministic.

Label ids come from the Lts, where equal actions share one, so signatures
hold ints, not actions, and the transitions are read off the Lts's arrays.
The quotient takes each block's transitions from its first member, one per
(label, block) pair, and keeps the label table of the Lts.
"""
from __future__ import annotations

from array import array
from typing import Dict, List, Tuple

from .kernel import Lts


def minimize(lts: Lts) -> Lts:
    if lts.num_states == 0:
        return Lts(0, 0, ())
    blocks = partition(lts)
    # the members of a block have the same (label, successor block) pairs, so
    # the block's first member gives its transitions; blocks are numbered by
    # first member, so the quotient comes out grouped by source
    offsets, lab, dst = lts.offsets, lts.lab, lts.dst
    q_lab, q_dst, q_offsets = array("i"), array("i"), array("i", [0])
    for s, b in enumerate(blocks):
        if b < len(q_offsets) - 1:
            continue  # not the block's first member
        made = set()
        start, end = offsets[s], offsets[s + 1]
        for lid, d in zip(lab[start:end], dst[start:end]):
            t = (lid, blocks[d])
            if t not in made:
                made.add(t)
                q_lab.append(lid)
                q_dst.append(t[1])
        q_offsets.append(len(q_dst))
    return Lts.from_arrays(len(q_offsets) - 1, blocks[lts.initial], q_offsets, q_lab, q_dst,
                           lts.labels)


def partition(lts: Lts) -> List[int]:
    """Block index per state for the coarsest strong bisimulation partition.

    The states with only finite paths are settled in one depth-first
    post-order sweep over the successors. Refinement of the rest, the
    states that reach a cycle and the only ones given predecessor lists,
    re-signs only the dirty blocks, those holding a predecessor of a state
    that moved to a new block in the last round. At the fixpoint the blocks
    are renumbered by first occurrence scanning states in index order, so
    the numbering does not depend on the order of the sweep or of the
    splits.
    """
    n = lts.num_states
    offsets, lab, dst = lts.offsets, lts.lab, lts.dst
    # per state: the settled block id, or a mark; the sweep marks a state
    # unsettled when it enters it, and that stays if the state reaches a cycle
    unseen, unsettled = -1, -2
    blocks = [unseen] * n

    def signature(s: int) -> Tuple[int, ...]:
        # a block id is below n, so lid * n + block names one (label, block);
        # the sweep keeps one per settled block, so a tuple: a frozenset is 4x larger
        start, end = offsets[s], offsets[s + 1]
        return tuple(sorted({lid * n + blocks[d]
                             for lid, d in zip(lab[start:end], dst[start:end])}))

    # settle the states whose every path is finite in depth-first post-order:
    # a state finishes after its successors, so it is signed against their
    # final blocks; one that meets an unsettled successor, on the path or
    # finished, reaches a cycle. Roots go from the last state down, and each
    # state on the path keeps a cursor at its first successor not yet settled
    signatures: Dict[Tuple[int, ...], int] = {}
    path: List[int] = []
    cursors: List[int] = []
    for root in range(n - 1, -1, -1):
        if blocks[root] != unseen:
            continue
        s, k = root, offsets[root]
        blocks[s] = unsettled
        while True:
            end = offsets[s + 1]
            while k < end and blocks[dst[k]] >= 0:
                k += 1
            if k == end:
                blocks[s] = signatures.setdefault(signature(s), len(signatures))
            elif blocks[dst[k]] == unseen:
                path.append(s)
                cursors.append(k)
                s = dst[k]
                k = offsets[s]
                blocks[s] = unsettled
                continue
            if not path:
                break
            s, k = path.pop(), cursors.pop()
    # the rest can reach a cycle: one block for them all, refined against the
    # settled blocks, which no longer change and so need no member list. Only
    # these states are ever re-signed, and a settled state has no unsettled
    # successor, so predecessors are listed among them alone
    rest = [s for s in range(n) if blocks[s] == unsettled]
    for s in rest:
        blocks[s] = len(signatures)
    pred: Dict[int, List[int]] = {s: [] for s in rest}
    for s in rest:
        for d in dst[offsets[s]:offsets[s + 1]]:
            if d in pred:
                pred[d].append(s)
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
    signatures.clear()  # dead now, and as large as the settled part
    renumber: Dict[int, int] = {}
    return [renumber.setdefault(b, len(renumber)) for b in blocks]
