import io
import random

from avmodels.aut import import_aut
from avmodels.kernel import Action
from avmodels.minimize import minimize, partition

from oracles import (
    game_bisimulation, lts_from_triples, mixed_lts, naive_bisimulation, outgoing,
    partition_to_relation, random_lts, signature_refinement,
)


def simple(a):
    return Action(a)


def test_minimize_merges_language_equal_states():
    # two branches doing "a" then "b", distinguishable only by identity
    lts = lts_from_triples(5, 0, (
        (0, simple("a"), 1), (0, simple("a"), 2),
        (1, simple("b"), 3), (2, simple("b"), 4),
    ))
    small = minimize(lts)
    assert small.num_states == 3
    assert len(small.transitions) == 2
    assert sorted(a.text() for _, a, _ in small.transitions) == ["a", "b"]


def test_minimize_keeps_behavioural_differences():
    # state 2 can do "c", state 1 cannot, so the two "a"-edges must stay
    # apart; the dead states 1 and 3 merge
    lts = lts_from_triples(4, 0, (
        (0, simple("a"), 1), (0, simple("a"), 2),
        (2, simple("c"), 3),
    ))
    small = minimize(lts)
    assert small.num_states == 3
    a_targets = {d for _, a, d in small.transitions if a.text() == "a"}
    assert len(a_targets) == 2


def test_minimize_collapses_bisimilar_cycles():
    # a two-cycle and a one-cycle on the same label are bisimilar
    lts = lts_from_triples(3, 0, (
        (0, simple("a"), 1), (1, simple("a"), 0), (2, simple("a"), 2),
    ))
    small = minimize(lts)
    assert small.num_states == 1
    assert small.transitions == ((0, simple("a"), 0),)


def test_partition_matches_naive_fixpoint_on_random_lts():
    rng = random.Random(99)
    for _ in range(40):
        lts = random_lts(rng, max_states=60)
        blocks = partition(lts)
        assert partition_to_relation(blocks) == naive_bisimulation(lts)


def test_partition_matches_game_solution_on_random_lts():
    rng = random.Random(7)
    for _ in range(8):
        lts = random_lts(rng, max_states=25)
        blocks = partition(lts)
        assert partition_to_relation(blocks) == game_bisimulation(lts)


def test_minimize_is_idempotent():
    rng = random.Random(5)
    for _ in range(20):
        lts = random_lts(rng, max_states=80)
        once = minimize(lts)
        twice = minimize(once)
        assert twice.num_states == once.num_states
        assert sorted((s, a.text(), d) for s, a, d in twice.transitions) == \
               sorted((s, a.text(), d) for s, a, d in once.transitions)


def test_minimize_preserves_initial_block():
    lts = lts_from_triples(2, 1, ((1, simple("a"), 0),))
    small = minimize(lts)
    out = outgoing(small)
    assert [(a.text(), d) for a, d in out[small.initial]] != []


def test_partition_matches_whole_partition_refinement_on_random_lts():
    rng = random.Random(2008)
    for _ in range(200):
        lts = random_lts(rng, max_states=rng.choice((5, 30, 150)), labels=("a", "b"))
        assert partition(lts) == signature_refinement(lts)


def test_partition_splits_a_labelled_chain_one_state_per_round():
    # state i is k-1-i "a"-steps from the end, so no two states are
    # bisimilar: k blocks. The chain is acyclic, so partition settles it in
    # one depth-first sweep; whole-partition refinement splits off one state
    # per round and needs k rounds
    k = 40
    lts = lts_from_triples(k, 0, tuple((i, simple("a"), i + 1) for i in range(k - 1)))
    assert partition(lts) == signature_refinement(lts) == list(range(k))
    assert minimize(lts).num_states == k


def test_partition_with_two_same_label_edges_into_one_block():
    # 0 reaches the bisimilar 1 and 2 by "a", 3 reaches only 4: 0 ~ 3, and
    # 5 -b-> 1 and 5 -b-> 2 is one edge of the quotient
    lts = lts_from_triples(6, 0, (
        (0, simple("a"), 1), (0, simple("a"), 2), (3, simple("a"), 4),
        (1, simple("c"), 1), (2, simple("c"), 2), (4, simple("c"), 4),
        (5, simple("b"), 1), (5, simple("b"), 2),
    ))
    blocks = partition(lts)
    assert blocks == signature_refinement(lts) == [0, 1, 1, 0, 1, 2]
    assert len(minimize(lts).transitions) == 3


def test_partition_of_isolated_states_without_incoming_edges():
    # 0, 2 and 4 have no incoming edges; 0 and 4 are dead, 2 steps to 3
    lts = lts_from_triples(5, 0, ((1, simple("a"), 3), (2, simple("a"), 3), (3, simple("b"), 3)))
    assert partition(lts) == signature_refinement(lts) == [0, 1, 1, 2, 0]


def test_partition_of_a_one_state_header_without_transitions():
    lts = import_aut(io.BytesIO(b"des (0, 0, 1)\n"))
    assert partition(lts) == signature_refinement(lts) == [0]
    small = minimize(lts)
    assert (small.num_states, small.initial, small.transitions) == (1, 0, ())


def test_partition_matches_the_oracles_on_mixed_acyclic_and_cyclic_ltss():
    rng = random.Random(2004)
    for _ in range(300):
        lts = mixed_lts(rng)
        blocks = partition(lts)
        assert blocks == signature_refinement(lts)
        assert partition_to_relation(blocks) == naive_bisimulation(lts)


def test_a_sink_and_a_self_loop_on_the_same_label_stay_apart():
    # 0 -a-> 1 ends, 2 -a-> 2 never does; 1 is settled by the depth-first
    # sweep, 2 can reach a cycle, so they start in different blocks
    lts = lts_from_triples(3, 0, ((0, simple("a"), 1), (2, simple("a"), 2)))
    assert partition(lts) == signature_refinement(lts) == [0, 1, 2]
    assert minimize(lts).num_states == 3


def test_a_long_chain_downwards_is_settled_by_an_iterative_sweep():
    # every edge goes to a lower state, so the sweep's first root, the last
    # state, starts a depth-first path through the whole chain, far deeper
    # than a recursive search could go
    n = 100_000
    chain = [(s, simple("a"), s - 1) for s in range(1, n)]
    small = minimize(lts_from_triples(n, n - 1, chain))
    assert (small.num_states, len(small.dst)) == (n, n - 1)
    # closed into a ring, every state has an infinite "a"-path: one block
    ring = minimize(lts_from_triples(n, n - 1, chain + [(0, simple("a"), n - 1)]))
    assert (ring.num_states, ring.initial, ring.transitions) == (1, 0, ((0, simple("a"), 0),))


def test_partition_does_not_depend_on_the_state_numbering():
    # the sweep visits states in an order that follows their numbers; the
    # partition must not: renumbered states keep their blocks, which are
    # then numbered by first occurrence again
    rng = random.Random(311)
    for k in range(200):
        lts = mixed_lts(rng) if k % 2 else random_lts(rng, max_states=80, labels=("a", "b"))
        n = lts.num_states
        perm = list(range(n))
        rng.shuffle(perm)
        renumbered = lts_from_triples(n, perm[lts.initial],
                                      tuple((perm[s], a, perm[d]) for s, a, d in lts.transitions))
        moved = [0] * n
        for s, b in enumerate(partition(lts)):
            moved[perm[s]] = b
        first: dict = {}
        assert partition(renumbered) == [first.setdefault(b, len(first)) for b in moved]
