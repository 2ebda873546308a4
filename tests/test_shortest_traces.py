"""Every shortest trace the package emits has the length a level-by-level
distance oracle computes, on seeded random transition systems and street
graphs, and replays on its model.
"""
import random

from avmodels.control_model import GraphMap, compute_itinerary, successors
from avmodels.kernel import Action
from avmodels.properties import (
    VIOLATION, Monitor, check_deadlock_freedom, check_inevitable_termination,
    product_with_monitor,
)
from avmodels.testgen import ActionPattern, TestPurpose, extract_test, product_with_purpose

from oracles import random_lts, shortest_distance, trace_exists

LABELS = ("a", "b", "c", "ARRIVAL")
SEEDS = range(150)


def test_counterexamples_and_witnesses_are_shortest():
    kinds = set()
    for seed in SEEDS:
        rng = random.Random(seed)
        lts = random_lts(rng, max_states=60, labels=LABELS)
        out = lts.outgoing()

        # a monitor forbidding one label: VIOLATION is one edge past the
        # nearest state offering it
        bad = Action(rng.choice(LABELS))
        trace = product_with_monitor(lts, Monitor(0, lambda m, act: VIOLATION if act == bad else m))
        want = shortest_distance(lts.initial,
                                 lambda s: [VIOLATION if a == bad else d for a, d in out[s]],
                                 lambda node: node == VIOLATION)
        if want is None:
            assert trace is None, seed
        else:
            assert len(trace) == want and trace[-1] == bad, seed
            assert trace_exists(lts, trace), seed

        # a purpose of one to three gates, matched in order
        patterns = tuple(ActionPattern(rng.choice(LABELS)) for _ in range(rng.randint(1, 3)))
        witness = extract_test(product_with_purpose(lts, TestPurpose(patterns))[0])

        def cursor_moves(node):
            s, k = node
            return [(d, k + (k < len(patterns) and patterns[k].matches(a))) for a, d in out[s]]

        want = shortest_distance((lts.initial, 0), cursor_moves,
                                 lambda node: node[1] == len(patterns))
        if want is None:
            assert witness is None, seed
        else:
            assert len(witness) == want and trace_exists(lts, witness), seed

        # deadlock: the nearest sink reached without an ARRIVAL edge
        verdict = check_deadlock_freedom(lts, terminal_gates=("ARRIVAL",))
        want = shortest_distance(lts.initial,
                                 lambda s: [d for a, d in out[s] if a.gate != "ARRIVAL"],
                                 lambda s: not out[s])
        if want is None:
            assert verdict.passed, seed
        else:
            assert verdict.kind == "fail" and len(verdict.trace) == want, seed
            assert trace_exists(lts, verdict.trace), seed
            assert all(a.gate != "ARRIVAL" for a in verdict.trace), seed

        # inevitable termination: that nearest sink (want) first, else a
        # lasso to the nearest node on an ARRIVAL-free cycle, which is the
        # earliest discovered one
        verdict = check_inevitable_termination(lts, terminal_gates=("ARRIVAL",))
        kinds.add(verdict.kind)
        free = [[d for a, d in out[s] if a.gate != "ARRIVAL"] for s in range(lts.num_states)]
        on_cycle = {s for s in range(lts.num_states)
                    if any(shortest_distance(d, free.__getitem__, lambda t: t == s) is not None
                           for d in free[s])}
        to_cycle = shortest_distance(lts.initial, free.__getitem__, on_cycle.__contains__)
        if want is not None:
            assert verdict.kind == "fail" and len(verdict.trace) == want, seed
        elif to_cycle is not None:
            assert verdict.kind == "fail_lasso" and len(verdict.trace) == to_cycle, seed
            assert verdict.cycle and trace_exists(lts, verdict.trace + verdict.cycle), seed
            assert all(a.gate != "ARRIVAL" for a in verdict.trace + verdict.cycle), seed
        else:
            assert verdict.passed, seed
    assert kinds == {"pass", "fail", "fail_lasso"}


def test_itineraries_are_shortest():
    for seed in SEEDS:
        rng = random.Random(seed)
        nv = rng.randint(1, 6)
        gmap = GraphMap(tuple(range(nv)),
                        tuple((rng.randrange(nv), f"s{k}", rng.randrange(nv))
                              for k in range(rng.randint(1, 12))))
        streets = gmap.streets()
        blocked = frozenset(s for s in streets if rng.random() < 0.25)
        for origin in streets:
            for destination in streets:
                it = compute_itinerary(gmap, origin, destination, blocked)
                want = shortest_distance(
                    origin,
                    lambda s: [t for t in successors(gmap, s) if t not in blocked],
                    lambda s: s == destination)
                assert it.reachable == (want is not None), seed
                if want is None:
                    continue
                assert len(it.controls) == want, seed
                street = origin
                for turn in it.controls:
                    street = successors(gmap, street)[turn.n]
                    assert street not in blocked, seed
                assert street == destination, seed
