import collections
import dataclasses
import io
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from avmodels.aut import export_aut, import_aut
from avmodels.control_model import build_control_composition
from avmodels.grid_model import build_grid_composition
from avmodels.kernel import (
    Action, Component, Composition, CompositionError, ExplorationLimitError,
    ExplorationLimits, INTERNAL, Lts, Monitor, Product, Receive, explore, parse_action,
    search,
)
from avmodels.scenarios import load_scenario
from avmodels.values import Nat, Sym

from oracles import (
    brute_force_edges, lts_edge_set, random_composition, receiver_cases, sorted_rows_aut,
    unsorted_triples,
)

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def table_component(cid, sync, table, initial=0):
    return Component(cid, frozenset(sync), initial, lambda s: table.get(s, []))


def test_action_text_and_parse():
    a = Action("GATE", (Nat(3), Sym("go")))
    assert a.text() == "GATE !3 !go"
    assert parse_action(a.text()) == a
    assert parse_action("TICK") == Action("TICK")
    with pytest.raises(ValueError):
        parse_action("BAD OFFER")  # offers must start with '!'
    with pytest.raises(ValueError):
        parse_action("")


def test_two_way_rendezvous_requires_equal_offers():
    p = table_component("P", {"g"}, {0: [(Action("g", (Nat(1),)), 1),
                                         (Action("g", (Nat(2),)), 2)]})
    q = table_component("Q", {"g"}, {0: [(Action("g", (Nat(2),)), 1)]})
    comp = Composition((p, q))
    acts = comp.enabled_actions(comp.initial_state)
    assert [(a.text(), comp.local_states(s)) for a, s in acts] == [("g !2", (2, 1))]
    # offers are tried in the order of the shortest offer list among the
    # members without a receiver, here Q's; each call gives a new object
    def g(n):
        return Action("g", (Nat(n),))

    p = table_component("P", {"g"}, {0: [(g(1), 1), (g(2), 2), (g(3), 3)]})
    q = table_component("Q", {"g"}, {0: [(g(3), 1), (g(2), 2)]})
    comp = Composition((p, q))
    acts = comp.enabled_actions(comp.initial_state)
    assert [(a.text(), comp.local_states(s)) for a, s in acts] == \
        [("g !3", (3, 1)), ("g !2", (2, 2))]
    # a member that also receives is never the source, though its one offer
    # is the shortest list
    r = table_component("R", {"g"}, {0: [(g(2), 5), (Receive("g"), lambda local, offers: 9)]})
    comp = Composition((p, q, r))
    acts = comp.enabled_actions(comp.initial_state)
    assert [(a.text(), comp.local_states(s)) for a, s in acts] == \
        [("g !3", (3, 1, 9)), ("g !2", (2, 2, 5)), ("g !2", (2, 2, 9))]


def test_three_way_rendezvous():
    mk = lambda cid: table_component(cid, {"g"}, {0: [(Action("g"), 1)]})
    comp = Composition((mk("A"), mk("B"), mk("C")))
    acts = comp.enabled_actions(comp.initial_state)
    assert [(a.text(), comp.local_states(s)) for a, s in acts] == [("g", (1, 1, 1))]
    # remove one participant's offer and nothing fires
    silent = table_component("C", {"g"}, {0: []})
    comp2 = Composition((mk("A"), mk("B"), silent))
    assert comp2.enabled_actions(comp2.initial_state) == []


def test_internal_and_unsynced_gates_interleave():
    p = table_component("P", {"g"}, {0: [(INTERNAL, 1),
                                         (Action("solo"), 1)]})
    q = table_component("Q", {"g"}, {0: [(Action("solo"), 1)]})
    comp = Composition((p, q))
    acts = {(a.text(), comp.local_states(s))
            for a, s in comp.enabled_actions(comp.initial_state)}
    # "solo" is in no sync set: each owner moves alone, no rendezvous
    assert acts == {("i", (1, 0)), ("solo", (1, 0)), ("solo", (0, 1))}


def test_emitting_unlisted_synced_gate_is_an_error():
    p = table_component("P", {"g"}, {0: [(Action("g"), 1)]})
    rogue = table_component("R", set(), {0: [(Action("g"), 1)]})
    comp = Composition((p, rogue))
    with pytest.raises(CompositionError):
        comp.enabled_actions(comp.initial_state)


def test_duplicate_component_ids_rejected():
    p = table_component("P", set(), {})
    with pytest.raises(CompositionError):
        Composition((p, p))


def test_internal_gate_cannot_be_synchronized():
    with pytest.raises(ValueError):
        Component("P", frozenset({"i"}), 0, lambda s: [])


def test_explore_numbers_states_in_discovery_order():
    table = {0: [(Action("a"), 1), (Action("b"), 2)],
             1: [(Action("c"), 2)],
             2: []}
    comp = Composition((table_component("P", set(), table),))
    lts = explore(comp)
    assert lts.num_states == 3
    assert lts.initial == 0
    assert tuple(map(comp.local_states, lts.state_payload)) == ((0,), (1,), (2,))
    assert [(s, a.text(), d) for s, a, d in lts.transitions] == [
        (0, "a", 1), (0, "b", 2), (1, "c", 2)]
    assert lts.outgoing()[2] == []


def test_explore_max_states_truncates_with_partial():
    table = {i: [(Action("a"), i + 1)] for i in range(10)}
    table[10] = []
    comp = Composition((table_component("P", set(), table),))
    with pytest.raises(ExplorationLimitError) as exc:
        explore(comp, ExplorationLimits(max_states=4))
    assert exc.value.reason == "max_states"
    assert exc.value.partial.num_states == 4


def test_explore_max_depth_only_flags_real_cutoffs():
    line = {0: [(Action("a"), 1)], 1: [(Action("a"), 2)], 2: []}
    comp = Composition((table_component("P", set(), line),))
    # depth 2 reaches state 2 which has no successors: complete, no error
    lts = explore(comp, ExplorationLimits(max_depth=2))
    assert lts.num_states == 3
    with pytest.raises(ExplorationLimitError) as exc:
        explore(comp, ExplorationLimits(max_depth=1))
    assert exc.value.reason == "max_depth"


def test_explore_stops_right_after_discovering_the_goal():
    table = {0: [(Action("a"), 1), (Action("b"), 2), (Action("c"), 3)],
             1: [(Action("d"), 4)], 2: [], 3: [], 4: []}
    comp = Composition((table_component("P", set(), table),))
    is_2 = lambda state: comp.local_states(state) == (2,)
    lts = explore(comp, goal=is_2)
    assert tuple(map(comp.local_states, lts.state_payload)) == ((0,), (1,), (2,))
    assert [(s, a.text(), d) for s, a, d in lts.transitions] == [(0, "a", 1), (0, "b", 2)]
    # a goal met by the start is reached without a step, and a limit that
    # is not hit before the goal is no error
    assert explore(comp, goal=lambda state: True).num_states == 1
    assert explore(comp, ExplorationLimits(max_states=3),
                   goal=is_2).num_states == 3
    with pytest.raises(ExplorationLimitError):
        explore(comp, ExplorationLimits(max_states=2), goal=is_2)


def test_explore_accepts_an_lts():
    lts = Lts(3, 2, ((2, Action("a"), 0), (0, Action("b"), 2), (1, Action("c"), 0)))
    again = explore(lts)
    assert again.state_payload == (2, 0)  # renumbered from the initial state
    assert [(s, a.text(), d) for s, a, d in again.transitions] == [(0, "a", 1), (1, "b", 0)]


def test_explore_deduplicates_identical_transitions():
    table = {0: [(Action("a"), 1), (Action("a"), 1)], 1: []}
    comp = Composition((table_component("P", set(), table),))
    lts = explore(comp)
    assert len(lts.transitions) == 1
    # a component listing an equal move twice makes it once, synchronized too
    assert len(comp.enabled_actions(comp.initial_state)) == 1
    twice = table_component("P", {"g"}, {0: [(Action("g", (Nat(1),)), 1)] * 2})
    once = table_component("Q", {"g"}, {0: [(Action("g", (Nat(1),)), 1)]})
    comp = Composition((twice, once))
    assert len(comp.enabled_actions(comp.initial_state)) == 1
    # an Lts may list a transition twice, into a new state or a known one;
    # different actions into one state all stay
    lts = Lts(3, 0, ((0, Action("a"), 1), (0, Action("b"), 1), (0, Action("a"), 1),
                     (0, Action("a"), 2), (1, Action("a"), 1), (1, Action("a"), 1)))
    assert [(s, a.text(), d) for s, a, d in explore(lts).transitions] == [
        (0, "a", 1), (0, "b", 1), (0, "a", 2), (1, "a", 1)]


def test_product_runs_the_monitor_and_a_none_step_cuts_the_edge():
    lts = Lts(4, 0, ((0, Action("a"), 1), (0, Action("b"), 2), (1, Action("b"), 3)))
    # the monitor counts a's and refuses any b after an a
    monitor = Monitor(0, lambda m, act: m + 1 if act.gate == "a" else (None if m else m))
    product = explore(Product(lts, monitor))
    assert product.state_payload == ((0, 0), (1, 1), (2, 0))  # 3 stays undiscovered
    assert [(s, a.text(), d) for s, a, d in product.transitions] == [(0, "a", 1), (0, "b", 2)]


def test_a_product_node_is_the_system_state_followed_by_the_monitor_state():
    # over a composition a node is one flat tuple, the local ids and then
    # the monitor state; over an Lts it is (state, monitor state). The one-
    # component composition's nodes look like Lts nodes, yet its system
    # states stay 1-tuples
    monitor = Monitor(0, lambda m, act: m + 1)
    two = Composition((table_component("A", set(), {0: [(Action("a"), 1)]}),
                       table_component("B", set(), {0: [(Action("b"), 1)]})))
    one = Composition((table_component("A", set(), {0: [(Action("a"), 1)]}),))
    assert explore(Product(two, monitor)).state_payload == (
        (0, 0, 0), (1, 0, 1), (0, 1, 1), (1, 1, 2))
    assert explore(Product(explore(two), monitor)).state_payload == (
        (0, 0), (1, 1), (2, 1), (3, 2))
    product = Product(one, monitor)
    assert explore(product).state_payload == ((0, 0), (1, 1))
    assert product.enabled_actions((0, 5)) == [(Action("a"), (1, 6))]
    assert Product(explore(one), monitor).enabled_actions((0, 5)) == [(Action("a"), (1, 6))]


def test_search_returns_a_shortest_trace_or_none():
    lts = Lts(5, 0, ((0, Action("a"), 1), (1, Action("b"), 2), (2, Action("c"), 3),
                     (0, Action("d"), 3), (4, Action("e"), 0)))
    explored, trace = search(lts, lambda s: s == 3)
    assert trace == (Action("d"),)
    assert explored.state_payload[-1] == 3
    explored, trace = search(lts, lambda s: s == 4)  # 4 is unreachable
    assert trace is None and explored.num_states == 4
    assert search(lts, lambda s: s == 0)[1] == ()


def test_search_raises_on_a_limit():
    line = Lts(4, 0, tuple((i, Action("a"), i + 1) for i in range(3)))
    assert search(line, lambda s: s == 3, ExplorationLimits(max_states=4))[1] == (Action("a"),) * 3
    for limits, reason in ((ExplorationLimits(max_states=3), "max_states"),
                           (ExplorationLimits(max_depth=2), "max_depth")):
        with pytest.raises(ExplorationLimitError) as exc:
            search(line, lambda s: s == 3, limits)
        assert exc.value.reason == reason


def test_random_compositions_match_brute_force_oracle():
    rng = random.Random(20240817)
    cases = set()
    for _ in range(60):
        comp = random_composition(rng)
        lts = explore(comp, ExplorationLimits(max_states=100_000))
        want = brute_force_edges(comp)
        assert lts_edge_set(lts, comp) == want
        cases |= receiver_cases(comp, want[2])
    assert cases == {"every participant receives", "one participant offers and receives",
                     "a receiver refuses an offer"}


def gate_cases(comp, reachable, edges):
    """Which gate situations the reachable states of a composition show, by
    the position of the gate's bit: a gate past the eighth that fires
    and one before it, a fired gate where every member receives, a gate where every member only
    receives, a gate nobody offers concretely while some member has nothing
    on it, and an offered gate that a member with nothing on it blocks."""
    fired = {(src, a.gate) for src, a, _ in edges}
    cases = set()
    for st in reachable:
        per = [c.step(s) for c, s in zip(comp.components, st)]
        for gate, bit in comp._gate_bits.items():
            k = bit.bit_length() - 1
            members = [i for i, c in enumerate(comp.components) if gate in c.sync_set]
            offers = [any(not isinstance(a, Receive) and a.gate == gate for a, _ in per[i])
                      for i in members]
            receives = [any(isinstance(a, Receive) and a.gate == gate for a, _ in per[i])
                        for i in members]
            blocked = not all(o or r for o, r in zip(offers, receives))
            if (st, gate) in fired:
                cases.add("a gate past the eighth fires" if k >= 8 else "an early gate fires")
                if all(receives):
                    cases.add("every member receives")
            elif not any(offers):
                cases.add("nobody offers, a member blocks" if blocked else
                          "every member only receives")
            elif blocked:
                cases.add("a member blocks an offered gate")
    return cases


def test_wide_compositions_match_brute_force_oracle():
    # twelve gates, so the gate masks of Composition pass 255
    rng = random.Random(20261019)
    cases = set()
    for _ in range(40):
        comp = random_composition(rng, max_components=4, gates=tuple(f"g{k}" for k in range(12)))
        lts = explore(comp, ExplorationLimits(max_states=100_000))
        want = brute_force_edges(comp)
        assert lts_edge_set(lts, comp) == want
        cases |= gate_cases(comp, want[1], want[2])
    assert cases == {"a gate past the eighth fires", "an early gate fires",
                     "every member receives", "every member only receives",
                     "nobody offers, a member blocks", "a member blocks an offered gate"}


def test_step_runs_once_per_distinct_reachable_local_state():
    rng = random.Random(20261018)
    for _ in range(60):
        plain = random_composition(rng)
        calls = collections.Counter()

        def counted(i, step):
            def stepped(local):
                calls[i, local] += 1
                return step(local)
            return stepped

        comp = Composition(dataclasses.replace(c, step=counted(i, c.step))
                           for i, c in enumerate(plain.components))
        lts = explore(comp)
        _, reachable, _ = brute_force_edges(plain)
        decoded = [comp.local_states(state) for state in lts.state_payload]
        assert len(decoded) == len(reachable) and set(decoded) == reachable
        assert calls == collections.Counter(
            {(i, local): 1 for state in reachable for i, local in enumerate(state)})


def test_equal_labels_are_one_action_object(grid_reference):
    labels = grid_reference.lts.transitions
    assert len({id(a) for _, a, _ in labels}) == len({a.text() for _, a, _ in labels})


def test_fresh_compositions_explore_to_equal_payloads():
    scn = load_scenario(CONFIGS / "crossroad.json")
    one, two = (explore(build_control_composition(scn)) for _ in range(2))
    assert one.state_payload == two.state_payload
    assert one.transitions == two.transitions


def test_receivers_take_the_offered_value():
    sender = table_component("S", {"g"}, {0: [(Action("g", (Nat(1),)), 1),
                                              (Action("g", (Nat(2),)), 2),
                                              (Action("g", (Nat(3),)), 3)]})
    # takes odd values to the value itself, refuses even ones
    odd = Component("R", frozenset({"g"}), 0, lambda s: [
        (Receive("g"), lambda local, offers: offers[0].n if offers[0].n % 2 else None)])
    comp = Composition((sender, odd))
    acts = comp.enabled_actions(comp.initial_state)
    assert [(a.text(), comp.local_states(s)) for a, s in acts] == [
        ("g !1", (1, 1)), ("g !3", (3, 3))]


def test_receiver_memo_calls_accept_once_per_local_state_and_offers():
    # A and B build fresh Nat objects on every step, so equal offers reach
    # the rendezvous as distinct objects; their internal toggles put each of
    # C's local states into four global states
    def sender(cid):
        return Component(cid, frozenset({"g"}), 0, lambda s: [
            (Action("g", (Nat(1),)), s), (Action("g", (Nat(2),)), s), (INTERNAL, 1 - s)])

    calls = []

    def accept(s, offers):
        calls.append((s, offers))
        return (s + offers[0].n) % 3

    receiver = Component("C", frozenset({"g"}), 0, lambda s: [(Receive("g"), accept)])
    comp = Composition((sender("A"), sender("B"), receiver))
    lts = explore(comp)
    assert sorted(calls, key=lambda c: (c[0], c[1][0].n)) == [
        (s, (Nat(n),)) for s in range(3) for n in (1, 2)]
    assert lts.num_states == 12
    assert lts_edge_set(lts, comp) == brute_force_edges(comp)


def test_a_receiver_gets_the_receiving_components_local_state():
    # C's local states are strings, unlike S's and unlike the ids the
    # kernel numbers both with; its one receiver reads the state it is in
    seen = []

    def accept(local, offers):
        seen.append((local, offers[0].n))
        return local + "x" if len(local) < 3 else None

    sender = table_component("S", {"g"}, {s: [(Action("g", (Nat(s),)), s + 1)] for s in range(3)})
    receiver = Component("C", frozenset({"g"}), "c", lambda s: [(Receive("g"), accept)])
    comp = Composition((sender, receiver))
    lts = explore(comp)
    assert seen == [("c", 0), ("cx", 1), ("cxx", 2)]
    assert [comp.local_states(s) for s in lts.state_payload] == [(0, "c"), (1, "cx"), (2, "cxx")]


@pytest.mark.parametrize("scenario, build", [
    ("grid.json", lambda scn: build_grid_composition(scn, expose_grid=True)),
    ("crossroad.json", build_control_composition),
], ids=["grid-exposed", "crossroad"])
def test_the_models_hand_the_kernel_one_receiver_per_component_and_gate(scenario, build):
    # a receiver takes its local state from the kernel, so no local state
    # brings receiver objects of its own into the step cache
    comp = build(load_scenario(CONFIGS / scenario))
    lts = explore(comp)
    receivers = collections.defaultdict(set)
    for i, c in enumerate(comp.components):
        for local in {comp.local_states(s)[i] for s in lts.state_payload}:
            for act, accept in c.step(local):
                if isinstance(act, Receive):
                    receivers[c.id, act.gate].add(accept)
    assert receivers and all(len(accepts) == 1 for accepts in receivers.values())


def test_a_receivers_memo_keeps_a_single_result_as_the_bare_id():
    # the memo lives in the step cache's receiver slots, [offers, memo,
    # accept, ...]; no result stays (), two or more stay a tuple
    comp = build_grid_composition(load_scenario(CONFIGS / "grid.json"), expose_grid=True)
    explore(comp)
    results = [got for steps in comp._steps for entry in steps if entry is not None
               for part in entry[3:] if type(part) is list and part[1] is not None
               for got in part[1].values()]
    assert results and not any(type(got) is tuple and len(got) == 1 for got in results)
    assert any(type(got) is int for got in results)


def test_gate_fires_only_on_concrete_offers():
    def receiver(cid):
        return Component(cid, frozenset({"g"}), 0,
                         lambda s: [(Receive("g"), lambda local, offers: 1)] if s == 0 else [])
    comp = Composition((receiver("A"), receiver("B")))
    assert comp.enabled_actions(comp.initial_state) == []
    # when everyone receives, the concrete offers are tried in member order
    both = Component("C", frozenset({"g"}), 0, lambda s: [
        (Action("g", (Nat(2),)), 2), (Receive("g"), lambda local, offers: 3)] if s == 0 else [])
    other = table_component("D", {"g"}, {0: [(Action("g", (Nat(1),)), 1),
                                             (Receive("g"), lambda local, offers: 4)]})
    comp = Composition((receiver("A"), both, other))
    acts = comp.enabled_actions(comp.initial_state)
    assert [(a.text(), comp.local_states(s)) for a, s in acts] == [
        ("g !2", (1, 2, 4)), ("g !2", (1, 3, 4)),
        ("g !1", (1, 3, 1)), ("g !1", (1, 3, 4))]


def test_successors_follow_the_product_order_of_the_members_alternatives():
    # B has two concrete successors, A one, C two accepting receivers (and
    # one that refuses) and D one: the successors are
    # itertools.product(B's, A's, C's, D's) in that order, B's varying slowest
    g = Action("g", (Nat(1),))
    b = table_component("B", {"g"}, {0: [(g, 1), (g, 2)]})
    a = table_component("A", {"g"}, {0: [(g, 1)]})
    c = Component("C", frozenset({"g"}), 0, lambda s: [
        (Receive("g"), lambda local, offers: 5), (Receive("g"), lambda local, offers: None),
        (Receive("g"), lambda local, offers: 6)] if s == 0 else [])
    d = Component("D", frozenset({"g"}), 0, lambda s: [
        (Receive("g"), lambda local, offers: 7)] if s == 0 else [])
    comp = Composition((b, a, c, d))
    acts = comp.enabled_actions(comp.initial_state)
    assert [(act.text(), comp.local_states(s)) for act, s in acts] == [
        ("g !1", (1, 1, 5, 7)), ("g !1", (1, 1, 6, 7)),
        ("g !1", (2, 1, 5, 7)), ("g !1", (2, 1, 6, 7))]
    assert len({act for act, _ in acts}) == 1


class CountedHash:
    """A hashable offer, equal to every other one, that counts the calls of
    its __hash__."""

    def __init__(self):
        self.calls = 0

    def __hash__(self):
        self.calls += 1
        return 7

    def __eq__(self, other):
        return isinstance(other, CountedHash)


def test_a_canonical_label_is_found_by_identity_without_hashing():
    # P offers one canonical action on every step but the third, where it
    # offers an equal fresh copy
    offer, fresh_offer = CountedHash(), CountedHash()
    known = Action("g", (offer,))
    comp = Composition((Component("P", frozenset(), 0, lambda s: [
        (Action("g", (fresh_offer,)) if s == 2 else known, s + 1)] if s < 4 else []),))
    state, fired = comp.initial_state, []
    while comp.enabled_actions(state):
        (act, state), = comp.enabled_actions(state)
        fired.append(act)
    assert fired == [known] * 4 and all(act is known for act in fired)
    assert list(comp._labels.items()) == [(known, known)]
    # the first step hashes known once to put it into the table; later
    # steps find it by identity, and the copy is hashed once to find it
    assert (offer.calls, fresh_offer.calls) == (1, 1)
    lts = explore(comp)
    assert lts.labels == (known,) and lts.labels[0] is known
    assert list(lts.lab) == [0, 0, 0, 0]


def test_receiving_unlisted_gate_is_an_error():
    p = table_component("P", {"g"}, {0: [(Action("g"), 1)]})
    rogue = Component("R", frozenset({"h"}), 0, lambda s: [(Receive("g"), lambda local, offers: 1)])
    comp = Composition((p, rogue))
    with pytest.raises(CompositionError):
        comp.enabled_actions(comp.initial_state)


def test_alphabet_and_outgoing():
    lts = Lts(2, 0, ((0, Action("a"), 1), (0, Action("b"), 0)))
    assert lts.alphabet() == {"a", "b"}
    out = lts.outgoing()
    assert [(a.text(), d) for a, d in out[0]] == [("a", 1), ("b", 0)]
    assert out[1] == []


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_lts_arrays_keep_the_triples_they_were_built_from(seed):
    n, initial, triples = unsorted_triples(random.Random(seed))
    lts = Lts(n, initial, triples)
    # the stable sort by source keeps each state's edges in input order
    for state in range(n):
        assert lts.enabled_actions(state) == [(a, d) for s, a, d in triples if s == state]
    # equal actions share one label id, numbered in order of first appearance
    assert lts.labels == tuple(dict.fromkeys(a for _, a, _ in triples))
    assert len(set(lts.labels)) == len(lts.labels)
    data = io.BytesIO()
    export_aut(lts, data)
    assert data.getvalue() == sorted_rows_aut(n, initial, triples)
    back = import_aut(io.BytesIO(data.getvalue()))
    rows = Lts(n, initial, sorted(triples, key=lambda t: (t[0], t[1].text(), t[2])))
    assert (back.num_states, back.initial) == (n, initial)
    assert (back.offsets, back.lab, back.dst) == (rows.offsets, rows.lab, rows.dst)
    assert back.labels == rows.labels


@pytest.mark.parametrize("name, build", [
    ("grid_random_car.json", build_grid_composition),
    ("control_tiny.json", build_control_composition),
], ids=["grid", "control"])
def test_every_component_constrains_its_model(name, build):
    """Leaving out any one component changes the explored LTS: no component
    only repeats what the others already enforce."""
    def aut(comp):
        sink = io.StringIO()
        export_aut(explore(comp), sink)
        return sink.getvalue()

    full = build(load_scenario(GOLDEN / name))
    want = aut(full)
    for c in full.components:
        assert aut(Composition([d for d in full.components if d is not c])) != want, c.id
