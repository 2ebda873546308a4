"""Verdicts, witnesses and full-size .aut bytes pinned against files under
tests/golden/.

The kernel, product and search code may be refactored, but the verdicts it
gives, their counterexamples (lasso cycles included), the testgen witnesses
and the sha256 of the .aut that explore and minimize write for crossroad.json
and for grid.json with --expose-grid must stay exactly what the goldens hold.
So must the outputs for a seeded corpus of small generated grid and street
scenarios, on which each check must also give the same verdict on the
composition as on the LTS explored from it.
`python tests/test_goldens.py` rewrites the goldens from the current code; do
that only for an intended change of output.
"""
import hashlib
import io
import json
import pathlib
import random
from functools import partial

from avmodels.aut import export_aut, import_aut
from avmodels.control_model import (
    ControlScenario, build_control_composition, consistent_move,
)
from avmodels.grid_model import build_grid_composition
from avmodels.kernel import Lts, explore
from avmodels.minimize import minimize
from avmodels.properties import (
    TERMINAL_GATES, check_consistent_updates, check_deadlock_freedom,
    check_inevitable_termination,
)
from avmodels.scenarios import load_scenario, scenario_from_json
from avmodels.testgen import extract_test, parse_purpose, product_with_purpose

from oracles import random_grid_json, random_lts, random_street_json
from test_control_model import CITY, city_scenario
from test_shortest_traces import LABELS, SEEDS

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
CONFIGS = GOLDEN.parents[1] / "configs"

GATE_SETS = {"default": TERMINAL_GATES, "ARRIVAL": ("ARRIVAL",),
             "COLLISION": ("COLLISION",), "none": ()}


def _systems():
    """(name, LTS, scenario): three bundled grid scenarios explored, and the
    three .aut goldens read back."""
    for name in ("free", "highway", "tcross"):
        scn = load_scenario(CONFIGS / f"{name}.json")
        yield name, explore(build_grid_composition(scn)), scn
    for name in ("control_tiny", "grid_tiny", "grid_random_car"):
        scn = scenario_from_json(json.loads((GOLDEN / f"{name}.json").read_text()))
        with open(GOLDEN / f"{name}.aut", "rb") as fh:
            yield name, import_aut(fh), scn


def _corrupted(gmap, street, control, target):
    # criterion 8's relation: no move may ever land on Corporation_Street
    return consistent_move(gmap, street, control, target) and target != "Corporation_Street"


def verdicts() -> dict:
    out = {}
    for name, lts, scn in _systems():
        total = scn.end_obstacle_total
        out[name] = {
            key: [check(lts, gates, total).to_json()
                  for check in (check_deadlock_freedom, check_inevitable_termination)]
            for key, gates in GATE_SETS.items()}
    city = explore(build_control_composition(city_scenario()))
    out["consistent-moves"] = [check_consistent_updates(city, CITY).to_json(),
                               check_consistent_updates(city, CITY, _corrupted).to_json()]
    return out


def random_verdicts() -> list:
    """test_shortest_traces' random LTSs, under ARRIVAL as the one terminal."""
    out = []
    for seed in SEEDS:
        lts = random_lts(random.Random(seed), max_states=60, labels=LABELS)
        out.append([check(lts, ("ARRIVAL",)).to_json()
                    for check in (check_deadlock_freedom, check_inevitable_termination)])
    return out


def manifest_witnesses() -> dict:
    """Each manifest entry's witness labels, or None when inconclusive."""
    out = {}
    for entry in json.loads((CONFIGS / "manifest.json").read_text()):
        scn = load_scenario(CONFIGS / entry["scenario"])
        purpose = parse_purpose(json.loads((CONFIGS / entry["purpose"]).read_text()))
        product, _ = product_with_purpose(
            build_grid_composition(scn, expose_grid=bool(entry.get("expose_grid"))), purpose)
        trace = extract_test(product)
        out[entry["name"]] = None if trace is None else [a.text() for a in trace]
    return out


def aut_sha256(grid_exposed: Lts) -> dict:
    """sha256 of the .aut that explore writes for crossroad.json and, given
    its LTS, for grid.json with --expose-grid, and of the .aut that minimize
    writes for each."""
    crossroad = explore(build_control_composition(load_scenario(CONFIGS / "crossroad.json")))
    out = {}
    for name, lts in (("crossroad.json", crossroad), ("grid.json --expose-grid", grid_exposed)):
        out[name] = _aut_sha256(lts)
        out[f"{name} minimized"] = _aut_sha256(minimize(lts))
    return out


def _aut_sha256(lts: Lts) -> str:
    buf = io.BytesIO()
    export_aut(lts, buf)
    return hashlib.sha256(buf.getvalue()).hexdigest()


CORPUS_SEED = 14
CORPUS_PURPOSE = parse_purpose([{"gate": "ARRIVAL"}])


def corpus_scenarios():
    """(name, scenario JSON, expose_grid): 48 grid and 24 street-graph
    scenarios drawn from one seed; every fourth grid publishes its
    perception grids."""
    rng = random.Random(CORPUS_SEED)
    out = [(f"grid-{i:02d}", random_grid_json(rng), i % 4 == 0) for i in range(48)]
    out += [(f"street-{i:02d}", random_street_json(rng), False) for i in range(24)]
    return out


def _sha256(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def corpus() -> dict:
    """Per corpus scenario: the sha256 of its JSON, of the .aut that explore
    and minimize write, of every applicable verdict and of the ARRIVAL
    purpose's witness. Asserts that each check gives the same verdict on the
    composition as on its explored LTS."""
    out = {}
    for name, data, expose_grid in corpus_scenarios():
        scn = scenario_from_json(data)
        total = scn.end_obstacle_total
        checks = {"deadlock": partial(check_deadlock_freedom, end_obstacle_total=total),
                  "inevitable-termination": partial(check_inevitable_termination,
                                                    end_obstacle_total=total)}
        if isinstance(scn, ControlScenario):
            comp = build_control_composition(scn)
            checks["consistent-moves"] = partial(check_consistent_updates, gmap=scn.gmap)
        else:
            comp = build_grid_composition(scn, expose_grid=expose_grid)
        lts = explore(comp)
        verdicts = {}
        for prop, check in checks.items():
            verdict = check(lts)
            assert check(comp) == verdict, (name, prop)
            verdicts[prop] = _sha256(verdict.to_json())
        witness = extract_test(product_with_purpose(comp, CORPUS_PURPOSE)[0])
        out[name] = {
            "scenario": _sha256(data), "states": lts.num_states,
            "transitions": len(lts.transitions), "aut": _aut_sha256(lts),
            "minimized": _aut_sha256(minimize(lts)), "verdicts": verdicts,
            "witness": _sha256(None if witness is None else [a.text() for a in witness])}
    return out


def golden(name: str):
    return json.loads((GOLDEN / f"{name}.json").read_text())


def test_verdicts_match_the_goldens():
    assert verdicts() == golden("verdicts")


def test_random_lts_verdicts_match_the_goldens():
    want = golden("random_verdicts")
    assert sum(v["verdict"] == "fail_lasso" for _, v in want) == 18
    assert random_verdicts() == want


def test_full_size_aut_bytes_match_the_goldens(grid_reference_exposed):
    assert aut_sha256(grid_reference_exposed.lts) == golden("aut_sha256")


def test_generated_corpus_matches_the_golden():
    assert corpus() == golden("corpus_sha256")


if __name__ == "__main__":
    from conftest import _explore_grid
    for name, make in (("verdicts", verdicts), ("random_verdicts", random_verdicts),
                       ("witnesses", manifest_witnesses), ("corpus_sha256", corpus),
                       ("aut_sha256", lambda: aut_sha256(_explore_grid(True).lts))):
        (GOLDEN / f"{name}.json").write_text(json.dumps(make(), indent=1) + "\n")
