"""Checks of one op's result against its reference answer.

Each check returns a list of problems; an empty list means the op produced
what it should. A problem never raises: it is counted as a failed op.
"""
from __future__ import annotations

import hashlib
import json
import os
import re
from typing import Dict, List, Optional, Sequence

_SIZES = re.compile(r"states=(\d+) transitions=(\d+)")
_WITNESS = re.compile(r"witness length=(\d+) ticks=(\d+) terminal=(\S+)")


def digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(path: str) -> Optional[str]:
    try:
        with open(path, "rb") as fh:
            return digest_bytes(fh.read())
    except OSError:
        return None


def aut_header(path: str) -> Optional[List[int]]:
    """[states, transitions] from the des line of an .aut file."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            line = fh.readline()
    except (OSError, UnicodeDecodeError):
        return None
    m = re.fullmatch(r"des \((\d+), (\d+), (\d+)\)\n", line)
    return [int(m.group(3)), int(m.group(2))] if m else None


def check_op(op, code, stdout: str, workdir: str) -> List[str]:
    """Compare exit code, stdout and output files with op.expect."""
    exp = op.expect
    if code != exp["exit"]:
        return [f"exit {code}, expected {exp['exit']}"]
    problems: List[str] = []
    if op.kind == "explore":
        problems += _sizes("explored", _SIZES.findall(stdout), [exp["states"]])
        problems += _aut(workdir, exp["aut"], exp["states"])
    elif op.kind == "minimize":
        problems += _sizes("minimized", _SIZES.findall(stdout), [exp["states"], exp["min"]])
        problems += _aut(workdir, exp["aut"], exp["min"])
    elif op.kind == "check":
        try:
            verdict = json.loads(stdout)
        except json.JSONDecodeError:
            return ["check printed no JSON verdict"]
        if verdict.get("property") != exp["property"] or verdict.get("verdict") != exp["verdict"]:
            problems.append(f"verdict {verdict.get('property')}={verdict.get('verdict')}, "
                            f"expected {exp['property']}={exp['verdict']}")
    elif op.kind == "testgen":
        if exp["exit"] == 1:
            if not stdout.startswith("inconclusive"):
                problems.append("an unreachable purpose did not report inconclusive")
        else:
            problems += check_witness(stdout, exp["witness_len"], exp["terminal"])
    elif op.kind == "render":
        problems += check_render(stdout, os.path.join(workdir, exp["sim"]))
    return problems


def _sizes(what, found, expected) -> List[str]:
    got = [[int(a), int(b)] for a, b in found]
    if got != [list(e) for e in expected]:
        return [f"{what} sizes {got}, expected {[list(e) for e in expected]}"]
    return []


def _aut(workdir, name, expected) -> List[str]:
    header = aut_header(os.path.join(workdir, name))
    if header != list(expected):
        return [f"{name} header gives {header}, expected {list(expected)}"]
    return []


def check_witness(stdout: str, length: int, terminal: Optional[str]) -> List[str]:
    m = _WITNESS.search(stdout)
    if not m:
        return ["testgen printed no witness"]
    got_len, got_terminal = int(m.group(1)), m.group(3)
    problems = []
    if got_len != length:
        problems.append(f"witness length {got_len}, expected {length}")
    if got_terminal != (terminal or "none"):
        problems.append(f"terminal {got_terminal}, expected {terminal or 'none'}")
    return problems


def check_render(stdout: str, sim_path: str) -> List[str]:
    try:
        with open(sim_path, "r", encoding="utf-8") as fh:
            sim = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        return [f"cannot read {sim_path}: {e}"]
    frames = sum(1 for line in stdout.splitlines() if line.startswith("tick "))
    if frames != len(sim["ticks"]) + 1:
        return [f"render drew {frames} frames for {len(sim['ticks'])} ticks"]
    return []


def check_replay(workdir: str, scenario: str, sim: str, replay) -> List[str]:
    """Replay a generated simulation against its scenario's composition."""
    from avmodels.scenarios import load_scenario
    from avmodels.testgen import ReplayError, SimScenario
    try:
        with open(os.path.join(workdir, sim), "r", encoding="utf-8") as fh:
            folded = SimScenario.from_json(json.load(fh))
        replay(load_scenario(os.path.join(workdir, scenario)), folded)
    except (OSError, ValueError, ReplayError) as e:
        return [f"{sim} does not replay: {e}"]
    return []


def compare_digests(passes: Sequence[Dict[str, Optional[str]]]) -> List[str]:
    """Outputs must be byte-identical in every pass (each ran in new processes)."""
    problems = []
    first = passes[0] if passes else {}
    for i, later in enumerate(passes[1:], start=2):
        for name, value in first.items():
            if later.get(name) != value:
                problems.append(f"{name} differs between pass 1 and pass {i}")
    return problems
