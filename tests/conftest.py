"""Shared pytest wiring.

The acceptance suite records one line per criterion; the hook below prints
them in a dedicated section after the run, so they show up even though
pytest captures stdout during the tests themselves.
"""
import contextlib
import pathlib
import time
from typing import NamedTuple

import pytest

from avmodels.grid_model import build_grid_composition
from avmodels.kernel import Lts, explore
from avmodels.perception import GridScenario
from avmodels.scenarios import load_scenario

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"

acceptance_lines = []


class GridReference(NamedTuple):
    scn: GridScenario
    lts: Lts
    explore_s: float  # what exploring cost, for tests whose time budget covers it


def _explore_grid(expose_grid: bool) -> GridReference:
    t0 = time.monotonic()
    scn = load_scenario(str(CONFIGS / "grid.json"))
    lts = explore(build_grid_composition(scn, expose_grid=expose_grid))
    return GridReference(scn, lts, time.monotonic() - t0)


@pytest.fixture(scope="session")
def grid_reference() -> GridReference:
    """configs/grid.json and its LTS without exposed grids, explored once for
    every test that reads it."""
    return _explore_grid(False)


@pytest.fixture(scope="session")
def grid_reference_exposed() -> GridReference:
    """configs/grid.json and its LTS with the perception grids on LIDAR_MAP
    labels, explored once for every test that reads it."""
    return _explore_grid(True)


@contextlib.contextmanager
def criterion(name: str):
    """Record `name: pass/FAIL (elapsed)` no matter how the block exits."""
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        acceptance_lines.append(f"{name}: FAIL ({time.monotonic() - t0:.1f}s)")
        raise
    acceptance_lines.append(f"{name}: pass ({time.monotonic() - t0:.1f}s)")


def pytest_terminal_summary(terminalreporter):
    if not acceptance_lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in acceptance_lines:
        terminalreporter.write_line(line)
