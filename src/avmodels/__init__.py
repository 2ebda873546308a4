"""Explicit-state exploration, minimization and scenario generation for two
autonomous-vehicle interaction models: a street-graph control loop and a
grid world observed through a 5x5 lidar window.
"""
from .kernel import (
    Action,
    Component,
    Composition,
    CompositionError,
    ExplorationLimitError,
    ExplorationLimits,
    INTERNAL,
    INTERNAL_GATE,
    Lts,
    Receive,
    explore,
    parse_action,
)
from .minimize import minimize, partition
from .aut import AutFormatError, export_aut, import_aut
from .control_model import (
    ControlScenario,
    GraphMap,
    Itinerary,
    ObstacleScript,
    Turn,
    build_control_composition,
    compute_itinerary,
    consistent_move,
    successors,
)
from .perception import (
    CarSpec,
    GridMap,
    GridScenario,
    ObstacleRec,
    compute_perception,
    initiate_map,
    move_allowed,
    occluded,
    supercover,
)
from .grid_model import build_grid_composition
from .properties import (
    Monitor,
    Verdict,
    check_consistent_updates,
    check_deadlock_freedom,
    check_inevitable_termination,
    consistent_updates_monitor,
    product_with_monitor,
)
from .testgen import (
    ActionPattern,
    SimScenario,
    TestPurpose,
    extract_test,
    parse_purpose,
    product_with_purpose,
    replay,
    trace_to_scenario,
)
from .scenarios import ScenarioError, load_scenario, scenario_from_json

__all__ = [
    "Action", "Component", "Composition", "CompositionError",
    "ExplorationLimitError", "ExplorationLimits", "INTERNAL", "INTERNAL_GATE",
    "Lts", "Receive", "explore", "parse_action",
    "minimize", "partition",
    "AutFormatError", "export_aut", "import_aut",
    "ControlScenario", "GraphMap", "Itinerary", "ObstacleScript", "Turn",
    "build_control_composition", "compute_itinerary", "consistent_move",
    "successors",
    "CarSpec", "GridMap", "GridScenario", "ObstacleRec", "compute_perception",
    "initiate_map", "move_allowed", "occluded", "supercover",
    "build_grid_composition",
    "Monitor", "Verdict", "check_consistent_updates", "check_deadlock_freedom",
    "check_inevitable_termination", "consistent_updates_monitor",
    "product_with_monitor",
    "ActionPattern", "SimScenario", "TestPurpose", "extract_test",
    "parse_purpose", "product_with_purpose", "replay", "trace_to_scenario",
    "ScenarioError", "load_scenario", "scenario_from_json",
]
