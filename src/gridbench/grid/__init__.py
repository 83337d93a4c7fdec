"""Grid data model with its topology events and island reports, and case documents."""

from .caseio import (
    BUNDLED_CASES,
    CaseParseError,
    bundled_case,
    load_case,
    serialize_case,
)
from .model import (
    Branch,
    Bus,
    Generator,
    GridCase,
    GridModelError,
    IslandReport,
    Load,
    TopologyEvent,
    apply_event,
    connectivity_check,
    require_slack_per_active_island,
)

__all__ = [
    "BUNDLED_CASES", "Branch", "Bus", "CaseParseError", "Generator", "GridCase",
    "GridModelError", "IslandReport", "Load", "TopologyEvent",
    "apply_event", "bundled_case", "connectivity_check", "load_case",
    "require_slack_per_active_island", "serialize_case",
]
