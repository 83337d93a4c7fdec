"""Topology events and island reporting on bus-branch cases.

Events open or close a branch or switch a generator on or off; bus
endpoints never change. Each event returns a new case, whose islands are
reported by ``connectivity_check`` from the case's own cached reports.
"""

from __future__ import annotations

import warnings
from dataclasses import replace

from .model import GridCase, IslandReport, TopologyEvent


# event kind -> (GridCase field holding the target, its lookup by id, status set)
_EVENT_UPDATES = {
    "line_open": ("branches", GridCase.branch, "open"),
    "line_close": ("branches", GridCase.branch, "closed"),
    "gen_on": ("generators", GridCase.generator, "on"),
    "gen_off": ("generators", GridCase.generator, "off"),
}


def apply_event(case: GridCase, event: TopologyEvent) -> GridCase:
    """Apply one topology event, returning the updated case.

    No-op toggles (opening an open line, switching off an off generator)
    warn and return the case unchanged.
    """
    attr, lookup, want = _EVENT_UPDATES[event.kind]
    item = lookup(case, event.target)
    if item.status == want:
        noun = type(item).__name__.lower()
        warnings.warn(f"tick {event.tick}: {noun} {item.id} already {want}", stacklevel=2)
        return case
    updated = replace(item, status=want)
    items = tuple(updated if x.id == item.id else x for x in getattr(case, attr))
    return replace(case, **{attr: items})


def connectivity_check(case: GridCase) -> list[IslandReport]:
    """The case's island reports (``GridCase.islands``), as a list.

    Report-only: an island with load but no online generator is marked
    unservable; has_slack tells whether a power flow could reference it.
    """
    return list(case.islands)
