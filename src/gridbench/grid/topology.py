"""Topology events and island reporting on bus-branch cases.

Events open or close a branch or switch a generator on or off; bus
endpoints never change.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

from .model import GridCase, GridModelError, TopologyEvent, islands_of


class TopologyError(GridModelError):
    """Invalid topology operation."""


@dataclass(frozen=True)
class IslandReport:
    buses: tuple[int, ...]
    has_load: bool
    has_online_gen: bool
    has_slack: bool

    @property
    def unservable(self) -> bool:
        """Load present but nothing able to serve it."""
        return self.has_load and not self.has_online_gen


def apply_event(case: GridCase, event: TopologyEvent) -> GridCase:
    """Apply one topology event, returning the updated case.

    No-op toggles (opening an open line, switching off an off generator)
    warn and return the case unchanged.
    """
    if event.kind in ("line_open", "line_close"):
        br = case.branch(event.target)
        want = "open" if event.kind == "line_open" else "closed"
        if br.status == want:
            warnings.warn(f"tick {event.tick}: branch {br.id} already {want}", stacklevel=2)
            return case
        return case.with_branch(replace(br, status=want))

    if event.kind in ("gen_on", "gen_off"):
        g = case.generator(event.target)
        want = "on" if event.kind == "gen_on" else "off"
        if g.status == want:
            warnings.warn(f"tick {event.tick}: generator {g.id} already {want}", stacklevel=2)
            return case
        return case.with_generator(replace(g, status=want))

    raise TopologyError(f"unhandled event kind {event.kind!r}")


def connectivity_check(case: GridCase) -> list[IslandReport]:
    """Islands over closed branches, flagging unservable ones.

    Report-only: an island with load but no online generator is marked
    unservable; has_slack tells whether a power flow could reference it.
    """
    reports = []
    for members in islands_of(case):
        mset = set(members)
        reports.append(IslandReport(
            buses=tuple(members),
            has_load=any(l.bus in mset for l in case.loads),
            has_online_gen=any(g.bus in mset and g.online for g in case.generators),
            has_slack=any(case.bus(b).kind == "slack" for b in members),
        ))
    return reports
