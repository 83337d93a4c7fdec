"""Electrical network data model and the topology events applied to it.

All quantities are stored in per-unit on the case's MVA base. Values are
immutable after construction: a topology event (``apply_event``) returns a
new :class:`GridCase`, so cases can be shared freely across concurrent runs.
One table, ``EVENT_UPDATES``, says what each event kind switches; events
change a status, never a bus endpoint.

Every island check reads one source: ``GridCase.islands``, the case's
:class:`IslandReport` per island over closed branches, cached on first use.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import cached_property

BUS_KINDS = ("slack", "pv", "pq")
BRANCH_STATUS = ("closed", "open")
GEN_STATUS = ("on", "off")
LOAD_STYLES = ("constant", "smooth", "oscillating", "abrupt")
# event kind -> (the GridCase field it switches, the item's name, the status it sets)
EVENT_UPDATES = {
    "line_open": ("branches", "branch", "open"),
    "line_close": ("branches", "branch", "closed"),
    "gen_on": ("generators", "generator", "on"),
    "gen_off": ("generators", "generator", "off"),
}


class GridModelError(ValueError):
    """Violated structural invariant of a grid case."""


@dataclass(frozen=True)
class Bus:
    id: int
    kind: str  # slack | pv | pq
    vm: float = 1.0
    va: float = 0.0
    v_min: float = 0.94
    v_max: float = 1.06
    gs: float = 0.0
    bs: float = 0.0

    def __post_init__(self):
        if self.kind not in BUS_KINDS:
            raise GridModelError(f"bus {self.id}: unknown kind {self.kind!r}")
        if not self.v_min < self.v_max:
            raise GridModelError(f"bus {self.id}: v_min must be < v_max")
        if self.vm <= 0:
            raise GridModelError(f"bus {self.id}: vm must be positive")


@dataclass(frozen=True)
class Branch:
    id: int
    from_bus: int
    to_bus: int
    r: float
    x: float
    b: float = 0.0
    tap: float = 1.0
    shift: float = 0.0
    rate_a: float = 0.0  # 0 = unlimited
    status: str = "closed"

    def __post_init__(self):
        if self.r == 0.0 and self.x == 0.0:
            raise GridModelError(f"branch {self.id}: r and x cannot both be zero")
        if self.tap <= 0:
            raise GridModelError(f"branch {self.id}: tap must be positive")
        if self.status not in BRANCH_STATUS:
            raise GridModelError(f"branch {self.id}: unknown status {self.status!r}")

    @property
    def closed(self) -> bool:
        return self.status == "closed"


@dataclass(frozen=True)
class Generator:
    id: int
    bus: int
    pg: float = 0.0
    qg: float = 0.0
    p_min: float = 0.0
    p_max: float = 0.0
    q_min: float = 0.0
    q_max: float = 0.0
    v_set: float = 1.0
    status: str = "on"
    cost_c2: float = 0.0
    cost_c1: float = 0.0
    cost_c0: float = 0.0

    def __post_init__(self):
        if self.p_min > self.p_max:
            raise GridModelError(f"gen {self.id}: p_min > p_max")
        if self.q_min > self.q_max:
            raise GridModelError(f"gen {self.id}: q_min > q_max")
        if self.status not in GEN_STATUS:
            raise GridModelError(f"gen {self.id}: unknown status {self.status!r}")

    @property
    def online(self) -> bool:
        return self.status == "on"


@dataclass(frozen=True)
class Load:
    id: int
    bus: int
    pd: float
    qd: float
    group: str = "g1"
    style: str = "constant"

    def __post_init__(self):
        if self.style not in LOAD_STYLES:
            raise GridModelError(f"load {self.id}: unknown style {self.style!r}")


@dataclass(frozen=True)
class TopologyEvent:
    tick: int
    kind: str  # line_open | line_close | gen_on | gen_off
    target: int  # branch id for line events, generator id for gen events

    def __post_init__(self):
        if self.kind not in EVENT_UPDATES:
            raise GridModelError(f"event at tick {self.tick}: unknown kind {self.kind!r}")

    @property
    def changes_graph(self) -> bool:
        return EVENT_UPDATES[self.kind][0] == "branches"


@dataclass(frozen=True)
class IslandReport:
    """What one island over closed branches holds (see ``GridCase.islands``)."""

    buses: tuple[int, ...]  # ascending
    slacks: tuple[int, ...]  # the slack bus ids, ascending
    has_load: bool
    has_gen: bool  # any generator, online or not
    has_online_gen: bool
    has_shunt: bool
    has_closed_branch: bool

    @property
    def has_slack(self) -> bool:
        return bool(self.slacks)

    @property
    def unservable(self) -> bool:
        """Load present but nothing able to serve it."""
        return self.has_load and not self.has_online_gen


@dataclass(frozen=True)
class GridCase:
    name: str
    base_mva: float
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    generators: tuple[Generator, ...]
    loads: tuple[Load, ...]

    def __post_init__(self):
        validate_case(self)

    # once per (immutable) case; cached_property writes the instance dict, not a field
    @cached_property
    def bus_index(self) -> dict[int, int]:
        """Bus id -> position in ``buses``, the order of every per-bus array."""
        return {b.id: i for i, b in enumerate(self.buses)}

    @cached_property
    def _roots(self) -> dict[int, int]:
        """Bus id -> smallest bus id of its island over closed branches
        (union-find; every union keeps the smaller root)."""
        parent = {b.id: b.id for b in self.buses}

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for br in self.branches:
            if br.closed:
                ra, rb = find(br.from_bus), find(br.to_bus)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
        return {bus_id: find(bus_id) for bus_id in parent}

    @cached_property
    def _slacks(self) -> dict[int, list[int]]:
        """Island root -> its slack bus ids, ascending; slackless islands absent."""
        slacks: dict[int, list[int]] = {}
        for bus_id in sorted(b.id for b in self.buses if b.kind == "slack"):
            slacks.setdefault(self._roots[bus_id], []).append(bus_id)
        return slacks

    @cached_property
    def islands(self) -> tuple[IslandReport, ...]:
        """What each island over closed branches holds, ordered by smallest
        bus id: the one source of ``connectivity_check``, the slack check of
        case documents and the power-flow solver's island check."""
        roots, slacks = self._roots, self._slacks
        members: dict[int, list[int]] = {}  # keyed in root order: a root is its smallest member
        for bus_id in sorted(roots):
            members.setdefault(roots[bus_id], []).append(bus_id)
        load = {roots[l.bus] for l in self.loads}
        gen = {roots[g.bus] for g in self.generators}
        online = {roots[g.bus] for g in self.generators if g.online}
        shunt = {roots[b.id] for b in self.buses if b.gs != 0 or b.bs != 0}
        closed = {roots[br.from_bus] for br in self.branches if br.closed}
        return tuple(
            IslandReport(tuple(buses), tuple(slacks.get(r, ())), r in load, r in gen,
                         r in online, r in shunt, r in closed)
            for r, buses in members.items())

    def closed_branch_key(self) -> frozenset[int]:
        """Identity of the electrical topology: the ids of the closed branches.

        Events only switch a branch's status, never its endpoints, so two
        states of one case have the same topology iff they close the same ids.
        """
        return frozenset(br.id for br in self.branches if br.closed)


def validate_case(case: GridCase) -> None:
    """Check referential integrity and per-island slack uniqueness, from the
    island roots alone: every event makes a case, few need its reports. A
    slackless load island is legal here; the power-flow solver rejects it."""
    if case.base_mva <= 0:
        raise GridModelError("base_mva must be positive")
    bus_ids = [b.id for b in case.buses]
    bus_set = set(bus_ids)
    if len(bus_set) != len(bus_ids):
        dup = sorted(i for i in bus_set if bus_ids.count(i) > 1)
        raise GridModelError(f"duplicate bus ids {dup}")
    for coll, label in ((case.branches, "branch"), (case.generators, "gen"),
                        (case.loads, "load")):
        ids = [c.id for c in coll]
        if len(set(ids)) != len(ids):
            raise GridModelError(f"duplicate {label} ids")
    for br in case.branches:
        for end in (br.from_bus, br.to_bus):
            if end not in bus_set:
                raise GridModelError(f"branch {br.id}: unknown bus {end}")
    for g in case.generators:
        if g.bus not in bus_set:
            raise GridModelError(f"gen {g.id}: unknown bus {g.bus}")
    for l in case.loads:
        if l.bus not in bus_set:
            raise GridModelError(f"load {l.id}: unknown bus {l.bus}")
    for root, slacks in sorted(case._slacks.items()):
        if len(slacks) > 1:
            members = sorted(b for b, r in case._roots.items() if r == root)
            raise GridModelError(f"island with buses {members} has multiple slack buses {slacks}")


def require_slack_per_active_island(case: GridCase) -> None:
    """Strict check used when loading fresh case documents: every island
    containing any generator or load must have exactly one slack bus."""
    for rep in case.islands:
        if not rep.has_slack and (rep.has_load or rep.has_gen):
            raise GridModelError(
                f"island with buses {list(rep.buses)} has load/generation but no slack bus")


def apply_event(case: GridCase, event: TopologyEvent) -> GridCase:
    """Apply one topology event, returning the updated case.

    No-op toggles (opening an open line, switching off an off generator)
    warn and return the case unchanged.
    """
    attr, noun, want = EVENT_UPDATES[event.kind]
    items = getattr(case, attr)
    for i, item in enumerate(items):
        if item.id == event.target:
            break
    else:
        raise GridModelError(f"unknown {noun} {event.target}")
    if item.status == want:
        warnings.warn(f"tick {event.tick}: {noun} {item.id} already {want}", stacklevel=2)
        return case
    return replace(case, **{attr: items[:i] + (replace(item, status=want),) + items[i + 1:]})


def connectivity_check(case: GridCase) -> list[IslandReport]:
    """The case's island reports (``GridCase.islands``), as a list.

    Report-only: an island with load but no online generator is marked
    unservable; has_slack tells whether a power flow could reference it.
    """
    return list(case.islands)
