"""Topology mutation: switch contraction, events, island reporting.

The topology processor turns a node-breaker style case (buses plus switch
links) into a bus-branch case by contracting every group of buses joined
by closed switches into a single bus. Bus merge/split events do the same
contraction for one switch at a time and keep a record so a split restores
the exact pre-merge attachment partition.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

from .model import (
    Bus,
    GridCase,
    GridModelError,
    MergeRecord,
    SwitchLink,
    TopologyEvent,
    _union_find,
    islands_of,
)

_KIND_RANK = {"slack": 0, "pv": 1, "pq": 2}


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


def topology_processor(case: GridCase, switches: tuple[SwitchLink, ...] | None = None) -> GridCase:
    """Contract all buses joined by closed switches; drop the switch edges.

    Idempotent: with no closed switches the input is returned unchanged.
    A branch whose endpoints land on the same merged bus is dropped (it is
    shorted by the switch path). Raises ``TopologyError`` if a merge group
    would contain two slack buses.
    """
    if switches is None:
        switches = case.switches
    else:
        known = {b.id for b in case.buses}
        for s in switches:
            if s.bus_a not in known or s.bus_b not in known:
                raise TopologyError(f"switch {s.id} references unknown bus")
    closed = [s for s in switches if s.status == "closed"]
    if not closed:
        return replace(case, switches=tuple(switches))

    root = _union_find([b.id for b in case.buses], [(s.bus_a, s.bus_b) for s in closed])
    groups: dict[int, list[Bus]] = {}
    for b in case.buses:
        groups.setdefault(root[b.id], []).append(b)

    rep_of: dict[int, int] = {}
    new_buses = []
    for members in groups.values():
        slacks = [b for b in members if b.kind == "slack"]
        if len(slacks) > 1:
            raise TopologyError(
                f"conflicting slack: buses {[b.id for b in slacks]} merge into one")
        rep = min(members, key=lambda b: (_KIND_RANK[b.kind], b.id))
        merged = replace(
            rep,
            gs=sum(b.gs for b in members),
            bs=sum(b.bs for b in members),
        )
        new_buses.append(merged)
        for b in members:
            rep_of[b.id] = rep.id

    new_branches = []
    for br in case.branches:
        f, t = rep_of[br.from_bus], rep_of[br.to_bus]
        if f == t:
            continue  # shorted by the switch path
        new_branches.append(replace(br, from_bus=f, to_bus=t))
    new_gens = tuple(replace(g, bus=rep_of[g.bus]) for g in case.generators)
    new_loads = tuple(replace(l, bus=rep_of[l.bus]) for l in case.loads)
    leftover = tuple(
        replace(s, bus_a=rep_of[s.bus_a], bus_b=rep_of[s.bus_b])
        for s in switches
        if s.status != "closed" and rep_of[s.bus_a] != rep_of[s.bus_b])

    return replace(
        case,
        buses=tuple(sorted(new_buses, key=lambda b: b.id)),
        branches=tuple(new_branches),
        generators=new_gens,
        loads=new_loads,
        switches=leftover,
        merge_records=(),
    )


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

    if event.kind == "bus_merge":
        return merge_across_switch(case, event.target)
    if event.kind == "bus_split":
        return split_merged_switch(case, event.target)
    raise TopologyError(f"unhandled event kind {event.kind!r}")


def merge_across_switch(case: GridCase, switch_id: int) -> GridCase:
    """Close the named switch and contract its two buses into one.

    Records the pre-merge attachment partition so a later split restores it
    exactly.
    """
    if any(rec.switch_id == switch_id for rec in case.merge_records):
        raise TopologyError(f"switch {switch_id} is already merged")
    sw = case.switch(switch_id)
    bus_a, bus_b = case.bus(sw.bus_a), case.bus(sw.bus_b)
    if bus_a.kind == "slack" and bus_b.kind == "slack":
        raise TopologyError(f"conflicting slack: buses {bus_a.id} and {bus_b.id} merge into one")
    kept, removed = sorted((bus_a, bus_b), key=lambda b: (_KIND_RANK[b.kind], b.id))

    record = MergeRecord(
        switch=sw,
        kept=kept,
        removed=removed,
        branch_from=tuple(br.id for br in case.branches if br.from_bus == removed.id),
        branch_to=tuple(br.id for br in case.branches if br.to_bus == removed.id),
        gens=tuple(g.id for g in case.generators if g.bus == removed.id),
        loads=tuple(l.id for l in case.loads if l.bus == removed.id),
        switch_a=tuple(s.id for s in case.switches if s.id != switch_id and s.bus_a == removed.id),
        switch_b=tuple(s.id for s in case.switches if s.id != switch_id and s.bus_b == removed.id),
    )

    merged_bus = replace(kept, gs=kept.gs + removed.gs, bs=kept.bs + removed.bs)
    buses = tuple(merged_bus if b.id == kept.id else b for b in case.buses if b.id != removed.id)

    def rehome(i: int) -> int:
        return kept.id if i == removed.id else i

    branches = []
    for br in case.branches:
        f, t = rehome(br.from_bus), rehome(br.to_bus)
        if f == t:
            raise TopologyError(
                f"merge across switch {switch_id} would short branch {br.id}")
        branches.append(replace(br, from_bus=f, to_bus=t))
    gens = tuple(replace(g, bus=rehome(g.bus)) for g in case.generators)
    loads = tuple(replace(l, bus=rehome(l.bus)) for l in case.loads)
    switches = []
    for s in case.switches:
        if s.id == switch_id:
            continue  # lives in the merge record while contracted
        a, b = rehome(s.bus_a), rehome(s.bus_b)
        if a == b:
            raise TopologyError(
                f"merge across switch {switch_id} would collapse switch {s.id}")
        switches.append(replace(s, bus_a=a, bus_b=b))

    return replace(case, buses=buses, branches=tuple(branches), generators=gens,
                   loads=loads, switches=tuple(switches),
                   merge_records=case.merge_records + (record,))


def split_merged_switch(case: GridCase, switch_id: int) -> GridCase:
    """Undo a recorded merge: restore both buses and re-home attachments."""
    record = next((r for r in case.merge_records if r.switch_id == switch_id), None)
    if record is None:
        raise TopologyError(f"switch {switch_id} was never merged; cannot split")

    buses = tuple(record.kept if b.id == record.kept.id else b for b in case.buses)
    buses = tuple(sorted(buses + (record.removed,), key=lambda b: b.id))
    branches = []
    for br in case.branches:
        f = record.removed.id if br.id in record.branch_from else br.from_bus
        t = record.removed.id if br.id in record.branch_to else br.to_bus
        branches.append(replace(br, from_bus=f, to_bus=t))
    gens = tuple(
        replace(g, bus=record.removed.id) if g.id in record.gens else g
        for g in case.generators)
    loads = tuple(
        replace(l, bus=record.removed.id) if l.id in record.loads else l
        for l in case.loads)
    switches = [replace(record.switch, status="open")]
    for s in case.switches:
        a = record.removed.id if s.id in record.switch_a else s.bus_a
        b = record.removed.id if s.id in record.switch_b else s.bus_b
        switches.append(replace(s, bus_a=a, bus_b=b))
    switches.sort(key=lambda s: s.id)

    remaining = tuple(r for r in case.merge_records if r.switch_id != switch_id)
    return replace(case, buses=buses, branches=tuple(branches), generators=gens,
                   loads=loads, switches=tuple(switches), merge_records=remaining)


def connectivity_check(case: GridCase) -> list[IslandReport]:
    """Islands over closed branches/switches, flagging unservable ones.

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
