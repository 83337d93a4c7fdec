"""Grid model, case documents, and topology operations."""

import numpy as np
import pytest

from gridbench.grid import (
    Branch,
    Bus,
    CaseParseError,
    Generator,
    GridCase,
    GridModelError,
    Load,
    SwitchLink,
    TopologyEvent,
    TopologyError,
    apply_event,
    bundled_case,
    connectivity_check,
    load_case,
    serialize_case,
    topology_processor,
)
from gridbench.powerflow import build_ybus
from gridbench.rng import Rng

MINIMAL_2BUS = """
case two
base_mva 100
bus 1 kind=slack
bus 2 kind=pq
branch 1 from=1 to=2 r=0 x=0.1
gen 1 bus=1 pmax=10
load 1 bus=2 pd=0.5 qd=0.0
"""


def two_bus():
    return load_case(MINIMAL_2BUS)


def chain_case(n_buses, switches):
    buses = tuple(Bus(id=i, kind="slack" if i == 1 else "pq") for i in range(1, n_buses + 1))
    return GridCase(name="chain", base_mva=100.0, buses=buses, branches=(),
                    generators=(Generator(id=1, bus=1, p_max=1.0),),
                    loads=(), switches=switches)


# ---------------------------------------------------------------- parsing

def test_minimal_two_bus_document():
    case = two_bus()
    assert len(case.buses) == 2
    assert len(case.branches) == 1
    assert case.branches[0].x == 0.1


def test_case30_has_thirty_buses():
    case = bundled_case("case30")
    assert len(case.buses) == 30
    assert len(case.branches) == 41
    assert len(case.generators) == 6


def test_unknown_bus_reference_rejected():
    doc = MINIMAL_2BUS + "\nbranch 2 from=1 to=99 r=0 x=0.2\n"
    with pytest.raises(GridModelError, match="unknown bus"):
        load_case(doc)


def test_parse_error_reports_line():
    bad = "case x\nbase_mva 100\nbus 1 kind=slack\nbus 2 kind=banana\n"
    with pytest.raises(CaseParseError, match="line 4"):
        load_case(bad)


def test_missing_required_field():
    bad = "case x\nbase_mva 100\nbus 1 kind=slack\nbranch 1 from=1 to=1\n"
    with pytest.raises(CaseParseError, match="line 4"):
        load_case(bad)


@pytest.mark.parametrize("name", ["case14", "case30", "case57"])
def test_serialize_round_trip(name):
    case = bundled_case(name)
    assert load_case(serialize_case(case)) == case


def test_round_trip_preserves_switches():
    case = two_bus()
    case = GridCase(**{**case.__dict__, "switches": (SwitchLink(1, 1, 2, "open"),)})
    assert load_case(serialize_case(case)) == case


def test_invariant_validation():
    with pytest.raises(GridModelError, match="both be zero"):
        Branch(id=1, from_bus=1, to_bus=2, r=0.0, x=0.0)
    with pytest.raises(GridModelError, match="tap"):
        Branch(id=1, from_bus=1, to_bus=2, r=0.0, x=0.1, tap=-1.0)
    with pytest.raises(GridModelError, match="v_min"):
        Bus(id=1, kind="pq", v_min=1.1, v_max=0.9)
    with pytest.raises(GridModelError, match="p_min"):
        Generator(id=1, bus=1, p_min=2.0, p_max=1.0)
    with pytest.raises(GridModelError, match="endpoints"):
        SwitchLink(id=1, bus_a=3, bus_b=3)


# ---------------------------------------------------- topology processor

def test_processor_identity_when_all_open():
    sw = (SwitchLink(1, 1, 2, "open"),)
    case = chain_case(3, sw)
    out = topology_processor(case)
    assert [b.id for b in out.buses] == [1, 2, 3]
    assert out.switches == sw


def test_processor_single_contraction():
    case = GridCase(
        name="t", base_mva=100.0,
        buses=(Bus(1, "slack"), Bus(2, "pq", gs=0.1, bs=0.2), Bus(3, "pq")),
        branches=(Branch(1, 2, 3, r=0.01, x=0.1),),
        generators=(Generator(1, bus=1, p_max=1.0),),
        loads=(Load(1, bus=2, pd=0.3, qd=0.1),),
        switches=(SwitchLink(1, 1, 2, "closed"),),
    )
    out = topology_processor(case)
    assert [b.id for b in out.buses] == [1, 3]
    merged = out.bus(1)
    assert merged.gs == pytest.approx(0.1) and merged.bs == pytest.approx(0.2)
    assert out.loads[0].bus == 1
    assert out.branches[0].from_bus == 1
    assert out.switches == ()


def test_processor_chain_matches_union_find_oracle():
    # chain 1-2-3 all closed -> one bus; oracle is an independent BFS
    sw = (SwitchLink(1, 1, 2, "closed"), SwitchLink(2, 2, 3, "closed"))
    case = chain_case(3, sw)
    out = topology_processor(case)
    assert len(out.buses) == 1

    # randomized: n buses, random closed switches; component count must match BFS
    rng = Rng(2024)
    for trial in range(30):
        n = 6 + rng.randrange(5)
        links = []
        for k in range(8):
            a = 1 + rng.randrange(n)
            b = 1 + rng.randrange(n)
            if a != b:
                links.append(SwitchLink(k + 1, a, b, "closed" if rng.random() < 0.6 else "open"))
        case = chain_case(n, tuple(links))
        out = topology_processor(case)
        # independent BFS over closed switch edges
        adj = {i: set() for i in range(1, n + 1)}
        for s in links:
            if s.status == "closed":
                adj[s.bus_a].add(s.bus_b)
                adj[s.bus_b].add(s.bus_a)
        seen, comps = set(), 0
        for start in range(1, n + 1):
            if start in seen:
                continue
            comps += 1
            stack = [start]
            while stack:
                u = stack.pop()
                if u in seen:
                    continue
                seen.add(u)
                stack.extend(adj[u] - seen)
        assert len(out.buses) == comps, f"trial {trial}"


def test_processor_idempotent():
    sw = (SwitchLink(1, 1, 2, "closed"), SwitchLink(2, 4, 5, "closed"),
          SwitchLink(3, 2, 3, "open"))
    case = chain_case(5, sw)
    once = topology_processor(case)
    twice = topology_processor(once)
    assert once == twice


def test_processor_conflicting_slack():
    buses = (Bus(1, "slack"), Bus(2, "slack"))
    case = GridCase("t", 100.0, buses, (), (), (), (SwitchLink(1, 1, 2, "closed"),))
    with pytest.raises(TopologyError, match="conflicting slack"):
        topology_processor(case)


# ------------------------------------------------------------- events

def test_line_open_toggles_status():
    case = bundled_case("case30")
    out = apply_event(case, TopologyEvent(tick=0, kind="line_open", target=7))
    assert out.branch(7).status == "open"
    assert case.branch(7).status == "closed"  # original untouched


def test_open_already_open_warns_noop():
    case = bundled_case("case30")
    out = apply_event(case, TopologyEvent(0, "line_open", 7))
    with pytest.warns(UserWarning, match="already open"):
        again = apply_event(out, TopologyEvent(1, "line_open", 7))
    assert again == out


def test_gen_off_makes_island_unservable():
    case = two_bus()
    out = apply_event(case, TopologyEvent(0, "gen_off", 1))
    reports = connectivity_check(out)
    assert len(reports) == 1
    assert reports[0].unservable


def test_merge_then_split_restores_ybus():
    case = GridCase(
        name="nb", base_mva=100.0,
        buses=(Bus(1, "slack"), Bus(2, "pq", bs=0.05), Bus(3, "pq"), Bus(4, "pq")),
        branches=(Branch(1, 1, 2, r=0.01, x=0.05), Branch(2, 2, 3, r=0.02, x=0.08),
                  Branch(3, 1, 4, r=0.01, x=0.04)),
        generators=(Generator(1, bus=1, p_max=5.0),),
        loads=(Load(1, bus=2, pd=0.2, qd=0.05), Load(2, bus=3, pd=0.1, qd=0.02)),
        switches=(SwitchLink(1, 2, 4, "open"),),
    )
    y0 = build_ybus(case).matrix
    merged = apply_event(case, TopologyEvent(5, "bus_merge", 1))
    assert len(merged.buses) == 3
    split = apply_event(merged, TopologyEvent(9, "bus_split", 1))
    assert split.bus_ids() == case.bus_ids()
    y1 = build_ybus(split).matrix
    np.testing.assert_allclose(y1, y0, atol=1e-15)
    assert [l.bus for l in split.loads] == [l.bus for l in case.loads]


def test_split_without_merge_errors():
    case = two_bus()
    case = GridCase(**{**case.__dict__, "switches": (SwitchLink(1, 1, 2, "open"),)})
    with pytest.raises(TopologyError, match="never merged"):
        apply_event(case, TopologyEvent(0, "bus_split", 1))


def test_merge_two_slacks_rejected():
    buses = (Bus(1, "slack"), Bus(2, "slack"))
    case = GridCase("t", 100.0, buses, (), (), (), (SwitchLink(1, 1, 2, "open"),))
    with pytest.raises(TopologyError, match="conflicting slack"):
        apply_event(case, TopologyEvent(0, "bus_merge", 1))


# ------------------------------------------------------- connectivity

def test_connected_case30_single_island():
    reports = connectivity_check(bundled_case("case30"))
    assert len(reports) == 1
    assert not reports[0].unservable
    assert reports[0].has_slack


def test_two_bus_split_flags_load_island():
    case = apply_event(two_bus(), TopologyEvent(0, "line_open", 1))
    reports = connectivity_check(case)
    assert len(reports) == 2
    flagged = [r for r in reports if r.unservable]
    assert len(flagged) == 1
    assert flagged[0].buses == (2,)


def test_islands_match_bfs_oracle_on_random_cases():
    rng = Rng(77)
    for trial in range(100):
        n = 8 + rng.randrange(6)
        branches = []
        for k in range(20):
            a = 1 + rng.randrange(n)
            b = 1 + rng.randrange(n)
            if a == b:
                continue
            status = "open" if rng.random() < 0.2 else "closed"
            branches.append(Branch(k + 1, a, b, r=0.01, x=0.1, status=status))
        buses = tuple(Bus(id=i, kind="slack" if i == 1 else "pq") for i in range(1, n + 1))
        case = GridCase("r", 100.0, buses, tuple(branches), (), ())
        got = {r.buses for r in connectivity_check(case)}

        adj = {i: set() for i in range(1, n + 1)}
        for br in branches:
            if br.status == "closed":
                adj[br.from_bus].add(br.to_bus)
                adj[br.to_bus].add(br.from_bus)
        want = set()
        seen = set()
        for start in range(1, n + 1):
            if start in seen:
                continue
            comp = []
            stack = [start]
            while stack:
                u = stack.pop()
                if u in seen:
                    continue
                seen.add(u)
                comp.append(u)
                stack.extend(adj[u] - seen)
            want.add(tuple(sorted(comp)))
        assert got == want, f"trial {trial}"
