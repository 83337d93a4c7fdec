"""Grid model, case documents, and topology operations."""

import re
import string
from dataclasses import MISSING, fields, replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gridbench.grid import (
    Branch,
    Bus,
    CaseParseError,
    Generator,
    GridCase,
    GridModelError,
    Load,
    TopologyEvent,
    apply_event,
    bundled_case,
    connectivity_check,
    load_case,
    require_slack_per_active_island,
    serialize_case,
)
from gridbench.grid.caseio import RECORDS
from gridbench.grid.model import BRANCH_STATUS, GEN_STATUS, LOAD_STYLES
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


@pytest.mark.parametrize("old, new, error, match", [
    ("x=0.1", "x 0.1", CaseParseError, "line 6: expected key=value, got 'x'"),
    ("x=0.1", "x=0.1 y=2", CaseParseError, "line 6: unknown field 'y'"),
    ("base_mva 100\n", "", CaseParseError, "missing base_mva record"),
    ("base_mva 100", "base_mva 0", GridModelError, "base_mva must be positive"),
    ("bus 2 kind=pq", "bus 1 kind=pq", GridModelError, r"duplicate bus ids \[1\]"),
    ("gen 1", "branch 1 from=1 to=2 r=0 x=0.2\ngen 1", GridModelError,
     "duplicate branch ids"),
    ("gen 1 bus=1", "gen 1 bus=9", GridModelError, "gen 1: unknown bus 9"),
    ("load 1 bus=2", "load 1 bus=9", GridModelError, "load 1: unknown bus 9"),
    ("bus 2 kind=pq", "bus 2 kind=slack", GridModelError,
     r"island with buses \[1, 2\] has multiple slack buses \[1, 2\]"),
    ("x=0.1", "x=0.1 status=open", GridModelError,
     r"island with buses \[2\] has load/generation but no slack bus"),
])
def test_invalid_case_document_rejected(old, new, error, match):
    with pytest.raises(error, match=match):
        load_case(MINIMAL_2BUS.replace(old, new))


def test_parse_error_reports_line():
    bad = "case x\nbase_mva 100\nbus 1 kind=slack\nbus 2 kind=banana\n"
    with pytest.raises(CaseParseError, match="line 4"):
        load_case(bad)


def test_missing_required_field():
    bad = "case x\nbase_mva 100\nbus 1 kind=slack\nbranch 1 from=1 to=1\n"
    with pytest.raises(CaseParseError, match="line 4"):
        load_case(bad)


def test_switch_record_is_unknown():
    # the model is bus-branch only: a bus-section switch is not a record type
    with pytest.raises(CaseParseError, match="line 9: unknown record type 'switch'"):
        load_case(MINIMAL_2BUS + "switch 1 a=1 b=2\n")


@pytest.mark.parametrize("name", ["case14", "case30", "case57"])
def test_serialize_round_trip(name):
    case = bundled_case(name)
    assert load_case(serialize_case(case)) == case


FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(0, 1e6, exclude_min=True)
LABEL = st.text(string.ascii_letters + string.digits + "_-.", min_size=1, max_size=8)


@st.composite
def redrawn_case(draw):
    """case14 with up to three records of each type redrawn: every field but
    the id, bus references and bus kind, so branches open, generators switch
    off and loads take any style."""
    case = bundled_case("case14")

    def redraw(records, new):
        picked = draw(st.sets(st.sampled_from(range(len(records))), min_size=1, max_size=3))
        return tuple(new(x) if k in picked else x for k, x in enumerate(records))

    def ordered(unique):
        return sorted(draw(st.lists(FINITE, min_size=2, max_size=2, unique=unique)))

    def bus(b):
        v_min, v_max = ordered(unique=True)
        return replace(b, vm=draw(POSITIVE), va=draw(FINITE), v_min=v_min, v_max=v_max,
                       gs=draw(FINITE), bs=draw(FINITE))

    def branch(br):
        return replace(br, r=draw(FINITE), x=draw(FINITE.filter(bool)), b=draw(FINITE),
                       tap=draw(POSITIVE), shift=draw(FINITE), rate_a=draw(FINITE),
                       status=draw(st.sampled_from(BRANCH_STATUS)))

    def gen(g):
        (p_min, p_max), (q_min, q_max) = ordered(unique=False), ordered(unique=False)
        return replace(g, pg=draw(FINITE), qg=draw(FINITE), p_min=p_min, p_max=p_max,
                       q_min=q_min, q_max=q_max, v_set=draw(FINITE),
                       status=draw(st.sampled_from(GEN_STATUS)), cost_c2=draw(FINITE),
                       cost_c1=draw(FINITE), cost_c0=draw(FINITE))

    def load(l):
        return replace(l, pd=draw(FINITE), qd=draw(FINITE), group=draw(LABEL),
                       style=draw(st.sampled_from(LOAD_STYLES)))

    out = GridCase(name=draw(LABEL), base_mva=draw(POSITIVE), buses=redraw(case.buses, bus),
                   branches=redraw(case.branches, branch),
                   generators=redraw(case.generators, gen), loads=redraw(case.loads, load))
    try:
        require_slack_per_active_island(out)  # load_case's check, which open lines can fail
    except GridModelError:
        assume(False)
    return out


@settings(max_examples=40, deadline=None)
@given(case=redrawn_case())
def test_round_trip_with_fields_off_default(case):
    assert load_case(serialize_case(case)) == case


def test_key_table_is_the_whole_format():
    # every record field but the positional id has exactly one document key;
    # dropping a key from a record line is an error exactly when its field
    # has no default, and otherwise gives the field's default
    lines = MINIMAL_2BUS.splitlines()
    for rec, (cls, attr, keys) in RECORDS.items():
        by_name = {f.name: f for f in fields(cls)}
        assert sorted(keys.values()) == sorted(set(by_name) - {"id"}), rec
        line = next(l for l in lines if l.startswith(rec + " "))
        for key, name in keys.items():
            kept = " ".join(t for t in line.split() if not t.startswith(key + "="))
            doc = MINIMAL_2BUS.replace(line, kept)
            if by_name[name].default is MISSING:
                with pytest.raises(CaseParseError, match=f"missing required field '{key}'"):
                    load_case(doc)
            else:
                assert getattr(getattr(load_case(doc), attr)[0], name) == by_name[name].default


@pytest.mark.parametrize("old, new, match", [
    ("x=0.1", "x=nan", "line 6: bad value for 'x'"),
    ("x=0.1", "x=inf", "line 6: bad value for 'x'"),
    ("pd=0.5", "pd=nan", "line 8: bad value for 'pd'"),
    ("qd=0.0", "qd=-inf", "line 8: bad value for 'qd'"),
    ("base_mva 100", "base_mva nan", "line 3: bad value for 'base_mva'"),
])
def test_non_finite_number_rejected(old, new, match):
    with pytest.raises(CaseParseError, match=match):
        load_case(MINIMAL_2BUS.replace(old, new))


@pytest.mark.parametrize("old, new, match", [
    ("case two", "case my grid", "line 2: 'case' takes one value"),
    ("base_mva 100", "base_mva 100 7", "line 3: 'base_mva' takes one value"),
])
def test_header_record_takes_one_value(old, new, match):
    with pytest.raises(CaseParseError, match=match):
        load_case(MINIMAL_2BUS.replace(old, new))


@pytest.mark.parametrize("old, new, match", [
    ("x=0.1", "x=0.1 x=0.2", "line 6: repeated field 'x'"),
    ("pd=0.5", "pd=0.5 pd=0.5", "line 8: repeated field 'pd'"),
])
def test_repeated_field_rejected(old, new, match):
    with pytest.raises(CaseParseError, match=match):
        load_case(MINIMAL_2BUS.replace(old, new))


@pytest.mark.parametrize("name, group, match", [
    ("my grid", "g1", "case name 'my grid'"),
    ("", "g1", "case name ''"),
    ("a#b", "g1", "case name 'a#b'"),
    ("two", "a#b", "load 1 group 'a#b'"),
    ("two", "a b", "load 1 group 'a b'"),
    ("two", "a\tb", "load 1 group 'a\\tb'"),
    ("two", "", "load 1 group ''"),
])
def test_serialize_rejects_labels_the_document_cannot_carry(name, group, match):
    case = two_bus()
    case = replace(case, name=name, loads=(replace(case.loads[0], group=group),))
    with pytest.raises(ValueError, match=re.escape(match)):
        serialize_case(case)


def test_bundled_case_lookup_order(tmp_path, monkeypatch):
    (tmp_path / "case14.grid").write_text(MINIMAL_2BUS, encoding="utf-8")
    assert bundled_case(str(tmp_path / "case14.grid")) == two_bus()  # explicit path
    assert len(bundled_case("case14").buses) == 14  # packaged fixture
    monkeypatch.setenv("GRIDBENCH_CASE_DIR", str(tmp_path))
    assert bundled_case("case14") == two_bus()  # the directory overrides a bundled name
    assert len(bundled_case("case30").buses) == 30  # names it lacks fall through
    with pytest.raises(FileNotFoundError, match="no bundled case named 'case99'"):
        bundled_case("case99")


def test_invariant_validation():
    with pytest.raises(GridModelError, match="both be zero"):
        Branch(id=1, from_bus=1, to_bus=2, r=0.0, x=0.0)
    with pytest.raises(GridModelError, match="tap"):
        Branch(id=1, from_bus=1, to_bus=2, r=0.0, x=0.1, tap=-1.0)
    with pytest.raises(GridModelError, match="v_min"):
        Bus(id=1, kind="pq", v_min=1.1, v_max=0.9)
    with pytest.raises(GridModelError, match="p_min"):
        Generator(id=1, bus=1, p_min=2.0, p_max=1.0)
    with pytest.raises(GridModelError, match="bus 1: vm must be positive"):
        Bus(id=1, kind="pq", vm=0.0)
    with pytest.raises(GridModelError, match="gen 1: q_min > q_max"):
        Generator(id=1, bus=1, q_min=2.0, q_max=1.0)
    with pytest.raises(GridModelError, match="branch 1: unknown status 'broken'"):
        Branch(id=1, from_bus=1, to_bus=2, r=0.0, x=0.1, status="broken")
    with pytest.raises(GridModelError, match="gen 1: unknown status 'idle'"):
        Generator(id=1, bus=1, status="idle")
    with pytest.raises(GridModelError, match="load 1: unknown style 'wavy'"):
        Load(id=1, bus=1, pd=0.0, qd=0.0, style="wavy")
    case = two_bus()
    for kind, noun in (("line_open", "branch"), ("gen_off", "generator")):
        with pytest.raises(GridModelError, match=f"unknown {noun} 99"):
            apply_event(case, TopologyEvent(0, kind, 99))


# ------------------------------------------------------------- events

def test_line_open_toggles_status():
    case = bundled_case("case30")
    out = apply_event(case, TopologyEvent(tick=0, kind="line_open", target=7))
    assert [br.id for br in out.branches] == [br.id for br in case.branches]
    status = {br.id: br.status for br in out.branches}
    assert status.pop(7) == "open"
    assert set(status.values()) == {"closed"}  # no other branch switched
    assert all(br.closed for br in case.branches)  # original untouched


def test_open_already_open_warns_noop():
    case = bundled_case("case30")
    out = apply_event(case, TopologyEvent(0, "line_open", 7))
    with pytest.warns(UserWarning, match="already open"):
        again = apply_event(out, TopologyEvent(1, "line_open", 7))
    assert again == out


@pytest.mark.parametrize("kind", ["bus_merge", "bus_split"])
def test_bus_section_event_kinds_rejected(kind):
    with pytest.raises(GridModelError, match="unknown kind"):
        TopologyEvent(0, kind, 1)


def test_gen_off_makes_island_unservable():
    case = two_bus()
    out = apply_event(case, TopologyEvent(0, "gen_off", 1))
    reports = connectivity_check(out)
    assert len(reports) == 1
    assert reports[0].unservable


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


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(("case14", "case30")), data=st.data())
def test_island_reports_match_bfs_over_random_outages(name, data):
    # GridCase.islands against a brute-force search over closed branches:
    # the partition and its order, the slacks and every flag
    case = bundled_case(name)
    opened = data.draw(st.sets(st.sampled_from([br.id for br in case.branches])))
    off = data.draw(st.sets(st.sampled_from([g.id for g in case.generators])))
    case = replace(
        case,
        branches=tuple(replace(br, status="open") if br.id in opened else br
                       for br in case.branches),
        generators=tuple(replace(g, status="off") if g.id in off else g
                         for g in case.generators))
    adj = {b.id: set() for b in case.buses}
    for br in case.branches:
        if br.closed:
            adj[br.from_bus].add(br.to_bus)
            adj[br.to_bus].add(br.from_bus)
    want, seen = [], set()
    for start in sorted(adj):
        if start in seen:
            continue
        comp, stack = set(), [start]
        while stack:
            u = stack.pop()
            if u not in comp:
                comp.add(u)
                stack.extend(adj[u] - comp)
        seen |= comp
        want.append(tuple(sorted(comp)))
    assert [rep.buses for rep in case.islands] == want
    for rep in case.islands:
        members = set(rep.buses)
        buses = [b for b in case.buses if b.id in members]
        assert rep.slacks == tuple(sorted(b.id for b in buses if b.kind == "slack"))
        assert rep.has_slack == bool(rep.slacks)
        assert rep.has_load == any(l.bus in members for l in case.loads)
        assert rep.has_gen == any(g.bus in members for g in case.generators)
        assert rep.has_online_gen == any(g.bus in members and g.online
                                         for g in case.generators)
        assert rep.has_shunt == any(b.gs != 0 or b.bs != 0 for b in buses)
        assert rep.has_closed_branch == any(br.closed and br.from_bus in members
                                            for br in case.branches)
        assert rep.unservable == (rep.has_load and not rep.has_online_gen)
