"""Case document format: parse, serialize, bundled fixtures.

A case document is UTF-8 line-oriented text, one record per line::

    case <name>
    base_mva <float>
    bus <id> kind=<slack|pv|pq> [vm= va= vmin= vmax= gs= bs=]
    branch <id> from=<bus> to=<bus> r= x= [b= tap= shift= rate_a= status=]
    gen <id> bus=<bus> [pg= qg= pmin= pmax= qmin= qmax= vset= status= c2= c1= c0=]
    load <id> bus=<bus> pd= qd= [group= style=]

Blank lines and ``#`` comments are ignored. Fields mirror the standard
bus/branch/generator tables, so published test cases convert mechanically.
Floats are serialized with ``repr`` so load(serialize(case)) round-trips
exactly.
"""

from __future__ import annotations

import os
from importlib import resources

from .model import (
    BUS_KINDS,
    Branch,
    Bus,
    Generator,
    GridCase,
    GridModelError,
    Load,
    require_slack_per_active_island,
)

BUNDLED_CASES = ("case14", "case30", "case57")


class CaseParseError(ValueError):
    """Malformed case document; message carries line and field context."""


def _parse_fields(tokens: list[str], line_no: int) -> dict[str, str]:
    fields = {}
    for tok in tokens:
        if "=" not in tok:
            raise CaseParseError(f"line {line_no}: expected key=value, got {tok!r}")
        key, _, val = tok.partition("=")
        fields[key] = val
    return fields


def _get(fields: dict[str, str], key: str, line_no: int, default=None, conv=float):
    if key not in fields:
        if default is None:
            raise CaseParseError(f"line {line_no}: missing required field {key!r}")
        return default
    try:
        return conv(fields.pop(key))
    except ValueError as exc:
        raise CaseParseError(f"line {line_no}: bad value for {key!r}: {exc}") from exc


def load_case(text: str) -> GridCase:
    """Parse and validate a case document."""
    name = "unnamed"
    base_mva = None
    buses: list[Bus] = []
    branches: list[Branch] = []
    gens: list[Generator] = []
    loads: list[Load] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        rec, args = tokens[0], tokens[1:]
        try:
            if rec == "case":
                name = args[0] if args else "unnamed"
            elif rec == "base_mva":
                base_mva = float(args[0])
            elif rec == "bus":
                ident = int(args[0])
                f = _parse_fields(args[1:], line_no)
                kind = _get(f, "kind", line_no, conv=str).lower()
                if kind not in BUS_KINDS:
                    raise CaseParseError(f"line {line_no}: unknown bus kind {kind!r}")
                buses.append(Bus(
                    id=ident, kind=kind,
                    vm=_get(f, "vm", line_no, 1.0), va=_get(f, "va", line_no, 0.0),
                    v_min=_get(f, "vmin", line_no, 0.94), v_max=_get(f, "vmax", line_no, 1.06),
                    gs=_get(f, "gs", line_no, 0.0), bs=_get(f, "bs", line_no, 0.0)))
                _reject_unknown(f, line_no)
            elif rec == "branch":
                ident = int(args[0])
                f = _parse_fields(args[1:], line_no)
                branches.append(Branch(
                    id=ident,
                    from_bus=_get(f, "from", line_no, conv=int),
                    to_bus=_get(f, "to", line_no, conv=int),
                    r=_get(f, "r", line_no), x=_get(f, "x", line_no),
                    b=_get(f, "b", line_no, 0.0), tap=_get(f, "tap", line_no, 1.0),
                    shift=_get(f, "shift", line_no, 0.0),
                    rate_a=_get(f, "rate_a", line_no, 0.0),
                    status=_get(f, "status", line_no, "closed", conv=str)))
                _reject_unknown(f, line_no)
            elif rec == "gen":
                ident = int(args[0])
                f = _parse_fields(args[1:], line_no)
                gens.append(Generator(
                    id=ident, bus=_get(f, "bus", line_no, conv=int),
                    pg=_get(f, "pg", line_no, 0.0), qg=_get(f, "qg", line_no, 0.0),
                    p_min=_get(f, "pmin", line_no, 0.0), p_max=_get(f, "pmax", line_no, 0.0),
                    q_min=_get(f, "qmin", line_no, 0.0), q_max=_get(f, "qmax", line_no, 0.0),
                    v_set=_get(f, "vset", line_no, 1.0),
                    status=_get(f, "status", line_no, "on", conv=str),
                    cost_c2=_get(f, "c2", line_no, 0.0), cost_c1=_get(f, "c1", line_no, 0.0),
                    cost_c0=_get(f, "c0", line_no, 0.0)))
                _reject_unknown(f, line_no)
            elif rec == "load":
                ident = int(args[0])
                f = _parse_fields(args[1:], line_no)
                loads.append(Load(
                    id=ident, bus=_get(f, "bus", line_no, conv=int),
                    pd=_get(f, "pd", line_no), qd=_get(f, "qd", line_no),
                    group=_get(f, "group", line_no, "g1", conv=str),
                    style=_get(f, "style", line_no, "constant", conv=str)))
                _reject_unknown(f, line_no)
            else:
                raise CaseParseError(f"line {line_no}: unknown record type {rec!r}")
        except CaseParseError:
            raise
        except (GridModelError, ValueError, IndexError) as exc:
            raise CaseParseError(f"line {line_no}: {exc}") from exc

    if base_mva is None:
        raise CaseParseError("missing base_mva record")
    try:
        case = GridCase(name=name, base_mva=base_mva, buses=tuple(buses),
                        branches=tuple(branches), generators=tuple(gens),
                        loads=tuple(loads))
        require_slack_per_active_island(case)
    except GridModelError as exc:
        raise GridModelError(f"invalid case document: {exc}") from exc
    return case


def _reject_unknown(fields: dict[str, str], line_no: int) -> None:
    if fields:
        raise CaseParseError(f"line {line_no}: unknown field(s) {sorted(fields)}")


def serialize_case(case: GridCase) -> str:
    """Canonical text form; floats use repr so parsing round-trips exactly."""
    r = repr
    out = [f"case {case.name}", f"base_mva {r(case.base_mva)}", ""]
    for b in sorted(case.buses, key=lambda b: b.id):
        out.append(
            f"bus {b.id} kind={b.kind} vm={r(b.vm)} va={r(b.va)} "
            f"vmin={r(b.v_min)} vmax={r(b.v_max)} gs={r(b.gs)} bs={r(b.bs)}")
    out.append("")
    for br in sorted(case.branches, key=lambda b: b.id):
        out.append(
            f"branch {br.id} from={br.from_bus} to={br.to_bus} r={r(br.r)} x={r(br.x)} "
            f"b={r(br.b)} tap={r(br.tap)} shift={r(br.shift)} rate_a={r(br.rate_a)} "
            f"status={br.status}")
    out.append("")
    for g in sorted(case.generators, key=lambda g: g.id):
        out.append(
            f"gen {g.id} bus={g.bus} pg={r(g.pg)} qg={r(g.qg)} pmin={r(g.p_min)} "
            f"pmax={r(g.p_max)} qmin={r(g.q_min)} qmax={r(g.q_max)} vset={r(g.v_set)} "
            f"status={g.status} c2={r(g.cost_c2)} c1={r(g.cost_c1)} c0={r(g.cost_c0)}")
    out.append("")
    for l in sorted(case.loads, key=lambda l: l.id):
        out.append(
            f"load {l.id} bus={l.bus} pd={r(l.pd)} qd={r(l.qd)} group={l.group} style={l.style}")
    out.append("")
    return "\n".join(out)


def case_dir() -> str | None:
    """Directory holding case fixtures, overridable via GRIDBENCH_CASE_DIR."""
    return os.environ.get("GRIDBENCH_CASE_DIR")


def bundled_case(name: str) -> GridCase:
    """Load a bundled fixture (case14 | case30 | case57) or a file path.

    Lookup order: explicit path, GRIDBENCH_CASE_DIR, packaged fixtures.
    """
    if os.path.sep in name or name.endswith(".grid") or os.path.isfile(name):
        with open(name, "r", encoding="utf-8") as fh:
            return load_case(fh.read())
    env_dir = case_dir()
    if env_dir:
        candidate = os.path.join(env_dir, f"{name}.grid")
        if os.path.isfile(candidate):
            with open(candidate, "r", encoding="utf-8") as fh:
                return load_case(fh.read())
    ref = resources.files("gridbench").joinpath(f"cases/{name}.grid")
    if not ref.is_file():
        raise FileNotFoundError(f"no bundled case named {name!r}; have {BUNDLED_CASES}")
    return load_case(ref.read_text(encoding="utf-8"))
