"""Case document format: parse, serialize, bundled fixtures.

A case document is UTF-8 line-oriented text, one record per line::

    case <name>
    base_mva <number>
    <record type> <id> <key>=<value> ...

``RECORDS`` defines the format: for each record type (``bus``, ``branch``,
``gen``, ``load``) it names the record class and maps each document key to
that class's field, in the order ``serialize_case`` writes them. A key is
required exactly when its field has no default; an omitted key takes the
field's default; a key appears at most once per record. Numbers must be
finite, and text values (the case name, load groups) are single tokens
without ``#``. Blank lines and ``#`` comments are ignored. Fields mirror
the standard bus/branch/generator tables, so published test cases convert
mechanically. Floats are written in their shortest round-tripping form, so
load(serialize(case)) == case.
"""

from __future__ import annotations

import math
import os
from dataclasses import MISSING, fields
from importlib import resources
from pathlib import Path

from .model import (
    Branch,
    Bus,
    Generator,
    GridCase,
    GridModelError,
    Load,
    require_slack_per_active_island,
)

BUNDLED_CASES = ("case14", "case30", "case57")

# record type -> (record class, GridCase field holding the records,
#                 {document key: record field} in document order)
RECORDS = {
    "bus": (Bus, "buses", {
        "kind": "kind", "vm": "vm", "va": "va", "vmin": "v_min", "vmax": "v_max",
        "gs": "gs", "bs": "bs"}),
    "branch": (Branch, "branches", {
        "from": "from_bus", "to": "to_bus", "r": "r", "x": "x", "b": "b", "tap": "tap",
        "shift": "shift", "rate_a": "rate_a", "status": "status"}),
    "gen": (Generator, "generators", {
        "bus": "bus", "pg": "pg", "qg": "qg", "pmin": "p_min", "pmax": "p_max",
        "qmin": "q_min", "qmax": "q_max", "vset": "v_set", "status": "status",
        "c2": "cost_c2", "c1": "cost_c1", "c0": "cost_c0"}),
    "load": (Load, "loads", {
        "bus": "bus", "pd": "pd", "qd": "qd", "group": "group", "style": "style"}),
}


class CaseParseError(ValueError):
    """Malformed case document; message carries line and field context."""


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


# keyed by field annotation, a string because model.py postpones annotations
_CONVERTERS = {"int": int, "float": _finite, "str": str}
# record type -> {document key: (record field, converter, required)}
_KEYS = {rec: {key: (f.name, _CONVERTERS[f.type], f.default is MISSING)
               for key, name in keys.items() for f in fields(cls) if f.name == name}
         for rec, (cls, _, keys) in RECORDS.items()}


def _convert(conv, key: str, text: str, line_no: int):
    try:
        return conv(text)
    except ValueError as exc:
        raise CaseParseError(f"line {line_no}: bad value for {key!r}: {exc}") from exc


def _parse_record(rec: str, args: list[str], line_no: int):
    keys = _KEYS[rec]
    values = {"id": _convert(int, "id", args[0], line_no)}
    for tok in args[1:]:
        key, eq, text = tok.partition("=")
        if not eq:
            raise CaseParseError(f"line {line_no}: expected key=value, got {tok!r}")
        if key not in keys:
            raise CaseParseError(f"line {line_no}: unknown field {key!r}")
        name, conv, _ = keys[key]
        if name in values:
            raise CaseParseError(f"line {line_no}: repeated field {key!r}")
        values[name] = _convert(conv, key, text, line_no)
    for key, (name, _, required) in keys.items():
        if required and name not in values:
            raise CaseParseError(f"line {line_no}: missing required field {key!r}")
    return RECORDS[rec][0](**values)


def load_case(text: str) -> GridCase:
    """Parse and validate a case document."""
    name = "unnamed"
    base_mva = None
    records: dict[str, list] = {rec: [] for rec in RECORDS}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        rec, *args = line.split()
        if rec in ("case", "base_mva") and len(args) > 1:
            raise CaseParseError(f"line {line_no}: {rec!r} takes one value, got {len(args)}")
        try:
            if rec == "case":
                name = args[0] if args else "unnamed"
            elif rec == "base_mva":
                base_mva = _convert(_finite, "base_mva", args[0], line_no)
            elif rec in RECORDS:
                records[rec].append(_parse_record(rec, args, line_no))
            else:
                raise CaseParseError(f"line {line_no}: unknown record type {rec!r}")
        except (GridModelError, IndexError) as exc:
            raise CaseParseError(f"line {line_no}: {exc}") from exc

    if base_mva is None:
        raise CaseParseError("missing base_mva record")
    try:
        case = GridCase(name=name, base_mva=base_mva,
                        **{RECORDS[rec][1]: tuple(items) for rec, items in records.items()})
        require_slack_per_active_island(case)
    except GridModelError as exc:
        raise GridModelError(f"invalid case document: {exc}") from exc
    return case


def _check_label(text: str, what: str) -> None:
    """A text value is written as one token that must not start a comment."""
    if not text or "#" in text or any(c.isspace() for c in text):
        raise ValueError(f"{what} {text!r} cannot be written to a case document: "
                         "it must be non-empty, with no whitespace or '#'")


def serialize_case(case: GridCase) -> str:
    """Canonical text form; floats use their shortest round-tripping form.

    Raises ValueError, naming the record, if the case name or a text field
    such as a load group is empty or holds whitespace or ``#``: the document
    would read it back as something else or not at all.
    """
    _check_label(case.name, "case name")
    out = [f"case {case.name}", f"base_mva {case.base_mva}", ""]
    for rec, (_, attr, keys) in RECORDS.items():
        for item in sorted(getattr(case, attr), key=lambda item: item.id):
            tokens = [rec, str(item.id)]
            for key, name in keys.items():
                value = getattr(item, name)
                if isinstance(value, str):
                    _check_label(value, f"{rec} {item.id} {key}")
                tokens.append(f"{key}={value}")
            out.append(" ".join(tokens))
        out.append("")
    return "\n".join(out)


def bundled_case(name: str) -> GridCase:
    """Load a bundled fixture (case14 | case30 | case57) or a file path.

    Lookup order: explicit path, GRIDBENCH_CASE_DIR, packaged fixtures.
    """
    env_dir = os.environ.get("GRIDBENCH_CASE_DIR")
    if os.path.sep in name or name.endswith(".grid") or os.path.isfile(name):
        path = Path(name)
    elif env_dir and (Path(env_dir) / f"{name}.grid").is_file():
        path = Path(env_dir) / f"{name}.grid"
    else:
        path = resources.files("gridbench").joinpath(f"cases/{name}.grid")
        if not path.is_file():
            raise FileNotFoundError(f"no bundled case named {name!r}; have {BUNDLED_CASES}")
    return load_case(path.read_text(encoding="utf-8"))
