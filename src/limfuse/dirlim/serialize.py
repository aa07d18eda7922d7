"""JSON round-trip for direct systems.

Schema::

    {"poset": {"elements": [...], "leq": [[i, j], ...]},
     "spaces": {id: [[basis_id, weight_string], ...], ...},
     "maps": {"i<=j": [[entry_string, ...], ...], ...}}

Weights and matrix entries are canonical rational strings like "-3/4";
reflexive identity maps are omitted.  `system_to_json` writes the map of
every strict pair; `system_from_json` needs the cover maps and takes any
other map as a claim that validation checks.
"""

from __future__ import annotations

from typing import Any

from limfuse.exact.ratfunc import format_rat, parse_rat
from limfuse.dirlim.graded import GradedSpace, GradeMap
from limfuse.dirlim.poset import DirectedPoset
from limfuse.dirlim.system import DirectSystem


def system_to_json(sys: DirectSystem) -> dict[str, Any]:
    return {
        "poset": {
            "elements": list(sys.poset.elements),
            "leq": sorted([i, j] for i, j in sys.poset.leq),
        },
        "spaces": {
            e: [[bid, format_rat(w)] for bid, w in sys.spaces[e].basis]
            for e in sys.poset.elements
        },
        "maps": {
            f"{i}<={j}": [[format_rat(v) for v in row] for row in m.matrix]
            for (i, j), m in sorted(sys.maps.items())
            if i != j
        },
    }


def _field(doc: Any, key: str, where: str, kind: type) -> Any:
    """doc[key] of type `kind`, or a ValueError that names `where` and the key."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: expected an object, got {type(doc).__name__}")
    if key not in doc:
        raise ValueError(f"{where}: missing key {key!r}")
    if not isinstance(doc[key], kind):
        raise ValueError(f"{where}.{key}: expected {kind.__name__}, got {doc[key]!r}")
    return doc[key]


def _two(entry: Any, where: str) -> tuple:
    if not isinstance(entry, (list, tuple)) or len(entry) != 2:
        raise ValueError(f"{where}: expected a pair, got {entry!r}")
    return tuple(entry)


def _list(value: Any, where: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{where}: expected list, got {value!r}")
    return value


def _name(text: Any, where: str) -> str:
    if not isinstance(text, str):
        raise ValueError(f"{where}: expected a string, got {text!r}")
    return text


def _rat(text: Any, where: str):
    try:
        if isinstance(text, str):
            return parse_rat(text)
    except (ValueError, ZeroDivisionError):  # no rational, or a zero denominator
        pass
    raise ValueError(f"{where}: expected a rational string like \"-3/4\", got {text!r}")


def system_from_json(doc: dict[str, Any]) -> DirectSystem:
    """Read the schema above.  A document or "poset" that is not an object,
    a missing top-level or poset key, a basis or map that is not a list, a
    leq or basis entry that is not a pair, an element, leq entry or basis id
    that is not a string, a map row that is not a list and a weight or entry
    that is not a rational string (a zero denominator included) are refused
    with a ValueError that names the key or path."""
    pdoc = _field(doc, "poset", "document", dict)
    leq = _field(pdoc, "leq", "poset", list)
    elements = _field(pdoc, "elements", "poset", list)
    poset = DirectedPoset(
        tuple(_name(e, f"poset.elements[{k}]") for k, e in enumerate(elements)),
        frozenset(tuple(_name(e, f"poset.leq[{k}]") for e in _two(pair, f"poset.leq[{k}]"))
                  for k, pair in enumerate(leq)),
    )
    spaces = {}
    sdoc = _field(doc, "spaces", "document", dict)
    for e in sdoc:
        where = f"spaces.{e}"
        entries = [_two(entry, f"{where}[{k}]") for k, entry in enumerate(_field(sdoc, e, "spaces", list))]
        spaces[e] = GradedSpace(tuple((_name(bid, f"{where}[{k}]"), _rat(w, f"{where}[{k}]"))
                                      for k, (bid, w) in enumerate(entries)))
    maps = {}
    mdoc = _field(doc, "maps", "document", dict)
    for key in mdoc:
        pair = key.split("<=")
        if len(pair) != 2 or not all(e in spaces for e in pair):
            raise ValueError(f"map key {key!r} is not i<=j over elements with spaces")
        i, j = pair
        rows = _field(mdoc, key, "maps", list)
        maps[(i, j)] = GradeMap(
            spaces[i],
            spaces[j],
            tuple(tuple(_rat(v, f"maps.{key}[{r}]") for v in _list(row, f"maps.{key}[{r}]"))
                  for r, row in enumerate(rows)),
        )
    return DirectSystem(poset, spaces, maps)
