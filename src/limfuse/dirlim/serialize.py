"""JSON round-trip for direct systems.

Schema::

    {"poset": {"elements": [...], "leq": [[i, j], ...]},
     "spaces": {id: [[basis_id, weight_string], ...], ...},
     "maps": {"i<=j": [[entry_string, ...], ...], ...}}

Weights and matrix entries are canonical rational strings like "-3/4";
reflexive identity maps are omitted.  `system_to_json` writes the map of
every strict pair; `system_from_json` needs the cover maps and takes any
other map as a claim that validation checks.  A map whose matrix joins
distinct weights is no GradeMap: the reader refuses it at its key.
"""

from __future__ import annotations

from typing import Any

from limfuse._doc import expect, field, refuse
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


def _two(entry: Any, where: str) -> tuple:
    if not isinstance(entry, (list, tuple)) or len(entry) != 2:
        refuse(where, "a pair", entry)
    return tuple(entry)


def _unique(names: tuple, where: str, what: str) -> None:
    """Refuse the first name listed twice, at `where[k]`."""
    if len(set(names)) != len(names):
        k = next(k for k, name in enumerate(names) if name in names[:k])
        refuse(f"{where}[{k}]", what, names[k])


def _rat(text: Any, where: str):
    try:
        if isinstance(text, str):
            return parse_rat(text)
    except (ValueError, ZeroDivisionError):  # no rational, or a zero denominator
        pass
    refuse(where, 'a rational string like "-3/4"', text)


def _matrix(rows: Any, where: str, height: int, width: int) -> tuple:
    """The matrix at `where`: `height` rows of `width` rational strings."""
    if len(expect(rows, where, list, "list")) != height:
        refuse(where, f"a list of {height} rows", rows)
    for r, row in enumerate(rows):
        if len(expect(row, f"{where}[{r}]", list, "list")) != width:
            refuse(f"{where}[{r}]", f"a list of {width} entries", row)
    return tuple(tuple(_rat(v, f"{where}[{r}]") for v in row) for r, row in enumerate(rows))


def system_from_json(doc: dict[str, Any]) -> DirectSystem:
    """Read the schema above.  A malformed document is refused by the reader
    in `limfuse._doc`, with the path of the node at fault:
    `maps.1<=2[0]: expected list, got '10'`."""
    pdoc = field(doc, "poset", "", dict, "an object")
    leq = field(pdoc, "leq", "poset", list, "list")
    elements = tuple(expect(e, f"poset.elements[{k}]", str, "a string")
                     for k, e in enumerate(field(pdoc, "elements", "poset", list, "list")))
    _unique(elements, "poset.elements", "an element not listed before")
    for k, pair in enumerate(leq):
        if not all(expect(e, f"poset.leq[{k}]", str, "a string") in elements for e in _two(pair, f"poset.leq[{k}]")):
            refuse(f"poset.leq[{k}]", "a pair of poset elements", pair)
    poset = DirectedPoset(elements, frozenset(map(tuple, leq)))
    spaces = {}
    for e, basis in field(doc, "spaces", "", dict, "an object").items():
        where = f"spaces.{e}"
        entries = [_two(entry, f"{where}[{k}]") for k, entry in enumerate(expect(basis, where, list, "list"))]
        _unique(tuple(expect(bid, f"{where}[{k}]", str, "a string") for k, (bid, _) in enumerate(entries)),
                where, "a basis id not used before")
        spaces[e] = GradedSpace(tuple((bid, _rat(w, f"{where}[{k}]")) for k, (bid, w) in enumerate(entries)))
    maps = {}
    for key, rows in field(doc, "maps", "", dict, "an object").items():
        pair = key.split("<=")
        if len(pair) != 2 or not all(e in spaces for e in pair):
            refuse("maps", "keys i<=j over elements with spaces", key)
        i, j = pair
        matrix = _matrix(rows, f"maps.{key}", spaces[j].dim, spaces[i].dim)
        try:
            maps[(i, j)] = GradeMap(spaces[i], spaces[j], matrix)
        except ValueError:  # an entry joins distinct weights, named in the context
            refuse(f"maps.{key}", "a matrix that preserves the grading", rows)
    return DirectSystem(poset, spaces, maps)
