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


def system_from_json(doc: dict[str, Any]) -> DirectSystem:
    poset = DirectedPoset(
        tuple(doc["poset"]["elements"]),
        frozenset((i, j) for i, j in doc["poset"]["leq"]),
    )
    spaces = {
        e: GradedSpace(tuple((bid, parse_rat(w)) for bid, w in basis))
        for e, basis in doc["spaces"].items()
    }
    maps = {}
    for key, rows in doc["maps"].items():
        pair = key.split("<=")
        if len(pair) != 2 or not all(e in spaces for e in pair):
            raise ValueError(f"map key {key!r} is not i<=j over elements with spaces")
        i, j = pair
        maps[(i, j)] = GradeMap(
            spaces[i],
            spaces[j],
            tuple(tuple(parse_rat(v) for v in row) for row in rows),
        )
    return DirectSystem(poset, spaces, maps)
