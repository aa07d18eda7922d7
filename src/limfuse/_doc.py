"""The one reader of JSON documents.

`system_from_json`, `load_category` and `algebra_from_json` read their
documents through `field` and `expect` and refuse a malformed one in one of
two forms: ``<path>: missing key '<key>'`` or ``<path>: expected <what>,
got <value>``.  A path names a node from the root, keys after dots and list
positions in brackets: ``poset.elements[1]``, ``algebra.summand_rule[1].kind``,
``category.families[0].min_index``.  A direct-system document's root has the
empty path, printed as ``document``.  A bool never passes as an int.
"""

from __future__ import annotations

import reprlib
from typing import Any, NoReturn


def refuse(where: str, what: str, value: Any) -> NoReturn:
    raise ValueError(f"{where or 'document'}: expected {what}, got {reprlib.repr(value)}")


def expect(value: Any, where: str, kind: type | tuple[type, ...], what: str) -> Any:
    """`value` if it is a `kind` and not a bool, else refused as not `what`."""
    if not isinstance(value, kind) or isinstance(value, bool):
        refuse(where, what, value)
    return value


def field(doc: Any, key: str, where: str, kind: type | tuple[type, ...], what: str) -> Any:
    """`doc[key]`, read by `expect` at its own path; `doc`, at `where`, must
    be an object that has the key."""
    if key not in expect(doc, where, dict, "an object"):
        raise ValueError(f"{where or 'document'}: missing key {key!r}")
    return expect(doc[key], f"{where}.{key}" if where else key, kind, what)
