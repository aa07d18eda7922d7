"""Seeded single-step mutations of valid JSON documents: each of the three
documented loaders, `system_from_json`, `algebra_from_json` and
`load_category`, either loads a mutated document or refuses it with a
ValueError, never another exception.  A loaded algebra or category has a
string name."""

import copy

import pytest

from limfuse.catdata.category import load_category
from limfuse.dirlim.randgen import random_system
from limfuse.dirlim.serialize import system_from_json, system_to_json
from limfuse.induction.algebra import algebra_from_json

# each value a mutation puts in place of a node or of the whole document
VALUES = [0, "x", "1/0", [], {}, None, True, 2.5]

CATEGORY = {"name": "pair", "base_parameter": "s",
            "families": ["virasoro-kp2", {"kind": "virasoro-t", "min_index": 1}]}
RULE = [{"kind": "virasoro-kp2", "indices": ["1", "r"]},
        {"kind": "virasoro-t", "indices": ["1", "r"]}]
ALGEBRAS = [
    {"base_category": "deligne(virasoro-kp2,virasoro-t)", "summand_rule": RULE},
    {"name": "custom", "base_category": CATEGORY, "summand_rule": RULE},
]
# random_system shapes: seeds 0 and 2 inclusion systems, 3 and 7 trees, 5 and 6 products
SYSTEM_SEEDS = [0, 2, 3, 5, 6, 7]


def _paths(node, path=()):
    """The path of every node of a JSON document, the root's `()` first."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, (*path, key))


DELETE = object()


def _changed(doc, path, value):
    """A copy of `doc` with the node at `path` set to `value`, or deleted
    when `value` is DELETE."""
    out = copy.deepcopy(doc)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return out


def mutations(doc):
    """(what, document) for every single step: a key or list entry deleted,
    or a node or the whole document replaced by one of VALUES."""
    yield from ((f"document = {value!r}", value) for value in VALUES)
    for path in list(_paths(doc))[1:]:
        for value in [*VALUES, DELETE]:
            yield f"{list(path)} {'deleted' if value is DELETE else f'= {value!r}'}", _changed(doc, path, value)


DOCUMENTS = [
    *(pytest.param(system_from_json, system_to_json(random_system(s)), id=f"system{s}") for s in SYSTEM_SEEDS),
    *(pytest.param(algebra_from_json, doc, id=f"algebra{k}") for k, doc in enumerate(ALGEBRAS)),
    pytest.param(load_category, CATEGORY, id="category"),
]


@pytest.mark.parametrize("loader, doc", DOCUMENTS)
def test_every_mutation_loads_or_raises_value_error(loader, doc):
    loader(copy.deepcopy(doc))  # the valid document loads
    refused, other = 0, []
    for what, mutated in mutations(doc):
        try:
            loaded = loader(mutated)
        except ValueError:
            refused += 1
        except Exception as e:  # noqa: BLE001 - any other type is the failure under test
            other.append(f"{what}: {type(e).__name__}: {e}")
        else:
            if loader is not system_from_json and not isinstance(loaded.name, str):
                other.append(f"{what}: loaded with name {loaded.name!r}")
    assert other == []
    assert refused
