"""Seeded single-step mutations of valid JSON documents: each of the three
documented loaders, `system_from_json`, `algebra_from_json` and
`load_category`, either loads a mutated document or refuses it with a
ValueError, never another exception.  A loaded algebra or category has a
string name.  Every refusal, of a deleted key or list entry, of a replaced
object or list and of a replaced leaf alike, is the one reader's in
`limfuse._doc` and names a node of the mutated document."""

import ast
import copy
import re
import reprlib
from pathlib import Path

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


# the required keys: deleting one is refused as missing at its parent's path
REQUIRED = {"poset", "spaces", "maps", "elements", "leq", "summand_rule", "base_category", "kind", "indices",
            "families"}
ROOTS = {system_from_json: "", algebra_from_json: "algebra", load_category: "category"}


def _where(root, path):
    """The reader's path of the node at `path` below a root named `root`;
    the empty root of a direct-system document prints as `document`."""
    out = root
    for key in path:
        out = f"{out}[{key}]" if isinstance(key, int) else f"{out}.{key}" if out else key
    return out or "document"


def _refusal(loader, doc):
    try:
        loader(doc)
    except ValueError as e:
        return str(e)
    return None


@pytest.mark.parametrize("loader, doc", DOCUMENTS)
def test_deleted_required_key_is_named_at_its_parent(loader, doc):
    checked = 0
    for path in list(_paths(doc))[1:]:
        if path[-1] in REQUIRED:
            checked += 1
            got = _refusal(loader, _changed(doc, path, DELETE))
            assert got == f"{_where(ROOTS[loader], path[:-1])}: missing key {path[-1]!r}", path
    assert checked


@pytest.mark.parametrize("loader, doc", DOCUMENTS)
def test_replaced_object_or_list_is_named_at_its_path(loader, doc):
    for path in _paths(doc):
        node = doc
        for key in path:
            node = node[key]
        if not isinstance(node, (dict, list)):
            continue
        for value in (0, None, True, 2.5):
            got = _refusal(loader, value if path == () else _changed(doc, path, value))
            assert got is not None and got.startswith(f"{_where(ROOTS[loader], path)}: expected"), (path, value, got)


# the reader's two forms, `<path>: expected <what>, got <value>` and
# `<path>: missing key '<key>'`
READER_FORM = re.compile(r"(?P<where>[^:]*): (expected .+, got .+|missing key '.+')", re.S)


@pytest.mark.parametrize("loader, doc", DOCUMENTS)
def test_every_refusal_names_a_node_of_the_mutated_document(loader, doc):
    # a leaf the loaders cannot use (an index expression, a category name, a
    # relation's element, a matrix of the wrong shape) is refused where it sits
    wrong, refused = [], 0
    for what, mutated in mutations(doc):
        if (got := _refusal(loader, mutated)) is None:
            continue
        refused += 1
        nodes = {_where(ROOTS[loader], path) for path in _paths(mutated)}
        if not ((m := READER_FORM.fullmatch(got)) and m["where"] in nodes):
            wrong.append(f"{what}: {got}")
    assert wrong == []
    assert refused


def test_repeated_poset_element_is_named():
    doc = system_to_json(random_system(SYSTEM_SEEDS[0]))
    elements = doc["poset"]["elements"]
    elements[2] = elements[0]
    assert _refusal(system_from_json, doc) == (
        f"poset.elements[2]: expected an element not listed before, got {elements[0]!r}")


@pytest.mark.parametrize("element", ["a", "S3"])
def test_repeated_basis_id_is_named(element):
    doc = system_to_json(random_system(SYSTEM_SEEDS[0]))
    doc["spaces"][element] = [["x", "0"], ["y", "1/2"], ["x", "1"]]
    assert _refusal(system_from_json, doc) == f"spaces.{element}[2]: expected a basis id not used before, got 'x'"


@pytest.mark.parametrize("entry", ["5", "-3/4"])
def test_map_joining_weights_is_named(entry):
    # S1 has weight 2, S3 weights 1 and 2: entry (0, 0) would send weight 2 to weight 1
    doc = system_to_json(random_system(SYSTEM_SEEDS[0]))
    assert doc["maps"]["S1<=S3"] == [["0"], ["1"]]
    doc["maps"]["S1<=S3"][0][0] = entry
    assert _refusal(system_from_json, doc) == (
        f"maps.S1<=S3: expected a matrix that preserves the grading, got [['{entry}'], ['1']]")


def test_summand_rule_without_a_growing_index_is_named():
    rule = [{"kind": "virasoro-kp2", "indices": ["1", "1"]}, {"kind": "virasoro-t", "indices": ["1", "1"]}]
    doc = {"base_category": "deligne(virasoro-kp2,virasoro-t)", "summand_rule": rule}
    assert _refusal(algebra_from_json, doc) == (
        f"algebra.summand_rule: expected a rule with an index that grows with r, got {reprlib.repr(rule)}")


def test_only_the_reader_refuses_a_missing_key():
    # the helpers of the three old dialects stay gone
    src = Path(__file__).resolve().parents[1] / "src" / "limfuse"
    offenders = []
    for path in sorted(src.rglob("*.py")):
        if path == src / "_doc.py":
            continue
        text = path.read_text()
        defined = {node.name for node in ast.walk(ast.parse(text)) if isinstance(node, ast.FunctionDef)}
        found = sorted(defined & {"_field", "_key", "_list", "_name"}) + ["missing key"] * ("missing key" in text)
        offenders += [f"{path.relative_to(src)}: {what}" for what in found]
    assert offenders == []
