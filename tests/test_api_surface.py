"""Every exported name earns its place in `src/`.

A name in the `__all__` of an engine package must be read somewhere in
`src/` outside its own definition, its imports and the `__all__` lists.  Code
that only the tests need lives under `tests/` (see `tests/oracles.py`).
Exempt are the names the acceptance gate imports, the names the benchmark
tracer wraps, and the few documented library entry points listed below.
Within each module, outside the package `__init__.py` files that re-export,
every imported name is read.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "limfuse"
PACKAGES = ("exact", "catdata", "fusion", "induction", "dirlim")

# documented entry points of the library that nothing in src/ calls
ENTRY_POINTS = {
    "algebra_from_json": "builds an algebra object from a JSON document (README, library use)",
    "load_category": "builds a category from a JSON document (README, library use)",
    "system_from_json": "reads a direct system from its JSON form (README, library use)",
    "system_to_json": "writes a direct system in its JSON form (README, library use)",
}


def _acceptance_imports() -> set[str]:
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("limfuse")
        for alias in node.names
    }


def _traced_names() -> set[str]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {attr for _, attr, *_ in module.plan()}


def _reads() -> set[str]:
    """Identifiers read in src/, as a name or an attribute, outside the
    top-level definition of that identifier; imports and `__all__` lists
    hold aliases and strings, not reads."""
    reads = set()
    for path in SRC.rglob("*.py"):
        for top in ast.parse(path.read_text()).body:
            own = getattr(top, "name", None)  # set on function and class definitions
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name is not None and name != own:
                    reads.add(name)
    return reads


def test_every_export_is_read_in_src():
    exports = {(pkg, name) for pkg in PACKAGES for name in importlib.import_module(f"limfuse.{pkg}").__all__}
    assert set(ENTRY_POINTS) <= {name for _, name in exports}
    exempt = _acceptance_imports() | _traced_names() | set(ENTRY_POINTS) | _reads()
    assert sorted(f"limfuse.{pkg}.{name}" for pkg, name in exports if name not in exempt) == []


def _unread_imports(text: str) -> list[str]:
    """Names a module's imports bind (the first part of a dotted `import`)
    that no expression in it reads; `__future__` imports bind nothing."""
    tree = ast.parse(text)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    bound = {(alias.asname or alias.name).split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
             for alias in node.names}
    return sorted(bound - read)


def test_every_import_is_read():
    assert _unread_imports("from __future__ import annotations\nimport os.path\nfrom a import b as c, d\nd()\n") \
        == ["c", "os"]
    unread = {
        str(path.relative_to(SRC)): names
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py" and (names := _unread_imports(path.read_text()))
    }
    assert unread == {}
