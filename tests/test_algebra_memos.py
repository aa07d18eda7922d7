"""Every per-algebra memo of the induction layer is declared in
`AlgebraObject.__init__`.

The induction modules read their memos as plain attributes of the algebra
(`alg._locality_cache`, ...).  None grows one on first use through
`alg.__dict__.setdefault`, so the memos stay listed in one place and a warm
lookup pays no dict allocation.
"""

import ast
from pathlib import Path

from limfuse.induction import algebra_from_json, svir_extension

INDUCTION = Path(__file__).resolve().parents[1] / "src" / "limfuse" / "induction"


def private_algebra_reads(text: str) -> set[str]:
    """Names of the private attributes read from `alg` in one module."""
    return {
        node.attr
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "alg"
        and node.attr.startswith("_")
    }


def test_guard_sees_a_private_read():
    assert private_algebra_reads("hit = alg._slice_cache.get(base)\nalg.slots\nx._y\n") == {"_slice_cache"}


def test_no_memo_grown_on_first_use():
    hits = [path.name for path in sorted(INDUCTION.glob("*.py")) if "__dict__.setdefault" in path.read_text()]
    assert hits == []


def test_every_memo_read_is_declared():
    reads = set().union(*(private_algebra_reads(path.read_text()) for path in INDUCTION.glob("*.py")))
    assert {"_locality_cache", "_slice_cache", "_restrict_cache", "_induced_fusion_cache"} <= reads
    custom = algebra_from_json({
        "base_category": "deligne(virasoro-kp2,virasoro-t)",
        "summand_rule": [
            {"kind": "virasoro-kp2", "indices": ["1", "r"]},
            {"kind": "virasoro-t", "indices": ["1", "r"]},
        ],
    })
    for alg in (svir_extension(), custom):
        assert {name for name in reads if not hasattr(alg, name)} == set()
