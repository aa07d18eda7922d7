"""Each value, memo and product has one copy in `src/`.

A phase is the `Fraction` exponent mod 1, with no class of its own; a
truncated restriction is memoized once, in `_restrict_cache`, packed when it
is computed, so no second packed-restriction memo or packing pass comes back.
A GradeMap preserves the grading by construction, so no second state of
entries that join weights (`_stray`), no guard that refuses it
(`_require_graded`) and no query for it (`grade_violations`,
`is_grade_preserving`) comes back.
A weight is one integer formula over a label's flat indices per category,
`_weight_ints`, so no second, label-based weight path (`_weight_raw`) comes
back.
The self-test certifies a universal map's uniqueness by the top leg's rank
alone, so no sampled perturbation sweep (`_uniqueness_by_perturbation`) or
its entry count (`perturb_entries`) comes back.
A weight is memoized once, as a `WeightVec` in `_vec_cache`, and the vector
keeps its own `RatFunc` view, so no second memo of `RatFunc` weights
(`_weight_cache`) comes back.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "limfuse"
GONE = {"class Phase", "def _pack", "_packed_cache",
        "_stray", "def _require_graded", "def grade_violations", "def is_grade_preserving", "def _weight_raw",
        "def _uniqueness_by_perturbation", "perturb_entries", "_weight_cache"}


def second_copies(text: str) -> set[str]:
    """The names of GONE that one module's source defines, reads or takes as a parameter."""
    found = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.ClassDef):
            found.add(f"class {node.name}")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.add(f"def {node.name}")
        elif isinstance(node, (ast.Name, ast.Attribute)):
            found.add(node.id if isinstance(node, ast.Name) else node.attr)
        elif isinstance(node, ast.arg):
            found.add(node.arg)
    return found & GONE


def test_guard_sees_each_copy():
    text = ("class Phase:\n    pass\ndef _pack(alg):\n    return alg._packed_cache\ndef _packed_side(): pass\n"
            "def _require_graded(f):\n    return f._stray\ndef grade_violations(): pass\ndef is_grade_preserving(): pass\n"
            "class C:\n    def _weight_raw(self, x): pass\n"
            "def _uniqueness_by_perturbation(f, perturb_entries=8): pass\n"
            "def weight_of(cat, x):\n    return cat._weight_cache[x]\n")
    assert second_copies(text) == GONE
    assert second_copies("def _packed_side(alg):\n    return alg._restrict_cache\n") == set()


def test_no_second_copy_in_src():
    hits = {
        str(path.relative_to(SRC)): sorted(found)
        for path in sorted(SRC.rglob("*.py"))
        if (found := second_copies(path.read_text()))
    }
    assert hits == {}
