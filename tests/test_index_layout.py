"""A label's indices have one layout: the flat `indices` tuple.

`Pair.indices` concatenates the indices of the two factors, and the
algebra's `slots` follow the same order.  Outside `catdata/labels.py`, no
module in `src/` reads a pair factor's indices (`x.left.indices`,
`x.right.indices`), so a second, (factor, slot)-addressed layout cannot
come back beside the flat one.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "limfuse"
OWNER = SRC / "catdata" / "labels.py"


def factor_index_reads(text: str) -> list[str]:
    """`<expr>.left.indices` and `<expr>.right.indices` reads in one module's
    source, as "line: source"."""
    return [
        f"{node.lineno}: {ast.get_source_segment(text, node)}"
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Attribute)
        and node.attr == "indices"
        and isinstance(node.value, ast.Attribute)
        and node.value.attr in ("left", "right")
    ]


def test_guard_sees_a_factor_read():
    text = "top = max(*z.left.indices, *z.right.indices)\nflat = z.indices\n"
    assert factor_index_reads(text) == ["1: z.left.indices", "1: z.right.indices"]


def test_no_factor_index_reads_outside_labels():
    hits = {
        str(path.relative_to(SRC)): found
        for path in sorted(SRC.rglob("*.py"))
        if path != OWNER and (found := factor_index_reads(path.read_text()))
    }
    assert hits == {}
