"""The benchmark tracer wraps engine functions by name: every name it plans
to wrap must exist, so a refactor cannot silently break `--trace 1`."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_planned_attribute_exists():
    plan = _load_tracing().plan()
    assert len(plan) >= 50
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in plan
        if not hasattr(owner, attr)
    ]
    assert missing == []
