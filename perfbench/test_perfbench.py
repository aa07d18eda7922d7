"""Tests of the benchmark itself: layer coverage of the tracer, the
layer/workload design, exact repetition of per-layer counts, and that the
output checks reject wrong answers.

Run from the repository root: python3 -m pytest perfbench -q
"""

import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction as F

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# a short plan per workload; session-warm needs a dozen rounds for its
# bases to come round again
ROUNDS = {"cli-cold": 1, "session-warm": 12, "dirlim-systems": 1}
SEED = 5  # not the default seed


def small(name: str):
    """The workload planned as ROUNDS[name] rounds."""
    wl = type(workloads.WORKLOADS[name])()
    wl.rounds = ROUNDS[name]
    return wl


def traced_metrics(name: str, seed: int = SEED) -> dict:
    res = run.run_traced(small(name), seed)
    assert res["info"]["untraced_digest_equal"], "traced outputs differ from untraced ones"
    assert all(r.failed == 0 for r in res["streams"]), [p for r in res["streams"] for p in r.problems]
    return res["metrics"]


def exact_counts(metrics: dict) -> dict:
    units = dict(tracing.LAYER_METRICS)
    return {m: v for m, v in metrics.items() if units[m] != "s" and m != "trace.overhead_ratio"}


def test_benchmark_json_names_the_code_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == tracing.LAYER_METRICS


def test_wrappers_replace_every_binding():
    import limfuse.cli
    import limfuse.induction.fused as fused

    original = fused.locality
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.unwrapped_bindings() == []
        assert limfuse.cli.locality is not original
        assert fused.locality is limfuse.cli.locality
    finally:
        tracer.uninstall()
    assert fused.locality is original and limfuse.cli.locality is original


def _layer(metrics: dict, layer: str) -> dict:
    return {m: v for m, v in metrics.items() if m.startswith(layer + ".")}


def test_cli_cold_loads_exact_catdata_fusion_cli_and_never_dirlim():
    m = traced_metrics("cli-cold")
    assert not any(_layer(m, "dirlim").values())
    for name in ("exact.ratfunc_new", "exact.poly_gcd_calls", "catdata.weight_computed",
                 "fusion.monodromy_calls", "fusion.scan_calls", "cli.calls", "cli.out_bytes"):
        assert m[name] > 0, name
    assert m["induction.locality_repeat_ratio"] == 0


def test_session_warm_loads_induction_with_warm_caches_and_never_dirlim():
    m = traced_metrics("session-warm")
    assert not any(_layer(m, "dirlim").values())
    assert m["cli.calls"] == 0
    for name in ("induction.locality_calls", "induction.restrict_calls", "induction.oracle_calls",
                 "fusion.element_new", "catdata.fusion_calls"):
        assert m[name] > 0, name
    assert m["induction.locality_repeat_ratio"] > 0.5
    assert m["catdata.fusion_hit_ratio"] > 0.5


def test_dirlim_systems_loads_dirlim_only():
    m = traced_metrics("dirlim-systems")
    assert not any(_layer(m, "exact").values())
    assert not any(_layer(m, "catdata").values())
    assert m["cli.calls"] == 0 and m["induction.locality_calls"] == 0
    for name in ("dirlim.validate_calls", "dirlim.compose_calls", "dirlim.rref_calls",
                 "dirlim.rref_cells", "dirlim.maps_per_cover"):
        assert m[name] > 0, name


_COUNTS_SCRIPT = """
import json, sys
sys.path[:0] = [{here!r}, {src!r}]
import test_perfbench as t
print(json.dumps({{n: t.exact_counts(t.traced_metrics(n)) for n in t.ROUNDS}}))
"""


def test_counts_repeat_exactly_across_processes():
    script = _COUNTS_SCRIPT.format(here=HERE, src=os.path.join(ROOT, "src"))
    outs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=True)
        outs.append(json.loads(proc.stdout.splitlines()[-1]))
    assert outs[0] == outs[1]


def _cli_result(wl, op_kind: str):
    cli = wl.setup()
    op = next(op for op in wl.stream(SEED) if op.kind == op_kind)
    return op, wl.execute(cli, op)


@pytest.mark.parametrize("kind", ["weights", "locality", "monodromy", "min-weight", "center", "induce"])
def test_cli_checks_reject_a_changed_answer(kind):
    wl = workloads.WORKLOADS["cli-cold"]
    op, (rc, out) = _cli_result(wl, kind)
    assert wl.check(op, (rc, out)).problems == []
    lines = out.splitlines()
    fields = lines[0].split("\t")
    # change one field of the first row: the last field, or the first one
    # when the answer is a single label
    if len(fields) > 1:
        fields[-1] = "-" if fields[-1] != "-" else "1"
    else:
        fields[0] = "S(3,1)"
    bad = "\n".join(["\t".join(fields)] + lines[1:]) + "\n"
    assert wl.check(op, (rc, bad)).problems


def test_session_checks_reject_a_changed_answer():
    wl = workloads.WORKLOADS["session-warm"]
    ops = wl.stream(SEED)
    oracle_op = next(op for op in ops if op.kind == "oracle")
    frob_op = next(op for op in ops if op.kind == "frobenius")
    assert wl.check(oracle_op, False).problems
    wrong = 1 - int(frob_op.args[1] == frob_op.args[2])
    assert wl.check(frob_op, wrong).problems


def test_dirlim_check_rejects_a_wrong_universal_map():
    wl = workloads.WORKLOADS["dirlim-systems"]
    dl = wl.setup()
    op = next(op for op in wl.stream(SEED) if op.kind == "long")
    result = wl.execute(dl, op)
    assert wl.check(op, result).problems == []
    sys_, top, covers, lim, psis, f, kernels = result
    rows = [list(r) for r in f.matrix]
    rows[0][0] += 1
    bumped = dl.GradeMap(f.source, f.target, tuple(tuple(r) for r in rows))
    assert wl.check(op, (sys_, top, covers, lim, psis, bumped, kernels)).problems


def test_decks_give_every_seed_the_same_cost_setting_parameters():
    deck = workloads._Deck(random.Random(SEED))
    assert sorted(deck([1, 2, 2, 3]) for _ in range(4)) == [1, 2, 2, 3]
    for name in ("cli-cold", "session-warm", "dirlim-systems"):
        wl = workloads.WORKLOADS[name]
        plans = [run.plan(wl, seed) for seed in (1, SEED)]
        assert plans[0] != plans[1]
        assert sorted(op.kind for op in plans[0]) == sorted(op.kind for op in plans[1])
    cli = workloads.WORKLOADS["cli-cold"]
    weights = [sorted(op.args[0] for op in run.plan(cli, seed) if op.kind in ("weights", "center"))
               for seed in (1, SEED)]
    assert weights[0] == weights[1]


def test_runs_have_ten_operations_beyond_p90():
    for wl in workloads.WORKLOADS.values():
        assert wl.rounds * wl.round_len >= 100, wl.name


def test_printed_rational_functions_are_read_independently():
    num, den = oracle.parse_ratfunc("(3*s^2-6*s+3)/(8*s)", "s")
    assert (num, den) == ({2: 3, 1: -6, 0: 3}, {1: 8})
    sv = oracle.FAMILIES["supervir"]
    assert oracle.printed_equals("(3*s^2-6*s+3)/(8*s)", "s", lambda s: sv.weight((2, 2), s))
    assert not oracle.printed_equals("(3*s^2-6*s+3)/(4*s)", "s", lambda s: sv.weight((2, 2), s))
    assert oracle.constant_value("-3/4") == F(-3, 4)


def test_exits_nonzero_without_the_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli-cold", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
