"""Run one limfuse benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 40 --trace 0

Workloads: cli-cold, session-warm, dirlim-systems, or `all` to run the three
in turn, each in its own process. The loop is closed: one client, one
operation at a time, one process, no threads. The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.

Each run executes a fixed list of operations planned from the seed: the
workload's `rounds` whole rounds of its stream, so parent and change run
identical work whatever the host's speed. The list is run in passes, again
and again until --seconds have passed (at least MIN_PASSES times), and each
operation keeps its best wall and CPU time. Passes take the CPUs the
process may use in turn. On a shared host where each CPU slows by 1.5x for
seconds to minutes at a time, the best of the twenty or more passes of a
run is each operation's time in the host's fast periods.
Outputs are checked after every timed call and must not change between
passes.

--trace 0 measures the end-to-end metrics:
  setup_s      median wall time of SETUP_PROBES fresh processes, spread over
               the run's time, that start the interpreter, import limfuse
               and build the workload's categories and algebras
  ops_per_s    operations over the sum of their best latencies
  op_p50_ms    median of the operations' best latencies
  op_p90_ms    90th percentile of the operations' best latencies
  cpu_s        process CPU seconds (self plus children) per operation, best
               of the passes for each operation
  peak_rss_mb  peak resident memory of this process
and prints error_rate (failed over attempted) beside them.

--trace 1 runs the same operations once untraced and once traced, each
from a fresh set-up, alternating the two in TRACE_CHUNKS chunks, and reports
the per-layer metrics of perfbench/tracing.py, with the traced wall time
over the untraced one as trace.overhead_ratio. Spans are written to
.perfbench/.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")
SETUP_PROBES = 11
MIN_PASSES = 3
TRACE_CHUNKS = 10
END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
]


def calibrate() -> float:
    """Host-speed reading: median seconds of a fixed pure-Python loop."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for k in range(1, 100_000):
            acc = (acc + k * k) % 1_000_003
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def plan(wl, seed: int) -> list:
    """The run's operations: the workload's `rounds` whole rounds of the
    seeded stream. The same seed gives the same operations on every commit."""
    return list(itertools.islice(wl.stream(seed), wl.rounds * wl.round_len))


def probe_setup(workload: str) -> float:
    """Wall time of one fresh process that imports limfuse and builds the
    workload's categories and algebras."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, os.path.join(HERE, "probe.py"), workload], check=True)
    return time.perf_counter() - t0


def _cpu_now() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Stream:
    """One set-up and the planned operations. Runs passes over them, checks
    every output after its timer stops, and keeps each operation's best
    wall and CPU time over the passes."""

    def __init__(self, wl, ops: list, tracer=None):
        self.wl = wl
        self.ops = ops
        self.ctx = wl.setup()
        self.tracer = tracer
        self.best_wall = [float("inf")] * len(ops)
        self.best_cpu = [float("inf")] * len(ops)
        self.canonical: list = [None] * len(ops)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_pass(self, before=None) -> float:
        """One pass over the operations; returns its time inside limfuse.
        `before(k)` runs ahead of operation k, outside every timer."""
        total = 0.0
        for k in range(len(self.ops)):
            if before is not None:
                before(k)
            total += self.step(k)
        return total

    def step(self, k: int) -> float:
        """Run and check operation k; returns its wall time."""
        op, tr = self.ops[k], self.tracer
        if tr is not None:
            tr.begin_op(op.kind)
        c0 = _cpu_now()
        t0 = time.perf_counter()
        try:
            result, error = self.wl.execute(self.ctx, op), None
        except Exception as e:  # an operation that raises counts as failed
            result, error = None, e
        t1 = time.perf_counter()
        c1 = _cpu_now()
        if tr is not None:
            tr.end_op()
        self.best_wall[k] = min(self.best_wall[k], t1 - t0)
        self.best_cpu[k] = min(self.best_cpu[k], c1 - c0)
        self._check(k, op, result, error)
        return t1 - t0

    def _check(self, k: int, op, result, error):
        self.attempted += 1
        if error is not None:
            problems, canonical = [f"raised {error!r}"], f"error {type(error).__name__}"
        else:
            try:
                checked = self.wl.check(op, result)
                problems, canonical = checked.problems, checked.canonical
                if self.tracer is not None:
                    self.tracer.add_counts(checked.counts)
            except Exception as e:
                problems, canonical = [f"check raised {e!r}"], ""
        if self.canonical[k] is None:
            self.canonical[k] = canonical
        elif self.canonical[k] != canonical:
            problems = problems + ["output changed between repetitions"]
        if problems:
            self.failed += 1
            self.problems.append(f"operation {k} ({op.kind}): {problems[0]}")

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.canonical).encode()).hexdigest()


def run_untraced(wl, seed: int, seconds: float) -> dict:
    calib_start = calibrate()
    ops = plan(wl, seed)
    stream = Stream(wl, ops)
    setups: list[float] = []
    t_start = time.perf_counter()

    def before(k):
        # set-up probes spread over the run's time, so host-speed swings
        # hit them as they hit the operations
        if len(setups) < SETUP_PROBES and time.perf_counter() - t_start >= len(setups) * seconds / SETUP_PROBES:
            setups.append(probe_setup(wl.name))

    # passes take the allowed CPUs in turn: on a shared host one CPU can be
    # slow for a whole run while another is not
    cpus = sorted(os.sched_getaffinity(0))
    passes, longest = 0, 0.0
    try:
        while passes < MIN_PASSES or time.perf_counter() - t_start + longest <= seconds:
            os.sched_setaffinity(0, {cpus[passes % len(cpus)]})
            p0 = time.perf_counter()
            stream.run_pass(before)
            longest = max(longest, time.perf_counter() - p0)
            passes += 1
    finally:
        os.sched_setaffinity(0, cpus)
    while len(setups) < SETUP_PROBES:
        setups.append(probe_setup(wl.name))
    lat = stream.best_wall
    p90 = statistics.quantiles(lat, n=10)[8]
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1000,
        "op_p90_ms": p90 * 1000,
        "cpu_s": sum(stream.best_cpu) / len(lat),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {
        "streams": [stream],
        "metrics": metrics,
        "info": {
            "operations": len(lat),
            "passes": passes,
            "beyond_p90": sum(1 for x in lat if x > p90),
            "digest": stream.digest(),
            "calibration_start_s": calib_start,
            "calibration_end_s": calibrate(),
        },
    }


def run_traced(wl, seed: int) -> dict:
    """The run's operations once untraced and once traced, each stream from
    its own fresh set-up, so per-layer counts repeat exactly for one seed.
    The two streams alternate in chunks so that host-speed swings hit both
    alike in the overhead ratio."""
    from tracing import Tracer

    ops = plan(wl, seed)
    tracer = Tracer()
    plain, traced = Stream(wl, ops), Stream(wl, ops, tracer)
    plain_wall = traced_wall = 0.0
    chunk = -(-len(ops) // TRACE_CHUNKS)
    for start in range(0, len(ops), chunk):
        part = range(start, min(start + chunk, len(ops)))
        plain_wall += sum(plain.step(k) for k in part)
        tracer.install()
        try:
            traced_wall += sum(traced.step(k) for k in part)
        finally:
            tracer.uninstall()
    tracer.overhead_ratio = traced_wall / plain_wall
    os.makedirs(".perfbench", exist_ok=True)
    spans_path = os.path.join(".perfbench", f"spans-{wl.name}-{seed}.json")
    tracer.write_spans(spans_path)
    return {
        "streams": [plain, traced],
        "metrics": tracer.metrics(),
        "info": {
            "operations": len(ops),
            "digest": traced.digest(),
            "untraced_digest_equal": plain.digest() == traced.digest(),
            "untraced_wall_s": plain_wall,
            "traced_wall_s": traced_wall,
            "spans_file": spans_path,
        },
    }


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "VTC_THREADS": os.environ.get("VTC_THREADS", "unset"),
    }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    from tracing import LAYER_METRICS

    wl = workloads.WORKLOADS[name]
    if trace:
        res = run_traced(wl, seed)
        runs = res["streams"]
        units = dict(LAYER_METRICS)
        correct = res["info"]["untraced_digest_equal"]
    else:
        res = run_untraced(wl, seed, seconds)
        runs = res["streams"]
        units = dict(END_TO_END)
        correct = True
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    print(f"workload {name} seed {seed} trace {int(trace)} {json.dumps(environment())}")
    for metric, value in res["metrics"].items():
        print(f"  {metric} {value:.6g} {units[metric]}")
    print(f"  error_rate {failed / attempted:.6g} ratio ({failed} of {attempted} operations failed their check)")
    for problem in [p for r in runs for p in r.problems][:10]:
        print(f"  FAILED {problem}")
    print(f"  info {json.dumps(res['info'], sort_keys=True)}")
    return {
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in res["metrics"].items()},
    }


def run_all(args) -> dict:
    """Each workload in its own process; metrics are prefixed by workload."""
    import workloads

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited with code {proc.returncode}")
        res = json.loads(lines[-1])
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{name}.{m}": v for m, v in res["metrics"].items()})
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "limfuse", "__init__.py")):
        print(f"error: no limfuse source under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ.pop("VTC_THREADS", None)
    import limfuse
    import workloads

    if not os.path.abspath(limfuse.__file__).startswith(SRC + os.sep):
        print(f"error: limfuse was imported from {limfuse.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args)
    elif args.workload in workloads.WORKLOADS:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
