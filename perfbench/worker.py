"""One fresh workload process: set up, then run a single-client closed loop.

Started by ``run.py`` with BLAS pinned to one thread.  It imports the
package from ``src/`` of the current directory, reads the plan's inputs,
runs and verifies one warm-up op and prints ``ready``.  In ``setup`` mode it
stops there.  In ``timed`` mode it runs ops back to back for the given
seconds, then rechecks a seeded sample against ``reference`` untimed.  In
``trace`` mode it alternates untraced and traced passes over the inputs and
reports the per-layer metrics.  The last line of its output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference  # noqa: E402
import workloads  # noqa: E402

SAMPLE_SIZE = {"point-n16": 2}  # cross-checked points per run; sweep-5state has no reference
MIB = 2**20


def _import_cli(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import chiralqed.cli

    location = os.path.realpath(os.path.dirname(chiralqed.cli.__file__))
    if not location.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"chiralqed was imported from {location}, not from {src}")
    return chiralqed.cli


class Runner:
    """Runs and checks the ops of one plan."""

    def __init__(self, plan: dict, root: str) -> None:
        self.cli = _import_cli(root)
        self.plan = plan
        self.workload = plan["workload"]
        self.inputs = plan["inputs"]
        self.last: dict[int, dict] = {}  # latest verified report per input, for the cross-check

    def op(self, k: int) -> tuple[float, int, list[str]]:
        """Run input k once; returns (seconds, points, problems)."""
        entry = self.inputs[k]
        buffer = io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(buffer):
                code = self.cli.main(entry["argv"])
        except Exception as exc:  # every op failure is counted, none ends the run
            return perf_counter() - start, 0, [f"{type(exc).__name__}: {exc}"]
        elapsed = perf_counter() - start
        if code != 0:
            return elapsed, 0, [f"chiralqed exited with {code}"]
        if entry["sweep"] is None:
            values, problems = workloads.check_point(buffer.getvalue())
            if not problems:
                self.last[k] = values
            return elapsed, 1, problems
        rows, problems = workloads.check_sweep(entry, buffer.getvalue())
        return elapsed, len(rows), problems

    def cross_check(self) -> tuple[int, int, list[str]]:
        """Recheck a seeded sample of points against the reference.

        Returns (points checked, points with any mismatch, problems).
        """
        rng = random.Random(self.plan["sample_seed"])
        sample = rng.sample(sorted(self.last), min(SAMPLE_SIZE.get(self.workload, 0), len(self.last)))
        mismatched, problems = 0, []
        for k in sample:
            entry = self.inputs[k]
            expected = reference.steady_observables(entry["system"], entry["engine"]["cutoff"])
            found = reference.mismatches(expected, self.last[k])
            mismatched += bool(found)
            problems += [f"input {k}: {m}" for m in found]
        return len(sample), mismatched, problems


class Loop:
    """Counters of one closed loop."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.points = 0
        self.failed = 0
        self.elapsed = 0.0
        self.problems: list[str] = []
        self.fastest: dict[int, tuple[float, int]] = {}  # input -> (best seconds, points)

    def step(self, runner: Runner, index: int) -> None:
        """Run input `index` once and record it."""
        elapsed, points, problems = runner.op(index)
        self.times.append(elapsed)
        if problems:
            self.failed += 1
            self.problems += problems[:2]
            return
        self.points += points
        best = self.fastest.get(index)
        if best is None or elapsed < best[0]:
            self.fastest[index] = (elapsed, points)

    def run(self, runner: Runner, seconds: float) -> None:
        """Run ops back to back, cycling through the inputs, for `seconds`."""
        start = perf_counter()
        k = 0
        while True:
            self.step(runner, k % len(runner.inputs))
            k += 1
            if perf_counter() - start >= seconds:
                break
        self.elapsed = perf_counter() - start

    def best_points_per_s(self) -> float:
        """Points per second of one pass over the inputs, each at its fastest op."""
        return (sum(points for _, points in self.fastest.values())
                / sum(best for best, _ in self.fastest.values()))


def _environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_configuration": blas.get("openblas configuration"),
        "threads_seen_by_worker": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def _p90(values: list[float]) -> float:
    """90th percentile, interpolated between observed values, never beyond them."""
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def _timed(runner: Runner, seconds: float) -> dict:
    loop = Loop()
    loop.run(runner, seconds)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MIB
    checked, mismatched, mismatches = runner.cross_check()
    times_ms = [t * 1e3 for t in loop.times]
    best_ms = [best * 1e3 for best, _ in loop.fastest.values()]
    # A cross-checked point is one more verification attempted; a point
    # that fails it counts once, however many observables differ.
    attempted = len(times_ms) + checked
    failed = loop.failed + mismatched
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": loop.problems[:10] + mismatches,
        "cross_checked": checked,
        "raw": {
            "ops": len(times_ms),
            "points_per_s": loop.points / loop.elapsed,
            "op_ms_p50": statistics.median(times_ms),
            "op_ms_p90": _p90(times_ms),
        },
        "metrics": {
            "best_points_per_s": loop.best_points_per_s() if best_ms else 0.0,
            "best_op_ms_p50": statistics.median(best_ms) if best_ms else 0.0,
            "best_op_ms_p90": _p90(best_ms) if best_ms else 0.0,
            "peak_rss_mb": peak_rss,
            "verified_frac": (attempted - failed) / attempted,
        },
    }


def _traced(runner: Runner, seconds: float) -> dict:
    from spans import CALLS, FAILURES, INCLUSIVE, LAYERS, NBYTES, Tracer

    tracer = Tracer()
    plain, traced = Loop(), Loop()
    # Passes over the inputs alternate between untraced and traced, so that
    # both sides see the same host speed and every input runs on both.
    start = perf_counter()
    passes = 0
    while passes < 2 or perf_counter() - start < seconds:
        on = passes % 2 == 1
        if on:
            tracer.install()
        try:
            for index in range(len(runner.inputs)):
                (traced if on else plain).step(runner, index)
        finally:
            if on:
                tracer.remove()
        passes += 1

    ops = len(traced.times)
    op_s = sum(traced.times)
    stats = tracer.stats

    def per_call(layer: str, name: str) -> float:
        record = stats[(layer, name)]
        return record[INCLUSIVE] * 1e3 / record[CALLS] if record[CALLS] else 0.0

    layer_self = tracer.layer_self()
    steady = stats[("dynamics", "steady_state")]
    metrics = {
        "model.build_ms_per_call": per_call("model", "build_liouvillian"),
        "model.calls_per_op": stats[("model", "build_liouvillian")][CALLS] / ops,
        "model.generator_mb": stats[("model", "build_liouvillian")][NBYTES] / MIB,
        "dynamics.steady_ms_per_call": per_call("dynamics", "steady_state"),
        "dynamics.steady_calls_per_op": steady[CALLS] / ops,
        "dynamics.validate_ms_per_call": per_call("dynamics", "validate_density_matrix"),
        "dynamics.failures_per_attempt": steady[FAILURES] / steady[CALLS] if steady[CALLS] else 0.0,
        "truncated_oracle.build_ms_per_call": per_call("truncated_oracle", "truncated_liouvillian"),
    }
    for layer in ("fock_algebra", "collective", "observables", "dark_state"):
        metrics[f"{layer}.ms_per_op"] = layer_self[layer] * 1e3 / ops
    metrics["cli.self_ms_per_op"] = layer_self["cli"] * 1e3 / ops
    for layer in LAYERS:
        metrics[f"{layer}.share"] = layer_self[layer] / op_s
    # Both sides use the best-of-repeats rate, which host drift moves least.
    metrics["trace.overhead_frac"] = 1.0 - traced.best_points_per_s() / plain.best_points_per_s()
    metrics["trace.ops"] = ops
    attempted = len(plain.times) + ops
    return {
        "attempted": attempted,
        "failed": plain.failed + traced.failed,
        "problems": (plain.problems + traced.problems)[:10],
        "cross_checked": 0,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--plan", required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args(argv)

    with open(args.plan, encoding="utf-8") as handle:
        plan = json.load(handle)
    runner = Runner(plan, os.getcwd())
    _, _, problems = runner.op(0)
    if problems:
        print(f"warm-up op failed: {problems}", file=sys.stderr)
        return 1
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    result = (_timed if args.mode == "timed" else _traced)(runner, args.seconds)
    result["environment"] = _environment()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
