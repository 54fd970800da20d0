"""Benchmark of the chiralqed steady-state solver.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload point-n16 --seed 1 --seconds 55 --trace 0

Each workload (see ``workloads.py`` for what each one stresses and why; the
gated ones are listed in ``BENCHMARK.json``) runs in fresh worker processes
with OpenBLAS, OpenMP and MKL pinned to one thread, as a closed loop with one
client.  Measuring at the default thread count is out of scope: on a small
host two BLAS threads make the n_max=8 solve about 3x slower and far less
steady.

With ``--trace 0`` the run reports the end-to-end metrics:

* ``setup_s``: median over several cold launches of the wall time from
  starting a fresh interpreter to the first verified result (imports, input
  preparation and one warm-up op);
* ``best_points_per_s``, ``best_op_ms_p50``, ``best_op_ms_p90``: each of
  the run's distinct inputs is repeated many times, and its fastest op is
  taken.  The throughput is the points of one pass over the inputs over the
  sum of those fastest times; p50 and p90 are quantiles of the fastest times
  across inputs, interpolated so that p90 never lies beyond an observed
  time.  On a shared 2-core host whose speed flips between two states for
  tens of seconds (a fixed pure-Python loop varies up to 2x),
  medians over all ops spread 15-40% from run to run, while the
  best-of-repeats figures spread 9-12% over ten 55-second runs.  The
  medians over all ops (``points_per_s``, ``op_ms_p50``, ``op_ms_p90``) and
  the op count are printed as well, but not gated;
* ``peak_rss_mb``: peak RSS of the workload process;
* ``verified_frac``: verified ops over attempted ops.  An op fails on an
  exception, a non-zero CLI exit or a failed output check.  Each point of
  the untimed cross-check against ``reference`` counts as one more attempt,
  and as one failure if any of its observables differs.  The failed
  fraction is printed too; the metric is its complement so that it is
  never zero.

With ``--trace 1`` the run alternates untraced and traced passes and
reports the per-layer metrics of ``spans.py``, including the trace
overhead.  Timings of a pure-Python calibration loop, taken at the start and
end of each run, are printed with the environment.  They are diagnostic
only and never scale a metric.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The metric names and
units are read from ``BENCHMARK.json``.  The run exits 2 without a result
when the checkout has no ``src/chiralqed``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_LAUNCHES = 3  # cold launches per run, the timed worker's own included
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
READY_TIMEOUT_S = 60  # a worker that has not verified its first op by then has hung
WORKER_GRACE_S = 60  # time a worker may take beyond its measured seconds


def calibration_ms() -> float:
    """Median of three runs of a fixed pure-Python loop that uses no repo code."""
    runs = []
    for _ in range(3):
        start = perf_counter()
        total = 0
        for i in range(500_000):
            total += i * i % 7
        runs.append((perf_counter() - start) * 1e3)
    return statistics.median(runs)


def source_digest(root: str) -> str:
    """SHA-256 over the package sources, which identifies the code measured."""
    digest = hashlib.sha256()
    package = os.path.join(root, "src", "chiralqed")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def git_commit(root: str) -> str | None:
    """HEAD of the checkout, when it is a git repository of its own."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def worker_env(root: str) -> dict[str, str]:
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARIABLES, "1"))
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def launch(root: str, plan_path: str, mode: str, seconds: float) -> tuple[float, dict | None]:
    """Start one worker; returns (seconds from launch to its first verified op, result)."""
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--plan", plan_path, "--mode", mode, "--seconds", repr(seconds)]
    start = perf_counter()
    with subprocess.Popen(command, cwd=root, env=worker_env(root), stdout=subprocess.PIPE,
                          text=True) as proc:
        try:
            if not select.select([proc.stdout], [], [], READY_TIMEOUT_S)[0]:
                raise subprocess.TimeoutExpired(command, READY_TIMEOUT_S)
            first = proc.stdout.readline()
            ready_s = perf_counter() - start
            rest, _ = proc.communicate(timeout=seconds + WORKER_GRACE_S)
        except BaseException as exc:  # a deadline, or the launcher itself being stopped
            proc.kill()
            proc.wait()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise RuntimeError(f"{mode} worker exceeded its deadline") from None
            raise
    if proc.returncode != 0 or first.strip() != "ready":
        raise RuntimeError(f"{mode} worker failed (exit {proc.returncode})")
    if mode == "setup":
        return ready_s, None
    return ready_s, json.loads(rest.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so workers are killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "chiralqed", "cli.py")):
        print(f"error: no src/chiralqed under {root}; run from a chiralqed checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    calibration_start = calibration_ms()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        workloads.make_plan(args.workload, args.seed, workdir)
        plan_path = os.path.join(workdir, "plan.json")
        # Cold launches go before and after the timed phase, so that the
        # median spans two moments of a host whose speed drifts.
        cold = 0 if args.trace else (SETUP_LAUNCHES - 1) // 2
        setup_samples = [launch(root, plan_path, "setup", 0.0)[0] for _ in range(cold)]
        ready_s, result = launch(root, plan_path, "trace" if args.trace else "timed",
                                 args.seconds)
        setup_samples.append(ready_s)
        if not args.trace:
            setup_samples += [launch(root, plan_path, "setup", 0.0)[0]
                              for _ in range(SETUP_LAUNCHES - 1 - cold)]
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    calibration_end = calibration_ms()

    values = dict(result["metrics"])
    if not args.trace:
        values["setup_s"] = statistics.median(setup_samples)
    attempted, failed = result["attempted"], result["failed"]
    environment = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **result["environment"],
        "commit": git_commit(root),
        "source_sha256": source_digest(root),
        "calibration_ms": {"start": calibration_start, "end": calibration_end},
        "setup_samples_s": setup_samples,
        "cross_checked_points": result["cross_checked"],
    }
    print("# environment " + json.dumps(environment))
    for problem in result["problems"]:
        print(f"# problem: {problem}")
    print(f"# ops attempted = {attempted}, failed = {failed}, "
          f"failed_frac = {failed / attempted:.6g}")
    if "raw" in result:
        raw = result["raw"]
        print(f"# over all {raw['ops']} timed ops, host drift included: "
              f"points_per_s = {raw['points_per_s']:.6g} 1/s, "
              f"op_ms_p50 = {raw['op_ms_p50']:.6g} ms, op_ms_p90 = {raw['op_ms_p90']:.6g} ms")
    metrics = {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{args.workload} {name} = {values[name]:.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
