"""Seeded inputs and output checks for the benchmark workloads.

Only the standard library is used here, so the launcher can build a plan
without importing numpy.  Every draw comes from the ranges of the figure
presets in ``chiralqed.cli`` with ``x_phase = 0``; drives and rates stay away
from zero, where steady states can be degenerate (exit 3 by design).

Why each workload exists, and which layer it leans on:

* ``point-n16``: one ``chiralqed point`` report at n_max=16.  The dense
  generator (20 MiB) outgrows the caches and the O(D^6) solve grows;
  ``model`` assembly takes about 60% and ``dynamics.steady_state`` 35%.
  This is where peak RSS moves, and ``cli``, ``observables`` and
  ``dark_state`` are negligible.  Ten inputs alternate chi; the cost of a
  point does not depend on the other parameters.
* ``sweep-5state``: truncated-engine sweep of 21 points (the figure3
  regime) on 25x25 generators.  Per-call overhead in ``collective``,
  ``truncated_oracle``, ``observables``, ``dynamics`` validation and ``cli``
  dominates, so a full-engine speed-up should leave it unchanged.

The traced run reports every per-layer metric on both workloads, so the
metrics of a layer that does not run read 0 there: ``truncated_oracle.*``
on point-n16; ``fock_algebra.*``, ``dark_state.*`` and the build metrics of
``model`` (``build_ms_per_call``, ``calls_per_op``, ``generator_mb``) on
sweep-5state.  ``dynamics.failures_per_attempt`` reads 0 on both, as the
fallback count below predicts; it is there to show a regression that makes
solves fail.

Two further workloads were left out.  A full-engine sweep at n_max=8 spread
11-30% between runs on a 2-core host, the run budget allows 55-second runs
for two workloads only, and point-n16 covers all of its layers.  A
time-evolution workload (``dynamics.evolve`` from vacuum) spread 18-28%,
and RK45 fails the positivity floor on about 1 in 1000 draws from these
ranges (for example gamma=3.3946, chi=1, delta_s=-0.9314, delta=1,
omega=0.0526, e_mag=4 omega^2, phi_d=-3.1334, t=5: eigenvalue -1.102e-10
below -1e-10).

On these ranges, 0 of 330 seeded sweep points took the SVD fallback of
``steady_state`` or failed, so no op fails here.  Draws with omega = 0 or
gamma = 0 are degenerate: of 300 such draws, 100 took the fallback and 200
raised DegenerateSteadyStateError (CLI exit 3, as documented).
"""

from __future__ import annotations

import json
import math
import os
import random

WORKLOADS = ("point-n16", "sweep-5state")

# Distinct inputs per run; the ops cycle through them.  The sweep pool is a
# multiple of 6, so every sweep parameter meets both values of the
# alternating draws; point-n16 alternates chi.  Each input repeats many times
# in a run, which the best-of-repeats metrics in worker.py rely on, and the
# pools are large enough that a p90 across inputs ranks real inputs.
POOL = {"point-n16": 10, "sweep-5state": 12}
TRUNCATED_SWEEP_POINTS = 21

TRUNCATED_OBSERVABLES = (
    "mean_n", "g2", "purity", "rho_11", "rho_psipsi", "rho_phiphi", "rho_xixi", "rho_zetazeta",
)
COLLECTIVE_POPULATIONS = TRUNCATED_OBSERVABLES[3:]

# figure3 sweeps delta_s on the truncated engine; g_chi and omega_c are swept
# around its g_chi = 5 and over the drives of figures 4-7.
TRUNCATED_SWEEPS = {"g_chi": (1.0, 10.0), "delta_s": (-10.0, 10.0), "omega_c": (0.01, 0.1)}

# Tolerances of the output checks.  Populations and purity are computed from
# a validated density matrix (eigenvalue floor -1e-10), so a slack of 1e-9
# is far above rounding and far below any real defect.
RANGE_SLACK = 1e-9
SUM_TOL = 1e-9


def _strata(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    """One uniform draw from each of `count` equal slices of [lo, hi], shuffled.

    Stratified draws give every seed's pool the same coverage of the range,
    so run-to-run differences come from the program, not from a seed that
    happened to pick cheap or costly inputs.
    """
    values = [lo + (k + rng.random()) * (hi - lo) / count for k in range(count)]
    rng.shuffle(values)
    return values


def full_systems(rng: random.Random, count: int) -> list[dict[str, float]]:
    """Full-engine operating points from the figure 4-7 ranges.

    Drive, gamma, detuning and pump phase are stratified; chi alternates
    between the directional and symmetric cases.  figure4's symmetric curves
    sit at delta = kappa, the directional ones at delta = 0.
    """
    omegas = _strata(rng, count, 0.01, 0.1)
    gammas = _strata(rng, count, 0.25, 4.0)
    detunings = _strata(rng, count, -1.0, 1.0)
    phases = _strata(rng, count, -math.pi, math.pi)
    systems = []
    for k in range(count):
        chi = float(k % 2)
        systems.append({
            "gamma": gammas[k],
            "chi": chi,
            "delta_s": detunings[k],
            "delta": chi,
            "omega_c": omegas[k],
            "omega_a": omegas[k],
            "e_mag": 4.0 * omegas[k] ** 2,
            "phi_d": phases[k],
            "x_phase": 0.0,
        })
    return systems


def truncated_systems(rng: random.Random, count: int) -> list[dict[str, float]]:
    """figure3 operating points: equal drives, no pump, delta alternating 0 and 5."""
    omegas = _strata(rng, count, 0.02, 0.04)
    return [{
        "gamma": 1.0,
        "chi": 0.0,
        "delta_s": rng.uniform(-10.0, 10.0),
        "delta": 5.0 * (k % 2),
        "omega_c": omegas[k],
        "omega_a": omegas[k],
        "e_mag": 0.0,
        "phi_d": 0.0,
        "x_phase": 0.0,
    } for k in range(count)]


def _ini(sections: dict[str, dict[str, object] | None]) -> str:
    lines = []
    for name, entries in sections.items():
        if entries is not None:
            lines.append(f"[{name}]")
            lines += [f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}"
                      for key, value in entries.items()]
    return "\n".join(lines) + "\n"


def make_plan(workload: str, seed: int, workdir: str) -> dict:
    """Draw the workload's inputs from the seed and write its config files.

    Returns the plan the worker reads: one entry per distinct input, and the
    seed of the untimed cross-check sample.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    count = POOL[workload]
    truncated = workload == "sweep-5state"
    systems = truncated_systems(rng, count) if truncated else full_systems(rng, count)
    inputs = []
    for k, system in enumerate(systems):
        if truncated:
            parameter = sorted(TRUNCATED_SWEEPS)[k % 3]
            lo, hi = TRUNCATED_SWEEPS[parameter]
            sweep = {"parameter": parameter, "lo": lo, "hi": hi, "points": TRUNCATED_SWEEP_POINTS}
            engine = {"engine": "truncated", "g_chi": 5.0, "gamma_chi": 2.0}
            observables = TRUNCATED_OBSERVABLES
        else:
            engine, sweep, observables = {"engine": "full", "cutoff": 16}, None, ()
        path = os.path.join(workdir, f"input{k}.ini")
        output = {"observables": ", ".join(observables)} if observables else None
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(_ini({"system": system, "engine": engine, "sweep": sweep,
                               "output": output}))
        inputs.append({
            "argv": ["point" if sweep is None else "sweep", "--config", path],
            "system": system,
            "engine": engine,
            "sweep": sweep,
            "observables": list(observables),
        })
    plan = {"workload": workload, "seed": seed, "inputs": inputs,
            "sample_seed": rng.randrange(2**32)}
    with open(os.path.join(workdir, "plan.json"), "w", encoding="utf-8") as handle:
        json.dump(plan, handle)
    return plan


# ---------------------------------------------------------------------------
# Output checks.  Each returns the parsed values and a list of what failed,
# which is empty when the op's output is correct.


def check_values(values: dict[str, float], truncated: bool) -> list[str]:
    """Finiteness and range of each observable; five-state populations sum to 1."""
    problems = [f"{name} = {value} is not finite"
                for name, value in values.items() if not math.isfinite(value)]
    if problems:
        return problems
    purity = values.get("purity")
    if purity is not None and not 0.0 < purity <= 1.0 + RANGE_SLACK:
        problems.append(f"purity {purity} outside (0, 1]")
    if values.get("mean_n", 0.0) < 0.0:
        problems.append(f"mean_n {values['mean_n']} negative")
    if values.get("g2", 0.0) < 0.0:
        problems.append(f"g2 {values['g2']} negative")
    for name in ("rho_11", "rho_22") + COLLECTIVE_POPULATIONS:
        value = values.get(name)
        if value is not None and not -RANGE_SLACK <= value <= 1.0 + RANGE_SLACK:
            problems.append(f"{name} {value} outside [0, 1]")
    if truncated:
        total = sum(values[name] for name in COLLECTIVE_POPULATIONS)
        if abs(total - 1.0) > SUM_TOL:
            problems.append(f"collective populations sum to {total!r}")
    return problems


def check_sweep(entry: dict, text: str) -> tuple[list[dict[str, float]], list[str]]:
    """Parse and check a sweep CSV; returns one dict per row."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    sweep = entry["sweep"]
    expected_header = [sweep["parameter"], *entry["observables"]]
    if not lines or lines[0].split(",") != expected_header:
        return [], [f"unexpected CSV header {lines[:1]!r}"]
    rows, problems = [], []
    for line in lines[1:]:
        try:
            cells = [float(cell) for cell in line.split(",")]
        except ValueError:
            return rows, [f"unparsable CSV row {line!r}"]
        if len(cells) != len(expected_header):
            return rows, [f"CSV row {line!r} has {len(cells)} cells"]
        row = dict(zip(expected_header, cells))
        rows.append(row)
        values = {name: row[name] for name in entry["observables"]}
        problems += check_values(values, entry["engine"]["engine"] == "truncated")
    if len(rows) != sweep["points"]:
        problems.append(f"{len(rows)} rows, expected {sweep['points']}")
    else:
        lo, hi, n = sweep["lo"], sweep["hi"], sweep["points"]
        step = (hi - lo) / (n - 1)
        for k, row in enumerate(rows):
            if abs(row[sweep["parameter"]] - (lo + k * step)) > 1e-9 * max(1.0, abs(hi)):
                problems.append(f"row {k} swept value {row[sweep['parameter']]} off the grid")
                break
    return rows, problems


def check_point(text: str) -> tuple[dict[str, float], list[str]]:
    """Parse and check a ``chiralqed point`` report."""
    values: dict[str, float] = {}
    problems: list[str] = []
    for line in text.splitlines():
        if line.startswith("#") or " = " not in line:
            continue
        key, raw = line.split(" = ", 1)
        if raw in ("true", "false") or raw.startswith(("undefined", "unavailable")):
            if key == "g2":
                problems.append("g2 undefined")
            continue
        try:
            values[key] = float(raw)
        except ValueError:
            problems.append(f"unparsable line {line!r}")
    missing = [name for name in ("mean_n", "g2", "purity", "rho_11", "rho_22") if name not in values]
    if missing:
        problems.append(f"report lacks {', '.join(missing)}")
        return values, problems
    problems += check_values(values, truncated=False)
    return values, problems
