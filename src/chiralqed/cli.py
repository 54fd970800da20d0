"""Command-line front end: point evaluations, sweeps, dark-state checks.

Config files are INI-style with sections [system], [sweep], [engine], and
[output].  All rates and frequencies are in units of the cavity linewidth,
which is pinned to 1; CSV output carries the fully resolved configuration in
`# ` comment lines and prints numbers with 17 significant digits so a
round-trip through the file is lossless.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import functools
import math
import os
import sys
from typing import Iterable

import numpy as np

from . import collective as coll
from . import truncated_oracle as trunc
from .dark_state import (
    DarkStateError,
    dark_conditions_double,
    dark_conditions_single,
    dfs_requirements_double,
    dfs_state_single,
)
from .dynamics import (
    DegenerateSteadyStateError,
    PositivityError,
    steady_state,
)
from .fock_algebra import FockCutoff
from .model import SystemParams, build_liouvillian, build_undriven_liouvillian, derive
from .observables import OBSERVABLES, FiveStates, FullStates

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

DEFAULT_CUTOFF = 8
DEFAULT_CONVERGE_CUTOFFS = (4, 6, 8, 12)
# The largest Fock cutoff a command accepts, timed on one x86-64 Xeon core at
# one BLAS thread for `point` at n_max = 40 (a 6724-row generator), best of
# three in one process.  A weakly driven point factorises only its undriven
# generator (36-47 k factor entries) and takes about 0.05 s and 83 MiB peak.
# A point that falls back to the driven factors pays SuperLU's fill, which
# grows about as n_max**2.7: 2.6 M entries and about 0.6 s and 131 MiB peak
# for the dark point with chi = 1.
MAX_CUTOFF = 40
# The most points a sweep accepts.  Every swept value is checked before the
# first solve: at 100 000 points a five-state sweep takes about 7 s and 45 MiB
# above the interpreter's baseline on one x86-64 Xeon core at one BLAS
# thread, while the full engine at the default cutoff needs about 7 ms a
# point, 12 minutes in all.
MAX_SWEEP_POINTS = 100_000
BATCH_POINTS = 1024

SWEEPABLE = ("phi_d", "delta_s", "gamma", "omega_c", "chi", "x_phase", "g_chi")
DEFAULT_OBSERVABLES = ("mean_n", "g2", "purity")

# Also the order of the resolved `system.*` comment lines.
_SYSTEM_KEYS = (
    "kappa", "gamma", "chi", "delta_c", "delta_a", "delta_s", "delta",
    "omega_c", "omega_a", "e_mag", "phi_d", "x_phase",
)
_OVERRIDE_KEYS = ("g_chi", "gamma_chi")
_SECTION_KEYS = {
    "system": _SYSTEM_KEYS,
    "sweep": ("parameter", "lo", "hi", "points"),
    "engine": ("engine", "cutoff", "cutoffs", *_OVERRIDE_KEYS),
    "output": ("observables",),
}


class ConfigError(Exception):
    """Bad config file, bad flag combination, or out-of-range parameter."""


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


@dataclasses.dataclass(frozen=True)
class Engine:
    """How the CLI solves a point.

    "full" solves the Fock-cutoff generator; "truncated" solves the
    five-state model, whose g_chi and gamma_chi may be overridden.
    """

    name: str
    cutoff: FockCutoff
    overrides: dict[str, float] = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.overrides and self.name != "truncated":
            raise ConfigError("g_chi/gamma_chi overrides need engine=truncated")

    def solve(
        self,
        base: SystemParams,
        parameter: str | None = None,
        values: np.ndarray | None = None,
    ) -> FullStates | FiveStates:
        """Steady states of base, as a stack of one; or, given a swept parameter
        and its (P,) values, of base with the parameter at each value, as a
        stack of P.

        The five-state engine carries the values as arrays into one stack of
        generators and one stacked solve, the full engine solves one sparse
        generator per point.  An invalid value raises the ConfigError of the
        first one, as a check of each point alone would.  The five-state
        model has no placement phase, so it refuses a nonzero or swept x_phase.
        """
        if self.name == "truncated" and (base.x_phase != 0.0 or parameter == "x_phase"):
            raise ConfigError("x_phase has no truncated-engine counterpart")
        system, overrides = ({}, {}) if parameter is None else _swept(base, parameter, values)
        if self.name == "full":
            points = [base] if parameter is None else [
                dataclasses.replace(base, **_changes(base, parameter, value)[0])
                for value in values.tolist()
            ]
            try:
                rho = np.stack([
                    steady_state(
                        build_liouvillian(p, self.cutoff),
                        undriven=build_undriven_liouvillian(p, self.cutoff),
                    )
                    for p in points
                ])
            except OverflowError as exc:
                # The generator's norm grows with the cutoff this config chose.
                raise ConfigError(f"rates too large at cutoff {self.cutoff.n_max}: {exc}") from exc
            # One gauge, or a batch of one per point where the swept value moves it.
            dp = derive(base, **system)
            return FullStates(rho, coll.default_gauge(dp.u, dp.w))
        try:
            tp = dataclasses.replace(
                trunc.from_system(base, **system), **{**self.overrides, **overrides}
            )
        except ValueError as exc:
            raise ConfigError(f"[engine] {exc}") from exc
        rho = steady_state(trunc.truncated_liouvillian(tp))
        return FiveStates(rho.reshape(-1, *rho.shape[-2:]), tp.cp)

    def observe(self, params: SystemParams, names: Iterable[str]) -> dict[str, float]:
        states = self.solve(params)
        return {name: float(OBSERVABLES[name](states)[0]) for name in names}


def _changes(base: SystemParams, parameter: str, values):
    """Fields of base and engine overrides that set a swept parameter to
    values, a float or an array; g_chi is an override."""
    if parameter == "g_chi":
        return {}, {"g_chi": values}
    if parameter == "delta_s":
        # Move the sum detuning while freezing the difference.
        delta = derive(base).delta
        with np.errstate(over="ignore"):  # _swept refuses an overflowed value
            return {"delta_c": values + delta, "delta_a": values - delta}, {}
    return {parameter: values}, {}


def _swept(base: SystemParams, parameter: str, values: np.ndarray):
    """_changes of (P,) values, after a check that raises the ConfigError of
    the first value base cannot take.

    Each field's valid values form an interval, so its extremes over the
    values decide whether all of them are valid; only an invalid set is
    checked value by value, to name its first invalid one.
    """
    system, overrides = _changes(base, parameter, values)
    try:
        for extreme in (np.min, np.max) if system else ():
            dataclasses.replace(base, **{k: float(extreme(v)) for k, v in system.items()})
    except ValueError:
        for value in values.tolist():
            try:
                dataclasses.replace(base, **_changes(base, parameter, value)[0])
            except ValueError as exc:
                raise ConfigError(f"swept value {value}: {exc}") from exc
    return system, overrides


def _rows(
    engine: Engine, base: SystemParams, parameter: str, values: np.ndarray, names: tuple[str, ...]
) -> np.ndarray:
    """One row per swept value: the value, then the named observables.

    Values go to the engine BATCH_POINTS at a time, which bounds the memory
    of a long five-state sweep: about 23 KiB of peak memory per point in a
    batch (22.6 KiB for 8192 points solved as one batch).  A longer sweep
    checks all its values first, so that a bad one fails before any solve.
    """
    if len(values) > BATCH_POINTS:
        _swept(base, parameter, values)
    blocks = []
    for start in range(0, len(values), BATCH_POINTS):
        batch = values[start:start + BATCH_POINTS]
        states = engine.solve(base, parameter, batch)
        blocks.append(np.column_stack([batch, *(OBSERVABLES[name](states) for name in names)]))
    return np.concatenate(blocks)


# ---------------------------------------------------------------------------
# Sweeps


@dataclasses.dataclass(frozen=True)
class Sweep:
    """A linear grid of `points` values of one parameter from lo to hi."""

    parameter: str
    lo: float
    hi: float
    points: int

    def __post_init__(self) -> None:
        if self.parameter not in SWEEPABLE:
            raise ConfigError(
                f"cannot sweep {self.parameter!r}; choose from {', '.join(SWEEPABLE)}"
            )
        if not self.lo < self.hi:
            raise ConfigError("sweep range needs lo < hi")
        if not math.isfinite(self.hi - self.lo):
            raise ConfigError(
                f"sweep range [{_fmt(self.lo)}, {_fmt(self.hi)}] has no finite width"
            )
        if self.points < 2:
            raise ConfigError("sweep needs at least 2 points")
        if self.points > MAX_SWEEP_POINTS:
            raise ConfigError(
                f"sweep points {self.points} exceed the limit of {MAX_SWEEP_POINTS}"
            )

    def grid(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.points)

    def comments(self, engine: Engine) -> list[str]:
        """The resolved sweep and engine, for the CSV comment header."""
        return [
            f"sweep.parameter = {self.parameter}",
            f"sweep.lo = {_fmt(self.lo)}",
            f"sweep.hi = {_fmt(self.hi)}",
            f"sweep.points = {self.points}",
            f"engine.engine = {engine.name}",
            f"engine.cutoff = {engine.cutoff.n_max}",
            *(f"engine.{k} = {_fmt(v)}" for k, v in sorted(engine.overrides.items())),
        ]

    def rows(
        self, engine: Engine, base: SystemParams, names: tuple[str, ...]
    ) -> np.ndarray:
        if self.parameter == "g_chi" and engine.name != "truncated":
            raise ConfigError("g_chi is only sweepable with engine=truncated")
        return _rows(engine, base, self.parameter, self.grid(), names)


# ---------------------------------------------------------------------------
# Config parsing and output


def _load_ini(path: str | None) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    if path is None:
        return parser
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path!r}: {exc}") from exc
    for section in parser.sections():
        if section not in _SECTION_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
    for section in parser.sections():
        for key in parser[section]:
            if key not in _SECTION_KEYS[section]:
                raise ConfigError(f"[{section}] unknown key {key!r}")
    return parser


def _get_float(section: configparser.SectionProxy, key: str) -> float:
    raw = section.get(key)
    try:
        return float(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"[{section.name}] {key} = {raw!r} is not a number") from exc


def _parse_system(ini: configparser.ConfigParser) -> SystemParams:
    if not ini.has_section("system"):
        return SystemParams()
    section = ini["system"]
    values = {key: _get_float(section, key) for key in section}

    if values.pop("kappa", 1.0) != 1.0:
        raise ConfigError("all rates are in cavity-linewidth units; kappa is fixed to 1")

    has_sum_diff = "delta_s" in values or "delta" in values
    has_bare = "delta_c" in values or "delta_a" in values
    if has_sum_diff and has_bare:
        raise ConfigError(
            "[system] give either (delta_c, delta_a) or (delta_s, delta), not both"
        )
    if has_sum_diff:
        delta_s = values.pop("delta_s", 0.0)
        delta = values.pop("delta", 0.0)
        values["delta_c"] = delta_s + delta
        values["delta_a"] = delta_s - delta
    try:
        return SystemParams(**values)
    except ValueError as exc:
        raise ConfigError(f"[system] {exc}") from exc


def _cutoff(n_max: int) -> FockCutoff:
    if n_max > MAX_CUTOFF:
        raise ConfigError(f"cutoff {n_max} exceeds the limit of {MAX_CUTOFF}")
    try:
        return FockCutoff(n_max)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_cutoff(args, ini: configparser.ConfigParser) -> FockCutoff:
    if args.cutoff is not None:
        return _cutoff(args.cutoff)
    raw = ini.get("engine", "cutoff", fallback=None)
    if raw is None:
        return _cutoff(DEFAULT_CUTOFF)
    try:
        return _cutoff(int(raw))
    except ValueError as exc:
        raise ConfigError(f"[engine] cutoff = {raw!r} is not an integer") from exc


def _engine_name(args, ini: configparser.ConfigParser) -> str:
    name = args.engine or ini.get("engine", "engine", fallback="full")
    if name not in ("full", "truncated"):
        raise ConfigError(f"engine must be 'full' or 'truncated', got {name!r}")
    return name


def _parse_engine(args, ini: configparser.ConfigParser) -> Engine:
    name = _engine_name(args, ini)
    cutoff = _parse_cutoff(args, ini)
    overrides = {
        key: _get_float(ini["engine"], key)
        for key in _OVERRIDE_KEYS
        if ini.has_option("engine", key)
    }
    return Engine(name, cutoff, overrides)


def _parse_observables(ini: configparser.ConfigParser) -> tuple[str, ...]:
    if not ini.has_option("output", "observables"):
        return DEFAULT_OBSERVABLES
    names = tuple(
        token.strip() for token in ini["output"]["observables"].split(",") if token.strip()
    )
    if not names:
        raise ConfigError("[output] observables is empty")
    for name in names:
        if name not in OBSERVABLES:
            raise ConfigError(
                f"unknown observable {name!r}; choose from {', '.join(OBSERVABLES)}"
            )
    return names


def _parse_sweep(ini: configparser.ConfigParser) -> Sweep:
    if not ini.has_section("sweep"):
        raise ConfigError("sweep needs a [sweep] section")
    section = ini["sweep"]
    parameter = section.get("parameter")
    if parameter is None:
        raise ConfigError("[sweep] parameter is required")
    try:
        points = int(section.get("points", ""))
    except ValueError as exc:
        raise ConfigError("[sweep] points must be an integer") from exc
    return Sweep(parameter, _get_float(section, "lo"), _get_float(section, "hi"), points)


def _system_comment_lines(params: SystemParams) -> list[str]:
    dp = derive(params)
    values = {**vars(params), "kappa": 1.0, "delta_s": dp.delta_s, "delta": dp.delta}
    return [f"system.{key} = {_fmt(values[key])}" for key in _SYSTEM_KEYS]


def _csv(
    comments: list[str], header: list[str], rows: Iterable[Iterable[float]]
) -> list[str]:
    return [
        "# all rates and frequencies in units of kappa; kappa = 1",
        *(f"# {line}" for line in comments),
        ",".join(header),
        *(",".join(_fmt(value) for value in row) for row in rows),
    ]


def _check_out(path: str) -> None:
    """Refuse an --out path that cannot be written, before any solve runs.

    The probe opens for appending, so an existing file keeps its contents,
    and a file it had to create is removed again.
    """
    existed = os.path.lexists(path)
    try:
        with open(path, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        raise ConfigError(f"cannot write --out {path!r}: {exc}") from exc
    if not existed:
        os.remove(path)


def _write_output(lines: list[str], path: str | None) -> None:
    """The one place command output is written: stdout, or the --out file."""
    text = "".join(f"{line}\n" for line in lines)
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


# ---------------------------------------------------------------------------
# Figure presets


@dataclasses.dataclass(frozen=True)
class FigureCurve:
    label: str
    system: SystemParams
    overrides: dict[str, float] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass(frozen=True)
class FigurePreset:
    """A sweep of one observable, one column per curve."""

    sweep: Sweep
    engine: str
    observable: str
    curves: tuple[FigureCurve, ...]


def _dark_pump_system(omega: float, **kwargs) -> SystemParams:
    """Equal drives with the pump magnitude locked to 4 omega^2 / kappa."""
    return SystemParams(
        gamma=1.0, omega_c=omega, omega_a=omega, e_mag=4.0 * omega * omega, **kwargs
    )


_FIGURE3_OVERRIDES = {"g_chi": 5.0, "gamma_chi": 2.0}

FIGURE_PRESETS: dict[str, FigurePreset] = {
    # Bright-polariton (psi) population against the sum detuning, truncated
    # engine with the single-excitation coupling treated as a free knob.
    "figure3": FigurePreset(
        sweep=Sweep("delta_s", -10.0, 10.0, 201),
        engine="truncated",
        observable="rho_psipsi",
        curves=(
            FigureCurve(
                label="delta5_omega0.04",
                system=SystemParams(
                    gamma=1.0, delta_c=5.0, delta_a=-5.0, omega_c=0.04, omega_a=0.04
                ),
                overrides=_FIGURE3_OVERRIDES,
            ),
            FigureCurve(
                label="delta0_omega0.04",
                system=SystemParams(gamma=1.0, omega_c=0.04, omega_a=0.04),
                overrides=_FIGURE3_OVERRIDES,
            ),
            FigureCurve(
                label="delta0_omega0.02",
                system=SystemParams(gamma=1.0, omega_c=0.02, omega_a=0.02),
                overrides=_FIGURE3_OVERRIDES,
            ),
        ),
    ),
    # Photon statistics against the pump phase.  The fully chiral curve is
    # emitted twice: once with the pump magnitude 2 omega^2 that matches the
    # balance condition at delta = kappa, once with the 4 omega^2 the
    # nonchiral curves use.  See the README note on this ambiguity.
    "figure4": FigurePreset(
        sweep=Sweep("phi_d", -math.pi, math.pi, 201),
        engine="full",
        observable="g2",
        curves=(
            FigureCurve(label="chi0_omega0.01", system=_dark_pump_system(0.01)),
            FigureCurve(label="chi0_omega0.05", system=_dark_pump_system(0.05)),
            FigureCurve(label="chi0_omega0.1", system=_dark_pump_system(0.1)),
            FigureCurve(
                label="chi1_omega0.01_matched",
                system=SystemParams(
                    gamma=1.0, chi=1.0, delta_c=1.0, delta_a=-1.0,
                    omega_c=0.01, omega_a=0.01, e_mag=2.0e-4,
                ),
            ),
            FigureCurve(
                label="chi1_omega0.01_caption",
                system=SystemParams(
                    gamma=1.0, chi=1.0, delta_c=1.0, delta_a=-1.0,
                    omega_c=0.01, omega_a=0.01, e_mag=4.0e-4,
                ),
            ),
        ),
    ),
    "figure5": FigurePreset(
        sweep=Sweep("delta_s", -1.0, 1.0, 41),
        engine="full",
        observable="g2",
        curves=(
            FigureCurve(label="omega0.01", system=_dark_pump_system(0.01)),
            FigureCurve(label="omega0.05", system=_dark_pump_system(0.05)),
            FigureCurve(label="omega0.1", system=_dark_pump_system(0.1)),
        ),
    ),
    # 76 points over [0.25, 4] puts gamma = kappa exactly on the grid.
    "figure6": FigurePreset(
        sweep=Sweep("gamma", 0.25, 4.0, 76),
        engine="full",
        observable="g2",
        curves=(
            FigureCurve(label="omega0.01", system=_dark_pump_system(0.01)),
            FigureCurve(label="omega0.03", system=_dark_pump_system(0.03)),
            FigureCurve(label="omega0.05", system=_dark_pump_system(0.05)),
        ),
    ),
    "figure7": FigurePreset(
        sweep=Sweep("delta_s", -1.0, 1.0, 41),
        engine="full",
        observable="rho_22",
        curves=(
            FigureCurve(label="omega0.03", system=_dark_pump_system(0.03)),
            FigureCurve(label="omega0.09", system=_dark_pump_system(0.09)),
        ),
    ),
}


# ---------------------------------------------------------------------------
# Subcommands: each returns its output lines


def _polar_lines(name: str, value: complex) -> list[str]:
    return [
        f"{name}_abs = {_fmt(abs(value))}",
        f"{name}_phase = {_fmt(math.atan2(value.imag, value.real))}",
    ]


def _report_lines_dark(params: SystemParams) -> list[str]:
    try:
        report = dark_conditions_double(params)
    except ValueError as exc:  # a collective rate overflows
        raise ConfigError(f"[system] {exc}") from exc
    lines = []
    for flag, state in report.condition_flags.items():
        lines.append(f"flag.{flag} = {'true' if state else 'false'}")
    lines.append(f"dfs_residual = {_fmt(report.dfs_residual)}")
    lines.append(f"dark_residual = {_fmt(report.dark_residual)}")
    lines.append(f"jump_residual = {_fmt(report.jump_residual)}")
    if report.required_E is None:
        lines.append("required_E = undefined (pump phase is free or no finite pump works)")
    else:
        lines += _polar_lines("required_E", report.required_E)
    try:
        ratio, required = dfs_requirements_double(params)
    except DarkStateError as exc:
        lines.append(f"dfs_requirements = unavailable ({exc})")
    else:
        lines += _polar_lines("dfs_ratio", ratio) + _polar_lines("dfs_required_E", required)
    return lines


def cmd_point(args) -> list[str]:
    ini = _load_ini(args.config)
    params = _parse_system(ini)
    values = _parse_engine(args, ini).observe(params, OBSERVABLES)
    lines = [f"# {line}" for line in _system_comment_lines(params)]
    for name, value in values.items():
        if name == "g2" and math.isnan(value):
            lines.append("g2 = undefined (mean photon number below 1e-14)")
        else:
            lines.append(f"{name} = {_fmt(value)}")
    return lines + _report_lines_dark(params)


def cmd_darkcheck(args) -> list[str]:
    ini = _load_ini(args.config)
    params = _parse_system(ini)
    dp = derive(params)
    single = dark_conditions_single(dp)
    lines = [f"# {line}" for line in _system_comment_lines(params)] + [
        f"single.omega_phi_zero = {'true' if single.omega_phi_zero else 'false'}",
        f"single.shift_zero = {'true' if single.shift_zero else 'false'}",
        f"single.omega_phi_residual = {_fmt(single.omega_phi_residual)}",
        f"single.shift_residual = {_fmt(single.shift_residual)}",
    ]
    try:
        amp = dfs_state_single(dp)
    except DarkStateError as exc:
        lines.append(f"single.dfs_state = unavailable ({exc})")
    else:
        lines.append(f"single.c1_abs = {_fmt(abs(amp.c1))}")
        lines.append(f"single.c_phi_abs = {_fmt(abs(amp.c_phi))}")
    return lines + _report_lines_dark(params)


def cmd_sweep(args) -> list[str]:
    ini = _load_ini(args.config)
    sweep = _parse_sweep(ini)
    base = _parse_system(ini)
    engine = _parse_engine(args, ini)
    names = _parse_observables(ini)
    rows = sweep.rows(engine, base, names)
    comments = ["command = sweep", *sweep.comments(engine), *_system_comment_lines(base)]
    return _csv(comments, [sweep.parameter, *names], rows)


def _reject_overrides(ini: configparser.ConfigParser, command: str) -> None:
    if any(ini.has_option("engine", key) for key in _OVERRIDE_KEYS):
        raise ConfigError(
            f"{command} always uses the physically reachable coupling; "
            "remove g_chi/gamma_chi overrides"
        )


def cmd_oracle_compare(args) -> list[str]:
    ini = _load_ini(args.config)
    _reject_overrides(ini, "oracle-compare")
    params = _parse_system(ini)
    cutoff = _parse_cutoff(args, ini)
    # The five-state solve goes first: it refuses an x_phase before the
    # full engine loads scipy and factorises.
    five = Engine("truncated", cutoff).solve(params)
    rho_full = Engine("full", cutoff).solve(params).rho[0]
    # Compare on the retained five-state block: restrict the full state there
    # rather than padding the truncated one with zeros, so the distance is not
    # dominated by small full-space coherences into the discarded states.
    iso = coll.embedding_isometry(cutoff)
    block = iso.conj().T @ rho_full @ iso
    distance = float(np.linalg.norm(block - coll.collective_to_product(five.rho[0], five.cp)))
    pops = np.real(np.diag(rho_full))
    leaked = float(sum(pop for pop, kept in zip(pops, iso.any(axis=1)) if not kept))
    return _system_comment_lines(params) + [
        f"cutoff = {cutoff.n_max}",
        f"frobenius_distance = {_fmt(distance)}",
        f"leaked_population = {_fmt(leaked)}",
    ]


def cmd_converge(args) -> list[str]:
    ini = _load_ini(args.config)
    params = _parse_system(ini)
    if _engine_name(args, ini) != "full":
        raise ConfigError("converge studies the full engine's Fock cutoff")
    _reject_overrides(ini, "converge")
    if args.cutoff is not None:
        raise ConfigError("converge takes its cutoff list from [engine] cutoffs")
    raw = ini.get("engine", "cutoffs", fallback=None)
    if raw is None:
        cutoffs = DEFAULT_CONVERGE_CUTOFFS
    else:
        try:
            cutoffs = tuple(int(tok) for tok in raw.split(",") if tok.strip())
        except ValueError as exc:
            raise ConfigError(f"[engine] cutoffs = {raw!r} is not an integer list") from exc
    if len(cutoffs) < 2:
        raise ConfigError("converge needs at least two cutoffs")
    engines = [Engine("full", _cutoff(n_max)) for n_max in cutoffs]
    table = [
        [n_max, *engine.observe(params, DEFAULT_OBSERVABLES).values()]
        for n_max, engine in zip(cutoffs, engines)
    ]
    rows = [
        row + [abs(row[1] - prev[1]), abs(row[2] - prev[2])]
        for prev, row in zip([[math.nan] * 3] + table, table)
    ]
    header = ["n_max", "mean_n", "g2", "purity", "abs_diff_mean_n", "abs_diff_g2"]
    return _csv(["command = converge"] + _system_comment_lines(params), header, rows)


def cmd_figure(args) -> list[str]:
    preset = FIGURE_PRESETS[args.figure_id]
    sweep = preset.sweep
    cutoff = _cutoff(DEFAULT_CUTOFF if args.cutoff is None else args.cutoff)
    comments = [f"command = figure {args.figure_id}"]
    comments += sweep.comments(Engine(preset.engine, cutoff))
    header, columns = [sweep.parameter], []
    for curve in preset.curves:
        engine = Engine(preset.engine, cutoff, curve.overrides)
        rows = sweep.rows(engine, curve.system, (preset.observable,))
        columns.append(rows[:, 1])
        header.append(f"{preset.observable}[{curve.label}]")
        extras = "".join(f" {k}={_fmt(v)}" for k, v in sorted(curve.overrides.items()))
        comments.append(f"curve {curve.label}:{extras}")
        comments += [f"  {line}" for line in _system_comment_lines(curve.system)]
    return _csv(comments, header, zip(sweep.grid(), *columns))


# ---------------------------------------------------------------------------


# Subcommand -> (handler, help, options besides --out).
_COMMANDS = {
    "point": (cmd_point, "steady-state report at one parameter set",
              ("--config", "--cutoff", "--engine")),
    "sweep": (cmd_sweep, "sweep one parameter, emit CSV", ("--config", "--cutoff", "--engine")),
    "darkcheck": (cmd_darkcheck, "dark-state conditions and residuals", ("--config",)),
    "oracle-compare": (cmd_oracle_compare, "five-state oracle vs full steady state",
                       ("--config", "--cutoff")),
    "converge": (cmd_converge, "observables vs Fock cutoff", ("--config", "--cutoff", "--engine")),
    "figure": (cmd_figure, "run a named preset sweep", ("figure_id", "--cutoff")),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="chiralqed",
        description="Steady states and photon statistics of a chirally "
        "waveguide-coupled atom and two-photon-pumped cavity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    options = {
        "figure_id": {"choices": sorted(FIGURE_PRESETS)},
        "--config": {"help": "INI config file"},
        "--out": {"help": "output file (default stdout)"},
        "--cutoff": {"type": int, "help": "Fock cutoff n_max"},
        "--engine": {"choices": ("full", "truncated")},
    }
    for name, (func, help_text, flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag, kwargs in options.items():
            if flag == "--out" or flag in flags:
                command.add_argument(flag, **kwargs)
        command.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.out is not None:
            _check_out(args.out)
        lines = args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (
        DegenerateSteadyStateError,
        PositivityError,
        np.linalg.LinAlgError,
        OverflowError,
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    _write_output(lines, args.out)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
