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
import math
import sys
from typing import Iterable, TextIO

import numpy as np

from . import collective as coll
from . import observables as obs
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
    IntegrationFailureError,
    PositivityError,
    steady_state,
)
from .fock_algebra import BasisLabel, FockCutoff
from .model import SystemParams, build_liouvillian, derive

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

DEFAULT_CUTOFF = 8
DEFAULT_CONVERGE_CUTOFFS = (4, 6, 8, 12)

SWEEPABLE = ("phi_d", "delta_s", "gamma", "omega_c", "chi", "x_phase", "g_chi")
OBSERVABLE_NAMES = (
    "mean_n",
    "g2",
    "purity",
    "rho_11",
    "rho_22",
    "rho_psipsi",
    "rho_phiphi",
    "rho_xixi",
    "rho_zetazeta",
)
DEFAULT_OBSERVABLES = ("mean_n", "g2", "purity")

_SYSTEM_KEYS = (
    "kappa",
    "gamma",
    "chi",
    "delta_c",
    "delta_a",
    "delta_s",
    "delta",
    "omega_c",
    "omega_a",
    "e_mag",
    "phi_d",
    "x_phase",
)


class ConfigError(Exception):
    """Bad config file, bad flag combination, or out-of-range parameter."""


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


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
    known = {"system", "sweep", "engine", "output"}
    for section in parser.sections():
        if section not in known:
            raise ConfigError(f"unknown config section [{section}]")
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
    for key in section:
        if key not in _SYSTEM_KEYS:
            raise ConfigError(f"[system] unknown key {key!r}")
    values = {key: _get_float(section, key) for key in section}

    kappa = values.pop("kappa", 1.0)
    if kappa != 1.0:
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
        return SystemParams(kappa=1.0, **values)
    except ValueError as exc:
        raise ConfigError(f"[system] {exc}") from exc


def _parse_cutoff(args, ini: configparser.ConfigParser) -> FockCutoff:
    if args.cutoff is not None:
        n_max = args.cutoff
    elif ini.has_option("engine", "cutoff"):
        raw = ini["engine"]["cutoff"]
        try:
            n_max = int(raw)
        except ValueError as exc:
            raise ConfigError(f"[engine] cutoff = {raw!r} is not an integer") from exc
    else:
        n_max = DEFAULT_CUTOFF
    try:
        return FockCutoff(n_max)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_engine(args, ini: configparser.ConfigParser) -> str:
    engine = args.engine
    if engine is None and ini.has_option("engine", "engine"):
        engine = ini["engine"]["engine"]
    if engine is None:
        engine = "full"
    if engine not in ("full", "truncated"):
        raise ConfigError(f"engine must be 'full' or 'truncated', got {engine!r}")
    return engine


def _parse_observables(ini: configparser.ConfigParser) -> tuple[str, ...]:
    if not ini.has_option("output", "observables"):
        return DEFAULT_OBSERVABLES
    names = tuple(
        token.strip() for token in ini["output"]["observables"].split(",") if token.strip()
    )
    if not names:
        raise ConfigError("[output] observables is empty")
    for name in names:
        if name not in OBSERVABLE_NAMES:
            raise ConfigError(
                f"unknown observable {name!r}; choose from {', '.join(OBSERVABLE_NAMES)}"
            )
    return names


def _engine_overrides(ini: configparser.ConfigParser) -> dict[str, float]:
    overrides = {}
    if ini.has_section("engine"):
        for key in ("g_chi", "gamma_chi"):
            if ini.has_option("engine", key):
                overrides[key] = _get_float(ini["engine"], key)
    return overrides


# ---------------------------------------------------------------------------
# Observable evaluation for both engines


def _full_observables(
    rho: np.ndarray,
    cutoff: FockCutoff,
    params: SystemParams,
    names: Iterable[str],
) -> dict[str, float]:
    out: dict[str, float] = {}
    cp = None
    for name in names:
        if name == "mean_n":
            out[name] = obs.mean_photon_number(rho, cutoff)
        elif name == "g2":
            value = obs.g2_zero(rho, cutoff)
            out[name] = math.nan if value is None else value
        elif name == "purity":
            out[name] = obs.purity(rho)
        elif name == "rho_11":
            out[name] = obs.population(rho, BasisLabel("g", 0))
        elif name == "rho_22":
            out[name] = obs.population(rho, BasisLabel("g", 1))
        else:
            if cp is None:
                cp = coll.from_system(params)
            label = {"rho_psipsi": "psi", "rho_phiphi": "phi",
                     "rho_xixi": "xi", "rho_zetazeta": "zeta"}[name]
            out[name] = obs.population(rho, label, cp)
    return out


def _truncated_observables(
    rho5: np.ndarray, cp: coll.CollectiveParams, names: Iterable[str]
) -> dict[str, float]:
    out: dict[str, float] = {}
    stats = None
    for name in names:
        if name in ("mean_n", "g2"):
            if stats is None:
                stats = obs.truncated_cavity_stats(rho5, cp)
            mean_n, g2 = stats
            out[name] = mean_n if name == "mean_n" else (math.nan if g2 is None else g2)
        elif name == "purity":
            out[name] = obs.purity(rho5)
        elif name == "rho_11":
            out[name] = obs.population(rho5, "1")
        elif name == "rho_22":
            rho_prod = coll.collective_to_product(rho5, cp)
            out[name] = float(rho_prod[1, 1].real)
        else:
            label = {"rho_psipsi": "psi", "rho_phiphi": "phi",
                     "rho_xixi": "xi", "rho_zetazeta": "zeta"}[name]
            out[name] = obs.population(rho5, label)
    return out


def _solve_point(
    params: SystemParams,
    engine: str,
    cutoff: FockCutoff,
    names: Iterable[str],
    overrides: dict[str, float] | None = None,
) -> dict[str, float]:
    if engine == "full":
        rho = steady_state(build_liouvillian(params, cutoff))
        return _full_observables(rho, cutoff, params, names)
    tp = trunc.from_system(params)
    if overrides:
        tp = dataclasses.replace(tp, **overrides)
    rho5 = trunc.truncated_steady(tp)
    return _truncated_observables(rho5, tp.cp, names)


# ---------------------------------------------------------------------------
# Sweeps


@dataclasses.dataclass(frozen=True)
class SweepSpec:
    parameter: str
    lo: float
    hi: float
    points: int
    base: SystemParams
    engine: str
    observables: tuple[str, ...]
    cutoff: FockCutoff
    overrides: dict[str, float]

    def __post_init__(self) -> None:
        if self.parameter not in SWEEPABLE:
            raise ConfigError(
                f"cannot sweep {self.parameter!r}; choose from {', '.join(SWEEPABLE)}"
            )
        if not self.lo < self.hi:
            raise ConfigError("sweep range needs lo < hi")
        if self.points < 2:
            raise ConfigError("sweep needs at least 2 points")
        if self.parameter == "g_chi" and self.engine != "truncated":
            raise ConfigError("g_chi is only sweepable with engine=truncated")
        if self.parameter == "x_phase" and self.engine == "truncated":
            raise ConfigError("x_phase has no truncated-engine counterpart")


def _apply_swept(base: SystemParams, name: str, value: float) -> SystemParams:
    if name == "delta_s":
        # Move the sum detuning while freezing the difference.
        delta = derive(base).delta
        return dataclasses.replace(base, delta_c=value + delta, delta_a=value - delta)
    if name in ("phi_d", "gamma", "omega_c", "chi", "x_phase"):
        return dataclasses.replace(base, **{name: value})
    raise ConfigError(f"{name!r} is not a system parameter")


def _sweep_rows(spec: SweepSpec) -> list[list[float]]:
    grid = np.linspace(spec.lo, spec.hi, spec.points)
    rows = []
    for value in grid:
        value = float(value)
        if spec.parameter == "g_chi":
            tp = trunc.from_system(spec.base)
            if spec.overrides:
                tp = dataclasses.replace(tp, **spec.overrides)
            tp = dataclasses.replace(tp, g_chi=value)
            rho5 = trunc.truncated_steady(tp)
            values = _truncated_observables(rho5, tp.cp, spec.observables)
        else:
            try:
                params = _apply_swept(spec.base, spec.parameter, value)
            except ValueError as exc:
                raise ConfigError(f"swept value {value}: {exc}") from exc
            values = _solve_point(
                params, spec.engine, spec.cutoff, spec.observables, spec.overrides
            )
        rows.append([value] + [values[name] for name in spec.observables])
    return rows


def _system_comment_lines(params: SystemParams) -> list[str]:
    dp = derive(params)
    fields = {
        "kappa": params.kappa,
        "gamma": params.gamma,
        "chi": params.chi,
        "delta_c": params.delta_c,
        "delta_a": params.delta_a,
        "delta_s": dp.delta_s,
        "delta": dp.delta,
        "omega_c": params.omega_c,
        "omega_a": params.omega_a,
        "e_mag": params.e_mag,
        "phi_d": params.phi_d,
        "x_phase": params.x_phase,
    }
    return [f"system.{key} = {_fmt(val)}" for key, val in fields.items()]


def _write_csv(
    stream: TextIO,
    comments: list[str],
    header: list[str],
    rows: Iterable[Iterable[float]],
) -> None:
    stream.write("# all rates and frequencies in units of kappa; kappa = 1\n")
    for line in comments:
        stream.write(f"# {line}\n")
    stream.write(",".join(header) + "\n")
    for row in rows:
        stream.write(",".join(_fmt(value) for value in row) + "\n")


def _open_out(path: str | None):
    if path is None:
        return sys.stdout, False
    return open(path, "w", encoding="utf-8"), True


# ---------------------------------------------------------------------------
# Figure presets


@dataclasses.dataclass(frozen=True)
class FigureCurve:
    label: str
    system: SystemParams
    g_chi: float | None = None
    gamma_chi: float | None = None


@dataclasses.dataclass(frozen=True)
class FigurePreset:
    parameter: str
    lo: float
    hi: float
    points: int
    engine: str
    observable: str
    curves: tuple[FigureCurve, ...]


def _dark_pump_system(omega: float, **kwargs) -> SystemParams:
    """Equal drives with the pump magnitude locked to 4 omega^2 / kappa."""
    return SystemParams(
        gamma=1.0, omega_c=omega, omega_a=omega, e_mag=4.0 * omega * omega, **kwargs
    )


FIGURE_PRESETS: dict[str, FigurePreset] = {
    # Bright-polariton (psi) population against the sum detuning, truncated
    # engine with the single-excitation coupling treated as a free knob.
    "figure3": FigurePreset(
        parameter="delta_s",
        lo=-10.0,
        hi=10.0,
        points=201,
        engine="truncated",
        observable="rho_psipsi",
        curves=(
            FigureCurve(
                label="delta5_omega0.04",
                system=SystemParams(
                    gamma=1.0, delta_c=5.0, delta_a=-5.0, omega_c=0.04, omega_a=0.04
                ),
                g_chi=5.0,
                gamma_chi=2.0,
            ),
            FigureCurve(
                label="delta0_omega0.04",
                system=SystemParams(gamma=1.0, omega_c=0.04, omega_a=0.04),
                g_chi=5.0,
                gamma_chi=2.0,
            ),
            FigureCurve(
                label="delta0_omega0.02",
                system=SystemParams(gamma=1.0, omega_c=0.02, omega_a=0.02),
                g_chi=5.0,
                gamma_chi=2.0,
            ),
        ),
    ),
    # Photon statistics against the pump phase.  The fully chiral curve is
    # emitted twice: once with the pump magnitude 2 omega^2 that matches the
    # balance condition at delta = kappa, once with the 4 omega^2 the
    # nonchiral curves use.  See the README note on this ambiguity.
    "figure4": FigurePreset(
        parameter="phi_d",
        lo=-math.pi,
        hi=math.pi,
        points=201,
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
        parameter="delta_s",
        lo=-1.0,
        hi=1.0,
        points=41,
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
        parameter="gamma",
        lo=0.25,
        hi=4.0,
        points=76,
        engine="full",
        observable="g2",
        curves=(
            FigureCurve(label="omega0.01", system=_dark_pump_system(0.01)),
            FigureCurve(label="omega0.03", system=_dark_pump_system(0.03)),
            FigureCurve(label="omega0.05", system=_dark_pump_system(0.05)),
        ),
    ),
    "figure7": FigurePreset(
        parameter="delta_s",
        lo=-1.0,
        hi=1.0,
        points=41,
        engine="full",
        observable="rho_22",
        curves=(
            FigureCurve(label="omega0.03", system=_dark_pump_system(0.03)),
            FigureCurve(label="omega0.09", system=_dark_pump_system(0.09)),
        ),
    ),
}


def _figure_rows(
    preset: FigurePreset, cutoff: FockCutoff
) -> tuple[list[str], list[list[float]]]:
    grid = np.linspace(preset.lo, preset.hi, preset.points)
    header = [preset.parameter] + [
        f"{preset.observable}[{curve.label}]" for curve in preset.curves
    ]
    columns: list[list[float]] = []
    for curve in preset.curves:
        overrides = {}
        if curve.g_chi is not None:
            overrides["g_chi"] = curve.g_chi
        if curve.gamma_chi is not None:
            overrides["gamma_chi"] = curve.gamma_chi
        spec = SweepSpec(
            parameter=preset.parameter,
            lo=preset.lo,
            hi=preset.hi,
            points=preset.points,
            base=curve.system,
            engine=preset.engine,
            observables=(preset.observable,),
            cutoff=cutoff,
            overrides=overrides,
        )
        columns.append([row[1] for row in _sweep_rows(spec)])
    rows = [
        [float(grid[i])] + [col[i] for col in columns] for i in range(preset.points)
    ]
    return header, rows


# ---------------------------------------------------------------------------
# Subcommands


def _report_lines_point(
    params: SystemParams, engine: str, cutoff: FockCutoff, overrides: dict[str, float]
) -> list[str]:
    names = OBSERVABLE_NAMES
    values = _solve_point(params, engine, cutoff, names, overrides)
    lines = []
    for name in names:
        value = values[name]
        if name == "g2" and math.isnan(value):
            lines.append("g2 = undefined (mean photon number below 1e-14)")
        else:
            lines.append(f"{name} = {_fmt(value)}")
    lines.extend(_report_lines_dark(params))
    return lines


def _report_lines_dark(params: SystemParams) -> list[str]:
    report = dark_conditions_double(params)
    lines = []
    for flag, state in report.condition_flags.items():
        lines.append(f"flag.{flag} = {'true' if state else 'false'}")
    lines.append(f"dfs_residual = {_fmt(report.dfs_residual)}")
    lines.append(f"dark_residual = {_fmt(report.dark_residual)}")
    lines.append(f"jump_residual = {_fmt(report.jump_residual)}")
    if report.required_E is None:
        lines.append("required_E = undefined (pump phase is free or no finite pump works)")
    else:
        req = report.required_E
        lines.append(f"required_E_abs = {_fmt(abs(req))}")
        lines.append(f"required_E_phase = {_fmt(math.atan2(req.imag, req.real))}")
    try:
        ratio, required = dfs_requirements_double(params)
    except DarkStateError as exc:
        lines.append(f"dfs_requirements = unavailable ({exc})")
    else:
        lines.append(f"dfs_ratio_abs = {_fmt(abs(ratio))}")
        lines.append(f"dfs_ratio_phase = {_fmt(math.atan2(ratio.imag, ratio.real))}")
        lines.append(f"dfs_required_E_abs = {_fmt(abs(required))}")
        lines.append(
            f"dfs_required_E_phase = {_fmt(math.atan2(required.imag, required.real))}"
        )
    return lines


def cmd_point(args) -> int:
    ini = _load_ini(args.config)
    params = _parse_system(ini)
    engine = _parse_engine(args, ini)
    cutoff = _parse_cutoff(args, ini)
    overrides = _engine_overrides(ini)
    if overrides and engine != "truncated":
        raise ConfigError("g_chi/gamma_chi overrides need engine=truncated")
    lines = _report_lines_point(params, engine, cutoff, overrides)
    stream, owned = _open_out(args.out)
    try:
        for line in _system_comment_lines(params):
            stream.write(f"# {line}\n")
        for line in lines:
            stream.write(line + "\n")
    finally:
        if owned:
            stream.close()
    return EXIT_OK


def cmd_darkcheck(args) -> int:
    ini = _load_ini(args.config)
    params = _parse_system(ini)
    dp = derive(params)
    single = dark_conditions_single(dp)
    lines = [
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
    lines.extend(_report_lines_dark(params))
    stream, owned = _open_out(args.out)
    try:
        for line in _system_comment_lines(params):
            stream.write(f"# {line}\n")
        for line in lines:
            stream.write(line + "\n")
    finally:
        if owned:
            stream.close()
    return EXIT_OK


def cmd_sweep(args) -> int:
    ini = _load_ini(args.config)
    if not ini.has_section("sweep"):
        raise ConfigError("sweep needs a [sweep] section")
    section = ini["sweep"]
    for key in section:
        if key not in ("parameter", "lo", "hi", "points"):
            raise ConfigError(f"[sweep] unknown key {key!r}")
    parameter = section.get("parameter")
    if parameter is None:
        raise ConfigError("[sweep] parameter is required")
    try:
        points = int(section.get("points", ""))
    except ValueError as exc:
        raise ConfigError("[sweep] points must be an integer") from exc
    spec = SweepSpec(
        parameter=parameter,
        lo=_get_float(section, "lo"),
        hi=_get_float(section, "hi"),
        points=points,
        base=_parse_system(ini),
        engine=_parse_engine(args, ini),
        observables=_parse_observables(ini),
        cutoff=_parse_cutoff(args, ini),
        overrides=_engine_overrides(ini),
    )
    if spec.overrides and spec.engine != "truncated":
        raise ConfigError("g_chi/gamma_chi overrides need engine=truncated")
    rows = _sweep_rows(spec)
    comments = [
        "command = sweep",
        f"sweep.parameter = {spec.parameter}",
        f"sweep.lo = {_fmt(spec.lo)}",
        f"sweep.hi = {_fmt(spec.hi)}",
        f"sweep.points = {spec.points}",
        f"engine.engine = {spec.engine}",
        f"engine.cutoff = {spec.cutoff.n_max}",
    ]
    comments += [f"engine.{k} = {_fmt(v)}" for k, v in sorted(spec.overrides.items())]
    comments += _system_comment_lines(spec.base)
    header = [spec.parameter, *spec.observables]
    stream, owned = _open_out(args.out)
    try:
        _write_csv(stream, comments, header, rows)
    finally:
        if owned:
            stream.close()
    return EXIT_OK


def cmd_oracle_compare(args) -> int:
    ini = _load_ini(args.config)
    if _engine_overrides(ini):
        raise ConfigError(
            "oracle-compare always uses the physically reachable coupling; "
            "remove g_chi/gamma_chi overrides"
        )
    params = _parse_system(ini)
    cutoff = _parse_cutoff(args, ini)
    rho_full = steady_state(build_liouvillian(params, cutoff))
    tp = trunc.from_system(params)
    rho5 = trunc.truncated_steady(tp)
    # Compare on the retained five-state block: restrict the full state there
    # rather than padding the truncated one with zeros, so the distance is not
    # dominated by small full-space coherences into the discarded states.
    iso = coll.embedding_isometry(cutoff)
    block = iso.conj().T @ rho_full @ iso
    distance = float(
        np.linalg.norm(block - coll.collective_to_product(rho5, tp.cp))
    )
    pops = np.real(np.diag(rho_full))
    retained = {0, 1, 2, cutoff.fock_dim, cutoff.fock_dim + 1}
    leaked = float(sum(pops[i] for i in range(cutoff.dim) if i not in retained))
    lines = _system_comment_lines(params) + [
        f"cutoff = {cutoff.n_max}",
        f"frobenius_distance = {_fmt(distance)}",
        f"leaked_population = {_fmt(leaked)}",
    ]
    stream, owned = _open_out(args.out)
    try:
        for line in lines:
            stream.write(line + "\n")
    finally:
        if owned:
            stream.close()
    return EXIT_OK


def cmd_converge(args) -> int:
    ini = _load_ini(args.config)
    params = _parse_system(ini)
    if _parse_engine(args, ini) != "full":
        raise ConfigError("converge studies the full engine's Fock cutoff")
    if args.cutoff is not None:
        raise ConfigError("converge takes its cutoff list from [engine] cutoffs")
    if ini.has_option("engine", "cutoffs"):
        raw = ini["engine"]["cutoffs"]
        try:
            cutoffs = tuple(int(tok) for tok in raw.split(",") if tok.strip())
        except ValueError as exc:
            raise ConfigError(f"[engine] cutoffs = {raw!r} is not an integer list") from exc
    else:
        cutoffs = DEFAULT_CONVERGE_CUTOFFS
    if len(cutoffs) < 2:
        raise ConfigError("converge needs at least two cutoffs")
    rows = []
    previous: dict[str, float] | None = None
    for n_max in cutoffs:
        try:
            cutoff = FockCutoff(n_max)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        values = _solve_point(params, "full", cutoff, ("mean_n", "g2", "purity"))
        diff_n = math.nan if previous is None else abs(values["mean_n"] - previous["mean_n"])
        diff_g2 = math.nan if previous is None else abs(values["g2"] - previous["g2"])
        rows.append(
            [n_max, values["mean_n"], values["g2"], values["purity"], diff_n, diff_g2]
        )
        previous = values
    comments = ["command = converge"] + _system_comment_lines(params)
    header = ["n_max", "mean_n", "g2", "purity", "abs_diff_mean_n", "abs_diff_g2"]
    stream, owned = _open_out(args.out)
    try:
        _write_csv(stream, comments, header, rows)
    finally:
        if owned:
            stream.close()
    return EXIT_OK


def cmd_figure(args) -> int:
    preset = FIGURE_PRESETS[args.figure_id]
    try:
        cutoff = FockCutoff(args.cutoff if args.cutoff is not None else DEFAULT_CUTOFF)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    header, rows = _figure_rows(preset, cutoff)
    comments = [
        f"command = figure {args.figure_id}",
        f"sweep.parameter = {preset.parameter}",
        f"sweep.lo = {_fmt(preset.lo)}",
        f"sweep.hi = {_fmt(preset.hi)}",
        f"sweep.points = {preset.points}",
        f"engine.engine = {preset.engine}",
        f"engine.cutoff = {cutoff.n_max}",
    ]
    for curve in preset.curves:
        extras = ""
        if curve.g_chi is not None:
            extras += f" g_chi={_fmt(curve.g_chi)}"
        if curve.gamma_chi is not None:
            extras += f" gamma_chi={_fmt(curve.gamma_chi)}"
        comments.append(f"curve {curve.label}:{extras}")
        comments += [f"  {line}" for line in _system_comment_lines(curve.system)]
    stream, owned = _open_out(args.out)
    try:
        _write_csv(stream, comments, header, rows)
    finally:
        if owned:
            stream.close()
    return EXIT_OK


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chiralqed",
        description="Steady states and photon statistics of a chirally "
        "waveguide-coupled atom and two-photon-pumped cavity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, engine: bool = True) -> None:
        p.add_argument("--config", help="INI config file")
        p.add_argument("--out", help="output file (default stdout)")
        p.add_argument("--cutoff", type=int, help="Fock cutoff n_max")
        if engine:
            p.add_argument("--engine", choices=("full", "truncated"))

    p_point = sub.add_parser("point", help="steady-state report at one parameter set")
    add_common(p_point)
    p_point.set_defaults(func=cmd_point)

    p_sweep = sub.add_parser("sweep", help="sweep one parameter, emit CSV")
    add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_dark = sub.add_parser("darkcheck", help="dark-state conditions and residuals")
    p_dark.add_argument("--config", help="INI config file")
    p_dark.add_argument("--out", help="output file (default stdout)")
    p_dark.set_defaults(func=cmd_darkcheck)

    p_oracle = sub.add_parser(
        "oracle-compare", help="five-state oracle vs full steady state"
    )
    add_common(p_oracle, engine=False)
    p_oracle.set_defaults(func=cmd_oracle_compare)

    p_conv = sub.add_parser("converge", help="observables vs Fock cutoff")
    add_common(p_conv)
    p_conv.set_defaults(func=cmd_converge)

    p_fig = sub.add_parser("figure", help="run a named preset sweep")
    p_fig.add_argument("figure_id", choices=sorted(FIGURE_PRESETS))
    p_fig.add_argument("--out", help="output file (default stdout)")
    p_fig.add_argument("--cutoff", type=int, help="Fock cutoff n_max")
    p_fig.set_defaults(func=cmd_figure)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (
        DegenerateSteadyStateError,
        IntegrationFailureError,
        PositivityError,
        np.linalg.LinAlgError,
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
