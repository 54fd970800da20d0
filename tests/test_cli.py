import contextlib
import dataclasses
import filecmp
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiralqed import collective as coll
from chiralqed import observables as obs
from chiralqed import truncated_oracle as trunc
from chiralqed import cli
from chiralqed.cli import _SYSTEM_KEYS, FIGURE_PRESETS, Engine, main
from chiralqed.dynamics import steady_state
from chiralqed.fock_algebra import FockCutoff
from chiralqed.model import SystemParams, build_liouvillian
from chiralqed.observables import OBSERVABLES

from conftest import OUT_OF_RANGE_FIELDS, gauge_members, subprocess_env

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


DARK_SYSTEM = """
[system]
kappa = 1.0
gamma = 1.0
chi = 0.0
delta_c = 0.0
delta_a = 0.0
omega_c = 0.01
omega_a = 0.01
e_mag = 0.0004
phi_d = 0.0
"""


def _write(tmp_path, body, name="config.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    return str(path)


def _values(text):
    """Parse 'name = value' report lines, skipping comments."""
    out = {}
    for line in text.splitlines():
        if line.startswith("#") or " = " not in line:
            continue
        key, _, raw = line.partition(" = ")
        out[key] = raw
    return out


def test_point_vacuum_reports_undefined_g2(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        """
        [system]
        kappa = 1.0
        gamma = 1.0
        chi = 0.0
        """,
    )
    assert main(["point", "--config", cfg]) == 0
    report = _values(capsys.readouterr().out)
    assert report["g2"] == "undefined (mean photon number below 1e-14)"
    assert float(report["mean_n"]) == pytest.approx(0.0, abs=1e-13)
    assert float(report["rho_11"]) == pytest.approx(1.0, abs=1e-12)


def test_point_dark_state_report(tmp_path, capsys):
    cfg = _write(tmp_path, DARK_SYSTEM)
    assert main(["point", "--config", cfg, "--cutoff", "8"]) == 0
    out = capsys.readouterr().out
    report = _values(out)
    assert float(report["g2"]) == pytest.approx(0.0032038358999083483, rel=1e-9)
    assert float(report["mean_n"]) == pytest.approx(3.996807673864186e-4, rel=1e-9)
    assert float(report["purity"]) == pytest.approx(1.0, abs=1e-8)
    assert report["flag.e_matches"] == "true"
    assert report["flag.phase_free"] == "false"
    assert float(report["required_E_abs"]) == pytest.approx(4e-4, rel=1e-12)
    assert float(report["dfs_residual"]) < 1e-12
    # resolved configuration is echoed in the comment header
    assert "# system.omega_c = 0.01" in out
    assert "# system.delta_s = 0" in out


@pytest.mark.parametrize("engine", ["full", "truncated"])
def test_rho_22_is_the_atom_excited_level(tmp_path, capsys, engine):
    # figure7's omega = 0.09 curve at delta_s = 0.5, where the |g,1>
    # population is 4.5% off the excited level
    omega = 0.09
    params = SystemParams(
        delta_c=0.5, delta_a=0.5, omega_c=omega, omega_a=omega, e_mag=4 * omega**2
    )
    cfg = _write(
        tmp_path,
        f"[system]\ndelta_s = 0.5\nomega_c = {omega!r}\nomega_a = {omega!r}\n"
        f"e_mag = {params.e_mag!r}\n[engine]\nengine = {engine}\ncutoff = 8\n",
    )
    assert main(["point", "--config", cfg]) == 0
    rho_22 = float(_values(capsys.readouterr().out)["rho_22"])
    if engine == "full":
        cutoff = FockCutoff(8)
        rho = steady_state(build_liouvillian(params, cutoff))
        excited = range(cutoff.fock_dim, cutoff.dim)
    else:
        tp = trunc.from_system(params)
        rho = coll.collective_to_product(steady_state(trunc.truncated_liouvillian(tp)), tp.cp)
        excited = (3, 4)  # |e,0> and |e,1> in the five-state product order
    assert rho_22 == pytest.approx(sum(rho[i, i].real for i in excited), rel=1e-12)


def test_point_truncated_engine_with_override(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        """
        [system]
        kappa = 1.0
        gamma = 1.0
        chi = 0.0
        delta_c = 5.0
        delta_a = -5.0
        omega_c = 0.04
        omega_a = 0.04

        [engine]
        engine = truncated
        g_chi = 5.0
        gamma_chi = 2.0
        """,
    )
    assert main(["point", "--config", cfg]) == 0
    report = _values(capsys.readouterr().out)
    assert float(report["rho_psipsi"]) < 1e-8


def test_override_requires_truncated_engine(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        """
        [system]
        kappa = 1.0
        gamma = 1.0

        [engine]
        engine = full
        g_chi = 5.0
        """,
    )
    assert main(["point", "--config", cfg]) == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value", [("gamma_chi", "-1"), ("gamma_chi", "nan"), ("g_chi", "inf")]
)
def test_bad_override_is_config_error(tmp_path, capsys, key, value):
    cfg = _write(
        tmp_path,
        DARK_SYSTEM + f"[engine]\nengine = truncated\n{key} = {value}\n",
    )
    assert main(["point", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err


def test_overflowing_collective_rate_is_config_error(tmp_path, capsys):
    # gamma_chi = (1 + chi)(kappa + gamma) overflows before any override applies
    cfg = _write(
        tmp_path, "[system]\ngamma = 1e308\nchi = 1.0\nomega_c = 0.01\n[engine]\nengine = truncated\n"
    )
    assert main(["point", "--config", cfg]) == 2
    assert capsys.readouterr().err == "config error: [engine] gamma_chi must be finite, got inf\n"


def test_config_rejects_scaled_kappa(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        """
        [system]
        kappa = 2.0
        gamma = 1.0
        """,
    )
    assert main(["point", "--config", cfg]) == 2
    assert "kappa is fixed to 1" in capsys.readouterr().err


def test_config_rejects_out_of_range_chi(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        """
        [system]
        kappa = 1.0
        gamma = 1.0
        chi = 1.5
        """,
    )
    assert main(["point", "--config", cfg]) == 2
    assert "config error:" in capsys.readouterr().err


def test_config_rejects_mixed_detuning_styles(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        """
        [system]
        kappa = 1.0
        gamma = 1.0
        delta_s = 0.1
        delta_c = 0.2
        """,
    )
    assert main(["point", "--config", cfg]) == 2
    assert "config error:" in capsys.readouterr().err


def test_config_rejects_unknown_section(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        """
        [system]
        kappa = 1.0
        gamma = 1.0

        [bogus]
        key = 1
        """,
    )
    assert main(["point", "--config", cfg]) == 2


@pytest.mark.parametrize(
    "section, entry",
    [("engine", "cutof = 16"), ("output", "observabls = g2")],
    ids=["engine", "output"],
)
def test_config_rejects_unknown_engine_and_output_keys(tmp_path, capsys, section, entry):
    cfg = _write(tmp_path, f"{DARK_SYSTEM}\n[{section}]\n{entry}\n")
    assert main(["point", "--config", cfg]) == 2
    key = entry.split(" = ")[0]
    assert f"config error: [{section}] unknown key {key!r}" in capsys.readouterr().err


def test_degenerate_point_exits_numerical(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        """
        [system]
        kappa = 1.0
        gamma = 0.0
        chi = 0.0
        """,
    )
    assert main(["point", "--config", cfg]) == 3
    assert "numerical failure:" in capsys.readouterr().err


def test_overflowing_drive_exits_numerical(tmp_path, capsys):
    # omega_c**2 in the dark-state conditions overflows a float
    cfg = _write(tmp_path, "[system]\nomega_c = 1e160\nomega_a = 1e160\n")
    assert main(["darkcheck", "--config", cfg]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure:") and captured.err.count("\n") == 1
    # point solves first, and numpy warns on stderr of the same overflow there
    result = subprocess.run(
        [sys.executable, "-m", "chiralqed.cli", "point", "--engine", "truncated",
         "--config", cfg],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )
    assert (result.returncode, result.stdout) == (3, "")
    assert result.stderr.splitlines()[-1].startswith("numerical failure:")


def _run_cli(*argv) -> subprocess.CompletedProcess:
    """The CLI in a fresh process, where numpy's warnings reach stderr."""
    return subprocess.run(
        [sys.executable, "-m", "chiralqed.cli", *argv],
        capture_output=True, text=True, env=subprocess_env(), timeout=120,
    )


@pytest.mark.parametrize(
    "command, body, message",
    [
        (
            ["darkcheck"],
            "[system]\ngamma = 1e308\nchi = 1.0\nomega_c = 0.01\n",
            "[system] gamma_chi must be finite, got inf",
        ),
        (
            ["point", "--cutoff", "4"],
            "[system]\nomega_c = 1e152\nomega_a = 1e152\n",
            "rates too large at cutoff 4: ||L||_F = 3.162e+153 overflows the float64 norms"
            " of a 100-row generator",
        ),
        (
            ["sweep"],
            "[system]\ndelta_c = 1e308\nomega_c = 0.01\n"
            "[sweep]\nparameter = delta_s\nlo = 0.0\nhi = 1.7e308\npoints = 3\n",
            "swept value 1.7e+308: delta_c must be finite, got inf",
        ),
    ],
    ids=["darkcheck-collective-rate", "point-generator-norm", "sweep-detuning-sum"],
)
def test_overflowing_input_is_one_config_error_line(tmp_path, command, body, message):
    result = _run_cli(*command, "--config", _write(tmp_path, body))
    expected = (2, "", f"config error: {message}\n")
    assert (result.returncode, result.stdout, result.stderr) == expected


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_SYSTEM_KEYS), st.sampled_from(["nan", "inf", "-inf"]))
def test_point_rejects_non_finite_config_value(key, raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.ini")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(f"[system]\n{key} = {raw}\n")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["point", "--config", path]) == 2
    assert "config error:" in err.getvalue()


@settings(max_examples=60, deadline=None)
@given(OUT_OF_RANGE_FIELDS)
def test_point_rejects_out_of_range_config_value(field_value):
    name, value = field_value
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.ini")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(f"[system]\n{name} = {value!r}\n")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["point", "--config", path]) == 2
    assert f"config error: [system] {name} must" in err.getvalue()


def test_cutoff_above_the_limit_fails_before_building(tmp_path, capsys, monkeypatch):
    def no_build(*args):
        raise AssertionError("built a generator above the cutoff limit")

    monkeypatch.setattr(cli, "build_liouvillian", no_build)
    assert cli.MAX_CUTOFF >= 24
    assert cli._cutoff(cli.MAX_CUTOFF).n_max == cli.MAX_CUTOFF
    too_large = cli.MAX_CUTOFF + 1
    cfg = _write(tmp_path, DARK_SYSTEM + f"[engine]\ncutoffs = 4, 6, {too_large}\n")
    point = ["point", "--config", cfg, "--cutoff", str(too_large)]
    for argv in (point, ["converge", "--config", cfg]):
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"config error: cutoff {too_large} exceeds the limit of {cli.MAX_CUTOFF}\n"
        )


def test_symmetric_coupling_dark_point_solves_at_every_cutoff(tmp_path, capsys):
    # the README point at chi = 1 is near-dark but unique: its second
    # eigenvalue is -2e-7 at every cutoff, while ||L||_F grows with the cutoff
    with open(os.path.join(DATA, "readme.ini"), encoding="utf-8") as handle:
        cfg = _write(tmp_path, handle.read().replace("chi = 0.0", "chi = 1.0"))
    reports = []
    for cutoff in ("8", "12", "16", "24"):
        assert main(["point", "--config", cfg, "--cutoff", cutoff]) == 0
        reports.append(_values(capsys.readouterr().out))
    for report in reports[1:]:
        for name in ("mean_n", "g2", "purity"):
            assert float(report[name]) == pytest.approx(float(reports[0][name]), rel=1e-12)


def test_degenerate_point_prints_no_solver_noise(tmp_path, capfd):
    # at this cutoff SuperLU would print OpenBLAS argument errors to stdout
    cfg = _write(tmp_path, "[system]\ngamma = 0.0\nchi = 0.0\n")
    assert main(["point", "--config", cfg, "--cutoff", "8"]) == 3
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: non-unique steady state")


def test_darkcheck_reports_both_manifolds(tmp_path, capsys):
    cfg = _write(tmp_path, DARK_SYSTEM)
    assert main(["darkcheck", "--config", cfg]) == 0
    report = _values(capsys.readouterr().out)
    assert report["single.omega_phi_zero"] == "true"
    assert report["single.shift_zero"] == "true"
    assert float(report["single.c_phi_abs"]) == pytest.approx(
        0.028272964322665704, rel=1e-12
    )
    assert float(report["dfs_required_E_abs"]) == pytest.approx(4e-4, rel=1e-12)
    assert float(report["dark_residual"]) < 1e-12


def test_darkcheck_unbalanced_drives_message(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        """
        [system]
        kappa = 1.0
        gamma = 1.0
        omega_c = 0.01
        omega_a = 0.05
        """,
    )
    assert main(["darkcheck", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "dfs_requirements = unavailable" in out


SWEEP_CONFIG = DARK_SYSTEM + """
[sweep]
parameter = delta_s
lo = -0.5
hi = 0.5
points = 5

[engine]
engine = truncated
"""


def test_sweep_csv_layout(tmp_path, capsys):
    cfg = _write(tmp_path, SWEEP_CONFIG)
    assert main(["sweep", "--config", cfg]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# all rates and frequencies in units of kappa; kappa = 1"
    comments = [ln for ln in lines if ln.startswith("# ")]
    assert "# sweep.parameter = delta_s" in comments
    assert "# engine.engine = truncated" in comments
    data = [ln for ln in lines if not ln.startswith("#")]
    assert data[0] == "delta_s,mean_n,g2,purity"
    rows = [ln.split(",") for ln in data[1:]]
    assert len(rows) == 5
    grid = [float(r[0]) for r in rows]
    assert grid == pytest.approx([-0.5, -0.25, 0.0, 0.25, 0.5], abs=1e-15)
    # the dip sits at the resonant grid point
    g2 = [float(r[2]) for r in rows]
    assert min(g2) == g2[2]


def test_sweep_requires_sweep_section(tmp_path, capsys):
    cfg = _write(tmp_path, DARK_SYSTEM)
    assert main(["sweep", "--config", cfg]) == 2
    assert "config error:" in capsys.readouterr().err


def test_sweep_rejects_unknown_parameter(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        DARK_SYSTEM
        + textwrap.dedent("""
        [sweep]
        parameter = e_mag
        lo = 0.0
        hi = 0.001
        points = 3
        """),
    )
    assert main(["sweep", "--config", cfg]) == 2


def test_sweep_rejects_decreasing_grid(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        DARK_SYSTEM
        + textwrap.dedent("""
        [sweep]
        parameter = delta_s
        lo = 1.0
        hi = -1.0
        points = 3
        """),
    )
    assert main(["sweep", "--config", cfg]) == 2


def test_sweep_g_chi_needs_truncated_engine(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        DARK_SYSTEM
        + textwrap.dedent("""
        [sweep]
        parameter = g_chi
        lo = 0.1
        hi = 1.0
        points = 3

        [engine]
        engine = full
        """),
    )
    assert main(["sweep", "--config", cfg]) == 2
    assert capsys.readouterr().err == "config error: g_chi is only sweepable with engine=truncated\n"


@pytest.mark.parametrize("command, system, sweep", [
    ("point", "x_phase = 1.3\n", ""),
    ("sweep", "x_phase = 1.3\n", "[sweep]\nparameter = delta_s\nlo = -1.0\nhi = 1.0\npoints = 3\n"),
    ("sweep", "", "[sweep]\nparameter = x_phase\nlo = 0.0\nhi = 1.0\npoints = 3\n"),
    ("oracle-compare", "x_phase = 1.3\n", ""),
], ids=["point", "sweep-delta_s", "sweep-x_phase", "oracle-compare"])
def test_five_state_engine_refuses_x_phase(tmp_path, capsys, command, system, sweep):
    # the five-state model has no placement phase to set
    engine = "" if command == "oracle-compare" else "[engine]\nengine = truncated\ncutoff = 4\n"
    cfg = _write(tmp_path, DARK_SYSTEM + system + sweep + engine)
    assert main([command, "--config", cfg]) == 2
    assert capsys.readouterr().err == "config error: x_phase has no truncated-engine counterpart\n"


def test_sweep_output_is_deterministic(tmp_path):
    cfg = _write(tmp_path, SWEEP_CONFIG)
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    for out in (first, second):
        result = subprocess.run(
            [sys.executable, "-m", "chiralqed.cli", "sweep",
             "--config", cfg, "--out", str(out)],
            capture_output=True,
            text=True,
            env=subprocess_env(),
        )
        assert result.returncode == 0, result.stderr
    assert filecmp.cmp(first, second, shallow=False)


def _outputs_at_one_and_two_threads(tmp_path, argv):
    """The --out files of one command run at BLAS thread counts 1 and 2."""
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.csv"
        env = subprocess_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                              MKL_NUM_THREADS=threads)
        result = subprocess.run(
            [sys.executable, "-m", "chiralqed.cli", *argv, "--out", str(out)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(out)
    return outputs


def test_full_engine_sweep_independent_of_blas_threads(tmp_path):
    cfg = _write(
        tmp_path,
        DARK_SYSTEM
        + textwrap.dedent("""
        [sweep]
        parameter = phi_d
        lo = -3.0
        hi = 3.0
        points = 7

        [engine]
        engine = full
        cutoff = 8
        """),
    )
    outputs = _outputs_at_one_and_two_threads(tmp_path, ["sweep", "--config", cfg])
    assert filecmp.cmp(*outputs, shallow=False)


def test_five_state_figure_independent_of_blas_threads(tmp_path):
    # figure3: g_chi-overridden delta_s sweeps on the truncated engine
    outputs = _outputs_at_one_and_two_threads(tmp_path, ["figure", "figure3"])
    assert filecmp.cmp(*outputs, shallow=False)


def test_sweep_rows_do_not_depend_on_the_batch_size(tmp_path, capsys, monkeypatch):
    cfg = _write(
        tmp_path,
        DARK_SYSTEM
        + textwrap.dedent("""
        [sweep]
        parameter = g_chi
        lo = -2.0
        hi = 2.0
        points = 8

        [engine]
        engine = truncated
        gamma_chi = 1.5
        """),
    )
    assert main(["sweep", "--config", cfg]) == 0
    whole = capsys.readouterr().out
    monkeypatch.setattr(cli, "BATCH_POINTS", 3)
    assert main(["sweep", "--config", cfg]) == 0
    assert capsys.readouterr().out == whole


def test_sweep_points_above_the_limit_fail_before_allocating(tmp_path, capsys, monkeypatch):
    def no_grid(*args):
        raise AssertionError("built the grid of a sweep above the points limit")

    monkeypatch.setattr(cli.Sweep, "grid", no_grid)
    monkeypatch.setattr(Engine, "solve", no_grid)
    for points in (cli.MAX_SWEEP_POINTS + 1, 10**15):
        cfg = _write(tmp_path, SWEEP_CONFIG.replace("points = 5", f"points = {points}"))
        assert main(["sweep", "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            f"config error: sweep points {points} exceed the limit of {cli.MAX_SWEEP_POINTS}\n"
        )


# (engine, parameter, lo, hi, points, message naming the first invalid value)
SWEPT_VALUE_ERRORS = [
    *(
        (engine, *case)
        for engine in ("full", "truncated")
        for case in (
            ("chi", "0.0", "2.0", 5, "swept value 1.5: chi must lie in [0, 1], got 1.5"),
            ("omega_c", "-1.0", "1.0", 5,
             "swept value -1.0: omega_c must be nonnegative, got -1.0"),
            ("gamma", "-0.5", "1.5", 5, "swept value -0.5: gamma must be nonnegative, got -0.5"),
        )
    ),
]


@pytest.mark.parametrize("engine, parameter, lo, hi, points, message", SWEPT_VALUE_ERRORS)
def test_invalid_swept_value_fails_before_solving(
    tmp_path, capsys, monkeypatch, engine, parameter, lo, hi, points, message
):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved a point of a sweep with an invalid value")

    # batches of two put the invalid chi value past the first batch
    monkeypatch.setattr(cli, "BATCH_POINTS", 2)
    monkeypatch.setattr(cli, "steady_state", no_solve)
    cfg = _write(
        tmp_path,
        DARK_SYSTEM
        + f"[sweep]\nparameter = {parameter}\nlo = {lo}\nhi = {hi}\npoints = {points}\n"
        f"[engine]\nengine = {engine}\ncutoff = 4\n",
    )
    assert main(["sweep", "--config", cfg]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize(
    "engine, parameter, lo, hi",
    [
        ("full", "delta_s", "-inf", "0.0"),
        ("truncated", "delta_s", "-inf", "0.0"),
        ("truncated", "g_chi", "-inf", "0.0"),
        ("full", "delta_s", "-1e308", "1e308"),
        ("truncated", "omega_c", "0.0", "inf"),
    ],
)
def test_sweep_range_of_no_finite_width_is_config_error(
    tmp_path, capsys, engine, parameter, lo, hi
):
    cfg = _write(
        tmp_path,
        DARK_SYSTEM
        + f"[sweep]\nparameter = {parameter}\nlo = {lo}\nhi = {hi}\npoints = 3\n"
        f"[engine]\nengine = {engine}\ncutoff = 4\n",
    )
    assert main(["sweep", "--config", cfg]) == 2
    bounds = f"{float(lo):.17g}, {float(hi):.17g}"
    assert capsys.readouterr().err == (
        f"config error: sweep range [{bounds}] has no finite width\n"
    )


@pytest.mark.parametrize("engine", ["full", "truncated"])
def test_finite_sweep_range_with_a_non_finite_detuning_fails_before_solving(
    tmp_path, capsys, monkeypatch, engine
):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved a point of a sweep with an invalid value")

    monkeypatch.setattr(cli, "steady_state", no_solve)
    # The range is finite, but delta = (delta_c - delta_a) / 2 is not, so no
    # swept value gives a finite delta_c = delta_s + delta.
    cfg = _write(
        tmp_path,
        "[system]\ndelta_c = 1e308\ndelta_a = -1e308\nomega_c = 0.01\n"
        "[sweep]\nparameter = delta_s\nlo = 0.0\nhi = 1e308\npoints = 3\n"
        f"[engine]\nengine = {engine}\ncutoff = 4\n",
    )
    assert main(["sweep", "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        "config error: swept value 0.0: delta_c must be finite, got inf\n"
    )


def _swept_point(base, parameter, value):
    """The system and overrides of one swept value, built alone."""
    if parameter == "g_chi":
        return base, {"g_chi": value}
    if parameter == "delta_s":
        delta = 0.5 * (base.delta_c - base.delta_a)
        return dataclasses.replace(base, delta_c=value + delta, delta_a=value - delta), {}
    return dataclasses.replace(base, **{parameter: value}), {}


@pytest.mark.parametrize("parameter, lo, hi", [
    ("phi_d", -math.pi, math.pi),  # the pump goes through cmath.exp at each value
    ("delta_s", -3.0, 3.0),
    ("gamma", 0.25, 4.0),  # each value has its own gauge, through math.hypot
    ("omega_c", 0.01, 0.1),
    ("chi", 0.0, 1.0),
    ("g_chi", -2.0, 2.0),
])
def test_five_state_sweep_rows_equal_per_point_solves(parameter, lo, hi):
    base = SystemParams(
        gamma=0.8, chi=0.3, delta_c=0.7, delta_a=-0.4, omega_c=0.04, omega_a=0.02,
        e_mag=3e-3, phi_d=0.9,
    )
    sweep = cli.Sweep(parameter, lo, hi, 9)
    engine = Engine("truncated", FockCutoff(8), {"gamma_chi": 1.7} if parameter == "g_chi" else {})
    rows = sweep.rows(engine, base, tuple(OBSERVABLES))
    expected = []
    for value in sweep.grid().tolist():
        params, overrides = _swept_point(base, parameter, value)
        point = Engine("truncated", engine.cutoff, {**engine.overrides, **overrides})
        expected.append([value, *point.observe(params, OBSERVABLES).values()])
    assert rows.tobytes() == np.array(expected).tobytes()


def test_batched_observables_match_the_scalar_readout():
    sweeps = [
        # every gamma has its own gauge
        (SystemParams(delta_c=0.3, omega_c=0.03, omega_a=0.02, e_mag=1e-3), {"gamma_chi": 1.5},
         "gamma", [0.5, 1.0, 2.0]),
        # drives of 1e-8 leave the mean photon number (2.5e-17) below the
        # floor, where g2 is undefined though the ratio is finite
        (SystemParams(omega_a=1e-8), {"gamma_chi": 1.5, "g_chi": 2.0}, "omega_c", [1e-8, 0.03]),
    ]
    for base, overrides, parameter, grid in sweeps:
        engine = Engine("truncated", FockCutoff(8), overrides)
        states = engine.solve(base, parameter, np.array(grid))
        gauges = gauge_members(states.cp, len(grid))
        table = {name: OBSERVABLES[name](states) for name in OBSERVABLES}
        cavity = [obs.truncated_cavity_stats(rho, cp) for rho, cp in zip(states.rho, gauges)]
        if parameter == "omega_c":
            assert 0.0 < cavity[0][0] < obs.MEAN_PHOTON_FLOOR and cavity[0][1] is None
        s5 = coll.product_five_ops()[1]
        expected = {
            "mean_n": [mean_n for mean_n, _ in cavity],
            "g2": [math.nan if g2 is None else g2 for _, g2 in cavity],
            "purity": [obs.purity(rho) for rho in states.rho],
            "rho_22": [
                np.trace(s5.conj().T @ s5 @ coll.collective_to_product(rho, cp)).real
                for rho, cp in zip(states.rho, gauges)
            ],
        }
        for name, label in (("rho_11", "1"), ("rho_psipsi", "psi"), ("rho_phiphi", "phi"),
                            ("rho_xixi", "xi"), ("rho_zetazeta", "zeta")):
            expected[name] = [obs.population(rho, label) for rho in states.rho]
        assert table.keys() == expected.keys()
        for name, values in expected.items():
            assert np.array_equal(table[name], values, equal_nan=True), name


def test_seventeen_digit_round_trip(tmp_path, capsys):
    cfg = _write(tmp_path, SWEEP_CONFIG)
    assert main(["sweep", "--config", cfg]) == 0
    first = capsys.readouterr().out
    assert main(["sweep", "--config", cfg]) == 0
    assert capsys.readouterr().out == first
    # every numeric cell survives parse -> format exactly
    for line in first.splitlines():
        if line.startswith("#") or line.startswith("delta_s"):
            continue
        for cell in line.split(","):
            value = float(cell)
            assert format(value, ".17g") == cell


def test_oracle_compare_at_weak_driving(tmp_path, capsys):
    cfg = _write(tmp_path, DARK_SYSTEM)
    assert main(["oracle-compare", "--config", cfg, "--cutoff", "8"]) == 0
    report = _values(capsys.readouterr().out)
    assert float(report["frobenius_distance"]) == pytest.approx(
        2.2690693943425349e-07, rel=1e-6
    )
    assert float(report["leaked_population"]) < 1e-8
    assert report["cutoff"] == "8"


def test_oracle_compare_rejects_overrides(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        DARK_SYSTEM
        + textwrap.dedent("""
        [engine]
        engine = truncated
        g_chi = 5.0
        """),
    )
    assert main(["oracle-compare", "--config", cfg]) == 2


def test_converge_table(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        DARK_SYSTEM
        + textwrap.dedent("""
        [engine]
        cutoffs = 4, 6, 8
        """),
    )
    assert main(["converge", "--config", cfg]) == 0
    lines = [
        ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith("#")
    ]
    assert lines[0] == "n_max,mean_n,g2,purity,abs_diff_mean_n,abs_diff_g2"
    rows = [ln.split(",") for ln in lines[1:]]
    assert [r[0] for r in rows] == ["4", "6", "8"]
    assert math.isnan(float(rows[0][4])) and math.isnan(float(rows[0][5]))
    # already tightly converged at these cutoffs for weak driving
    assert float(rows[1][5]) < 1e-6
    assert float(rows[2][5]) < 1e-10


def test_converge_rejects_overrides(tmp_path, capsys):
    cfg = _write(tmp_path, DARK_SYSTEM + "[engine]\ncutoffs = 3, 4\ng_chi = 2.0\n")
    assert main(["converge", "--config", cfg]) == 2
    assert "remove g_chi/gamma_chi overrides" in capsys.readouterr().err


def test_converge_rejects_cutoff_flag(tmp_path, capsys):
    cfg = _write(tmp_path, DARK_SYSTEM)
    assert main(["converge", "--config", cfg, "--cutoff", "8"]) == 2


def test_converge_needs_two_cutoffs(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        DARK_SYSTEM
        + textwrap.dedent("""
        [engine]
        cutoffs = 8
        """),
    )
    assert main(["converge", "--config", cfg]) == 2


def test_figure_preset_truncated_population(tmp_path, capsys):
    assert main(["figure", "figure3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = next(ln for ln in lines if not ln.startswith("#"))
    cols = header.split(",")
    assert cols[0] == "delta_s"
    assert len(cols) == 4
    data = [ln.split(",") for ln in lines if not ln.startswith("#")][1:]
    assert len(data) == 201
    center = next(r for r in data if float(r[0]) == 0.0)
    # stationary bright population vanishes on resonance for every curve
    assert all(float(cell) < 1e-8 for cell in center[1:])


def _assert_matches_golden(produced: str, name: str) -> None:
    """produced against tests/data/<name>, line by line.

    Comment lines match exactly; elsewhere, the pieces between ',' and ' = '
    match as text or, where they differ, as numbers to 1e-13 relative, so
    that another BLAS build passes.
    """
    with open(os.path.join(DATA, name), encoding="utf-8") as handle:
        golden = handle.read().splitlines()
    lines = produced.splitlines()
    assert len(lines) == len(golden)
    for line, expected in zip(lines, golden):
        if line.startswith("#"):
            assert line == expected
            continue
        pieces, expected_pieces = re.split(",| = ", line), re.split(",| = ", expected)
        assert len(pieces) == len(expected_pieces), line
        for piece, reference in zip(pieces, expected_pieces):
            if piece != reference:
                assert math.isclose(float(piece), float(reference), rel_tol=1e-13, abs_tol=0.0), line


def test_figure3_matches_the_golden_file(capsys):
    """figure3 against the output written before the five-state sweep was
    assembled and read out as arrays."""
    assert main(["figure", "figure3"]) == 0
    _assert_matches_golden(capsys.readouterr().out, "figure3.csv")


def test_figure7_matches_the_golden_file(capsys):
    """figure7 against the output written before the observable readers moved
    into `observables`; its rho_22 column is read by the full-engine reader."""
    assert main(["figure", "figure7"]) == 0
    _assert_matches_golden(capsys.readouterr().out, "figure7.csv")


def test_figure6_matches_the_golden_file(capsys):
    """figure6 against the output written before the long-double residual
    moved to scipy's CSR product, which moves some of its cells by rounding."""
    assert main(["figure", "figure6"]) == 0
    _assert_matches_golden(capsys.readouterr().out, "figure6.csv")


def test_figure5_matches_the_golden_file(capsys):
    """figure5 against the output written before each trace-constrained system
    was built by putting the trace row in place of row 0 of the generator."""
    assert main(["figure", "figure5"]) == 0
    _assert_matches_golden(capsys.readouterr().out, "figure5.csv")


@pytest.mark.parametrize(
    "command, config, golden",
    [
        ("point", "readme.ini", "point_readme.txt"),
        ("point", "pumped_truncated.ini", "point_pumped_truncated.txt"),
        ("darkcheck", "readme.ini", "darkcheck_readme.txt"),
        ("sweep", "sweep_gamma_truncated.ini", "sweep_gamma_truncated.csv"),
        ("sweep", "sweep_gamma_full.ini", "sweep_gamma_full.csv"),
    ],
)
def test_report_matches_the_golden_file(capsys, command, config, golden):
    """Reports against the output written before the dark-state residuals and
    the five-state engine took their operators from truncated_operators, and
    a five-state gamma sweep, where every point has its own gauge, against
    the output written while the gauges of a sweep were a list of records.
    The full-engine gamma sweep pins each point's collective populations in
    its own gauge, away from the dark point, against the output written
    while population took product-state labels.  readme.ini is the README's
    example config."""
    assert main([command, "--config", os.path.join(DATA, config)]) == 0
    _assert_matches_golden(capsys.readouterr().out, golden)


def test_figure_rejects_unknown_id():
    with pytest.raises(SystemExit):
        main(["figure", "figure99"])


def _csv_columns(text):
    """Header and columns of a CSV, as the printed strings."""
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return lines[0].split(","), list(zip(*(ln.split(",") for ln in lines[1:])))


def test_figure_columns_match_sweeps(tmp_path, capsys):
    preset = FIGURE_PRESETS["figure5"]
    assert main(["figure", "figure5", "--cutoff", "4"]) == 0
    header, columns = _csv_columns(capsys.readouterr().out)
    assert len(header) == len(preset.curves) + 1
    sweep = preset.sweep
    for k, curve in enumerate(preset.curves, start=1):
        system = "".join(
            f"{field} = {getattr(curve.system, field)!r}\n"
            for field in ("gamma", "chi", "delta_c", "delta_a", "omega_c", "omega_a",
                          "e_mag", "phi_d", "x_phase")
        )
        cfg = _write(
            tmp_path,
            f"[system]\n{system}"
            f"[sweep]\nparameter = {sweep.parameter}\nlo = {sweep.lo!r}\n"
            f"hi = {sweep.hi!r}\npoints = {sweep.points}\n"
            f"[engine]\nengine = {preset.engine}\ncutoff = 4\n"
            f"[output]\nobservables = {preset.observable}\n",
            name=f"curve{k}.ini",
        )
        assert main(["sweep", "--config", cfg]) == 0
        _, swept = _csv_columns(capsys.readouterr().out)
        assert swept[0] == columns[0]
        assert swept[1] == columns[k]


OUT_CASES = {
    "point": (["point", "--cutoff", "4"], DARK_SYSTEM),
    "sweep": (["sweep"], SWEEP_CONFIG),
    "darkcheck": (["darkcheck"], DARK_SYSTEM),
    "oracle-compare": (["oracle-compare", "--cutoff", "4"], DARK_SYSTEM),
    "converge": (["converge"], DARK_SYSTEM + "[engine]\ncutoffs = 3, 4\n"),
    "figure": (["figure", "figure5", "--cutoff", "3"], None),
}


@pytest.mark.parametrize("command", OUT_CASES)
def test_point_writes_output_file(tmp_path, capsys, command):
    argv, body = OUT_CASES[command]
    if body is not None:
        argv = argv + ["--config", _write(tmp_path, body)]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    out_file = tmp_path / "out.txt"
    assert main(argv + ["--out", str(out_file)]) == 0
    assert capsys.readouterr().out == ""
    assert printed and out_file.read_bytes() == printed.encode("utf-8")


def test_main_is_reentrant(tmp_path, capsys, monkeypatch):
    """Calls in one process print what each prints in a fresh process, the
    argument parser being built once and shared between them."""
    # argparse wraps --help to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    driven = _write(tmp_path, DARK_SYSTEM, name="driven.ini")
    cfg = _write(tmp_path, SWEEP_CONFIG.replace("engine = truncated", "engine = full"))
    calls = (
        ["point", "--config", driven, "--cutoff", "5"],
        ["point", "--config", driven],
        ["sweep", "--config", cfg, "--engine", "truncated"],
        ["--help"],
        ["point", "--config", driven],
    )
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        in_process = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "chiralqed.cli", *argv],
            capture_output=True,
            text=True,
            env=subprocess_env(COLUMNS="80"),
        )
        assert (code, in_process.out, in_process.err) == (
            fresh.returncode, fresh.stdout, fresh.stderr
        ), argv


def test_unwritable_out_fails_before_solving(tmp_path, capsys, monkeypatch):
    def no_solve(*args):
        raise AssertionError("solved before checking --out")

    monkeypatch.setattr(Engine, "solve", no_solve)
    cfg = _write(tmp_path, DARK_SYSTEM)
    for out in (tmp_path / "missing" / "x.csv", tmp_path):
        assert main(["point", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: cannot write --out")


def test_failed_run_leaves_out_path_alone(tmp_path, capsys):
    bad = _write(tmp_path, "[system]\nkappa = 2.0\n")
    fresh = tmp_path / "fresh.txt"
    kept = tmp_path / "kept.txt"
    kept.write_text("earlier result\n")
    for out in (fresh, kept):
        assert main(["point", "--config", bad, "--out", str(out)]) == 2
    assert not fresh.exists()
    assert kept.read_text() == "earlier result\n"
