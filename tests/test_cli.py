"""CLI and config parsing: schema stability, determinism, exit codes."""

import contextlib
import dataclasses
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from swiptrelay.cli import _apply_overrides, build_parser, main
from swiptrelay.product_dist import ClosedFormRangeError, snr_survival_closed
from swiptrelay.specfun import NumericalGuardError, QuadratureError
from swiptrelay.sweep import ROUTES, run_sweep
from swiptrelay.sweepcfg import (
    CSV_HEADER,
    MODES,
    ConfigError,
    PRESETS,
    parse_config,
    preset_spec,
)

SMALL_CFG = """
# comment line
source_power = 10
noise_power = 1e-3
eh_efficiency = 0.7
dist_sr = 2
dist_rd = 2
pathloss_exp = 2.5
m = 1
theta = -1,1
threshold_db = 0
modes = closed_form,monte_carlo

[sweep]
variable = rho
grid = 0.2,0.5,0.8

[mc]
samples = 20000
seed = 99
"""


def _read(path):
    return path.read_text().splitlines()


def test_parse_config_basics():
    spec = parse_config(SMALL_CFG)
    assert spec.variable == "rho"
    assert spec.grid == (0.2, 0.5, 0.8)
    assert spec.thetas == (-1.0, 1.0)
    assert spec.threshold == pytest.approx(1.0)  # 0 dB
    assert spec.mc.samples == 20000 and spec.mc.seed == 99


def test_parse_config_errors():
    with pytest.raises(ConfigError):
        parse_config("bogus_key = 1\n[sweep]\nvariable = rho\ngrid = 0.5\n")
    with pytest.raises(ConfigError):
        parse_config("[sweep]\nvariable = rho\ngrid = 0.5\nmystery = 2\n")
    with pytest.raises(ConfigError):
        parse_config("[sweep]\nvariable = nonsense\ngrid = 0.5\n")
    with pytest.raises(ConfigError):
        parse_config("[sweep]\nvariable = rho\n")  # no grid or start/stop/count
    with pytest.raises(ConfigError):
        run_sweep(parse_config("[sweep]\nvariable = rho\ngrid = 1.5\n"))  # out of domain
    with pytest.raises(ConfigError):
        parse_config("m = 1\nm = 2\n[sweep]\nvariable = rho\ngrid = 0.5\n")
    with pytest.raises(ConfigError):
        parse_config("[sweep]\nvariable = rho\ngrid = \n")  # empty grid
    with pytest.raises(ConfigError):
        parse_config("not a key value line\n")
    with pytest.raises(ConfigError):
        parse_config("[weird]\nx = 1\n")
    for dup in ("rho = 0.3\nRho = 0.9\n", "Rho = 0.3\nRho = 0.9\n"):
        with pytest.raises(ConfigError, match="duplicate key 'rho'"):
            parse_config(dup + "[sweep]\nvariable = rho\ngrid = 0.5\n")
    with pytest.raises(ConfigError, match="1.5"):
        parse_config("m = 1,1.5\n[sweep]\nvariable = rho\ngrid = 0.5\n")
    for bad in ("threshold = nan\n", "threshold = inf\n", "threshold_db = nan\n"):
        with pytest.raises(ConfigError, match="threshold.*(nan|inf)"):
            parse_config(bad + "[sweep]\nvariable = rho\ngrid = 0.5\n")
    for bad in ("source_power = inf\n", "dist_rd = nan\n", "pathloss_exp = -inf\n"):
        with pytest.raises(ConfigError, match="must be finite"):
            parse_config(bad + "[sweep]\nvariable = rho\ngrid = 0.5\n")
    for bad in ("noise_power_db = 4000\n", "threshold_db = 4000\n"):
        with pytest.raises(ConfigError, match="overflows"):
            parse_config(bad + "[sweep]\nvariable = rho\ngrid = 0.5\n")
    for bad, message in (
        ("source_power = abc\n[sweep]\nvariable = rho\ngrid = 0.5\n", "source_power must be a number"),
        ("[sweep]\nvariable = rho\nstart = 0.1\nstop = 0.9\ncount = two\n", "count must be an integer"),
        ("[sweep]\nvariable = rho\ngrid = 0.5\n[mc]\nsamples = 1e6\n", "samples must be an integer"),
        ("[sweep]\nvariable = rho\ngrid = 0.5\n[mc]\nsamples = 0\n", "samples must be >= 1"),
        ("[sweep]\nvariable = rho\ngrid = 0.5\n[mc]\nseed = -1\n", "seed must lie in"),
        ("theta = 0,2\n[sweep]\nvariable = rho\ngrid = 0.5\n", "theta must lie in"),
        ("[sweep]\nvariable = rho\ngrid = 0.3\nstart = 0.1\nstop = 0.9\ncount = 5\n", "grid.*not both"),
        ("[sweep]\nvariable = rho\ngrid = 0.3\nspacing = log\n", "grid.*not both"),
        ("modes = closed_form,closed_form\n[sweep]\nvariable = rho\ngrid = 0.5\n", "listed twice"),
        # A repeated value would repeat every row it makes.
        ("m = 1,1\n[sweep]\nvariable = rho\ngrid = 0.5\n", "m 1 is listed twice"),
        ("m = 2,1,2.0\n[sweep]\nvariable = rho\ngrid = 0.5\n", "m 2 is listed twice"),
        ("theta = 0.5,0.5\n[sweep]\nvariable = rho\ngrid = 0.5\n", "theta 0.5 is listed twice"),
        ("[sweep]\nvariable = rho\ngrid = 0.3,0.3\n", "grid value 0.3 is listed twice"),
        ("[sweep]\nvariable = theta\ngrid = -1,0,-1\n", "grid value -1.0 is listed twice"),
        ("[sweep]\nvariable = rho\nstart = 0.3\nstop = 0.3\ncount = 2\n", "grid value 0.3 is listed twice"),
        ("[sweep]\nvariable = noise_power\nstart = 1e-2\nstop = 1e-2\ncount = 3\nspacing = log\n",
         "listed twice"),
    ):
        with pytest.raises(ConfigError, match=message):
            parse_config(bad)
    for variable in ("source_power", "gamma_hat_d", "threshold_db"):  # judged when the points resolve
        with pytest.raises(ConfigError, match="outside the domain"):
            run_sweep(parse_config(f"[sweep]\nvariable = {variable}\ngrid = 1,inf\n"))


@pytest.mark.parametrize("line", [
    "dist_sr = 1e-300\n",     # zero path loss: the relay SNR scale divides by zero
    "source_power = 1e308\n",  # finite input, infinite derived SNR scale
    "[sweep]\nvariable = gamma_hat_d\ngrid = 1e-320\n",  # scale underflows to 0
    "[sweep]\nvariable = threshold_db\ngrid = 0,4000\n",
    # grid values outside the variable's domain, judged only when the points resolve
    "[sweep]\nvariable = gamma_hat_r\ngrid = 1,-1\n",
    "[sweep]\nvariable = gamma_hat_r\ngrid = 1,0\n",
    "[sweep]\nvariable = m\ngrid = 1,1.5\n",
    "[sweep]\nvariable = theta\ngrid = 0,2\n",
    "[sweep]\nvariable = threshold_db\ngrid = 0,inf\n",
])
def test_degenerate_grid_point_exits_2(tmp_path, capsys, line):
    text = line if line.startswith("[sweep]") else line + "[sweep]\nvariable = rho\ngrid = 0.5\n"
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("modes = closed_form\n" + text)
    out = tmp_path / "out.csv"
    assert main(["sweep", str(cfg), "-o", str(out)]) == 2
    assert "error: grid point" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["sweep", "{cfg}", "--seed", "-1"],
    ["sweep", "{cfg}", "--seed", str(2**128)],
    ["preset", "fig8", "--samples", "0"],
    ["sweep", "{cfg}", "--workers", "0"],
    ["validate", "--m", "1.5"],
    ["validate", "--m", "x"],
    ["validate", "--theta", "2"],
    ["validate", "--samples", "0"],
    ["validate", "--samples", "1"],
    ["validate", "--grid-points", "0"],
    ["validate", "--seed", "-1"],
    ["sweep", "{cfg}", "--modes", "quadrature,closed_form,quadrature"],
    ["validate", "--m", "1,1"],
    ["validate", "--theta", "0.5,0.5"],
    ["validate", "--m", "1,2", "--theta=-1,0,-1.0"],
])
def test_refused_argument_exits_2(tmp_path, capsys, args):
    cfg = tmp_path / "ok.cfg"
    cfg.write_text("modes = closed_form\n[sweep]\nvariable = rho\ngrid = 0.5\n")
    out = tmp_path / "out.csv"
    argv = [a.replace("{cfg}", str(cfg)) for a in args] + ["-o", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_validate_refuses_sweep_only_flags(tmp_path):
    for flag in (["--modes", "closed_form"], ["--emit-gnuplot"]):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "-o", str(tmp_path / "v.csv")] + flag)
        assert exc.value.code == 2


def _raise_quadrature_error(*args):
    raise QuadratureError("RD capacity quadrature error 1.00e-03")


def test_quadrature_error_exits_2_naming_the_point(tmp_path, capsys, monkeypatch):
    import swiptrelay.sweep as sweep_mod

    cfg = tmp_path / "ok.cfg"
    cfg.write_text("m = 2\ntheta = 0.5\nmodes = closed_form,quadrature\n"
                   "[sweep]\nvariable = rho\ngrid = 0.5\n")
    out = tmp_path / "out.csv"
    monkeypatch.setattr(sweep_mod, "ergodic_capacity_rd", _raise_quadrature_error)
    assert main(["sweep", str(cfg), "-o", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: quadrature at rho = 0.5, theta = 0.5, m = 2: "
        "RD capacity quadrature error 1.00e-03\n")
    assert not out.exists()


def test_validate_quadrature_error_exits_2_naming_the_cell(tmp_path, capsys, monkeypatch):
    import swiptrelay.validation as validation_mod

    out = tmp_path / "v.csv"
    monkeypatch.setattr(validation_mod, "product_cdf_general", _raise_quadrature_error)
    argv = ["validate", "--m", "1", "--theta=-0.5", "--samples", "1000", "-o", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: validate cell m=1,theta=-0.5: RD capacity quadrature error 1.00e-03\n")
    assert not out.exists()


def test_validate_adjudication_error_names_the_adjudication(tmp_path, capsys, monkeypatch):
    import swiptrelay.swipt_metrics as swipt_metrics_mod

    out = tmp_path / "v.csv"
    # validation binds its own ergodic_capacity_rd; only adjudication calls this one.
    monkeypatch.setattr(swipt_metrics_mod, "ergodic_capacity_rd", _raise_quadrature_error)
    argv = ["validate", "--m", "2", "--theta=-0.5", "--samples", "1000", "-o", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: validate cell adjudication,m=2: RD capacity quadrature error 1.00e-03\n")
    assert not out.exists()


def _escape_survival(monkeypatch):
    # A Bessel term this large drives the closed-form survival far above 1.
    import swiptrelay.product_dist as product_dist_mod

    monkeypatch.setattr(product_dist_mod, "bessel_k_scaled", lambda v, x: 1e6)


def test_closed_form_range_error_exits_2_naming_the_point(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "ok.cfg"
    cfg.write_text("m = 2\ntheta = 0.5\nthreshold = 1\nmodes = closed_form\n"
                   "[sweep]\nvariable = rho\ngrid = 0.5\n")
    out = tmp_path / "out.csv"
    _escape_survival(monkeypatch)
    assert main(["sweep", str(cfg), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: closed_form at rho = 0.5, theta = 0.5, m = 2: "
                          "closed-form survival ")
    assert err.endswith(" at y = 1 escapes [0, 1] beyond slack\n")
    assert not out.exists()


def test_validate_closed_form_range_error_exits_2_naming_the_cell(tmp_path, capsys,
                                                                   monkeypatch):
    out = tmp_path / "v.csv"
    _escape_survival(monkeypatch)
    argv = ["validate", "--m", "1", "--theta=-0.5", "--samples", "1000", "-o", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: validate cell m=1,theta=-0.5: closed-form survival ")
    assert err.endswith(" escapes [0, 1] beyond slack\n")
    assert not out.exists()


def test_closed_form_range_error_is_a_numerical_guard_error(monkeypatch):
    _escape_survival(monkeypatch)
    with pytest.raises(ClosedFormRangeError, match="escapes") as exc:
        snr_survival_closed(6.5625, 2, 0.5, 1.0)
    assert isinstance(exc.value, NumericalGuardError)


@pytest.mark.parametrize("m, threshold", [(3, "1e-200"), (2, "1e-310")])
def test_tiny_threshold_closed_form_exits_2_naming_the_point(tmp_path, capsys, m, threshold):
    # A Bessel term of the closed-form survival overflows there; the outage
    # row was once a silent nan with exit code 0.
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(f"m = {m}\ntheta = 0.5\nthreshold = {threshold}\n"
                   "modes = closed_form,quadrature\n[sweep]\nvariable = rho\ngrid = 0.5\n")
    out = tmp_path / "tiny.csv"
    assert main(["sweep", str(cfg), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: closed_form at rho = 0.5, theta = 0.5, m = {m}: "
                          "closed-form survival ")
    assert err.endswith(f" at y = {float(threshold):.6g} escapes [0, 1] beyond slack\n")
    assert not out.exists()


@pytest.mark.parametrize("m", [1, 3])
def test_tiny_gamma_hat_d_quadrature_outage_matches_closed_form(tmp_path, m):
    # At gamma_hat_d = 1e-12 the destination SNR almost never reaches 1, so
    # both routes must give an outage of 1.
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(f"m = {m}\ntheta = -1,1\nthreshold = 1\nmodes = closed_form,quadrature\n"
                   "[sweep]\nvariable = gamma_hat_d\ngrid = 1e-12\n")
    out = tmp_path / "tiny.csv"
    assert main(["sweep", str(cfg), "-o", str(out)]) == 0
    outage = {tuple(r[2:5]): float(r[6]) for r in (line.split(",") for line in _read(out)[1:])
              if r[5] == "outage"}
    assert sorted(outage) == [(th, str(m), mode) for th in ("-1", "1")
                              for mode in ("closed_form", "quadrature")]
    for th in ("-1", "1"):
        assert outage[(th, str(m), "quadrature")] == outage[(th, str(m), "closed_form")] == 1.0


def test_routes_cover_every_mode():
    assert tuple(ROUTES) == MODES


def _count_base_draws(monkeypatch) -> dict:
    """Per batch, the (m, theta count) of each ``sample_fgm_powers`` base draw it makes."""
    import swiptrelay.montecarlo as mc_mod

    draws: dict = {}
    real = mc_mod.sample_fgm_powers

    def counted(thetas, marg, rng, size):
        draws.setdefault(rng, []).append((marg.m, len(thetas)))
        return real(thetas, marg, rng, size)

    monkeypatch.setattr(mc_mod, "sample_fgm_powers", counted)
    return draws


MC_GROUP_CFG = ("theta = -0.5,1\nm = 1,2\nthreshold = 1\nmodes = monte_carlo\n"
                "[sweep]\nvariable = {variable}\ngrid = {grid}\n[mc]\nsamples = 2000\n")


def test_mc_sweep_draws_once_per_theta_and_m(monkeypatch):
    # The one batch makes one base draw per m, shared by both thetas.
    draws = _count_base_draws(monkeypatch)
    spec = parse_config(MC_GROUP_CFG.format(variable="rho", grid="0.2,0.5,0.8"))
    rows = run_sweep(spec)
    assert list(draws.values()) == [[(1.0, 2), (2.0, 2)]]
    assert sum(r[4] == "monte_carlo" for r in rows) == 3 * 2 * 2 * 5


def test_mc_theta_sweep_draws_once_per_grid_point(monkeypatch):
    # One base draw per m, covering its three theta grid points.
    draws = _count_base_draws(monkeypatch)
    run_sweep(parse_config(MC_GROUP_CFG.format(variable="theta", grid="-1,0,0.5")))
    assert list(draws.values()) == [[(1.0, 3), (2.0, 3)]]


def test_mc_sweep_rows_equal_each_theta_and_m_run_alone():
    # Sharing one draw across the thetas and grid points of an m changes no
    # row: each (theta, m) run alone writes the same rows.
    rows = run_sweep(parse_config(MC_GROUP_CFG.format(variable="rho", grid="0.2,0.8")))
    for th in ("-0.5", "1"):
        for m in ("1", "2"):
            alone = run_sweep(parse_config(
                MC_GROUP_CFG.format(variable="rho", grid="0.2,0.8")
                .replace("theta = -0.5,1", f"theta = {th}").replace("m = 1,2", f"m = {m}")))
            assert alone == [r for r in rows if r[2:4] == [th, m]]
            assert sum(r[4] == "monte_carlo" for r in alone) == 2 * 5


def _sweep_points(spec):
    """(gamma_hat_r, gamma_hat_d, system, threshold) of each point, in the
    order run_sweep visits them."""
    from swiptrelay.swipt_metrics import derive_snr_scales
    from swiptrelay.sweepcfg import resolve_point

    points = []
    for value in spec.grid:
        for th in ((value,) if spec.variable == "theta" else spec.thetas):
            for m in ((value,) if spec.variable == "m" else spec.ms):
                sys, threshold = resolve_point(spec, value, th, m)
                scales = derive_snr_scales(sys)
                points.append((scales.gamma_hat_r, scales.gamma_hat_d, sys, threshold))
    return points


def _count_calls(monkeypatch, names) -> dict:
    """The arguments of each call the sweep makes to the named metric functions."""
    import swiptrelay.sweep as sweep_mod

    calls = {}
    for name in names:
        def counted(*args, _name=name, _real=getattr(sweep_mod, name)):
            calls.setdefault(_name, []).append(args)
            return _real(*args)
        monkeypatch.setattr(sweep_mod, name, counted)
    return calls


def test_deterministic_sweep_computes_each_sr_capacity_once(monkeypatch):
    # The SNR scale is a column like m, so each route, the asymptotic one
    # included, makes one SR capacity call for the whole sweep, over every
    # point's (gamma_hat_r, m) in order; the rows are those of the unwrapped
    # functions.
    cfg = ("theta = -0.5,1\nm = 1,2\nthreshold = 1\nmodes = closed_form,quadrature,asymptotic\n"
           "[sweep]\nvariable = rho\ngrid = 0.2,0.8\n")
    spec = parse_config(cfg)
    expected = run_sweep(spec)
    names = ("capacity_sr_meijer", "ergodic_capacity_sr", "asymptotic_capacity_sr")
    calls = _count_calls(monkeypatch, names)
    rows = run_sweep(spec)
    assert rows == expected
    points = _sweep_points(spec)
    assert len({ghr for ghr, _, _, _ in points}) == 2
    want = ([ghr for ghr, _, _, _ in points], [sys.fading_m for _, _, sys, _ in points])
    assert calls == {name: [want] for name in names}
    assert sum(r[4] == "closed_form" and r[5] == "capacity_sr" for r in rows) == 2 * 2 * 2


@pytest.mark.parametrize("variable, grid", [("theta", "-1,0,0.5,1"), ("gamma_hat_r", "10,100,1000")])
def test_deterministic_sweep_computes_each_rd_capacity_once_per_gamma_hat_d_and_m(
        monkeypatch, variable, grid):
    # The SNR scale is a column like m and theta: each route makes one RD
    # capacity call for the whole sweep, over every point's (gamma_hat_d, m,
    # theta) in order, and one outage call, over every point's system with
    # its own query.
    from swiptrelay.swipt_metrics import OutageQuery

    cfg = ("theta = -0.5,1\nm = 1,2\nthreshold = 1\nmodes = closed_form,quadrature,asymptotic\n"
           f"[sweep]\nvariable = {variable}\ngrid = {grid}\n")
    spec = parse_config(cfg)
    expected = run_sweep(spec)
    capacities = ("capacity_rd_meijer", "ergodic_capacity_rd")
    outages = ("outage_probability", "outage_probability_quadrature", "asymptotic_outage")
    calls = _count_calls(monkeypatch, capacities + outages)
    rows = run_sweep(spec)
    assert rows == expected
    points = _sweep_points(spec)
    columns = ([ghd for _, ghd, _, _ in points], [sys.fading_m for _, _, sys, _ in points],
               [sys.theta for _, _, sys, _ in points])
    queries = [OutageQuery(threshold) for _, _, _, threshold in points]
    assert calls == {**{name: [columns] for name in capacities},
                     **{name: [([sys for _, _, sys, _ in points], queries)] for name in outages}}


def test_theta_group_sweep_rows_match_each_theta_run_alone():
    # Grouping the m and thetas of a hop's SNR scale into one call moves a
    # quadrature or contour value by rounding only: each (theta, m) run alone
    # gives the same rows within 1e-11.
    cfg = ("theta = {theta}\nm = {m}\nthreshold = 1\nmodes = closed_form,quadrature,asymptotic\n"
           "[sweep]\nvariable = rho\ngrid = 0.2,0.7\n")
    rows = run_sweep(parse_config(cfg.format(theta="-1,0.25,1", m="1,3")))
    for th in ("-1", "0.25", "1"):
        for m in ("1", "3"):
            alone = run_sweep(parse_config(cfg.format(theta=th, m=m)))
            mine = [r for r in rows if r[2:4] == [th, m]]
            assert [r[:6] for r in mine] == [r[:6] for r in alone]
            for a, b in zip(mine, alone):
                if a[6] == "nan":
                    assert b[6] == "nan"
                else:
                    assert float(a[6]) == pytest.approx(float(b[6]), rel=1e-11, abs=0.0), a


def test_parse_log_spacing():
    spec = parse_config(
        "[sweep]\nvariable = noise_power\nstart = 1e-3\nstop = 1e-1\ncount = 3\nspacing = log\n"
    )
    assert spec.grid[0] == pytest.approx(1e-3)
    assert spec.grid[1] == pytest.approx(1e-2)
    assert spec.grid[2] == pytest.approx(1e-1)


def test_presets_all_parse():
    assert PRESETS == ("fig10", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9")
    for name in PRESETS:
        spec = preset_spec(name)
        assert len(spec.grid) >= 10
        # Each preset's closed forms agree with its quadratures within the
        # 1e-9 adjudication bound on every capacity and outage row.
        values = {}
        for var, value, theta, m, mode, metric, estimate, *_ in run_sweep(
                dataclasses.replace(spec, modes=("closed_form", "quadrature"))):
            if metric.startswith("capacity_") or metric == "outage":
                values.setdefault((value, theta, m, metric), {})[mode] = float(estimate)
        assert values, name
        for key, by_mode in values.items():
            assert by_mode["closed_form"] == pytest.approx(by_mode["quadrature"], rel=1e-9, abs=0.0), (
                name, key)


def test_sweep_command_csv_schema(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SMALL_CFG)
    out = tmp_path / "out.csv"
    assert main(["sweep", str(cfg), "-o", str(out)]) == 0
    lines = _read(out)
    assert lines[0] == CSV_HEADER
    assert all(len(line.split(",")) == 12 for line in lines)
    # Deterministic modes leave the uncertainty columns empty.
    closed = [l for l in lines if ",closed_form,outage," in l]
    assert closed and all(l.split(",")[7] == "" for l in closed)
    mc = [l for l in lines if ",monte_carlo,outage," in l]
    assert mc and all(l.split(",")[10] == "99" for l in mc)
    assert all(l.split(",")[11] == "20000" for l in mc)
    # Every grid point carries its fully resolved parameter set.
    assert sum(1 for l in lines if ",params,param.gamma_hat_d," in l) == 6
    thr = [l for l in lines if ",params,param.threshold," in l]
    assert thr and all(float(l.split(",")[6]) == pytest.approx(1.0) for l in thr)


def test_sweep_rerun_is_byte_identical(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SMALL_CFG)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["sweep", str(cfg), "-o", str(out1)]) == 0
    assert main(["sweep", str(cfg), "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_seed_and_modes_overrides(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SMALL_CFG)
    out = tmp_path / "out.csv"
    assert main([
        "sweep", str(cfg), "-o", str(out),
        "--seed", "7", "--samples", "5000", "--modes", "monte_carlo",
    ]) == 0
    lines = _read(out)
    assert not any(",closed_form," in l for l in lines)
    mc = [l for l in lines if ",monte_carlo," in l]
    assert mc and all(l.split(",")[10] == "7" and l.split(",")[11] == "5000" for l in mc)


MC_CFG = """
modes = monte_carlo
threshold = 1
m = 2
theta = 0.5
[sweep]
variable = rho
grid = 0.5
[mc]
seed = 5
"""


def test_samples_override_rederives_the_default_batch_size(tmp_path):
    # The default batch size is min(1e6, samples) of the samples that run, not of the config's.
    small, large = tmp_path / "small.cfg", tmp_path / "large.cfg"
    small.write_text(MC_CFG + "samples = 100\n")
    large.write_text(MC_CFG + "samples = 3000\n")
    args = build_parser().parse_args(["sweep", str(small), "-o", "x.csv", "--samples", "3000"])
    overridden = _apply_overrides(parse_config(small.read_text()), args).mc
    assert overridden == parse_config(large.read_text()).mc
    assert overridden.n_batches == 1
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", str(small), "-o", str(a), "--samples", "3000"]) == 0
    assert main(["sweep", str(large), "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    # An explicit batch size is kept, clamped to the samples.
    small.write_text(MC_CFG + "samples = 100\nbatch_size = 100\n")
    for samples, batch in (("3000", 100), ("40", 40)):
        args = build_parser().parse_args(["sweep", str(small), "-o", "x.csv", "--samples", samples])
        assert _apply_overrides(parse_config(small.read_text()), args).mc.batch_size == batch


def test_preset_command_and_gnuplot(tmp_path):
    out = tmp_path / "fig8.csv"
    assert main([
        "preset", "fig8", "-o", str(out), "--samples", "10000", "--emit-gnuplot",
    ]) == 0
    assert out.exists()
    gp = tmp_path / "fig8.csv.gp"
    assert gp.exists()
    assert "fig8.csv" in gp.read_text()


def test_preset_direct_scale_sweep(tmp_path):
    out = tmp_path / "fig10.csv"
    assert main(["preset", "fig10", "-o", str(out)]) == 0
    lines = _read(out)
    ghd = [l for l in lines if ",params,param.gamma_hat_d," in l]
    # The swept value and the resolved scale must agree.
    for line in ghd:
        cols = line.split(",")
        assert float(cols[6]) == pytest.approx(float(cols[1]), rel=1e-10)


def test_validate_pass_and_negative_control(tmp_path):
    out = tmp_path / "val.csv"
    args = ["validate", "-o", str(out), "--samples", "20000",
            "--grid-points", "6", "--m", "1", "--theta", "0.5"]
    assert main(args) == 0
    lines = _read(out)
    assert lines[0] == CSV_HEADER
    assert any("cdf_supnorm_closed_vs_quadrature" in l for l in lines)
    assert any("sr_upper_param_is_1_minus_m" in l for l in lines)
    assert main(args + ["--inject-coefficient-error"]) == 1


def test_validate_verdicts_robust_to_seed(tmp_path):
    # The stderr-scaled tolerances make the verdicts seed-independent.
    for seed in ("12345", "777"):
        out = tmp_path / f"val{seed}.csv"
        assert main([
            "validate", "-o", str(out), "--samples", "20000",
            "--grid-points", "6", "--m", "1", "--theta", "1", "--seed", seed,
        ]) == 0


def test_missing_config_exit_code(tmp_path):
    assert main(["sweep", str(tmp_path / "nope.cfg"), "-o", str(tmp_path / "x.csv")]) == 2


def test_failed_run_leaves_no_partial_csv(tmp_path, monkeypatch):
    import swiptrelay.cli as cli_mod

    def boom(spec):
        raise OSError("simulated write failure")

    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SMALL_CFG)
    out = tmp_path / "out.csv"
    monkeypatch.setattr(cli_mod, "run_sweep", boom)
    assert main(["sweep", str(cfg), "-o", str(out)]) == 2
    assert not out.exists()


# One grid point of the config space: system numbers over many decades (SNR
# scales from about 1e-40 to 1e60), m, theta and a threshold from 1e-300 to 1e300, in
# every deterministic mode.
CONFIG_POINTS = st.fixed_dictionaries({
    "source_power": st.floats(-6.0, 30.0).map(lambda e: 10.0**e),
    "noise_power": st.floats(-30.0, 6.0).map(lambda e: 10.0**e),
    "eh_efficiency": st.floats(0.05, 1.0),
    "dist_sr": st.floats(-1.0, 3.0).map(lambda e: 10.0**e),
    "dist_rd": st.floats(-1.0, 3.0).map(lambda e: 10.0**e),
    "pathloss_exp": st.floats(2.0, 6.0),
    "m": st.integers(1, 100),
    "theta": st.floats(-1.0, 1.0),
    "threshold": st.floats(-300.0, 300.0).map(lambda e: 10.0**e),
    "rho": st.floats(0.001, 0.999),
})


@given(point=CONFIG_POINTS)
@settings(max_examples=40, deadline=None)
# A closed-form outage once nan (scipy's kve at 1e20, an overflowing Bessel
# term at 1e-200) or an OverflowError (y ** p and the asymptotic relay CDF),
# an SR quadrature that once warned at 1e9, and Meijer-G capacities that were
# cancellation noise (negative) at 1e40.
@example(point=dict(source_power=10.0, noise_power=1e-2, eh_efficiency=0.7, dist_sr=2.0,
                    dist_rd=2.0, pathloss_exp=2.5, m=1, theta=1.0, threshold=1e20, rho=0.3))
@example(point=dict(source_power=10.0, noise_power=1e-2, eh_efficiency=0.7, dist_sr=2.0,
                    dist_rd=2.0, pathloss_exp=2.5, m=2, theta=-1.0, threshold=1e200, rho=0.3))
@example(point=dict(source_power=10.0, noise_power=1e-2, eh_efficiency=0.7, dist_sr=2.0,
                    dist_rd=2.0, pathloss_exp=2.5, m=3, theta=0.5, threshold=1e-200, rho=0.3))
@example(point=dict(source_power=1e8, noise_power=1e-2, eh_efficiency=0.7, dist_sr=1.0,
                    dist_rd=2.0, pathloss_exp=2.5, m=1, theta=0.0, threshold=1.0, rho=0.9))
@example(point=dict(source_power=1e20, noise_power=1e-20, eh_efficiency=0.7, dist_sr=1.0,
                    dist_rd=1.0, pathloss_exp=2.5, m=2, theta=1.0, threshold=1.0, rho=0.5))
# Quadrature capacities once quietly wrong or raw: the RD interval ended below
# the density's mass (m = 50, gamma_hat_d = 1e6: 0.519 against 9.95), the SR
# tolerance did not shrink with gamma_hat_r (m = 2 at 1e-12: 1.5e-5 off), and
# u ** (m - 1) overflowed from m = 70 on.
@example(point=dict(source_power=1e4, noise_power=3.5e-3, eh_efficiency=0.7, dist_sr=1.0,
                    dist_rd=1.0, pathloss_exp=2.5, m=50, theta=0.0, threshold=1.0, rho=0.5))
@example(point=dict(source_power=2e-6, noise_power=1e6, eh_efficiency=0.7, dist_sr=1.0,
                    dist_rd=1.0, pathloss_exp=2.5, m=2, theta=0.5, threshold=1e-15, rho=0.5))
@example(point=dict(source_power=10.0, noise_power=1e-2, eh_efficiency=0.7, dist_sr=2.0,
                    dist_rd=2.0, pathloss_exp=2.5, m=70, theta=0.0, threshold=1.0, rho=0.3))
def test_config_space_rows_are_in_range_or_exit_2(tmp_path_factory, point):
    point = dict(point)
    rho = point.pop("rho")
    cfg = tmp_path_factory.mktemp("point") / "point.cfg"
    cfg.write_text("".join(f"{key} = {value!r}\n" for key, value in point.items())
                   + "modes = closed_form,quadrature,asymptotic\n"
                   + f"[sweep]\nvariable = rho\ngrid = {rho!r}\n")
    out = cfg.with_suffix(".csv")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["sweep", str(cfg), "-o", str(out)])
    if code == 2:
        assert err.getvalue().startswith("error: ")
        assert not out.exists()
        return
    assert code == 0
    capacities = {}
    for line in _read(out)[1:]:
        _, _, _, _, mode, metric, estimate, *_ = line.split(",")
        if mode == "params" or (mode, metric, estimate) == ("asymptotic", "outage", "nan"):
            continue
        value = float(estimate)
        assert math.isfinite(value), line
        if metric == "outage":
            assert 0.0 <= value <= 1.0, line
        elif mode != "asymptotic":  # the high-SNR SR capacity may be negative
            assert value >= 0.0, line
            capacities[mode, metric] = value
    # Each closed-form capacity the run writes agrees with its quadrature route.
    for metric in ("capacity_sr", "capacity_rd"):
        assert capacities["closed_form", metric] == pytest.approx(
            capacities["quadrature", metric], rel=1e-6, abs=0.0), metric


def test_cli_import_leaves_scipy_integrate_unloaded():
    # scipy.integrate pulls in about 290 modules (optimize, sparse.linalg,
    # fft, ...) that the package does not need.  pytest's own warning filter
    # imports it, so only a fresh interpreter shows what the CLI loads.
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, swiptrelay.cli; print('scipy.integrate' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"
