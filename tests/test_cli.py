"""CLI and config parsing: schema stability, determinism, exit codes."""

import contextlib
import io
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from swiptrelay.cli import main
from swiptrelay.copula import fgm_copula
from swiptrelay.product_dist import ClosedFormRangeError, closed_form_model, snr_survival_closed
from swiptrelay.specfun import NumericalGuardError, QuadratureError
from swiptrelay.sweep import ROUTES
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
        parse_config("[sweep]\nvariable = rho\ngrid = 1.5\n")  # out of domain
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
    ):
        with pytest.raises(ConfigError, match=message):
            parse_config(bad)
    for variable in ("source_power", "gamma_hat_d", "threshold_db"):
        with pytest.raises(ConfigError, match="outside the domain"):
            parse_config(f"[sweep]\nvariable = {variable}\ngrid = 1,inf\n")


@pytest.mark.parametrize("line", [
    "dist_sr = 1e-300\n",     # zero path loss: the relay SNR scale divides by zero
    "source_power = 1e308\n",  # finite input, infinite derived SNR scale
    "[sweep]\nvariable = gamma_hat_d\ngrid = 1e-320\n",  # scale underflows to 0
    "[sweep]\nvariable = threshold_db\ngrid = 0,4000\n",
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
    ["asymptotic", "{cfg}", "--workers", "0"],
    ["validate", "--m", "1.5"],
    ["validate", "--m", "x"],
    ["validate", "--theta", "2"],
    ["validate", "--samples", "0"],
    ["validate", "--grid-points", "0"],
    ["validate", "--seed", "-1"],
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
    model = closed_form_model(6.5625, 2, fgm_copula(0.5))
    with pytest.raises(ClosedFormRangeError, match="escapes") as exc:
        snr_survival_closed(model, 1.0)
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


def test_asymptotic_command(tmp_path):
    cfg = tmp_path / "asym.cfg"
    cfg.write_text(
        "m = 1,2\ntheta = 0\n"
        "[sweep]\nvariable = gamma_hat_r\nstart = 1e2\nstop = 1e4\ncount = 3\nspacing = log\n"
    )
    out = tmp_path / "asym.csv"
    assert main(["asymptotic", str(cfg), "-o", str(out)]) == 0
    lines = _read(out)
    assert any(",asymptotic,capacity_sr," in l for l in lines)
    assert any(",quadrature,capacity_sr," in l for l in lines)
    # asymptotic is sweep with its own default modes.
    as_sweep = tmp_path / "sweep.csv"
    assert main(["sweep", str(cfg), "-o", str(as_sweep), "--modes", "quadrature,asymptotic"]) == 0
    assert as_sweep.read_bytes() == out.read_bytes()


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
