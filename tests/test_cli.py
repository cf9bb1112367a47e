"""CLI and config parsing: schema stability, determinism, exit codes."""

import math

import pytest

from swiptrelay.cli import main
from swiptrelay.sweepcfg import (
    CSV_HEADER,
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
