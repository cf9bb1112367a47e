"""Golden CSVs: each config in tests/data must reproduce its stored CSV byte for byte.

The configs cover every mode (Monte Carlo at 2000 samples with a fixed
seed) and every kind of sweep variable: a system field (rho, with a
threshold), a coupled field (dist_sr with rd_total), a direct SNR scale
(gamma_hat_d), the threshold (threshold_db, whose last point leaves the
asymptotic regime and prints nan) and the fading shape (m).  The CSVs pin
the output across refactors; a deliberate change of any value must
regenerate them with ``swiptrelay sweep tests/data/NAME.cfg -o
tests/data/NAME.csv`` and say why.  Quadrature and sampler outputs depend
on the scipy and numpy versions, so a toolchain change can move digits.
"""

from pathlib import Path

import pytest

from swiptrelay.cli import main

DATA = Path(__file__).parent / "data"
CONFIGS = sorted(p.stem for p in DATA.glob("*.cfg"))


def test_every_mode_and_variable_kind_is_covered():
    texts = [(DATA / f"{name}.cfg").read_text() for name in CONFIGS]
    modes = {m.strip() for t in texts for line in t.splitlines() if line.startswith("modes")
             for m in line.split("=", 1)[1].split(",")}
    variables = {line.split("=", 1)[1].strip() for t in texts for line in t.splitlines()
                 if line.startswith("variable")}
    assert modes == {"closed_form", "quadrature", "monte_carlo", "asymptotic"}
    assert variables == {"rho", "dist_sr", "gamma_hat_d", "threshold_db", "m"}


@pytest.mark.parametrize("name", CONFIGS)
def test_sweep_matches_golden_csv(tmp_path, name):
    out = tmp_path / f"{name}.csv"
    assert main(["sweep", str(DATA / f"{name}.cfg"), "-o", str(out)]) == 0
    assert out.read_bytes() == (DATA / f"{name}.csv").read_bytes()


# One small validate matrix, pinned the same way: the printed report (its
# "wrote ..." line names the output path, so it is left out) and the CSV.
# The .txt/.csv names keep these files out of the *.cfg glob above; a
# deliberate change regenerates them by running VALIDATE_ARGS with
# "-o tests/data/validate_small.csv" and saving the report without that line.
VALIDATE_ARGS = ["validate", "--m", "1,2", "--theta=-0.6,1", "--samples", "20000",
                 "--grid-points", "6"]


def test_validate_matches_golden_report_and_csv(tmp_path, capsys):
    out = tmp_path / "validate_small.csv"
    assert main(VALIDATE_ARGS + ["-o", str(out)]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines(keepends=True)
             if not line.startswith("wrote ")]
    assert "".join(lines) == (DATA / "validate_small.txt").read_text()
    assert out.read_bytes() == (DATA / "validate_small.csv").read_bytes()
