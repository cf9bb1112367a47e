"""Golden CSVs: each config in tests/data must reproduce its stored CSV byte for byte.

The configs cover every mode (Monte Carlo at 2000 samples with a fixed
seed) and every kind of sweep variable: a system field (rho, with a
threshold), a coupled field (dist_sr with rd_total), the direct SNR scales
(gamma_hat_r over nine decades, gamma_hat_d over three and over eighteen,
so that one call of each hop route spans them all), the threshold
(threshold_db, whose last point leaves the
asymptotic regime and prints nan), the fading shape (m) and the dependence
(theta, where every theta of an m shares one RD-hop evaluation).  The CSVs pin
the output across refactors; a deliberate change of any value must
regenerate them with ``swiptrelay sweep tests/data/NAME.cfg -o
tests/data/NAME.csv`` and say why.  The quadratures use the package's own
Gauss-Kronrod rule, not scipy's QUADPACK, so their digits depend on scipy
only through ``scipy.special``; those and the sampler's draws still depend on
the scipy and numpy versions, so a toolchain change can move digits.  CI
pins the versions the files were written with.
"""

import os
import subprocess
import sys
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
    assert variables == {"rho", "dist_sr", "gamma_hat_r", "gamma_hat_d", "threshold_db", "m",
                         "theta"}


@pytest.mark.parametrize("name", CONFIGS)
def test_sweep_matches_golden_csv(tmp_path, name):
    out = tmp_path / f"{name}.csv"
    assert main(["sweep", str(DATA / f"{name}.cfg"), "-o", str(out)]) == 0
    assert out.read_bytes() == (DATA / f"{name}.csv").read_bytes()


# One small validate matrix, pinned the same way: the printed report (its
# "wrote ..." line names the output path, so it is left out) and the CSV.
# The .txt/.csv names keep these files out of the *.cfg glob above.  Its
# rounding-level statistics take np.exp and np.log, whose AVX-512 kernels
# round differently from the others on a few percent of arguments, so the
# run switches them off, as on a CPU without AVX-512.  A deliberate change
# regenerates the files by running VALIDATE_ARGS under VALIDATE_ENV with
# "-o tests/data/validate_small.csv" and saving the report without that
# line.
VALIDATE_ARGS = ["validate", "--m", "1,2", "--theta=-0.6,1", "--samples", "20000",
                 "--grid-points", "6"]
VALIDATE_ENV = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}


def test_validate_matches_golden_report_and_csv(tmp_path):
    out = tmp_path / "validate_small.csv"
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "swiptrelay.cli", *VALIDATE_ARGS,
         "-o", str(out)],
        env=dict(os.environ, PYTHONPATH=str(src), **VALIDATE_ENV), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    lines = [line for line in done.stdout.splitlines(keepends=True) if not line.startswith("wrote ")]
    assert "".join(lines) == (DATA / "validate_small.txt").read_text()
    assert out.read_bytes() == (DATA / "validate_small.csv").read_bytes()
