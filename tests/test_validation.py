"""The validate harness: its stochastic checks must catch a wrongly drawn law."""

import numpy as np
import pytest

import swiptrelay.specfun as specfun
import swiptrelay.swipt_metrics as swipt_metrics
import swiptrelay.validation as validation
from swiptrelay.montecarlo import sample_fgm_powers
from swiptrelay.sweepcfg import ConfigError


def test_stochastic_checks_fail_a_draw_at_the_wrong_theta(monkeypatch):
    # Negative control: the sampler draws at -theta while the closed forms and
    # quadratures keep theta, so the DKW band and the RD capacity band must
    # both fail in every cell.
    def flipped(thetas, marg, rng, size):
        return sample_fgm_powers([-theta for theta in thetas], marg, rng, size)

    monkeypatch.setattr(validation, "sample_fgm_powers", flipped)
    report = validation.run_validation(ms=(1, 2), thetas=(1.0,), samples=20_000, grid_points=6)
    status = {(c.cell, c.name): c.passed for c in report.checks}
    for cell in ("m=1,theta=1", "m=2,theta=1"):
        assert status[(cell, "cdf_dkw_gap_minus_band")] is False
        assert status[(cell, "capacity_rd_quadrature_vs_mc_stderr_units")] is False
        # The deterministic checks of the cell are untouched by the draw.
        assert status[(cell, "cdf_supnorm_closed_vs_quadrature")] is True
        assert status[(cell, "outage_closed_vs_quadrature")] is True


def test_each_quadrature_and_the_outage_law_draw_run_once(monkeypatch):
    # One call per capacity route takes every m: the adjudication's SR
    # quadrature (the cells' SR capacities) and SR contour, one meijer_g per
    # m for the printed SR reading, its RD quadrature and contour at
    # theta = 0.5, then one RD quadrature over every (m, theta) cell.  One
    # product-CDF call and one closed-CDF call take every cell's m and theta,
    # and the quadrature outage composes the product-CDF call's CDF at the
    # threshold; one closed-form outage call and one outage-law call take
    # all cells.
    calls = []

    def count(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append((name, args))
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    for name in ("ergodic_capacity_sr", "capacity_sr_meijer", "ergodic_capacity_rd",
                 "capacity_rd_meijer", "outage_probability_quadrature"):
        count(swipt_metrics, name)
    count(validation, "ergodic_capacity_rd")
    count(specfun, "meijer_g")
    count(validation, "product_cdf_general")
    count(validation, "snr_cdf_closed")
    count(validation, "simulate_outage_survival_law")
    count(validation, "outage_probability")
    ms, thetas = (1, 2), (0.5, -1.0)
    report = validation.run_validation(ms=ms, thetas=thetas, samples=4_000, grid_points=4)
    assert report.passed
    names = [name for name, _ in calls]
    capacities = [(name, args) for name, args in calls if "capacity" in name or name == "meijer_g"]
    assert [name for name, _ in capacities] == [
        "ergodic_capacity_sr", "capacity_sr_meijer", "meijer_g", "meijer_g",
        "ergodic_capacity_rd", "capacity_rd_meijer", "ergodic_capacity_rd"]
    gamma_hat_r = swipt_metrics.derive_snr_scales(swipt_metrics.BASELINE).gamma_hat_r
    assert [args for _, args in capacities[2:4]] == [
        ((1.0 - m / gamma_hat_r, 1.0, 1.0), gamma_hat_r / m) for m in ms]
    for _, args in capacities[:2] + capacities[4:]:
        assert np.ravel(args[1]).tolist() == list(ms)
    assert [args[2] for _, args in capacities[4:6]] == [0.5, 0.5]
    (_, cells), = capacities[6:]
    assert np.shape(cells[1]) == (len(ms), 1) and tuple(cells[2]) == thetas
    for cdf, points in (("product_cdf_general", 4 + 1), ("snr_cdf_closed", 4)):
        (_, m, theta, y), = [args for name, args in calls if name == cdf]
        assert (np.shape(m), np.ravel(m).tolist(), tuple(theta), np.shape(y)) == (
            (len(ms), 1, 1), list(ms), thetas, (points, 1)), cdf
    assert "outage_probability_quadrature" not in names
    assert names.count("simulate_outage_survival_law") == 1
    (systems, queries, _, cdfs), = [args for name, args in calls
                                    if name == "simulate_outage_survival_law"]
    assert [(s.fading_m, s.theta) for s in systems] == [(1, 0.5), (1, -1.0), (2, 0.5), (2, -1.0)]
    assert len(queries) == len(cdfs) == 4
    (closed_systems, _), = [args for name, args in calls if name == "outage_probability"]
    assert closed_systems == systems


@pytest.mark.parametrize("ms, thetas", [((), (0.5,)), ((1,), ())])
def test_an_empty_matrix_is_refused(ms, thetas):
    # The CLI refuses an empty --m or --theta list; a library call is refused
    # the same way, not answered by an empty report that passes.
    with pytest.raises(ConfigError, match="at least one m and one theta"):
        validation.run_validation(ms=ms, thetas=thetas, samples=100, grid_points=2)
