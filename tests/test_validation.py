"""The validate harness: its stochastic checks must catch a wrongly drawn law."""

import swiptrelay.validation as validation
from swiptrelay.montecarlo import sample_fgm_powers


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
