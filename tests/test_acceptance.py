"""Acceptance battery: ten oracle- and property-based criteria.

Each test prints one summary line "[criterion N] PASS/FAIL: ...".  One
sub-claim of criterion 7 (the outage theta-ordering on the low-noise
power-split preset) is contradicted by the model itself and is kept as a
documented expected failure rather than silently reworded; the analysis
lives in the decisions ledger outside the package.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import dblquad, quad
from scipy.special import exp1

from swiptrelay import specfun
from swiptrelay.copula import (
    conditional_cdf,
    conditional_quantile,
    copula_cdf,
    copula_density,
    fgm_copula,
    sample_pair,
)
from swiptrelay.fading import NakagamiPower, power_quantile
from swiptrelay.montecarlo import McConfig, batch_stream, simulate_metrics, simulate_outage_survival_law
from swiptrelay.product_dist import (
    closed_form_model,
    mean_snr_factor,
    product_cdf_general,
    snr_cdf_closed,
)
from swiptrelay.swipt_metrics import (
    BASELINE as BASE,
    OutageQuery,
    adjudicate_closed_forms,
    asymptotic_capacity_sr,
    asymptotic_outage,
    capacity_rd_meijer,
    capacity_sr_meijer,
    derive_snr_scales,
    destination_snr_model,
    ergodic_capacity_rd,
    ergodic_capacity_sr,
    outage_probability,
)
from swiptrelay.sweepcfg import preset_spec, resolve_point
from swiptrelay.validation import dkw_epsilon, run_validation

THETAS5 = (-1.0, -0.5, 0.0, 0.5, 1.0)

FIG8 = replace(BASE, noise_power=1e-3)


def _report(n: int, ok: bool, text: str) -> None:
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, text


def test_criterion_1_copula_suite():
    grid = np.linspace(0.0, 1.0, 101)
    uu, vv = np.meshgrid(grid, grid)
    interior = grid[1:-1]
    iu, iv = np.meshgrid(interior, interior)
    ok = True
    for theta in THETAS5:
        c = fgm_copula(theta)
        cdf = copula_cdf(c, uu, vv)
        ok &= bool(np.all(cdf >= np.maximum(uu + vv - 1.0, 0.0) - 1e-12))
        ok &= bool(np.all(cdf <= np.minimum(uu, vv) + 1e-12))
        ok &= bool(np.allclose(copula_cdf(c, 0.0, grid), 0.0))
        ok &= bool(np.allclose(copula_cdf(c, 1.0, grid), grid, atol=1e-15))
        vol = cdf[1:, 1:] - cdf[1:, :-1] - cdf[:-1, 1:] + cdf[:-1, :-1]
        ok &= bool(np.all(vol >= -1e-12))
        mass, _ = dblquad(
            lambda u2, u1: copula_density(c, u1, u2), 0.0, 1.0, 0.0, 1.0, epsabs=1e-11
        )
        ok &= abs(mass - 1.0) < 1e-9
        t = conditional_cdf(c, iv, iu)
        ok &= bool(np.max(np.abs(conditional_quantile(c, t, iu) - iv)) < 1e-12)
    _report(1, ok, "copula bounds, margins, 2-increasingness, density mass, "
                   "conditional round-trip on the 101x101 grid")


def test_criterion_2_special_function_golden_suite():
    ok = True
    spec = specfun.MeijerGSpec(1, 2, 2, 2, (1.0, 1.0), (1.0, 0.0))
    for x in (1e-3, 1e-1, 1.0, 10.0, 1e3):
        ok &= abs(specfun.meijer_g(spec, x) / math.log1p(x) - 1.0) < 1e-8
    for beta_ in (0.5, 1.0, 2.0, 3.0):
        for lam in (0.5, 1.0, 2.0):
            for eta in (0.5, 1.0, 2.0):
                val, _ = quad(
                    lambda x: x ** (beta_ - 1.0) * math.exp(-(lam * x + eta / x)),
                    0.0, np.inf, epsabs=1e-13, epsrel=1e-12, limit=300,
                )
                exact = 2.0 * (eta / lam) ** (beta_ / 2.0) * specfun.bessel_k(
                    -beta_, 2.0 * math.sqrt(eta * lam)
                )
                ok &= abs(val / exact - 1.0) < 1e-8
    for x in (1e-4, 0.1, 1.0, 10.0, 300.0):
        exact = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)
        ok &= abs(specfun.bessel_k(0.5, x) / exact - 1.0) < 1e-10
    _report(2, ok, "Meijer-G log identity, Bessel-K integral identity on the "
                   "36-point grid, half-order Bessel closed form")


def test_criterion_3_distribution_equivalence():
    scale = 6.5625
    n = 1_000_000
    worst_supnorm = 0.0
    worst_dkw = 0.0
    band = dkw_epsilon(n)
    ok = True
    for m in (1, 2, 3):
        for theta in THETAS5:
            model = closed_form_model(scale, m, fgm_copula(theta))
            grid = np.geomspace(1e-3 * scale, 1e2 * scale, 60)
            closed = np.array([snr_cdf_closed(model, y) for y in grid])
            quadv = product_cdf_general(model, grid)
            sup = float(np.max(np.abs(closed - quadv)))
            worst_supnorm = max(worst_supnorm, sup)
            ok &= sup <= 1e-6

            rng = batch_stream(314159, m * 10 + int(2.0 * (theta + 1.0)))
            u1, u2 = sample_pair(fgm_copula(theta), rng, size=n)
            marg = NakagamiPower(float(m))
            snr = scale * power_quantile(marg, np.asarray(u1)) * power_quantile(
                marg, np.asarray(u2)
            )
            snr.sort()
            emp = np.searchsorted(snr, grid, side="right") / n
            gap = float(np.max(np.abs(emp - closed)))
            worst_dkw = max(worst_dkw, gap)
            ok &= gap <= band
    _report(3, ok, f"closed vs quadrature sup-norm {worst_supnorm:.2e} <= 1e-6 and "
                   f"empirical CDF gap {worst_dkw:.2e} within DKW 99% band {band:.2e} "
                   "for all 15 (m, theta) cells")


def test_criterion_4_mean_snr_factor():
    n = 10_000_000
    ok = True
    worst = 0.0
    assert mean_snr_factor(1, 1.0) == pytest.approx(1.25, rel=1e-14)
    assert mean_snr_factor(1, -1.0) == pytest.approx(0.75, rel=1e-14)
    for m in (1, 2, 3, 4):
        marg = NakagamiPower(float(m))
        rng = batch_stream(271828, m)
        u = rng.random((2, n))
        u1 = np.nextafter(u[0], 1.0)
        g1 = power_quantile(marg, u1)
        for theta in (-1.0, 0.0, 1.0):
            u2 = conditional_quantile(fgm_copula(theta), u[1], u1)
            g2 = power_quantile(marg, np.asarray(u2))
            prod = g1 * g2
            stderr = prod.std(ddof=1) / math.sqrt(n)
            dev = abs(prod.mean() - mean_snr_factor(m, theta)) / stderr
            worst = max(worst, dev)
            ok &= dev < 4.0
    _report(4, ok, f"joint-power mean factor within 4 stderr of the formula at "
                   f"m in 1..4, theta in {{-1,0,1}} (worst {worst:.2f} stderr), "
                   "with the 1 + theta/4 anchor at m=1")


def test_criterion_5_capacity_agreement():
    n = 10_000_000
    ok = True
    worst = 0.0
    cells = []
    for preset, var_value in (("fig3", 0.5), ("fig4", 5.0)):
        spec = preset_spec(preset)
        for theta in (-1.0, 0.0, 1.0):
            for m in (1, 2):
                sys, _ = resolve_point(spec, var_value, theta, m)
                cells.append(sys)
    for i, sys in enumerate(cells):
        scales = derive_snr_scales(sys)
        marg = NakagamiPower(float(sys.fading_m))
        rng = batch_stream(1618, i)
        u = rng.random((2, n))
        u1 = np.nextafter(u[0], 1.0)
        g1 = power_quantile(marg, u1)
        u2 = conditional_quantile(fgm_copula(sys.theta), u[1], u1)
        g2 = power_quantile(marg, np.asarray(u2))
        cap_sr = 0.5 * np.log2(1.0 + scales.gamma_hat_r * g1)
        cap_rd = 0.5 * np.log2(1.0 + scales.gamma_hat_d * g1 * g2)
        for sample, analytic in (
            (cap_sr, ergodic_capacity_sr(scales.gamma_hat_r, sys.fading_m)),
            (cap_rd, ergodic_capacity_rd(scales.gamma_hat_d, sys.fading_m, sys.theta)),
        ):
            stderr = sample.std(ddof=1) / math.sqrt(n)
            dev = abs(analytic - sample.mean()) / stderr
            worst = max(worst, dev)
            ok &= dev < 3.0
    s = derive_snr_scales(replace(BASE, fading_m=1))
    identity = math.exp(1.0 / s.gamma_hat_r) * exp1(1.0 / s.gamma_hat_r) / (2.0 * math.log(2.0))
    id_err = abs(ergodic_capacity_sr(s.gamma_hat_r, 1) - identity)
    ok &= id_err < 1e-6
    _report(5, ok, f"hop capacities within 3 stderr of 1e7-sample draws on both "
                   f"power-split and source-power presets (worst {worst:.2f} stderr); "
                   f"exponential-SNR identity error {id_err:.1e} <= 1e-6")


def test_criterion_6_outage_agreement():
    # The MC oracle samples the joint law the outage formula is defined on
    # (the survival-copula coupling of the two hop SNRs).  The physically
    # coupled simulation that shares the first-hop power between hops sits
    # about F_r(t)(1 - F_d(t)) below the formula and is reported separately
    # by the simulator tests and the decisions ledger.
    n = 10_000_000
    ok = True
    worst = 0.0
    q = OutageQuery(1.0)
    for i, rho in enumerate(np.linspace(0.05, 0.95, 10)):
        for theta in (-1.0, 0.0, 1.0):
            sys = replace(FIG8, ps_factor=float(rho), theta=theta)
            f_d = product_cdf_general(destination_snr_model(sys), q.threshold)
            cfg = McConfig(samples=n, seed=60_000 + i)
            est = simulate_outage_survival_law(sys, q, cfg, f_d)
            p = outage_probability(sys, q)
            dev = abs(p - est.mean) / max(est.stderr, 1e-12)
            worst = max(worst, dev)
            ok &= dev < 3.0
    ok &= outage_probability(replace(FIG8, theta=1.0), OutageQuery(0.0)) == 0.0
    _report(6, ok, f"closed-form outage within 3 binomial stderr of 1e7-sample "
                   f"MC under the formula's joint law over the 10-point rho grid, "
                   f"theta in {{-1,0,1}} (worst {worst:.2f} stderr); zero threshold "
                   "gives exactly 0")


def test_criterion_7_qualitative_reproduction():
    ok = True
    # Capacity vs power-split fraction: interior maximum, and pointwise
    # theta-ordering wherever the theta-dependent second hop is the binding
    # one (where the first hop binds, the minimum is theta-independent).
    rhos = np.linspace(0.05, 0.95, 19)
    curves = {}
    for theta in (-1.0, 0.0, 1.0):
        vals = []
        for rho in rhos:
            s = derive_snr_scales(replace(BASE, ps_factor=float(rho)))
            c_sr = capacity_sr_meijer(s.gamma_hat_r, 1)
            c_rd = capacity_rd_meijer(s.gamma_hat_d, 1, theta)
            vals.append((min(c_sr, c_rd), c_rd < c_sr))
        curves[theta] = vals
    peak = int(np.argmax([v for v, _ in curves[0.0]]))
    ok &= 0 < peak < len(rhos) - 1
    ok &= all(curves[0.0][i][0] <= curves[0.0][i + 1][0] for i in range(peak))
    ok &= all(curves[0.0][i][0] >= curves[0.0][i + 1][0] for i in range(peak, len(rhos) - 1))
    for i in range(len(rhos)):
        lo, mid, hi = curves[-1.0][i][0], curves[0.0][i][0], curves[1.0][i][0]
        ok &= lo <= mid + 1e-12 and mid <= hi + 1e-12
        if curves[1.0][i][1]:  # second hop binding: ordering is strict
            ok &= lo < mid < hi

    # Outage vs power-split fraction is U-shaped with an interior minimum.
    q = OutageQuery(1.0)
    out = [
        outage_probability(replace(FIG8, ps_factor=float(r), theta=1.0), q)
        for r in rhos
    ]
    trough = int(np.argmin(out))
    ok &= 0 < trough < len(rhos) - 1
    ok &= all(out[i] >= out[i + 1] for i in range(trough))
    ok &= all(out[i] <= out[i + 1] for i in range(trough, len(rhos) - 1))

    # Outage vs destination SNR scale: decreasing, and lower for larger m.
    for m in (1, 2):
        prev = None
        for ghd in np.geomspace(1.0, 1e3, 10):
            model = closed_form_model(float(ghd), m, fgm_copula(1.0))
            f_r = 1.0 - specfun.regularized_upper_gamma(m, m * 1.0 / 1237.4)
            s_d = 1.0 - snr_cdf_closed(model, 1.0)
            p = 1.0 - copula_cdf(fgm_copula(1.0), 1.0 - f_r, s_d)
            if prev is not None:
                ok &= p < prev
            prev = p
    for ghd in np.geomspace(1.0, 1e3, 10):
        p1 = snr_cdf_closed(closed_form_model(float(ghd), 1, fgm_copula(1.0)), 1.0)
        p2 = snr_cdf_closed(closed_form_model(float(ghd), 2, fgm_copula(1.0)), 1.0)
        ok &= p2 < p1
    _report(7, ok, "interior-maximum capacity curve with theta-ordering, U-shaped "
                   "outage curve, and outage falling in destination scale and in m "
                   "(outage theta-ordering claim handled separately; see below)")


@pytest.mark.xfail(
    strict=True,
    reason="the stated outage theta-ordering is reversed by the model: the "
    "threshold sits in the destination SNR's lower tail, where positive "
    "dependence thickens the product's tail and raises outage; verified "
    "against quadrature and direct sampling, documented in the ledger",
)
def test_criterion_7_outage_theta_ordering_as_stated():
    q = OutageQuery(1.0)
    ok = True
    for rho in np.linspace(0.05, 0.95, 19):
        vals = [
            outage_probability(replace(FIG8, ps_factor=float(rho), theta=th), q)
            for th in (1.0, 0.0, -1.0)
        ]
        ok &= vals[0] <= vals[1] <= vals[2]
    _report(7, ok, "outage ordering P(theta=1) <= P(theta=0) <= P(theta=-1) "
                   "across the power-split grid (documented expected failure)")


def test_criterion_8_asymptotics():
    ok = True
    cap_errs = []
    for s in (1e2, 1e3, 1e4):
        exact = ergodic_capacity_sr(s, 2)
        cap_errs.append(abs(asymptotic_capacity_sr(s, 2) - exact) / exact)
    ok &= cap_errs[0] > cap_errs[1] > cap_errs[2]
    ok &= cap_errs[2] < 0.01

    out_errs = []
    q = OutageQuery(1.0)
    for ghr in (1e2, 1e3, 1e4):
        d_sr = ((1.0 - 0.3) * 10.0 / (1e-3 * ghr)) ** (1.0 / 2.5)
        sys = replace(FIG8, dist_sr=d_sr, theta=1.0)
        exact = outage_probability(sys, q)
        out_errs.append(abs(asymptotic_outage(sys, q) - exact) / exact)
    ok &= out_errs[0] > out_errs[1] > out_errs[2]
    ok &= out_errs[2] < 0.01
    _report(8, ok, f"asymptotic capacity and outage errors fall monotonically "
                   f"along the scale decades and end at {cap_errs[2]:.2e} / "
                   f"{out_errs[2]:.2e} <= 1% relative")


def test_criterion_9_reproducibility(tmp_path):
    from swiptrelay.cli import main

    args = ["--samples", "100000", "--grid-points", "10", "--m", "1,2",
            "--theta", "0,1"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    ok = main(["validate", "-o", str(a)] + args) == 0
    ok &= main(["validate", "-o", str(b)] + args) == 0
    ok &= a.read_bytes() == b.read_bytes()

    q = OutageQuery(1.0)
    one = simulate_metrics(FIG8, q, McConfig(samples=400_000, seed=3, workers=1, batch_size=50_000))
    eight = simulate_metrics(FIG8, q, McConfig(samples=400_000, seed=3, workers=8, batch_size=50_000))
    ok &= one == eight
    _report(9, ok, "validation CSV byte-identical across reruns; estimates "
                   "identical for 1 and 8 workers")


def test_criterion_10_typo_adjudication():
    ok = True
    lines = []
    for m in (1, 2, 3):
        adj = adjudicate_closed_forms(123.7436867, 6.5625, m, 0.5)
        ok &= adj["sr_matching_variant"] == "1-m" and adj["sr_match_abs_error"] <= 1e-6
        ok &= (
            adj["rd_matching_variant"] == "prefactor-times-bracket-no-pi"
            and adj["rd_match_abs_error"] <= 1e-6
        )
        lines.append(
            f"m={m}: first-hop upper parameter '1-m' ({adj['sr_match_abs_error']:.1e}), "
            f"second-hop prefactor without pi ({adj['rd_match_abs_error']:.1e})"
        )
    report = run_validation(ms=(1,), thetas=(0.5,), samples=10_000, grid_points=6)
    ok &= any("sr_upper_param_is_1_minus_m" in c.name and c.passed for c in report.checks)
    ok &= any("rd_prefactor_has_no_pi" in c.name and c.passed for c in report.checks)
    _report(10, ok, "validation report records the quadrature-matching closed-form "
                    "conventions: " + "; ".join(lines))
