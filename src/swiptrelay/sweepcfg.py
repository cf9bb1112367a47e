"""Sweep configuration: the key=value config dialect, presets, CSV schema.

Config files are UTF-8 ``key = value`` lines with optional ``[sweep]`` and
``[mc]`` sections.  Unknown keys are errors.  Keys suffixed ``_db`` are
converted to linear at parse time; the resolved linear value is what lands
in the CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .montecarlo import McConfig
from .swipt_metrics import BASELINE, OutageQuery, SwiptSystem, derive_snr_scales


class ConfigError(ValueError):
    """Malformed or inconsistent sweep configuration."""


CSV_HEADER = "variable,value,theta,m,mode,metric,estimate,stderr,ci95_low,ci95_high,seed,n_samples"

SWEEP_VARIABLES = (
    "rho",
    "source_power",
    "eh_efficiency",
    "noise_power",
    "dist_sr",
    "gamma_hat_d",
    "gamma_hat_r",
    "threshold_db",
    "theta",
    "m",
)

MODES = ("closed_form", "quadrature", "monte_carlo", "asymptotic")


@dataclass(frozen=True)
class SweepSpec:
    variable: str
    grid: tuple[float, ...]
    base: SwiptSystem
    thetas: tuple[float, ...]
    ms: tuple[int, ...]
    modes: tuple[str, ...]
    mc: McConfig
    threshold: float | None = None       # linear; None disables outage metrics
    rd_total: float | None = None        # dist_rd = rd_total - dist_sr coupling
    name: str = "sweep"

    def __post_init__(self) -> None:
        if self.variable not in SWEEP_VARIABLES:
            raise ConfigError(f"unknown sweep variable {self.variable!r}")
        if not self.grid:
            raise ConfigError("sweep grid is empty")
        _once("grid value", self.grid)
        for mode in self.modes:
            if mode not in MODES:
                raise ConfigError(f"unknown mode {mode!r}")
        _once("mode", self.modes)
        if self.rd_total is not None and self.variable != "dist_sr":
            raise ConfigError("rd_total coupling only applies to dist_sr sweeps")


def _once(what: str, values) -> None:
    """Refuse a value listed twice: it would repeat every row (or cell) it makes."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ConfigError(f"{what} {value!r} is listed twice")


def fmt(x: float) -> str:
    """12-significant-digit decimal used everywhere in the CSV."""
    return format(float(x), ".12g")


# Config key (and sweep variable) -> SwiptSystem field, in the CSV's param.* order.
SYSTEM_FIELDS = {
    "source_power": "source_power",
    "noise_power": "noise_power",
    "rho": "ps_factor",
    "eh_efficiency": "eh_efficiency",
    "dist_sr": "dist_sr",
    "dist_rd": "dist_rd",
    "pathloss_exp": "pathloss_exp",
}
_TOP_KEYS = set(SYSTEM_FIELDS) | {"m", "theta", "threshold", "threshold_db", "modes", "noise_power_db", "name"}
_SWEEP_KEYS = {"variable", "start", "stop", "count", "spacing", "grid", "rd_total"}
_MC_KEYS = {"samples", "seed", "workers", "batch_size"}


def _parse_sections(text: str) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {"": {}}
    current = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in ("sweep", "mc"):
                raise ConfigError(f"line {lineno}: unknown section [{current}]")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.lower()
        if key in sections[current]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        sections[current][key] = value
    return sections


def _number(key: str, text: str, conv=float):
    try:
        return conv(text)
    except ValueError:
        kind = "an integer" if conv is int else "a number"
        raise ConfigError(f"{key} must be {kind}, got {text!r}") from None


def _db_to_linear(name: str, db: float) -> float:
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise ConfigError(f"{name} = {db!r} dB overflows as a linear value") from None


def _floats(value: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in value.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad numeric list {value!r}") from exc


def _checked(make, *args, where: str = "", **kwargs):
    """``make(*args, **kwargs)``, with the domain errors of what it builds as ConfigError.

    ``where``, if given, prefixes the message.
    """
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}" if where else str(exc)) from None


def parse_ms(value: str) -> tuple[int, ...]:
    """A comma list of distinct fading shapes, each in SwiptSystem's domain."""
    ms = tuple(_checked(replace, BASELINE, fading_m=m).fading_m for m in _floats(value))
    _once("m", ms)
    return ms


def parse_thetas(value: str) -> tuple[float, ...]:
    """A comma list of distinct FGM dependence values, each in SwiptSystem's range."""
    thetas = _floats(value)
    for theta in thetas:
        _checked(replace, BASELINE, theta=theta)
    _once("theta", thetas)
    return thetas


def parse_config(text: str) -> SweepSpec:
    """Parse a sweep config; raises ConfigError with a line-numbered message."""
    sections = _parse_sections(text)
    top = sections.get("", {})
    sweep = sections.get("sweep", {})
    mc_sec = sections.get("mc", {})

    for key in top:
        if key not in _TOP_KEYS:
            raise ConfigError(f"unknown key {key!r}")
    for key in sweep:
        if key not in _SWEEP_KEYS:
            raise ConfigError(f"unknown [sweep] key {key!r}")
    for key in mc_sec:
        if key not in _MC_KEYS:
            raise ConfigError(f"unknown [mc] key {key!r}")
    if "variable" not in sweep:
        raise ConfigError("[sweep] section must set 'variable'")
    if "threshold" in top and "threshold_db" in top:
        raise ConfigError("give either 'threshold' or 'threshold_db', not both")
    if "noise_power" in top and "noise_power_db" in top:
        raise ConfigError("give either 'noise_power' or 'noise_power_db', not both")

    fields = {field: _number(key, top[key]) for key, field in SYSTEM_FIELDS.items() if key in top}
    if "noise_power_db" in top:
        fields["noise_power"] = _db_to_linear("noise_power_db", _number("noise_power_db", top["noise_power_db"]))

    ms = parse_ms(top.get("m", "1"))
    thetas = parse_thetas(top.get("theta", "0"))
    base = _checked(replace, BASELINE, fading_m=ms[0], theta=thetas[0], **fields)

    threshold = None
    if "threshold" in top:
        threshold = _number("threshold", top["threshold"])
    elif "threshold_db" in top:
        threshold = _db_to_linear("threshold_db", _number("threshold_db", top["threshold_db"]))
    if threshold is not None:
        _checked(OutageQuery, threshold)

    modes = tuple(v.strip() for v in top.get("modes", "closed_form,quadrature,monte_carlo").split(","))

    if "grid" in sweep:
        if set(sweep) & {"start", "stop", "count", "spacing"}:
            raise ConfigError("give either [sweep] 'grid' or start/stop/count/spacing, not both")
        grid = _floats(sweep["grid"])
    else:
        missing = {"start", "stop", "count"} - set(sweep)
        if missing:
            raise ConfigError(f"[sweep] needs 'grid' or start/stop/count; missing {sorted(missing)}")
        start, stop = _number("start", sweep["start"]), _number("stop", sweep["stop"])
        count = _number("count", sweep["count"], int)
        if count < 1:
            raise ConfigError("count must be >= 1")
        spacing = sweep.get("spacing", "linear")
        if spacing == "linear":
            grid = tuple(start + (stop - start) * i / max(count - 1, 1) for i in range(count))
        elif spacing == "log":
            if start <= 0 or stop <= 0:
                raise ConfigError("log spacing needs positive endpoints")
            la, lb = math.log(start), math.log(stop)
            grid = tuple(math.exp(la + (lb - la) * i / max(count - 1, 1)) for i in range(count))
        else:
            raise ConfigError(f"spacing must be linear or log, got {spacing!r}")

    mc_ints = {key: _number(key, value, int) for key, value in mc_sec.items()}
    mc_ints.setdefault("samples", 1_000_000)
    if "batch_size" in mc_ints:
        mc_ints["batch_size"] = min(mc_ints["batch_size"], mc_ints["samples"])
    mc = _checked(McConfig, **mc_ints)

    rd_total = _number("rd_total", sweep["rd_total"]) if "rd_total" in sweep else None

    return SweepSpec(
        variable=sweep["variable"],
        grid=grid,
        base=base,
        thetas=thetas,
        ms=ms,
        modes=modes,
        mc=mc,
        threshold=threshold,
        rd_total=rd_total,
        name=top.get("name", "sweep"),
    )


def resolve_point(spec: SweepSpec, value: float, theta: float, m: float):
    """System and linear threshold (or None) for one grid point.

    The only judge of a grid value: a value that is not finite, a direct
    SNR scale that is not positive, or a field ``SwiptSystem`` refuses is
    outside the variable's domain.  A theta or m sweep passes its raw grid
    value as ``theta`` or ``m``.  The direct-scale sweeps (gamma_hat_r,
    gamma_hat_d) bypass the physical parameterization: the hop distances are
    re-solved so that the swept scale takes the grid value and the other
    keeps its baseline value.  A point whose derived SNR scales are not
    finite and positive is refused.
    """
    v = spec.variable
    point = f"grid point {v} = {fmt(value)} (theta = {fmt(theta)}, m = {fmt(m)})"
    outside = f"{point}: outside the domain of {v!r}"
    if not math.isfinite(value) or (v in ("gamma_hat_r", "gamma_hat_d") and value <= 0):
        raise ConfigError(outside)
    fields = {SYSTEM_FIELDS[v]: value} if v in SYSTEM_FIELDS else {}
    if spec.rd_total is not None:  # dist_sr moves dist_rd too
        fields["dist_rd"] = spec.rd_total - value
    sys = _checked(replace, spec.base, fading_m=m, theta=theta, **fields, where=outside)
    threshold = spec.threshold
    if v == "threshold_db":
        threshold = _db_to_linear(f"{point}: threshold_db", value)
    try:
        if v in ("gamma_hat_r", "gamma_hat_d"):
            sys = _retarget_scale(sys, v, value)
        scales = derive_snr_scales(sys)
    except (ArithmeticError, ValueError) as exc:  # ** overflow, a zero path loss, an infinite distance
        raise ConfigError(f"{point}: the SNR scales are not finite ({exc})") from None
    for name in ("gamma_hat_r", "gamma_hat_d"):
        scale = getattr(scales, name)
        if not 0.0 < scale < math.inf:
            raise ConfigError(f"{point}: {name} = {scale!r} is not finite and positive")
    return sys, threshold


def _retarget_scale(sys: SwiptSystem, name: str, value: float) -> SwiptSystem:
    """Set one derived SNR scale by adjusting the hop distances.

    dist_sr sets gamma_hat_r alone once dist_rd is re-solved to keep
    gamma_hat_d at its requested (or baseline) value, so a direct sweep of
    either scale leaves the other fixed.
    """
    base = derive_snr_scales(sys)
    ghr = value if name == "gamma_hat_r" else base.gamma_hat_r
    ghd = value if name == "gamma_hat_d" else base.gamma_hat_d
    alpha = sys.pathloss_exp
    pl_sr = (1.0 - sys.ps_factor) * sys.source_power / (sys.noise_power * ghr)
    pl_rd = sys.eh_efficiency * sys.ps_factor * sys.source_power / (pl_sr * sys.noise_power * ghd)
    return replace(sys, dist_sr=pl_sr ** (1.0 / alpha), dist_rd=pl_rd ** (1.0 / alpha))


# Presets hard-coding the published figure parameter sets.  fig9 and fig10
# sweep the SNR scales directly where the plotted axis bypasses the physical
# parameterization.
_PRESET_TEXT = {
    "fig3": """
name = fig3
source_power = 10
noise_power = 1e-2
eh_efficiency = 0.7
dist_sr = 2
dist_rd = 2
pathloss_exp = 2.5
m = 1,2
theta = -1,0,1
[sweep]
variable = rho
start = 0.05
stop = 0.95
count = 19
""",
    "fig4": """
name = fig4
noise_power = 1e-2
rho = 0.3
eh_efficiency = 0.7
dist_sr = 2
dist_rd = 2
pathloss_exp = 2.5
m = 1,2
theta = -1,0,1
[sweep]
variable = source_power
start = 1
stop = 20
count = 20
""",
    "fig5": """
name = fig5
source_power = 10
noise_power = 1e-2
rho = 0.3
dist_sr = 2
dist_rd = 2
pathloss_exp = 2.5
m = 1,2
theta = -1,0,1
[sweep]
variable = eh_efficiency
start = 0.05
stop = 1.0
count = 20
""",
    "fig6": """
name = fig6
source_power = 1
rho = 0.3
eh_efficiency = 0.7
dist_sr = 2
dist_rd = 2
pathloss_exp = 2.5
m = 1,2
theta = -1,0,1
[sweep]
variable = noise_power
start = 1e-3
stop = 1e-1
count = 20
spacing = log
""",
    "fig7": """
name = fig7
source_power = 10
noise_power = 1e-2
rho = 0.3
eh_efficiency = 0.7
pathloss_exp = 2.5
m = 1
theta = -1,0,1
[sweep]
variable = dist_sr
start = 0.5
stop = 3.5
count = 16
rd_total = 4
""",
    "fig8": """
name = fig8
source_power = 10
noise_power = 1e-3
eh_efficiency = 0.7
dist_sr = 2
dist_rd = 2
pathloss_exp = 2.5
m = 1
theta = -1,0,1
threshold_db = 0
[sweep]
variable = rho
start = 0.05
stop = 0.95
count = 19
""",
    "fig9": """
name = fig9
source_power = 10
noise_power = 1e-3
eh_efficiency = 0.7
rho = 0.3
dist_sr = 2
dist_rd = 2
pathloss_exp = 2.5
m = 1,2,3
theta = 0
modes = quadrature,asymptotic
[sweep]
variable = gamma_hat_r
start = 1
stop = 1e4
count = 17
spacing = log
""",
    "fig10": """
name = fig10
source_power = 10
noise_power = 1e-3
eh_efficiency = 0.7
rho = 0.3
dist_sr = 2
dist_rd = 2
pathloss_exp = 2.5
m = 1,2
theta = 1
threshold_db = 0
modes = closed_form,asymptotic
[sweep]
variable = gamma_hat_d
start = 1
stop = 1e3
count = 16
spacing = log
""",
}

PRESETS = tuple(sorted(_PRESET_TEXT))


def preset_spec(name: str) -> SweepSpec:
    if name not in _PRESET_TEXT:
        raise ConfigError(f"unknown preset {name!r}; choose one of {', '.join(PRESETS)}")
    return parse_config(_PRESET_TEXT[name])
