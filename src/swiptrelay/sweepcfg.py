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
from .swipt_metrics import SwiptSystem


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
        for mode in self.modes:
            if mode not in MODES:
                raise ConfigError(f"unknown mode {mode!r}")
        if self.rd_total is not None and self.variable != "dist_sr":
            raise ConfigError("rd_total coupling only applies to dist_sr sweeps")


def fmt(x: float) -> str:
    """12-significant-digit decimal used everywhere in the CSV."""
    return format(float(x), ".12g")


_SYSTEM_KEYS = {
    "source_power": float,
    "noise_power": float,
    "rho": float,
    "eh_efficiency": float,
    "dist_sr": float,
    "dist_rd": float,
    "pathloss_exp": float,
}
_TOP_KEYS = set(_SYSTEM_KEYS) | {"m", "theta", "threshold", "threshold_db", "modes", "noise_power_db", "name"}
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


def _floats(value: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in value.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad numeric list {value!r}") from exc


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

    sys_kwargs = {
        "source_power": 10.0,
        "noise_power": 1e-2,
        "ps_factor": 0.3,
        "eh_efficiency": 0.7,
        "dist_sr": 2.0,
        "dist_rd": 2.0,
        "pathloss_exp": 2.5,
    }
    for key, conv in _SYSTEM_KEYS.items():
        if key in top:
            target = "ps_factor" if key == "rho" else key
            sys_kwargs[target] = conv(top[key])
    if "noise_power_db" in top:
        sys_kwargs["noise_power"] = 10.0 ** (float(top["noise_power_db"]) / 10.0)

    ms = _floats(top.get("m", "1"))
    for v in ms:
        if not v.is_integer() or v < 1:
            raise ConfigError(f"m must be an integer >= 1, got {v!r}")
    ms = tuple(int(v) for v in ms)
    thetas = _floats(top.get("theta", "0"))
    try:
        base = SwiptSystem(fading_m=ms[0], theta=thetas[0], **sys_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    threshold = None
    if "threshold" in top:
        threshold = float(top["threshold"])
    elif "threshold_db" in top:
        threshold = 10.0 ** (float(top["threshold_db"]) / 10.0)
    if threshold is not None and not 0.0 <= threshold < math.inf:
        raise ConfigError(f"threshold must be finite and non-negative, got {threshold!r}")

    modes = tuple(v.strip() for v in top.get("modes", "closed_form,quadrature,monte_carlo").split(","))

    if "grid" in sweep:
        grid = _floats(sweep["grid"])
    else:
        missing = {"start", "stop", "count"} - set(sweep)
        if missing:
            raise ConfigError(f"[sweep] needs 'grid' or start/stop/count; missing {sorted(missing)}")
        start, stop = float(sweep["start"]), float(sweep["stop"])
        count = int(sweep["count"])
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

    mc = McConfig(
        samples=int(mc_sec.get("samples", "1000000")),
        seed=int(mc_sec.get("seed", "12345")),
        workers=int(mc_sec.get("workers", "1")),
        batch_size=min(int(mc_sec.get("batch_size", "1000000")), int(mc_sec.get("samples", "1000000"))),
    )

    rd_total = float(sweep["rd_total"]) if "rd_total" in sweep else None

    spec = SweepSpec(
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
    _validate_grid(spec)
    return spec


def _validate_grid(spec: SweepSpec) -> None:
    checks = {
        "rho": lambda v: 0.0 < v < 1.0,
        "source_power": lambda v: v > 0,
        "eh_efficiency": lambda v: 0.0 < v <= 1.0,
        "noise_power": lambda v: v > 0,
        "dist_sr": lambda v: v > 0 and (spec.rd_total is None or spec.rd_total - v > 0),
        "gamma_hat_d": lambda v: v > 0,
        "gamma_hat_r": lambda v: v > 0,
        "threshold_db": lambda v: True,
        "theta": lambda v: -1.0 <= v <= 1.0,
        "m": lambda v: v >= 1 and v == int(v),
    }
    bad = [v for v in spec.grid if not checks[spec.variable](v)]
    if bad:
        raise ConfigError(f"grid values {bad} outside the domain of {spec.variable!r}")


def resolve_point(spec: SweepSpec, value: float, theta: float, m: int):
    """System, threshold and scale overrides for one grid point.

    Returns (system, threshold_linear_or_None, scale_overrides) where
    scale_overrides maps 'gamma_hat_r'/'gamma_hat_d' past the physical
    parameterization for the direct-scale sweeps.
    """
    sys = replace(spec.base, fading_m=m, theta=theta)
    threshold = spec.threshold
    overrides: dict[str, float] = {}
    v = spec.variable
    if v == "rho":
        sys = replace(sys, ps_factor=value)
    elif v == "source_power":
        sys = replace(sys, source_power=value)
    elif v == "eh_efficiency":
        sys = replace(sys, eh_efficiency=value)
    elif v == "noise_power":
        sys = replace(sys, noise_power=value)
    elif v == "dist_sr":
        rd = spec.rd_total - value if spec.rd_total is not None else sys.dist_rd
        sys = replace(sys, dist_sr=value, dist_rd=rd)
    elif v == "threshold_db":
        threshold = 10.0 ** (value / 10.0)
    elif v == "theta":
        sys = replace(sys, theta=value)
    elif v == "m":
        sys = replace(sys, fading_m=int(value))
    elif v in ("gamma_hat_r", "gamma_hat_d"):
        overrides[v] = value
    return sys, threshold, overrides


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


def preset_config(name: str) -> str:
    try:
        return _PRESET_TEXT[name]
    except KeyError:
        raise ConfigError(f"unknown preset {name!r}; choose one of {', '.join(PRESETS)}") from None


def preset_spec(name: str) -> SweepSpec:
    return parse_config(preset_config(name))
