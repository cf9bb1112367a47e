"""In-memory span recorder for the traced benchmark run.

``Tracer.install`` wraps public swiptrelay functions at every module that
binds them: most callers import by name (``from .specfun import
bessel_k_scaled``), so the wrapper replaces each module attribute that is the
original function object.  Each call appends one span (name, parent, start,
end) to flat arrays; the spans stay in memory until ``save`` writes them out
after the timed region.  ``summarize`` turns a saved trace into per-layer
calls, total and self time, where self time is a span's duration minus the
durations of its direct children.

The recorder keeps one call stack, so it assumes the traced program runs in
one thread (the benchmark configs set ``workers = 1``).
"""

from __future__ import annotations

import json
import sys
import time
from array import array

import numpy as np


def _arg(args, kwargs, pos: int, key: str):
    return kwargs[key] if key in kwargs else (args[pos] if len(args) > pos else None)


def _quantile_points(args, kwargs, result):
    return int(np.size(_arg(args, kwargs, 1, "p")))


def _pair_samples(args, kwargs, result):
    size = _arg(args, kwargs, 2, "size")
    return 1 if size is None else int(size)


def _cfg_samples(args, kwargs, result):
    return int(_arg(args, kwargs, 2, "cfg").samples)


def _rows(args, kwargs, result):
    return len(_arg(args, kwargs, 1, "rows"))


# (span name, module, attribute, {counter name: amount(args, kwargs, result)})
LAYERS = (
    ("specfun.bessel_k", "specfun", "bessel_k_scaled", {}),
    ("specfun.meijer_g", "specfun", "meijer_g", {}),
    ("product_dist.pdf_closed", "product_dist", "snr_pdf_closed", {}),
    ("product_dist.survival_closed", "product_dist", "snr_survival_closed", {}),
    ("product_dist.cdf_general", "product_dist", "product_cdf_general", {}),
    ("product_dist.mean_snr_factor", "product_dist", "mean_snr_factor", {}),
    ("fading.power_cdf", "fading", "power_cdf", {}),
    ("fading.power_pdf", "fading", "power_pdf", {}),
    ("fading.power_quantile", "fading", "power_quantile",
     {"fading.power_quantile.samples": _quantile_points}),
    ("copula.conditional_cdf", "copula", "conditional_cdf", {}),
    ("copula.sample_pair", "copula", "sample_pair",
     {"copula.sample_pair.samples": _pair_samples}),
    ("swipt_metrics.cap_sr_quad", "swipt_metrics", "ergodic_capacity_sr", {}),
    ("swipt_metrics.cap_sr_meijer", "swipt_metrics", "capacity_sr_meijer", {}),
    ("swipt_metrics.cap_rd_quad", "swipt_metrics", "ergodic_capacity_rd", {}),
    ("swipt_metrics.cap_rd_meijer", "swipt_metrics", "capacity_rd_meijer", {}),
    ("swipt_metrics.outage_closed", "swipt_metrics", "outage_probability", {}),
    ("swipt_metrics.outage_quad", "swipt_metrics", "outage_probability_quadrature", {}),
    ("swipt_metrics.asym_cap_sr", "swipt_metrics", "asymptotic_capacity_sr", {}),
    ("swipt_metrics.asym_outage", "swipt_metrics", "asymptotic_outage", {}),
    ("swipt_metrics.adjudicate", "swipt_metrics", "adjudicate_closed_forms", {}),
    ("montecarlo.simulate_metrics", "montecarlo", "simulate_metrics",
     {"montecarlo.samples": _cfg_samples}),
    ("montecarlo.simulate_outage_law", "montecarlo", "simulate_outage_survival_law",
     {"montecarlo.samples": _cfg_samples}),
    ("sweepcfg.resolve_point", "sweepcfg", "resolve_point", {"sweep.points": lambda a, k, r: 1}),
    ("sweep.run_sweep", "sweep", "run_sweep", {}),
    ("sweep.write_csv", "sweep", "write_csv", {"sweep.rows": _rows}),
    ("validation.run_validation", "validation", "run_validation", {
        "validation.checks": lambda a, k, r: len(r.checks),
        "validation.checks_failed": lambda a, k, r: sum(not c.passed for c in r.checks),
    }),
)

# Spans whose self time is work no named lower layer claims.
TOP_LEVEL = ("sweep.run_sweep", "validation.run_validation")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = {}
        self.models: set[tuple[int, float]] = set()
        self._stack = [-1]

    def wrap(self, name: str, fn, counters: dict):
        nid = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        stack, start, end = self._stack, self.start, self.end

        def traced(*args, **kwargs):
            idx = len(start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            for counter, amount in counters.items():
                self.counters[counter] = self.counters.get(counter, 0) + amount(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every LAYERS entry and the closed-form coefficient builder."""
        modules = [mod for key, mod in sys.modules.items() if key.startswith("swiptrelay.")]
        for name, module, attr, counters in LAYERS:
            original = getattr(sys.modules["swiptrelay." + module], attr)
            traced = self.wrap(name, original, counters)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)

        coeffs = sys.modules["swiptrelay.product_dist"].ClosedFormCoefficients
        build = coeffs.__dict__["build"].__func__

        def record_model(args, kwargs, result):
            self.models.add((int(result.m), float(result.snr_scale)))
            return 1

        coeffs.build = classmethod(
            self.wrap("product_dist.coeff_build", build, {"product_dist.coeff_builds": record_model}))

    def save(self, path: str) -> None:
        counters = dict(self.counters, **{"product_dist.models": len(self.models)})
        np.savez(
            path,
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            names=np.array(json.dumps(self.names)),
            counters=np.array(json.dumps(counters)),
        )


def summarize(path: str) -> tuple[dict[str, dict[str, float]], dict[str, int]]:
    """Per span name: calls, total_s and self_s; plus the saved counters."""
    with np.load(path) as data:
        name_id, parent = data["name_id"], data["parent"]
        dur = data["end"] - data["start"]
        names = json.loads(str(data["names"]))
        counters = json.loads(str(data["counters"]))
    has_parent = parent >= 0
    child_s = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_s = dur - child_s
    calls = np.bincount(name_id, minlength=len(names))
    total = np.bincount(name_id, weights=dur, minlength=len(names))
    own = np.bincount(name_id, weights=self_s, minlength=len(names))
    layers = {
        name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
        for i, name in enumerate(names)
    }
    return layers, counters
