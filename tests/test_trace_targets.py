"""The benchmark tracer's targets still exist under the names it uses.

``perfbench/spans.py`` wraps swiptrelay functions by module and attribute
name, and ``perfbench/workloads.py`` calls a few of them directly.  A
refactor that renames one of them would otherwise surface only in a
benchmark run; these checks read the perfbench files without changing them.
"""

import importlib
import importlib.util
import math
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    key = f"_perfbench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[key] = module  # dataclasses look their module up here
        spec.loader.exec_module(module)
    return sys.modules[key]


@pytest.mark.parametrize("span, module, attr", [entry[:3] for entry in _load("spans").LAYERS])
def test_layer_resolves_to_a_callable(span, module, attr):
    target = getattr(importlib.import_module(f"swiptrelay.{module}"), attr, None)
    assert callable(target), f"{span}: swiptrelay.{module}.{attr} is gone"


def test_coefficient_builder_is_a_classmethod():
    from swiptrelay.product_dist import ClosedFormCoefficients

    assert isinstance(ClosedFormCoefficients.__dict__["build"], classmethod)


def test_mc_references_run_on_one_point():
    workloads = _load("workloads")
    point = workloads.Point(rho=0.5, theta=0.6, m=2)
    refs = workloads.mc_references([point])[point]
    assert set(refs) == {"capacity_sr", "capacity_rd", "mean_snr_d"}
    assert all(math.isfinite(v) and v > 0.0 for v in refs.values())
