"""The names the benchmark's tracer wraps and reads exist in pathent.

``perfbench/tracing.py`` looks up each function of ``LAYER_FUNCTIONS``
with ``getattr`` when a traced run starts, and each cache of ``CACHES``
through its ``cache_info``.  A deleted or renamed name breaks only the
traced benchmark runs, so these tests read both tables, without changing
the file, and resolve every name on the pathent modules.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = _tracing()


@pytest.mark.parametrize("layer", sorted(TRACING.LAYER_FUNCTIONS))
def test_traced_functions_exist(layer):
    module = importlib.import_module(f"pathent.{layer}")
    for name in TRACING.LAYER_FUNCTIONS[layer]:
        assert callable(getattr(module, name, None)), f"{layer}.{name}"


@pytest.mark.parametrize("metric", sorted(TRACING.CACHES))
def test_traced_caches_exist(metric):
    layer, name, fields = TRACING.CACHES[metric]
    module = importlib.import_module(f"pathent.{layer}")
    info = getattr(getattr(module, name, None), "cache_info", None)
    assert info is not None, f"{layer}.{name} has no cache_info"
    for field in fields:
        assert isinstance(getattr(info(), field), int), f"{metric}.{field}"
