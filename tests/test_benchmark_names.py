"""The names the benchmark's tracer and runner read exist in pathent.

``perfbench/tracing.py`` looks up each function of ``LAYER_FUNCTIONS``
with ``getattr`` when a traced run starts, and each cache of ``CACHES``
through its ``cache_info``; the ``Runner`` of ``perfbench/workloads.py``
reads every name it calls as an attribute of the ``pathent`` package
(``p.X``, ``self.p.X``, ``self.p.cli.main``).  A deleted or renamed name
breaks only the benchmark runs, so these tests read both files, without
changing them, and resolve every name on the pathent modules.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_TRACING = _PERFBENCH / "tracing.py"


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


def _dotted(node) -> list[str]:
    """["self", "p", "cli", "main"] for ``self.p.cli.main``; [] otherwise."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    return [node.id] + names[::-1] if isinstance(node, ast.Name) else []


def _runner_names() -> list[str]:
    """Each dotted pathent name the Runner reads, "cli.main" for
    ``self.p.cli.main``."""
    tree = ast.parse((_PERFBENCH / "workloads.py").read_text())
    (runner,) = [node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == "Runner"]
    names = set()
    for node in ast.walk(runner):
        chain = _dotted(node)
        for root in (["p"], ["self", "p"]):
            if chain[:len(root)] == root and len(chain) > len(root):
                names.add(".".join(chain[len(root):]))
    # "cli" is resolved on the way to "cli.main"
    return sorted(n for n in names
                  if not any(m.startswith(n + ".") for m in names))


RUNNER_NAMES = _runner_names()


def test_runner_reads_names_through_the_package():
    # guards the parse: a Runner rewritten to import its names directly
    # would leave nothing to resolve
    assert "cli.main" in RUNNER_NAMES
    assert "run_block_single" in RUNNER_NAMES


@pytest.mark.parametrize("name", RUNNER_NAMES)
def test_runner_names_exist(name):
    import pathent
    import pathent.cli  # noqa: F401  (binds pathent.cli, as the Runner does)

    value = pathent
    for part in name.split("."):
        assert hasattr(value, part), f"pathent.{name}"
        value = getattr(value, part)
