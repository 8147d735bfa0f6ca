"""Every name a ``labrr`` module exports in ``__all__`` must resolve, as must
every name the benchmark's tracer rebinds."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import labrr

_MODULES = ["labrr"] + [f"labrr.{info.name}" for info in pkgutil.iter_modules(labrr.__path__)]


@pytest.mark.parametrize("module_name", _MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert exported, f"{module_name} declares no __all__"
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == []


_TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_benchmark_tracer_targets_resolve():
    # ``perfbench/tracing.py`` rebinds these names for traced runs only; one
    # that no longer exists breaks ``perfbench/run.py --trace 1``.
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [
        f"{owner.__name__}.{attr}" for owner, attr, _, _ in tracing.TARGETS if not hasattr(owner, attr)
    ]
    assert missing == []
