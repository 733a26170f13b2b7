"""Every exported name resolves, and every method the benchmark tracer wraps exists."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import corotcalc

MODULE_NAMES = sorted(m.name for m in pkgutil.iter_modules(corotcalc.__path__))


def _load_spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", MODULE_NAMES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"corotcalc.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"corotcalc.{name}.__all__ names undefined: {missing}"


def test_traced_names_exist():
    spans = _load_spans()
    for name in spans.MODULES:
        assert name in MODULE_NAMES, f"traced module corotcalc.{name} is gone"
    cli = importlib.import_module("corotcalc.cli")
    for fn in spans.CLI_PUBLIC:
        assert callable(getattr(cli, fn, None)), f"corotcalc.cli.{fn} is gone"
    for mod, cls, meth in spans.METHODS:
        klass = getattr(importlib.import_module(f"corotcalc.{mod}"), cls, None)
        assert klass is not None, f"traced class corotcalc.{mod}.{cls} is gone"
        assert meth in vars(klass), f"traced method {cls}.{meth} is not defined on {cls}"
