"""Every exported name resolves, every method the benchmark tracer wraps exists, and
only three public functions take a trusted ``decomposition``."""

import importlib
import importlib.util
import inspect
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


def _public_routines(module):
    """(qualified name, routine) of each public function of ``module`` and each method
    of its public classes: ``__all__``, or the names without a leading underscore."""
    names = getattr(module, "__all__", None) or [n for n in vars(module) if n[0] != "_"]
    for name in names:
        obj = getattr(module, name)
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr in dir(obj):
                meth = getattr(obj, attr)
                if (attr[0] != "_" or attr == "__init__") and inspect.isroutine(meth) \
                        and getattr(meth, "__module__", "").startswith("corotcalc."):
                    yield f"{name}.{attr}", meth


def test_only_three_functions_take_a_decomposition():
    # Every other spectral function solves the matrix it is given.  The spins take the
    # one SpdMatrix holds; bilinear_lhs takes the exact factors of A = exp S.
    takers = sorted(f"{mod}.{name}" for mod in MODULE_NAMES
                    for name, fn in _public_routines(importlib.import_module(f"corotcalc.{mod}"))
                    if "decomposition" in inspect.signature(fn).parameters)
    assert takers == ["kinematics.log_spin_commutator", "kinematics.log_spin_spectral",
                      "monotonicity.bilinear_lhs"]
