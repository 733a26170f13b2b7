"""What the benchmark tracer, ``perfbench/spans.py``, needs of the library.

``Tracer.install`` wraps ``cls.__dict__[meth]`` for every ``METHODS`` entry,
so each traced class must define that method itself (a KeyError otherwise),
and it looks up every name in each traced module's ``__all__``.  The tracer
is loaded from its source without writing bytecode next to it, installed over
the library, driven through each traced method, and removed again.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from corotcalc import matcore as mc
from corotcalc import monotonicity as mo
from corotcalc.scalarfun import SIGMA

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans_readonly", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_traced_method_and_public_name(monkeypatch):
    spans = _load_spans(monkeypatch)
    mods = {name: importlib.import_module(f"corotcalc.{name}") for name in spans.MODULES}
    originals = {(cls, meth): vars(getattr(mods[mod], cls))[meth]
                 for mod, cls, meth in spans.METHODS}

    g = np.array([[2.0, 0.5], [0.5, 1.0]])
    tracer = spans.Tracer(mods)
    with tracer:
        mc.Matrix(g)
        mc.SymMatrix(g)
        mc.SkewMatrix(g - g.T)
        dec = mc.SpdMatrix(g).decomposition
        mc.EigenDecomposition(dec.q, dec.eigenvalues)
        SIGMA(0.1)
        exp = mo.exponential_generator()
        exp.apply(g)
        exp.derivative(g, g)
    recorded = {tracer.names[i] for i in tracer.name_id}
    for mod, cls, meth in spans.METHODS:
        assert f"{mod}.{cls}.{meth}" in recorded
        assert vars(getattr(mods[mod], cls))[meth] is originals[cls, meth]
    assert "matcore.eigendecompose_symmetric" in recorded  # a public function, through its binding


def test_tracer_sees_the_simulate_trajectory(monkeypatch, tmp_path):
    # the command integrates through the public integrate_motion, so its span
    # and its sample count feed kinematics.step.self_s and kinematics.samples
    spans = _load_spans(monkeypatch)
    mods = {name: importlib.import_module(f"corotcalc.{name}") for name in spans.MODULES}
    tracer = spans.Tracer(mods)
    with tracer:
        assert mods["cli"].main(["simulate", "--t-end", "0.01", "--out", str(tmp_path / "t.csv")]) == 0
    step = [tag for nid, tag in zip(tracer.name_id, tracer.tag)
            if tracer.names[nid] == "kinematics.integrate_motion"]
    assert step == [11]
    assert tracer.layer_metrics()["kinematics.samples"] == 11
