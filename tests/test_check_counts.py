"""Each entry point checks each matrix argument once.

Every binding of ``matcore._square_finite`` (the finiteness check behind
``as_array`` and the constructors) and of ``matcore._symmetry_defect`` (the
symmetry and skewness test) is replaced by a counting spy, and each call
below must make exactly the pinned number of each.  ``SymMatrix``,
``SkewMatrix`` and ``SpdMatrix`` of an array call ``_square_finite`` for the
conversion and the shape only: their finiteness test runs in
``_symmetry_defect``, on the max|A| that scales its tolerance.  Each still
makes one call of each, so their pins are unchanged.  A count above the pin is
a check repeated on an array that was just checked; the pins of the
composite functions also keep the one check of each computed array whose
overflow the function reports.
"""

import importlib
import json
import pkgutil

import numpy as np
import pytest

import corotcalc
from corotcalc import calculus as ca
from corotcalc import kinematics as ki
from corotcalc import matcore as mc
from corotcalc import monotonicity as mo
from corotcalc.cli import main
from corotcalc.scalarfun import SIGMA

MODULES = [importlib.import_module(f"corotcalc.{m.name}")
           for m in pkgutil.iter_modules(corotcalc.__path__)]

RNG = np.random.default_rng(0)
G = RNG.standard_normal((3, 3))
SPD = G @ G.T + 3.0 * np.eye(3)
SYM = G + G.T
SKEW = G - G.T
GEN = 0.3 * RNG.standard_normal((3, 3))
X = RNG.standard_normal((3, 3))
Y = RNG.standard_normal((3, 3))
XS = X + X.T
# built before any count starts
M_SYM, M_SKEW, M_SPD = mc.Matrix(SYM), mc.Matrix(SKEW), mc.Matrix(SPD)
WIRE = M_SYM.to_json_dict()


@pytest.fixture
def checks(monkeypatch):
    """[finiteness checks, symmetry tests] made since the fixture was set up."""
    counts = [0, 0]
    for k, name in enumerate(("_square_finite", "_symmetry_defect")):
        original = getattr(mc, name)

        def spy(*args, _original=original, _k=k, **kwargs):
            counts[_k] += 1
            return _original(*args, **kwargs)

        bound = [mod for mod in MODULES if getattr(mod, name, None) is original]
        assert mc in bound
        for mod in bound:
            monkeypatch.setattr(mod, name, spy)
    return counts


# call -> (finiteness checks, symmetry tests)
CALLS = {
    "SpdMatrix": (lambda: mc.SpdMatrix(SPD), (1, 1)),
    "SymMatrix": (lambda: mc.SymMatrix(SYM), (1, 1)),
    "SkewMatrix": (lambda: mc.SkewMatrix(SKEW), (1, 1)),
    # a Matrix is finite already: a value type built from one tests its property alone
    "SpdMatrix of a Matrix": (lambda: mc.SpdMatrix(M_SPD), (0, 1)),
    "SymMatrix of a Matrix": (lambda: mc.SymMatrix(M_SYM), (0, 1)),
    "SkewMatrix of a Matrix": (lambda: mc.SkewMatrix(M_SKEW), (0, 1)),
    "d_exp symmetric": (lambda: ca.d_exp(SYM, X), (2, 1)),
    "d_exp general": (lambda: ca.d_exp(GEN, X), (2, 1)),
    "exp_conjugation symmetric": (lambda: ca.exp_conjugation(SYM, X), (2, 1)),
    "exp_conjugation general": (lambda: ca.exp_conjugation(GEN, X), (2, 1)),
    "matlog_series": (lambda: ca.matlog_series(np.eye(3) + 0.1 * SYM), (1, 0)),
    "dlog_commutator_residual": (lambda: ca.dlog_commutator_residual(SPD, Y), (3, 1)),
    "anticommutator_gap": (lambda: ca.anticommutator_gap(SPD, X), (4, 1)),
    "adjoint_residuals": (lambda: ca.adjoint_residuals(SYM, X, Y, SIGMA), (4, 1)),
    "isotropic_commutation_residual": (
        lambda: mo.isotropic_commutation_residual(mo.cube_generator(), SYM, Y), (3, 0)),
    # four of the seven are the generator's own matrix_eval conversions, one per call
    "isotropic_commutation_residual with h": (
        lambda: mo.isotropic_commutation_residual(mo.identity_generator(), SYM, Y, h=1e-4), (7, 0)),
    "isotropic_commutation_residual with h, square": (
        lambda: mo.isotropic_commutation_residual(mo.square_generator(), SYM, Y, h=1e-4), (7, 0)),
    "isotropic_commutation_residual with h, cube plus identity": (
        lambda: mo.isotropic_commutation_residual(mo.cube_plus_identity_generator(), SYM, Y, 1e-4),
        (7, 0)),
    "bilinear_lhs": (lambda: mo.bilinear_lhs(mo.exponential_generator(), SPD, XS, 1, 0), (4, 2)),
    "eigendecompose_symmetric": (lambda: mc.eigendecompose_symmetric(SYM), (1, 1)),
    "d_log": (lambda: ca.d_log(SPD, X), (2, 1)),
    "f_of_ad_spectral": (lambda: ca.f_of_ad_spectral(SIGMA, SYM, X), (2, 1)),
    "dlog_sandwich": (lambda: ca.dlog_sandwich(SPD, X, 1, 0), (2, 1)),
    "dlog_anticommutator": (lambda: ca.dlog_anticommutator(SPD, X), (2, 1)),
    "dlog_sinh_pair": (lambda: ca.dlog_sinh_pair(SPD, X, 1, 0, -1), (2, 1)),
    "sqrt_r_operator": (lambda: mo.sqrt_r_operator(SYM, 3.0, X), (2, 1)),
    "IsotropicFunction.derivative": (
        lambda: mo.exponential_generator().derivative(SYM, X), (2, 1)),
    "log_spin_spectral": (lambda: ki.log_spin_spectral(SPD, SYM, SKEW), (3, 1)),
    "log_spin_commutator": (lambda: ki.log_spin_commutator(SPD, SYM, SKEW), (3, 1)),
    "Matrix.from_json_dict": (lambda: mc.Matrix.from_json_dict(WIRE), (1, 0)),
    "SymMatrix.from_json_dict": (lambda: mc.SymMatrix.from_json_dict(WIRE), (1, 1)),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_each_argument_is_checked_once(name, checks):
    call, want = CALLS[name]
    call()
    assert tuple(checks) == want


@pytest.mark.parametrize("method, want", [("both", (5, 3)), ("spectral", (4, 3)),
                                           ("commutator", (4, 3))])
def test_spin_checks_each_input_once_and_each_spin_once(method, want, tmp_path, capsys, checks):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({k: mc.Matrix(v).to_json_dict()
                                for k, v in (("B", SPD), ("D", SYM), ("W", SKEW))}))
    checks[:] = [0, 0]
    assert main(["spin", "--input", str(path), "--method", method]) == 0
    # three payloads read once each, B, D, W tested once each, then the spins
    assert tuple(checks) == want
    capsys.readouterr()
