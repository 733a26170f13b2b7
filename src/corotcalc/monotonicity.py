"""Isotropic tensor functions and the bridge between two quadratic forms.

An isotropic function of a symmetric matrix is applied spectrally; its
derivative has an exact realization as a divided-difference Hadamard mask
in the eigenbasis.  The module verifies that the derivative commutes with
the commutator of the argument, provides the operator square root of the
positive r kernel, and evaluates the two quadratic forms whose sign
agreement characterizes monotone stress-strain response, linked by an
exact identity through the square-root operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .calculus import (
    _ad,
    _central,
    _difference_table,
    _each_pair,
    _log_eig_apply,
    _step,
    f_of_ad_spectral,
    matexp_series,
    matfun_spectral,
)
from .matcore import (
    EigenDecomposition,
    NotSymmetricError,
    _dots,
    _eigendecompose_stack,
    _gate,
    _hadamard,
    _norms,
    _require_spd,
    _symmetry_defect,
    _worst,
    as_array,
    eigendecompose_symmetric,
    frobenius_norm,
)
from .sampling import _draw_trials
from .scalarfun import _mapped, make_r_kernel, make_sqrt_r_kernel

__all__ = [
    "IsotropicFunction",
    "EquivalenceReport",
    "identity_generator",
    "exponential_generator",
    "square_generator",
    "cube_generator",
    "cube_plus_identity_generator",
    "isotropic_commutation_residual",
    "sqrt_r_operator",
    "bilinear_lhs",
    "equivalence_check",
]

DIVIDED_DIFF_PAIR_TOL = 1e-5


@dataclass(frozen=True)
class IsotropicFunction:
    """A spectrally applied scalar generator with its exact derivative data.

    ``scalar_generator`` lifts to symmetric matrices through the eigenbasis;
    ``derivative_generator`` is its pointwise derivative, used on the
    diagonal of the divided-difference table.  ``poly_coefficients`` enables
    the exact product-rule derivative valid in arbitrary (non-symmetric)
    directions; ``matrix_eval`` is a general-matrix evaluation used only by
    finite-difference oracles.
    """

    name: str
    scalar_generator: Callable[[float], float]
    derivative_generator: Callable[[float], float]
    poly_coefficients: tuple | None = None
    matrix_eval: Callable[[np.ndarray], np.ndarray] | None = None

    def apply(self, a) -> np.ndarray:
        return matfun_spectral(self.scalar_generator, a)

    def derivative(self, g, x) -> np.ndarray:
        """Directional derivative at symmetric g: divided differences in its basis."""
        dec = eigendecompose_symmetric(g)
        return self._derivative(dec, *_gate(x, shape=dec.q.shape))

    def _derivative(self, dec: EigenDecomposition, x: np.ndarray) -> np.ndarray:
        """``derivative`` in the eigenbasis of dec, unchecked; a stacked dec takes a stack X."""
        f, fprime = self.scalar_generator, self.derivative_generator
        return _hadamard(dec, _divided_difference_table(f, fprime, dec.eigenvalues), x)


def _divided_difference_table(
    f: Callable[[float], float],
    fprime: Callable[[float], float],
    eigvals: np.ndarray,
) -> np.ndarray:
    """(f(a_i) - f(a_j)) / (a_i - a_j), with f' at the midpoint for close pairs.

    A pair is close within DIVIDED_DIFF_PAIR_TOL (1 + max|a|) of its own
    spectrum: a stack of spectra (N, d) gives N tables, each with its radius.
    """
    vals = np.asarray(eigvals, dtype=float)
    close = DIVIDED_DIFF_PAIR_TOL * (1.0 + np.max(np.abs(vals), axis=-1))

    def entry(a: float, b: float, close: float) -> float:
        if abs(a - b) <= close:
            return fprime(0.5 * (a + b))
        if a < b:  # the larger first: an exact zero quotient is then +0.0 both ways
            a, b = b, a
        return (f(a) - f(b)) / (a - b)

    def over(a, b, close):  # f once per eigenvalue, f' at the close pairs only
        fa = _mapped(f, a)
        fb, gap = fa.swapaxes(-1, -2), abs(a - b)  # gap is hi - lo to the bit
        near, swap = gap <= close, a < b
        out = np.empty(gap.shape)
        out[near] = _mapped(fprime, (0.5 * (a + b))[near])
        far = ~near
        np.subtract(np.where(swap, fb, fa), np.where(swap, fa, fb), out=out, where=far)
        return np.divide(out, gap, out=out, where=far)

    return _each_pair(entry, over, vals, np.reshape(close, -1).tolist())


# ---------------------------------------------------------------------------
# prebuilt generators


def identity_generator() -> IsotropicFunction:
    return IsotropicFunction(
        "identity", lambda t: t, lambda t: 1.0, poly_coefficients=(0.0, 1.0),
        matrix_eval=lambda m: np.array(as_array(m)),
    )


def exponential_generator() -> IsotropicFunction:
    return IsotropicFunction(
        "exp", math.exp, math.exp, matrix_eval=lambda m: matexp_series(m)
    )


def square_generator() -> IsotropicFunction:
    return IsotropicFunction(
        "square", lambda t: t * t, lambda t: 2.0 * t, poly_coefficients=(0.0, 0.0, 1.0),
        matrix_eval=lambda m: (a := as_array(m)) @ a,
    )


def cube_generator() -> IsotropicFunction:
    return IsotropicFunction(
        "cube", lambda t: t**3, lambda t: 3.0 * t * t,
        poly_coefficients=(0.0, 0.0, 0.0, 1.0),
        matrix_eval=lambda m: np.linalg.matrix_power(as_array(m), 3),
    )


def cube_plus_identity_generator() -> IsotropicFunction:
    return IsotropicFunction(
        "cube_plus_identity", lambda t: t**3 + t, lambda t: 3.0 * t * t + 1.0,
        poly_coefficients=(0.0, 1.0, 0.0, 1.0),
        matrix_eval=lambda m: np.linalg.matrix_power(a := as_array(m), 3) + a,
    )


def _poly_gateaux(coefficients, aa: np.ndarray, xx: np.ndarray) -> np.ndarray:
    """Exact directional derivative of sum c_n A^n: product rule per power.
    Unchecked; stacks take stacks."""
    top = len(coefficients) - 1
    powers = [np.eye(aa.shape[-1])]
    for _ in range(max(top - 1, 0)):
        powers.append(powers[-1] @ aa)
    out = np.zeros(aa.shape)
    for n, cn in enumerate(coefficients):
        if cn == 0.0 or n == 0:
            continue
        for j in range(n):
            out += cn * (powers[j] @ xx @ powers[n - 1 - j])
    return out


def isotropic_commutation_residual(f: IsotropicFunction, a, y, h: float | None = None) -> float:
    """Defect of: commutator of A with Df(A)[Y] equals Df(A)[[A, Y]].

    With ``h`` given the derivative is a centered difference through the
    generator's general-matrix evaluation (an oracle independent of any
    eigenbasis), and ValueError unless h is finite and nonzero; without it the
    exact polynomial product-rule derivative is used, which requires
    ``poly_coefficients``.
    """
    aa, yy = _gate(a, y)
    if h is None:
        if f.poly_coefficients is None:
            raise ValueError(
                f"generator {f.name!r} is not polynomial; pass a finite-difference step h"
            )
        lhs = _ad(aa, _poly_gateaux(f.poly_coefficients, aa, yy))
        rhs = _poly_gateaux(f.poly_coefficients, aa, _ad(aa, yy))
        return frobenius_norm(lhs - rhs)
    if f.matrix_eval is None:
        raise ValueError(f"generator {f.name!r} has no general-matrix evaluation")
    h = _step(h)
    lhs = _ad(aa, _central(f.matrix_eval, aa, yy, h))
    rhs = _central(f.matrix_eval, aa, _ad(aa, yy), h)
    return frobenius_norm(lhs - rhs)


# ---------------------------------------------------------------------------
# the square-root operator and the two quadratic forms


def sqrt_r_operator(g, q: float, x) -> np.ndarray:
    """Apply the square root of the positive r kernel of the commutator at G.

    Applying it twice reproduces the r kernel; the reciprocal kernel
    inverts it, so the map is a bijection on matrices.
    """
    return f_of_ad_spectral(make_sqrt_r_kernel(float(q)), g, x)


def bilinear_lhs(
    f: IsotropicFunction, a, x, p: int, s: int, decomposition=None
) -> float:
    """Quadratic form of f(ln A) against symmetric power-sandwich directions.

    <Df(G)|_{G=ln A} [ d(ln A)[A^p X A^-s + A^-s X A^p] ], X> evaluated by
    the chain rule: the inner derivative collapses to the r kernel of the
    commutator at ln A, the outer one to divided differences of the
    generator in the same eigenbasis.  Requires p - s = 1.  A given
    ``decomposition`` is trusted as that of A: the bridge form takes A = exp S
    with the exact factors (Q, e^lambda) of S.
    """
    if p - s != 1:
        raise ValueError(f"power pair must satisfy p - s = 1, got p={p}, s={s}")
    dec_a = _require_spd(eigendecompose_symmetric(a) if decomposition is None else decomposition)
    xx = _gate(x, shape=dec_a.q.shape)[0]
    asym, bound, _ = _symmetry_defect(xx)
    if asym > bound:
        raise NotSymmetricError("direction must be symmetric")
    if _norms(xx) == 0.0:
        raise ValueError("direction must be nonzero")
    log_vals = np.log(dec_a.eigenvalues)
    inner = _hadamard(dec_a, _difference_table(make_r_kernel(float(p + s)), log_vals), xx)
    # the one check of each computed form, inner and outer
    outer = f._derivative(EigenDecomposition._trusted(dec_a.q, log_vals), as_array(inner))
    return float(_dots(as_array(outer), xx))


@dataclass(frozen=True)
class EquivalenceReport:
    """Trial statistics for the bridge between the two quadratic forms."""

    trials: int
    max_rel_residual: float
    sign_agreements: int

    @property
    def all_signs_agree(self) -> bool:
        return self.sign_agreements == self.trials


def equivalence_check(
    f: IsotropicFunction, trials: int, seed: int, p: int, s: int
) -> EquivalenceReport:
    """Sample the identity linking the two quadratic forms and their signs.

    Per trial (draw order): one random symmetric S (entries uniform in
    [-1.5, 1.5]) giving A = exp(S) with ln A = S by construction, then one
    random symmetric nonzero direction X.  Checks that the form at A equals
    the form at G = S evaluated on the square-root-kernel image of X, and
    counts sign agreement of the two forms.  The trials are drawn in one call
    (``_bridge_draw``), S is solved as one stack, and ``_bridge`` evaluates them
    as stacks, each form as ``bilinear_lhs`` and ``IsotropicFunction.derivative``
    would evaluate it; a NaN residual makes ``max_rel_residual`` NaN.  A trial
    count outside [1, sampling.MAX_TRIALS] raises ValueError before any draw.
    """
    if p - s != 1:
        raise ValueError(f"power pair must satisfy p - s = 1, got p={p}, s={s}")
    s_mats, x = _bridge_draw(seed, trials)
    return _bridge(f, p, s, _eigendecompose_stack(s_mats), x)


def _bridge_draw(seed: int, trials: int) -> tuple:
    """``equivalence_check``'s trials: the stacks of S and of X, in its draw order."""
    return _draw_trials(seed, trials, ("sym", 1.5), ("sym", 1.0))


def _bridge(f: IsotropicFunction, p: int, s: int, dec_s, x) -> EquivalenceReport:
    """``equivalence_check`` of drawn trials, given dec_s, the stacked decomposition
    of S, and the directions x; p - s = 1 is the caller's to check.  A caller that
    solves several draws' S together gets the same report for each."""
    dec_a = _require_spd(EigenDecomposition._trusted(dec_s.q, np.exp(dec_s.eigenvalues)))
    inner = _log_eig_apply(make_r_kernel(float(p + s)), dec_a, x)
    dec_g = EigenDecomposition._trusted(dec_a.q, np.log(dec_a.eigenvalues))
    lhs = _dots(f._derivative(dec_g, inner), x)
    z = _hadamard(dec_s, _difference_table(make_sqrt_r_kernel(float(p + s)), dec_s.eigenvalues), x)
    rhs = _dots(f._derivative(dec_s, z), z)
    agreements = int(np.sum((lhs > 0.0) == (rhs > 0.0)))
    return EquivalenceReport(len(x), _worst(np.abs(lhs - rhs) / (1.0 + np.abs(lhs))), agreements)
