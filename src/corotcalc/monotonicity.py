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
    _decomposition,
    _hadamard,
    _pair_table,
    ad,
    dlog_sinh_pair,
    f_of_ad_spectral,
    gateaux_fd,
    matexp_series,
    matfun_spectral,
)
from .matcore import (
    EigenDecomposition,
    NotSymmetricError,
    _gate,
    _symmetry_defect,
    as_array,
    eigendecompose_symmetric,
    frobenius_dot,
    frobenius_norm,
)
from .sampling import make_rng, random_symmetric
from .scalarfun import make_sqrt_r_kernel

__all__ = [
    "IsotropicFunction",
    "EquivalenceReport",
    "identity_generator",
    "negated_identity_generator",
    "exponential_generator",
    "square_generator",
    "cube_generator",
    "cube_plus_identity_generator",
    "poly_gateaux",
    "isotropic_commutation_residual",
    "sqrt_r_operator",
    "bilinear_lhs",
    "bilinear_rhs",
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

    def apply(self, a, decomposition=None) -> np.ndarray:
        return matfun_spectral(self.scalar_generator, a, decomposition)

    def derivative(self, g, x, decomposition=None) -> np.ndarray:
        """Directional derivative at symmetric g: divided differences in its basis."""
        dec = _decomposition(g, decomposition)
        table = _divided_difference_table(
            self.scalar_generator, self.derivative_generator, dec.eigenvalues
        )
        return _hadamard(dec, table, x)


def _divided_difference_table(
    f: Callable[[float], float],
    fprime: Callable[[float], float],
    eigvals: np.ndarray,
) -> np.ndarray:
    """(f(a_i) - f(a_j)) / (a_i - a_j), with f' at the midpoint for close pairs."""
    close = DIVIDED_DIFF_PAIR_TOL * (1.0 + float(np.max(np.abs(eigvals))))

    def entry(a: float, b: float) -> float:
        if abs(a - b) <= close:
            return fprime(0.5 * (a + b))
        return (f(a) - f(b)) / (a - b)

    return _pair_table(entry, eigvals)


# ---------------------------------------------------------------------------
# prebuilt generators


def identity_generator() -> IsotropicFunction:
    return IsotropicFunction(
        "identity", lambda t: t, lambda t: 1.0, poly_coefficients=(0.0, 1.0),
        matrix_eval=lambda m: np.array(as_array(m)),
    )


def negated_identity_generator() -> IsotropicFunction:
    return IsotropicFunction(
        "negated_identity", lambda t: -t, lambda t: -1.0, poly_coefficients=(0.0, -1.0),
        matrix_eval=lambda m: -np.array(as_array(m)),
    )


def exponential_generator() -> IsotropicFunction:
    return IsotropicFunction(
        "exp", math.exp, math.exp, matrix_eval=lambda m: matexp_series(m)
    )


def square_generator() -> IsotropicFunction:
    return IsotropicFunction(
        "square", lambda t: t * t, lambda t: 2.0 * t, poly_coefficients=(0.0, 0.0, 1.0),
        matrix_eval=lambda m: as_array(m) @ as_array(m),
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
        matrix_eval=lambda m: np.linalg.matrix_power(as_array(m), 3) + as_array(m),
    )


def poly_gateaux(coefficients, a, x) -> np.ndarray:
    """Exact directional derivative of sum c_n A^n: product rule per power."""
    aa, xx = _gate(a, x)
    d = aa.shape[0]
    top = len(coefficients) - 1
    powers = [np.eye(d)]
    for _ in range(max(top - 1, 0)):
        powers.append(powers[-1] @ aa)
    out = np.zeros((d, d))
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
    eigenbasis); without it the exact polynomial product-rule derivative is
    used, which requires ``poly_coefficients``.
    """
    aa, yy = _gate(a, y)
    if h is None:
        if f.poly_coefficients is None:
            raise ValueError(
                f"generator {f.name!r} is not polynomial; pass a finite-difference step h"
            )
        lhs = ad(aa, poly_gateaux(f.poly_coefficients, aa, yy))
        rhs = poly_gateaux(f.poly_coefficients, aa, ad(aa, yy))
        return frobenius_norm(lhs - rhs)
    if f.matrix_eval is None:
        raise ValueError(f"generator {f.name!r} has no general-matrix evaluation")
    lhs = ad(aa, gateaux_fd(f.matrix_eval, aa, yy, h=h))
    rhs = gateaux_fd(f.matrix_eval, aa, ad(aa, yy), h=h)
    return frobenius_norm(lhs - rhs)


# ---------------------------------------------------------------------------
# the square-root operator and the two quadratic forms


def sqrt_r_operator(g, q: float, x, decomposition=None) -> np.ndarray:
    """Apply the square root of the positive r kernel of the commutator at G.

    Applying it twice reproduces the r kernel; the reciprocal kernel
    inverts it, so the map is a bijection on matrices.
    """
    return f_of_ad_spectral(make_sqrt_r_kernel(float(q)), g, x, decomposition=decomposition)


def _require_symmetric_nonzero(x) -> np.ndarray:
    xx = as_array(x)
    asym, bound = _symmetry_defect(xx)
    if asym > bound:
        raise NotSymmetricError("direction must be symmetric")
    if frobenius_norm(xx) == 0.0:
        raise ValueError("direction must be nonzero")
    return xx


def bilinear_lhs(
    f: IsotropicFunction, a, x, p: int, s: int, decomposition=None
) -> float:
    """Quadratic form of f(ln A) against symmetric power-sandwich directions.

    <Df(G)|_{G=ln A} [ d(ln A)[A^p X A^-s + A^-s X A^p] ], X> evaluated by
    the chain rule: the inner derivative collapses to the r kernel of the
    commutator at ln A, the outer one to divided differences of the
    generator in the same eigenbasis.  ``dlog_sinh_pair`` checks p - s = 1.
    """
    xx = _require_symmetric_nonzero(x)
    dec_a = _decomposition(a, decomposition)
    inner = dlog_sinh_pair(a, xx, p, s, +1, decomposition=dec_a)
    dec_g = EigenDecomposition(dec_a.q, np.log(dec_a.eigenvalues))
    outer = f.derivative(None, inner, decomposition=dec_g)
    return frobenius_dot(outer, xx)


def bilinear_rhs(f: IsotropicFunction, g, x, decomposition=None) -> float:
    """Quadratic form of the generator's derivative at symmetric G: <Df(G)[X], X>."""
    xx = _require_symmetric_nonzero(x)
    return frobenius_dot(f.derivative(g, xx, decomposition=decomposition), xx)


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
    counts sign agreement of the two forms.
    """
    if p - s != 1:
        raise ValueError(f"power pair must satisfy p - s = 1, got p={p}, s={s}")
    rng = make_rng(seed)
    worst = 0.0
    agreements = 0
    for _ in range(trials):
        s_mat = random_symmetric(rng, 3, scale=1.5)
        dec_s = eigendecompose_symmetric(s_mat)
        a = matfun_spectral(math.exp, s_mat, decomposition=dec_s)
        x = random_symmetric(rng, 3)
        dec_a = EigenDecomposition(dec_s.q, np.exp(dec_s.eigenvalues))
        lhs = bilinear_lhs(f, a, x, p, s, decomposition=dec_a)
        z = sqrt_r_operator(s_mat, float(p + s), x, decomposition=dec_s)
        rhs = frobenius_dot(f.derivative(s_mat, z, decomposition=dec_s), z)
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
        if (lhs > 0.0) == (rhs > 0.0):
            agreements += 1
    return EquivalenceReport(trials, worst, agreements)
