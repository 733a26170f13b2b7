"""Matrix functions, the commutator operator, and its functional calculus.

Two evaluation routes are provided everywhere.  The spectral route applies a
scalar kernel through a Hadamard mask in the eigenbasis of a symmetric
matrix and works for any kernel that is finite at the eigenvalue
differences.  The series route sums a formal power series in the commutator
and works for general square matrices, guarded by explicit divergence
detection.  The derivative identities of the matrix exponential and
logarithm are expressed through these operators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .matcore import (
    EigenDecomposition,
    NotSpdError,
    _gate,
    as_array,
    eigendecompose_symmetric,
    frobenius_norm,
    is_symmetric,
)
from .scalarfun import (
    COTH_HALF_X,
    ETA_NEG,
    ETA_NEG_RECIP,
    _eta_coeffs,
    _sigma_coeffs,
    make_r_kernel,
    make_sandwich_kernel,
    make_sinh_ratio_kernel,
)

__all__ = [
    "KernelDomainError",
    "SeriesDivergenceError",
    "SeriesResult",
    "PowerSeriesSpec",
    "SpectralAdOperator",
    "ad",
    "ad_power",
    "ad_power_binomial",
    "matfun_spectral",
    "matfun_series",
    "matexp_series",
    "matlog_series",
    "exp_series_spec",
    "log_series_spec",
    "sigma_series_spec",
    "eta_neg_series_spec",
    "f_of_ad_spectral",
    "f_of_ad_series",
    "d_exp",
    "d_log",
    "dlog_sandwich",
    "dlog_anticommutator",
    "dlog_sinh_pair",
    "dlog_commutator_residual",
    "anticommutator_gap",
    "exp_conjugation",
    "adjoint_residuals",
    "gateaux_fd",
]

GROWTH_STREAK_LIMIT = 5


class KernelDomainError(ValueError):
    """A scalar function is undefined or non-finite at a needed argument."""


class SeriesDivergenceError(RuntimeError):
    """Partial sums of a formal power series are growing instead of settling."""


# ---------------------------------------------------------------------------
# commutator basics


def ad(a, x) -> np.ndarray:
    """Commutator AX - XA."""
    aa, xx = _gate(a, x)
    return aa @ xx - xx @ aa


def ad_power(a, x, m: int) -> np.ndarray:
    """m-fold nesting of the commutator with A."""
    if m < 0 or m > 64:
        raise ValueError(f"nesting depth must be in [0, 64], got {m}")
    aa, xx = _gate(a, x)
    out = np.array(xx)
    for _ in range(m):
        out = aa @ out - out @ aa
    return out


def ad_power_binomial(a, x, m: int) -> np.ndarray:
    """Binomial expansion sum_k C(m,k) A^k X (-A)^(m-k) of the nested commutator."""
    if m < 0 or m > 64:
        raise ValueError(f"nesting depth must be in [0, 64], got {m}")
    aa, xx = _gate(a, x)
    d = aa.shape[0]
    pos = [np.eye(d)]
    neg = [np.eye(d)]
    for _ in range(m):
        pos.append(pos[-1] @ aa)
        neg.append(neg[-1] @ (-aa))
    out = np.zeros_like(aa)
    for k in range(m + 1):
        out += math.comb(m, k) * (pos[k] @ xx @ neg[m - k])
    return out


# ---------------------------------------------------------------------------
# matrix functions


def _decomposition(a, decomposition=None) -> EigenDecomposition:
    """The given eigendecomposition of symmetric ``a``, or a fresh one."""
    if decomposition is not None:
        return decomposition
    return eigendecompose_symmetric(a)


def _spd_decomposition(a, decomposition=None) -> EigenDecomposition:
    """As ``_decomposition``, raising NotSpdError unless every eigenvalue is positive."""
    dec = _decomposition(a, decomposition)
    smallest = float(dec.eigenvalues[-1])
    if smallest <= 0.0:
        raise NotSpdError(smallest)
    return dec


def _checked(fn: Callable[..., float], *args: float) -> float:
    """fn(*args) as a float; failures and non-finite values raise KernelDomainError."""
    try:
        value = float(fn(*args))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise KernelDomainError(f"function undefined at eigenvalues {args!r}: {exc}") from exc
    if not math.isfinite(value):
        raise KernelDomainError(f"function non-finite at eigenvalues {args!r}")
    return value


def _pair_table(fn: Callable[[float, float], float], values) -> np.ndarray:
    """Table T_ij = fn(v_i, v_j) over all pairs of eigenvalues.

    Difference kernels pass ``lambda a, b: kernel(a - b)``.
    """
    vals = [float(v) for v in values]
    return np.array([[_checked(fn, a, b) for b in vals] for a in vals])


def _hadamard(dec: EigenDecomposition, table: np.ndarray, x) -> np.ndarray:
    """Q (T o Q^T X Q) Q^T: the table applied entrywise in the eigenbasis of dec.

    This is the spectral route's one check of X: ``as_array``, shape of dec.
    """
    q = dec.q
    (xx,) = _gate(x, shape=q.shape)
    return q @ (table * (q.T @ xx @ q)) @ q.T


def matfun_spectral(f: Callable[[float], float], s, decomposition=None) -> np.ndarray:
    """Apply a real function to a symmetric matrix through its eigenvalues."""
    dec = _decomposition(s, decomposition)
    vals = np.array([_checked(f, v) for v in dec.eigenvalues.tolist()])
    out = (dec.q * vals) @ dec.q.T
    return 0.5 * (out + out.T)


@dataclass(frozen=True)
class SeriesResult:
    """Partial-sum outcome: the value, terms consumed, and the stop reason."""

    value: np.ndarray
    terms_used: int
    stopped_by: str  # "tolerance" or "max_terms"


@dataclass(frozen=True)
class PowerSeriesSpec:
    """Coefficients f_0, f_1, ... of a formal power series plus stop rules."""

    coefficients: tuple
    max_terms: int = 128
    tol: float = 1e-15

    def __post_init__(self):
        if self.max_terms < 1:
            raise ValueError("max_terms must be at least 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))


def exp_series_spec(scale: float = 1.0, terms: int = 96, tol: float = 1e-15) -> PowerSeriesSpec:
    """Series of e^(scale*x): coefficients scale^n / n!."""
    c = [1.0]
    for n in range(1, terms):
        c.append(c[-1] * scale / n)
    return PowerSeriesSpec(tuple(c), max_terms=terms, tol=tol)


def log_series_spec(terms: int = 160, tol: float = 1e-15) -> PowerSeriesSpec:
    """Series of ln(1+u): (-1)^(n+1) u^n / n, converging for |u| < 1."""
    c = [0.0] + [(-1.0) ** (n + 1) / n for n in range(1, terms)]
    return PowerSeriesSpec(tuple(c), max_terms=terms, tol=tol)


def sigma_series_spec(terms: int = 40, tol: float = 1e-15) -> PowerSeriesSpec:
    """Series of coth(x) - 1/x, converging for |x| < pi.

    Degree is capped by the exact-rational Bernoulli table (n <= 40).
    """
    if terms > 40:
        raise ValueError("sigma series is limited to 40 terms by the Bernoulli table")
    return PowerSeriesSpec(tuple(_sigma_coeffs(terms - 1)), max_terms=terms, tol=tol)


def eta_neg_series_spec(terms: int = 64, tol: float = 1e-15) -> PowerSeriesSpec:
    """Series of (1 - e^-x)/x: (-1)^n x^n / (n+1)!."""
    return PowerSeriesSpec(tuple(_eta_coeffs(terms - 1, sign=-1.0)), max_terms=terms, tol=tol)


class _SeriesAccumulator:
    """Shared stopping and divergence logic for formal-series partial sums."""

    def __init__(self, spec: PowerSeriesSpec):
        self.spec = spec
        self.prev_norm = None
        self.growth_streak = 0

    def diverging(self, term_norm: float, n: int) -> None:
        if self.prev_norm is not None and term_norm > self.prev_norm:
            self.growth_streak += 1
            if self.growth_streak >= GROWTH_STREAK_LIMIT:
                raise SeriesDivergenceError(
                    f"series diverging: {self.growth_streak} consecutive growing terms "
                    f"at term {n} (norm {term_norm:.3e})"
                )
        else:
            self.growth_streak = 0
        self.prev_norm = term_norm

    def small_enough(self, term_norm: float, acc_norm: float) -> bool:
        return term_norm < self.spec.tol * (1.0 + acc_norm)


def _sum_series(spec: PowerSeriesSpec, first_term: np.ndarray, advance) -> SeriesResult:
    """Sum f_n * T_n where T_0 = first_term and T_n = advance(T_{n-1}).

    Zero coefficients advance the recursion but take part in neither the
    stopping rule nor the divergence detector (parity-sparse series would
    otherwise stop immediately or never trip the detector).
    """
    coeffs = spec.coefficients
    n_terms = min(len(coeffs), spec.max_terms)
    acc = coeffs[0] * first_term if coeffs else np.zeros_like(first_term)
    state = _SeriesAccumulator(spec)
    cur = first_term
    used = 1 if coeffs else 0
    stopped_by = "max_terms"
    for n in range(1, n_terms):
        cur = advance(cur)
        fn = coeffs[n]
        used = n + 1
        if fn == 0.0:
            continue
        term = fn * cur
        term_norm = float(np.sqrt(np.sum(term * term)))
        state.diverging(term_norm, n)
        acc = acc + term
        if state.small_enough(term_norm, float(np.sqrt(np.sum(acc * acc)))):
            stopped_by = "tolerance"
            break
    return SeriesResult(acc, used, stopped_by)


def matfun_series(spec: PowerSeriesSpec, a) -> SeriesResult:
    """Sum f_n A^n with tolerance/exhaustion stopping and divergence detection."""
    aa = as_array(a)
    return _sum_series(spec, np.eye(aa.shape[0]), lambda cur: cur @ aa)


def f_of_ad_series(spec: PowerSeriesSpec, a, x) -> SeriesResult:
    """Sum f_n ad_A^n[X]; the series realization of a commutator kernel."""
    aa, xx = _gate(a, x)
    return _sum_series(spec, np.array(xx), lambda cur: aa @ cur - cur @ aa)


def matexp_series(a, terms: int = 96, tol: float = 1e-15) -> np.ndarray:
    return matfun_series(exp_series_spec(terms=terms, tol=tol), a).value


def matlog_series(a, terms: int = 160, tol: float = 1e-15) -> SeriesResult:
    """Logarithm by the series in (A - I); diverges far from the identity."""
    aa = as_array(a)
    return matfun_series(log_series_spec(terms=terms, tol=tol), aa - np.eye(aa.shape[0]))


# ---------------------------------------------------------------------------
# the commutator-kernel operator


@dataclass(frozen=True)
class SpectralAdOperator:
    """Precomputed Hadamard realization of a commutator kernel.

    In the eigenbasis of the symmetric source G the operator multiplies the
    (i, j) component by f(g_i - g_j); the table is built once and the
    operator can then be applied to any number of arguments.
    """

    source: np.ndarray
    decomposition: EigenDecomposition
    kernel_name: str
    kernel_table: np.ndarray

    @classmethod
    def from_matrix(cls, g, kernel, decomposition=None, name=None) -> "SpectralAdOperator":
        dec = _decomposition(g, decomposition)
        src = np.array(g, dtype=float)
        table = _pair_table(lambda a, b: kernel(a - b), dec.eigenvalues)
        src.setflags(write=False)
        table.setflags(write=False)
        label = name if name is not None else getattr(kernel, "name", repr(kernel))
        return cls(src, dec, label, table)

    def apply(self, x) -> np.ndarray:
        return _hadamard(self.decomposition, self.kernel_table, x)


def f_of_ad_spectral(kernel, g, x, decomposition=None) -> np.ndarray:
    """Apply the commutator kernel of a symmetric G to X via the eigenbasis."""
    return SpectralAdOperator.from_matrix(g, kernel, decomposition).apply(x)


# ---------------------------------------------------------------------------
# derivatives of exp and log


def d_exp(a, x, method: str = "auto") -> np.ndarray:
    """Directional derivative of the matrix exponential at A toward X.

    Spectral route (symmetric A): exp(A) times the (1 - e^-t)/t kernel of
    the commutator applied to X, evaluated as the divided differences
    (e^a_i - e^a_j)/(a_i - a_j) = e^max(a_i, a_j) (1 - e^-|a_i - a_j|)/|a_i - a_j|
    of the eigenvalues, which stay finite wherever the result is.  Series
    route (general A): the same two factors summed as formal series.
    """
    if method == "auto":
        method = "spectral" if is_symmetric(a) else "series"
    if method == "spectral":
        dec = eigendecompose_symmetric(a)
        table = _pair_table(
            lambda a, b: math.exp(max(a, b)) * ETA_NEG(abs(a - b)), dec.eigenvalues
        )
        return _hadamard(dec, table, x)
    if method == "series":
        return matexp_series(a) @ f_of_ad_series(eta_neg_series_spec(), a, x).value
    raise ValueError(f"unknown method {method!r}")


def d_log(a, x, decomposition=None) -> np.ndarray:
    """Directional derivative of the matrix logarithm at SPD A toward X.

    Realized as the t/(1 - e^-t) kernel of the commutator at ln A, applied
    to A^-1 X; inverts the exp derivative at ln A.
    """
    dec = _spd_decomposition(a, decomposition)
    table = _pair_table(lambda a, b: ETA_NEG_RECIP(math.log(a / b)) / a, dec.eigenvalues)
    return _hadamard(dec, table, x)


def _log_eig_apply(kernel, a, y, decomposition=None) -> np.ndarray:
    """Apply a commutator kernel evaluated at ln A to Y (A SPD)."""
    dec = _spd_decomposition(a, decomposition)
    table = _pair_table(lambda a, b: kernel(a - b), np.log(dec.eigenvalues))
    return _hadamard(dec, table, y)


def dlog_sandwich(a, y, p: int, s: int, decomposition=None) -> np.ndarray:
    """Log derivative applied to A^p Y A^-s (p - s = 1), via one kernel.

    The kernel t e^(s t)/(1 - e^-t) at ln A reproduces d_log(A, A^p Y A^-s)
    without forming the sandwiched argument.
    """
    if p - s != 1:
        raise ValueError(f"power pair must satisfy p - s = 1, got p={p}, s={s}")
    return _log_eig_apply(make_sandwich_kernel(float(s)), a, y, decomposition)


def dlog_anticommutator(a, y, decomposition=None) -> np.ndarray:
    """Log derivative applied to AY + YA, via the coth(t/2) t kernel at ln A."""
    return _log_eig_apply(COTH_HALF_X, a, y, decomposition)


def dlog_sinh_pair(a, x, p: int, s: int, sign: int, decomposition=None) -> np.ndarray:
    """Log derivative applied to A^p X A^-s -+ A^-s X A^p (p - s = 1).

    sign=-1 selects the difference (sinh-ratio kernel), sign=+1 the sum
    (cosh-ratio kernel, the r function), both evaluated at ln A.
    """
    if p - s != 1:
        raise ValueError(f"power pair must satisfy p - s = 1, got p={p}, s={s}")
    if sign not in (-1, 1):
        raise ValueError(f"sign must be -1 or +1, got {sign}")
    q = float(p + s)
    kernel = make_r_kernel(q) if sign == 1 else make_sinh_ratio_kernel(q)
    return _log_eig_apply(kernel, a, x, decomposition)


def dlog_commutator_residual(a, y, decomposition=None) -> np.ndarray:
    """Residual of: log derivative of [A, Y] equals [ln A, Y].

    Both sides are evaluated independently; the returned matrix should
    vanish to rounding for SPD A.
    """
    aa, yy = _gate(a, y)
    dec = _spd_decomposition(aa, decomposition)
    lhs = d_log(aa, aa @ yy - yy @ aa, decomposition=dec)
    log_a = matfun_spectral(math.log, aa, decomposition=dec)
    rhs = log_a @ yy - yy @ log_a
    return lhs - rhs


def anticommutator_gap(a, x, decomposition=None) -> tuple:
    """(||d_log(A, AX+XA) - 2X||_F, ||[A, X]||_F).

    The first entry vanishes exactly when X commutes with A; the second
    measures how far from commuting the pair is.
    """
    aa, xx = _gate(a, x)
    dec = _spd_decomposition(aa, decomposition)
    gap = frobenius_norm(dlog_anticommutator(aa, xx, decomposition=dec) - 2.0 * xx)
    comm = frobenius_norm(aa @ xx - xx @ aa)
    return gap, comm


# ---------------------------------------------------------------------------
# conjugation and adjointness


def exp_conjugation(a, y, s: float = 1.0, method: str = "auto") -> np.ndarray:
    """e^(sA) Y e^(-sA) computed through the commutator kernel e^(s t).

    The direct triple product is the standard oracle for this value.
    """
    if method == "auto":
        method = "spectral" if is_symmetric(a) else "series"
    if method == "spectral":
        dec = eigendecompose_symmetric(a)
        table = _pair_table(lambda a, b: math.exp(s * (a - b)), dec.eigenvalues)
        return _hadamard(dec, table, y)
    if method == "series":
        return f_of_ad_series(exp_series_spec(scale=s), a, y).value
    raise ValueError(f"unknown method {method!r}")


def adjoint_residuals(a, x, y, kernel) -> tuple:
    """Transpose and self-adjointness defects of a commutator kernel.

    Returns (r1, r2) where r1 = ||(f(ad_A)[X])^T - f(-ad_A)[X^T]||_F and
    r2 = |<f(ad_A)[X], Y> - <X, f(ad_A)[Y]>|; both vanish for symmetric A.
    """
    aa, xx, yy = _gate(a, x, y)
    dec = eigendecompose_symmetric(aa)
    fx = f_of_ad_spectral(kernel, aa, xx, decomposition=dec)
    flipped = f_of_ad_spectral(lambda t: kernel(-t), aa, xx.T, decomposition=dec)
    r1 = frobenius_norm(fx.T - flipped)
    fy = f_of_ad_spectral(kernel, aa, yy, decomposition=dec)
    r2 = abs(float(np.sum(fx * yy)) - float(np.sum(xx * fy)))
    return r1, r2


def gateaux_fd(fn, a, x, h: float = 1e-5, richardson: bool = False) -> np.ndarray:
    """Central-difference directional derivative of a matrix map.

    With ``richardson`` the h and h/2 stencils are combined to cancel the
    leading O(h^2) error term.
    """
    aa, xx = _gate(a, x)

    def central(step):
        return (fn(aa + step * xx) - fn(aa - step * xx)) / (2.0 * step)

    if not richardson:
        return central(h)
    coarse = central(h)
    fine = central(0.5 * h)
    return (4.0 * fine - coarse) / 3.0
