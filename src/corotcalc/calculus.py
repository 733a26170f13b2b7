"""Matrix functions, the commutator operator, and its functional calculus.

Two evaluation routes are provided everywhere.  The spectral route applies a
scalar kernel through a Hadamard mask in the eigenbasis of a symmetric
matrix and works for any kernel that is finite at the eigenvalue
differences.  The series route sums a formal power series in the commutator
and works for general square matrices, guarded by explicit divergence
detection.  The derivative identities of the matrix exponential and
logarithm are expressed through these operators.  Each spectral function
solves the eigendecomposition of the matrix it is given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import Callable

import numpy as np

from .matcore import (
    EigenDecomposition,
    _gate,
    _hadamard,
    _jacobi,
    _norms,
    _require_spd,
    _require_symmetric,
    _spectral,
    _symmetry_defect,
    as_array,
    eigendecompose_symmetric,
    frobenius_norm,
)
from .scalarfun import (
    COTH_HALF_X,
    ETA_NEG,
    ETA_NEG_RECIP,
    KernelDomainError,
    _checked,
    _evaluated,
    _eta_series,
    _exp,
    _exp_series,
    _log,
    _log1p_series,
    _sigma_series,
    make_r_kernel,
    make_sandwich_kernel,
    make_sinh_ratio_kernel,
)

__all__ = [
    "KernelDomainError",
    "SeriesDivergenceError",
    "SeriesResult",
    "PowerSeriesSpec",
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
# A series stops once a term's norm is below SERIES_TOL (1 + the partial sum's norm).
SERIES_TOL = 1e-15


class SeriesDivergenceError(RuntimeError):
    """Partial sums of a formal power series are growing instead of settling."""


# ---------------------------------------------------------------------------
# commutator basics


def ad(a, x) -> np.ndarray:
    """Commutator AX - XA."""
    return _ad(*_gate(a, x))


def _ad(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """AX - XA, unchecked; stacks take stacks."""
    return a @ x - x @ a


def ad_power(a, x, m: int) -> np.ndarray:
    """m-fold nesting of the commutator with A."""
    if m < 0 or m > 64:
        raise ValueError(f"nesting depth must be in [0, 64], got {m}")
    return _ad_power(*_gate(a, x), m)


def _ad_power(aa: np.ndarray, xx: np.ndarray, m: int) -> np.ndarray:
    """``ad_power``, unchecked; stacks take stacks."""
    out = np.array(xx)
    for _ in range(m):
        out = aa @ out - out @ aa
    return out


def ad_power_binomial(a, x, m: int) -> np.ndarray:
    """Binomial expansion sum_k C(m,k) A^k X (-A)^(m-k) of the nested commutator."""
    if m < 0 or m > 64:
        raise ValueError(f"nesting depth must be in [0, 64], got {m}")
    return _ad_power_binomial(*_gate(a, x), m)


def _ad_power_binomial(aa: np.ndarray, xx: np.ndarray, m: int) -> np.ndarray:
    """``ad_power_binomial``, unchecked; stacks take stacks."""
    pos = [np.eye(aa.shape[-1])]
    neg = [np.eye(aa.shape[-1])]
    for _ in range(m):
        pos.append(pos[-1] @ aa)
        neg.append(neg[-1] @ (-aa))
    out = np.zeros_like(aa)
    for k in range(m + 1):
        out += math.comb(m, k) * (pos[k] @ xx @ neg[m - k])
    return out


# ---------------------------------------------------------------------------
# matrix functions


_triu_indices = lru_cache(maxsize=16)(np.triu_indices)  # bounded: the arrays grow as d^2


def _each_pair(entry, array, values, *per_row) -> np.ndarray:
    """Table T_ij = entry(v_i, v_j, *e) over all pairs of eigenvalues, e the row's entries
    of ``per_row``; ``array(a, b, *e)`` is the same over arrays that broadcast to the
    table.  Values of shape (N, d) give one table per row, shape (N, d, d)."""
    vals = np.asarray(values, dtype=float)
    flat = vals.reshape(-1, vals.shape[-1])  # listed only if evaluated entry by entry
    cols = (np.reshape(x, vals.shape[:-1] + (1, 1)) for x in per_row)
    table = _evaluated(lambda: (entry(a, b, *e) for row, *e in zip(flat.tolist(), *per_row)
                                for a in row for b in row), vals.size * vals.shape[-1],
                       lambda: array(vals[..., :, None], vals[..., None, :], *cols),
                       lambda k: _pair_words(flat, k))
    return _checked(table.reshape(vals.shape + vals.shape[-1:]), vals)


def _pair_words(rows: np.ndarray, k: int) -> str:
    """Names the values (v_i, v_j) of the k-th entry of the tables T_ij of ``rows``."""
    row, i, j = np.unravel_index(k, rows.shape + rows.shape[-1:])
    return f"eigenvalues {(float(rows[row, i]), float(rows[row, j]))!r}"


def _difference_table(k, values) -> np.ndarray:
    """Table T_ij = k(v_i - v_j) of a commutator kernel k over all pairs of eigenvalues.

    Values of shape (N, d) give one table per row, shape (N, d, d).  A kernel
    whose ``parity`` is "even" or "odd" is evaluated at i < j and once at 0.0,
    then mirrored: v_j - v_i is exactly -(v_i - v_j), and the declared parity
    holds to the bit (test_declared_parity_holds_to_the_bit).  A zero is
    evaluated at its mirror too, as parity need not fix its sign (sinh_ratio
    at q = 0 is +0.0 at x > 0.25 and -0.0 at -x).  Any other kernel is
    evaluated at every pair.
    """
    vals = np.asarray(values, dtype=float)
    rows = vals.reshape(-1, vals.shape[-1])
    n, d = rows.shape
    sign = {"even": 1.0, "odd": -1.0}.get(getattr(k, "parity", None))
    over = getattr(k, "over", None)

    def at(x: np.ndarray, cell, *lead: float) -> np.ndarray:
        """k at ``lead``, then at each of x; its n-th argument is that of table entry cell(n)."""
        return _evaluated(lambda: map(k, [*lead, *x.ravel().tolist()]), len(lead) + x.size,
                          over and (lambda: over(np.concatenate((lead, x.ravel())))),
                          lambda n: f"the difference {[*lead, *x.ravel().tolist()][n]!r} of "
                                    f"{_pair_words(rows, cell(n))}")

    if sign is None:
        table = at(rows[:, :, None] - rows[:, None, :], lambda n: n)
    else:
        i, j = _triu_indices(d, 1)
        diffs = rows.take(i, 1) - rows.take(j, 1)

        def cell(n, a=i, b=j):  # the flat table index of the n-th of diffs, v_a - v_b
            row, c = divmod(n, len(i))
            return (row * d + a[c]) * d + b[c]

        out = at(diffs, lambda n: cell(n - 1) if n else 0, 0.0)  # k(0.0) first, at T_00
        up = out[1:].reshape(diffs.shape)
        down = sign * up
        if np.count_nonzero(up) < up.size:
            zero = up == 0.0  # v_j - v_i is 0.0 - (v_i - v_j)
            down[zero] = at(0.0 - diffs[zero], lambda n: cell(np.flatnonzero(zero)[n], j, i))
        table = np.empty((n, d, d))
        table[:, i, j], table[:, j, i] = up, down
        table.reshape(n, d * d)[:, :: d + 1] = out[0]  # the diagonal, k(0.0)
    return _checked(table.reshape(vals.shape + vals.shape[-1:]), vals)


def _matfun(f: Callable[[float], float], dec: EigenDecomposition) -> np.ndarray:
    """Q f(Lambda) Q^T, symmetrized; one per matrix of a stacked dec."""
    vals = dec.eigenvalues
    whole = getattr(f, "_takes_arrays", False) and (lambda: f(vals))  # a marked f takes them all
    table = _evaluated(lambda: map(f, vals.ravel().tolist()), vals.size, whole,
                       lambda k: f"eigenvalue {float(vals.flat[k])!r}").reshape(vals.shape)
    return _spectral(dec.q, _checked(table, vals))


def matfun_spectral(f: Callable[[float], float], s) -> np.ndarray:
    """Apply a real function to a symmetric matrix through its eigenvalues."""
    return _matfun(f, eigendecompose_symmetric(s))


@dataclass(frozen=True)
class SeriesResult:
    """Partial-sum outcome: the value, terms consumed, and the stop reason.

    A stack of sums has one value per matrix and lists of the other two.
    """

    value: np.ndarray
    terms_used: int
    stopped_by: str  # "tolerance", or "max_terms" when the coefficients ran out

    def _one(self) -> "SeriesResult":
        """The only sum of a stack of one."""
        return SeriesResult(self.value[0], self.terms_used[0], self.stopped_by[0])


@dataclass(frozen=True)
class PowerSeriesSpec:
    """Coefficients f_0, f_1, ... of a formal power series; a sum uses at most all of them."""

    coefficients: tuple

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))


@lru_cache(maxsize=64)  # bounded: callers may pass any scale
def exp_series_spec(scale: float = 1.0) -> PowerSeriesSpec:
    """Series of e^(scale*x): 96 coefficients scale^n / n!.

    A scale that is not finite, or whose coefficients leave the float range,
    raises ValueError.
    """
    try:
        return PowerSeriesSpec(tuple(_exp_series(scale, 95)))
    except OverflowError:
        raise ValueError(f"exp series of scale {scale!r} leaves the float range") from None


@cache
def log_series_spec() -> PowerSeriesSpec:
    """Series of ln(1+u): 160 coefficients (-1)^(n+1) u^n / n, converging for |u| < 1."""
    return PowerSeriesSpec(tuple(_log1p_series(159)))


@cache
def sigma_series_spec() -> PowerSeriesSpec:
    """Series of coth(x) - 1/x: 40 coefficients, converging for |x| < pi."""
    return PowerSeriesSpec(tuple(_sigma_series(39)))


@cache
def eta_neg_series_spec() -> PowerSeriesSpec:
    """Series of (1 - e^-x)/x: 64 coefficients (-1)^n x^n / (n+1)!."""
    return PowerSeriesSpec(tuple(_eta_series(-1, 63)))


def _sum_series(spec: PowerSeriesSpec, first_term: np.ndarray, a: np.ndarray, step) -> SeriesResult:
    """Sum f_n * T_n for each matrix of an (N, d, d) stack, where T_0 = first_term
    and T_n = step(T_{n-1}, A), A the matrix's own entry of the stack ``a``.

    Each matrix has its own stop, growth streak, ``terms_used`` and
    ``stopped_by``, so its sum is the one it has alone.  Zero coefficients
    advance the recursion but take part in neither the stopping rule nor the
    divergence detector (parity-sparse series would otherwise stop
    immediately or never trip the detector).
    """
    coeffs = spec.coefficients
    out = coeffs[0] * first_term if coeffs else np.zeros_like(first_term)
    used = np.full(len(out), 1 if coeffs else 0)
    by_tol = np.zeros(len(out), dtype=bool)
    # the matrices still summing: their rows, partial sums, terms and streaks
    live, acc, cur, streak = np.arange(len(out)), out.copy(), first_term, np.zeros(len(out))
    prev = np.full(len(out), np.nan)  # no term yet: never "growing"
    for n in range(1, len(coeffs)):
        cur = step(cur, a)
        used[live] = n + 1
        if coeffs[n] == 0.0:
            continue
        term = coeffs[n] * cur
        norm = _norms(term)
        streak = np.where(norm > prev, streak + 1.0, 0.0)
        if streak.max(initial=0.0) >= GROWTH_STREAK_LIMIT:
            raise SeriesDivergenceError(
                f"series diverging: {GROWTH_STREAK_LIMIT} consecutive growing terms "
                f"at term {n} (norm {norm[streak >= GROWTH_STREAK_LIMIT][0]:.3e})"
            )
        prev = norm
        acc += term
        small = norm < SERIES_TOL * (1.0 + _norms(acc))
        if small.any():
            out[live[small]] = acc[small]
            by_tol[live[small]] = True
            keep = ~small
            live, acc, cur, a, streak, prev = (v[keep] for v in (live, acc, cur, a, streak, prev))
            if not live.size:
                break
    out[live] = acc
    stopped_by = ["tolerance" if s else "max_terms" for s in by_tol]
    return SeriesResult(out, used.tolist(), stopped_by)


def _matfun_series(spec: PowerSeriesSpec, a: np.ndarray) -> SeriesResult:
    """``matfun_series`` of each matrix of an (N, d, d) stack."""
    first = np.tile(np.eye(a.shape[-1]), (len(a), 1, 1))
    return _sum_series(spec, first, a, lambda cur, a: cur @ a)


def _ad_series(spec: PowerSeriesSpec, a: np.ndarray, x: np.ndarray) -> SeriesResult:
    """``f_of_ad_series`` of each pair of matrices of two (N, d, d) stacks."""
    return _sum_series(spec, np.array(x), a, lambda cur, a: _ad(a, cur))


def matfun_series(spec: PowerSeriesSpec, a) -> SeriesResult:
    """Sum f_n A^n with tolerance/exhaustion stopping and divergence detection."""
    return _matfun_series(spec, as_array(a)[None])._one()


def f_of_ad_series(spec: PowerSeriesSpec, a, x) -> SeriesResult:
    """Sum f_n ad_A^n[X]; the series realization of a commutator kernel."""
    aa, xx = _gate(a, x)
    return _ad_series(spec, aa[None], xx[None])._one()


def matexp_series(a) -> np.ndarray:
    return matfun_series(exp_series_spec(), a).value


def _matexp(a: np.ndarray) -> np.ndarray:
    """``matexp_series`` of each matrix of an (N, d, d) stack."""
    return _matfun_series(exp_series_spec(), a).value


def matlog_series(a) -> SeriesResult:
    """Logarithm by the series in (A - I); diverges far from the identity."""
    aa = as_array(a)
    return _matfun_series(log_series_spec(), (aa - np.eye(aa.shape[0]))[None])._one()


# ---------------------------------------------------------------------------
# the commutator-kernel operator


def f_of_ad_spectral(kernel, g, x) -> np.ndarray:
    """Apply the commutator kernel of a symmetric G to X via the eigenbasis:
    the (i, j) component in the eigenbasis of G is multiplied by f(g_i - g_j)."""
    dec = eigendecompose_symmetric(g)
    return _hadamard(dec, _difference_table(kernel, dec.eigenvalues), *_gate(x, shape=dec.q.shape))


# ---------------------------------------------------------------------------
# derivatives of exp and log


def _route(a, method: str) -> tuple:
    """(A checked, its eigendecomposition) on the spectral route, (A checked,
    None) on the series route.  "auto" takes the spectral route for a symmetric
    A; its one symmetry test is also the eigensolver's gate."""
    if method not in ("auto", "spectral", "series"):
        raise ValueError(f"unknown method {method!r}")
    aa = as_array(a)
    if method == "auto":
        asym, bound, _ = _symmetry_defect(aa)
        return aa, (_jacobi(aa) if asym <= bound else None)
    return aa, (_jacobi(_require_symmetric(aa)) if method == "spectral" else None)


def d_exp(a, x, method: str = "auto") -> np.ndarray:
    """Directional derivative of the matrix exponential at A toward X.

    Spectral route (symmetric A): exp(A) times the (1 - e^-t)/t kernel of
    the commutator applied to X, evaluated as the divided differences
    (e^a_i - e^a_j)/(a_i - a_j) = e^max(a_i, a_j) (1 - e^-|a_i - a_j|)/|a_i - a_j|
    of the eigenvalues, which stay finite wherever the result is.  Series
    route (general A): the same two factors summed as formal series.
    """
    aa, dec = _route(a, method)
    xx = _gate(x, shape=aa.shape)[0]
    if dec is not None:
        return _d_exp(dec, xx)
    return _matexp(aa[None])[0] @ _ad_series(eta_neg_series_spec(), aa[None], xx[None]).value[0]


def _d_exp(dec: EigenDecomposition, x) -> np.ndarray:
    """The spectral ``d_exp`` in the eigenbasis of dec; a stacked dec takes a stack X."""
    def over(a, b):  # e^v once per eigenvalue: e^a down a column, e^b its transpose
        e = _exp(a)
        return np.where(b > a, e.swapaxes(-1, -2), e) * ETA_NEG.over(abs(a - b))

    table = _each_pair(lambda a, b: math.exp(max(a, b)) * ETA_NEG(abs(a - b)), over,
                       dec.eigenvalues)
    return _hadamard(dec, table, x)


def d_log(a, x) -> np.ndarray:
    """Directional derivative of the matrix logarithm at SPD A toward X.

    Realized as the t/(1 - e^-t) kernel of the commutator at ln A, applied
    to A^-1 X; inverts the exp derivative at ln A.
    """
    dec = _require_spd(eigendecompose_symmetric(a))
    return _d_log(dec, *_gate(x, shape=dec.q.shape))


def _d_log(dec: EigenDecomposition, x) -> np.ndarray:
    """``d_log`` in the eigenbasis of dec; a stacked dec takes a stack X, or
    several such stacks on a leading axis, all through one table."""
    table = _each_pair(lambda a, b: ETA_NEG_RECIP(math.log(a / b)) / a,
                       lambda a, b: ETA_NEG_RECIP.over(_log(a / b)) / a,
                       dec.eigenvalues)
    return _hadamard(dec, table, x)


def _log_eig_apply(kernel, dec: EigenDecomposition, y) -> np.ndarray:
    """Apply a commutator kernel evaluated at ln A to Y, in the eigenbasis dec
    of SPD A; a stacked dec takes a stack Y."""
    table = _difference_table(kernel, np.log(dec.eigenvalues))
    return _hadamard(dec, table, y)


def dlog_sandwich(a, y, p: int, s: int) -> np.ndarray:
    """Log derivative applied to A^p Y A^-s (p - s = 1), via one kernel.

    The kernel t e^(s t)/(1 - e^-t) at ln A reproduces d_log(A, A^p Y A^-s)
    without forming the sandwiched argument.
    """
    if p - s != 1:
        raise ValueError(f"power pair must satisfy p - s = 1, got p={p}, s={s}")
    dec = _require_spd(eigendecompose_symmetric(a))
    return _log_eig_apply(make_sandwich_kernel(float(s)), dec, *_gate(y, shape=dec.q.shape))


def dlog_anticommutator(a, y) -> np.ndarray:
    """Log derivative applied to AY + YA, via the coth(t/2) t kernel at ln A."""
    dec = _require_spd(eigendecompose_symmetric(a))
    return _log_eig_apply(COTH_HALF_X, dec, *_gate(y, shape=dec.q.shape))


def dlog_sinh_pair(a, x, p: int, s: int, sign: int) -> np.ndarray:
    """Log derivative applied to A^p X A^-s -+ A^-s X A^p (p - s = 1).

    sign=-1 selects the difference (sinh-ratio kernel), sign=+1 the sum
    (cosh-ratio kernel, the r function), both evaluated at ln A.
    """
    if p - s != 1:
        raise ValueError(f"power pair must satisfy p - s = 1, got p={p}, s={s}")
    if sign not in (-1, 1):
        raise ValueError(f"sign must be -1 or +1, got {sign}")
    kernel = (make_r_kernel if sign == 1 else make_sinh_ratio_kernel)(float(p + s))
    dec = _require_spd(eigendecompose_symmetric(a))
    return _log_eig_apply(kernel, dec, *_gate(x, shape=dec.q.shape))


def dlog_commutator_residual(a, y) -> np.ndarray:
    """Residual of: log derivative of [A, Y] equals [ln A, Y].

    Both sides are evaluated independently; the returned matrix should
    vanish to rounding for SPD A.
    """
    aa, yy = _gate(a, y)
    dec = _require_spd(_jacobi(_require_symmetric(aa)))
    lhs = _d_log(dec, as_array(_ad(aa, yy)))  # the commutator's one check
    log_a = _matfun(math.log, dec)
    return lhs - _ad(log_a, yy)


def anticommutator_gap(a, x) -> tuple:
    """(||d_log(A, AX+XA) - 2X||_F, ||[A, X]||_F).

    The first entry vanishes exactly when X commutes with A; the second
    measures how far from commuting the pair is.
    """
    aa, xx = _gate(a, x)
    dec = _require_spd(_jacobi(_require_symmetric(aa)))
    gap = frobenius_norm(_log_eig_apply(COTH_HALF_X, dec, xx) - 2.0 * xx)
    return gap, frobenius_norm(_ad(aa, xx))


# ---------------------------------------------------------------------------
# conjugation and adjointness


def exp_conjugation(a, y, s: float = 1.0, method: str = "auto") -> np.ndarray:
    """e^(sA) Y e^(-sA) computed through the commutator kernel e^(s t).

    The direct triple product is the standard oracle for this value.
    """
    aa, dec = _route(a, method)
    yy = _gate(y, shape=aa.shape)[0]
    if dec is not None:
        return _exp_conjugation(dec, yy, [s])
    return _ad_series(exp_series_spec(scale=s), aa[None], yy[None]).value[0]


def _exp_conjugation(dec: EigenDecomposition, y, s) -> np.ndarray:
    """Spectral ``exp_conjugation`` in the eigenbasis of dec, one s per matrix."""
    def entry(a, b, s):  # at two eigenvalues, or over arrays of them
        return _exp(s * (a - b))

    return _hadamard(dec, _each_pair(entry, entry, dec.eigenvalues, s), y)


def adjoint_residuals(a, x, y, kernel) -> tuple:
    """Transpose and self-adjointness defects of a commutator kernel.

    Returns (r1, r2) where r1 = ||(f(ad_A)[X])^T - f(-ad_A)[X^T]||_F and
    r2 = |<f(ad_A)[X], Y> - <X, f(ad_A)[Y]>|; both vanish for symmetric A.
    """
    aa, xx, yy = _gate(a, x, y)
    dec = _jacobi(_require_symmetric(aa))
    table = _difference_table(kernel, dec.eigenvalues)
    fx, fy = _hadamard(dec, table, xx), _hadamard(dec, table, yy)
    flipped = _difference_table(kernel, -dec.eigenvalues)
    r1 = frobenius_norm(fx.T - _hadamard(dec, flipped, xx.T))
    r2 = abs(float(np.sum(fx * yy)) - float(np.sum(xx * fy)))
    return r1, r2


def gateaux_fd(fn, a, x, h: float = 1e-5) -> np.ndarray:
    """Central-difference directional derivative of a matrix map; h may be negative."""
    return _central(fn, *_gate(a, x), _step(h))


def _step(h: float) -> float:
    """h, a finite-difference step; ValueError if it is zero or not finite."""
    if h == 0.0 or not math.isfinite(h):
        raise ValueError(f"finite-difference step h must be finite and nonzero, got {h!r}")
    return h


def _central(fn, a: np.ndarray, x: np.ndarray, h: float) -> np.ndarray:
    """(fn(A + h X) - fn(A - h X)) / 2h; fn of a stack takes stacks."""
    return (fn(a + h * x) - fn(a - h * x)) / (2.0 * h)
