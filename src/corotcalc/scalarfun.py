"""Scalar kernels, with an exact-series branch only where the direct formula cancels.

Every kernel here is total on the real line.  Two of them cancel near the
origin: sigma (coth x - 1/x) and gamma ((x coth(x/2) - 2)/x^2).  Below
SWITCH_RADIUS they sum a truncated Taylor series by Horner in x^2.  Their
coefficients, and the series of ``calculus`` and ``kinematics``, come from
one exact toolkit: truncated power series as lists of ``Fraction``, built
from three base series (the Bernoulli series (s x)/(e^(s x) - 1), e^(s x) and
ln(1 + u), for rational s) by quotient.  Each coefficient is rounded to float
once, at the end, so the series carry no floating-point drift beyond that
rounding.

The other eight families (eta, eta_neg, eta_neg_recip, coth_half_times_x and
the r, sinh_ratio, sandwich and sqrt_r kernels) are built from expm1, sinh,
tanh and an exact x, and lose no digits near the origin.  They take their
direct formula down to LIMIT_RADIUS = 2^-500, where x^2 is far below the
rounding error, and below it their limit value (plus q x for the odd
sinh_ratio).  So no direct formula meets a subnormal x, where x/2 would round.

A table of values of a scalar function is evaluated over whole arrays from
_ARRAY_MIN entries on, to the bit as entry by entry: +, -, *, / and comparisons
in numpy, which rounds them as Python floats do, and every transcendental
function through ``math`` at each entry (numpy's own are CPU-dependent), so each
kernel's direct branch, and its Taylor branch, is one formula for a number or an
array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, wraps
from typing import Callable

import numpy as np

__all__ = [
    "LIMIT_RADIUS",
    "MAX_BERNOULLI",
    "MAX_PARAMETER",
    "SWITCH_RADIUS",
    "TAYLOR_DEGREE",
    "ScalarKernel",
    "bernoulli",
    "SIGMA",
    "GAMMA",
    "ETA",
    "ETA_NEG",
    "ETA_NEG_RECIP",
    "COTH_HALF_X",
    "make_r_kernel",
    "make_sinh_ratio_kernel",
    "make_sandwich_kernel",
    "make_sqrt_r_kernel",
]

MAX_BERNOULLI = 40
SWITCH_RADIUS = 0.25
TAYLOR_DEGREE = 24
LIMIT_RADIUS = 2.0**-500


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """n-th Bernoulli number as an exact rational (B_1 = -1/2 convention).

    Uses the recurrence sum_{k=0}^{n} C(n+1, k) B_k = 0 with B_0 = 1.
    """
    if n < 0 or n > MAX_BERNOULLI:
        raise ValueError(f"n must be in [0, {MAX_BERNOULLI}], got {n}")
    if n == 0:
        return Fraction(1)
    acc = Fraction(0)
    for k in range(n):
        acc += math.comb(n + 1, k) * bernoulli(k)
    return -acc / (n + 1)


# ---------------------------------------------------------------------------
# exact truncated power series: lists of Fractions, index = power, each
# operation truncated to the length of its first operand


def _bernoulli_series(s, degree: int) -> list:
    """(s x)/(e^(s x) - 1) = sum B_n s^n x^n / n!."""
    s = Fraction(s)
    return [bernoulli(n) * s**n / math.factorial(n) for n in range(degree + 1)]


def _exp_series(s, degree: int) -> list:
    """e^(s x) = sum s^n x^n / n!."""
    s = Fraction(s)
    return [s**n / math.factorial(n) for n in range(degree + 1)]


def _log1p_series(degree: int) -> list:
    """ln(1 + u) = sum_{n >= 1} (-1)^(n+1) u^n / n."""
    return [Fraction(0)] + [Fraction((-1) ** (n + 1), n) for n in range(1, degree + 1)]


def _div(a: list, b: list) -> list:
    """a / b for b[0] != 0."""
    out = []
    for k in range(len(a)):
        acc = sum(b[j] * out[k - j] for j in range(1, k + 1) if b[j] and out[k - j])
        out.append((a[k] - acc) / b[0])
    return out


def _pairs(coeffs: list) -> tuple:
    """(power, coefficient) of the nonzero terms, each rounded once to float."""
    return tuple((p, float(c)) for p, c in enumerate(coeffs) if c)


@dataclass(frozen=True)
class ScalarKernel:
    """A named real kernel with a polynomial branch near the origin.

    ``taylor`` holds (power, coefficient) pairs valid for |x| below
    ``switch_radius``; ``parity`` declares the symmetry under x -> -x
    ("even", "odd", or "none").
    """

    name: str
    direct: Callable[[float], float]
    taylor: tuple
    switch_radius: float = SWITCH_RADIUS
    parity: str = "none"
    _even: tuple = field(init=False, repr=False, compare=False)
    _odd: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):  # Horner coefficients of the even and of the odd powers, highest first
        coeffs = dict(self.taylor)
        for name, odd in (("_even", 0), ("_odd", 1)):
            top = max((p for p in coeffs if p % 2 == odd), default=odd - 2)
            horner = tuple(coeffs.get(p, 0.0) for p in range(top, odd - 1, -2))
            object.__setattr__(self, name, horner)

    def taylor_eval(self, x: float) -> float:
        """The polynomial at x, or at each entry of an array: E(x^2) + x O(x^2), each by
        Horner with + and * only, so an entry has the bits of its number.  At +-0.0,
        x O is a signed zero added to E, which is 0.0 for an odd kernel: both give +0.0."""
        xx, even, odd = x * x, 0.0, 0.0
        for c in self._even:
            even = even * xx + c
        for c in self._odd:
            odd = odd * xx + c
        return even + x * odd

    def __call__(self, x: float) -> float:
        if abs(x) < self.switch_radius:
            return self.taylor_eval(x)
        return self.direct(x)

    def over(self, x: np.ndarray) -> np.ndarray:
        """The kernel at each entry of a float array, to the bit as called at each.  The
        branch is tested once for the whole array, and each branch gets its entries in
        one call.  A direct branch not marked as taking arrays, or one whose call fails
        (``_guarded``), gets each entry alone and raises as alone."""
        near = np.abs(x) < self.switch_radius
        out = np.empty(x.shape)
        if near.any():
            out[near] = self.taylor_eval(x[near])
        far = x[~near]
        whole = getattr(self.direct, "_takes_arrays", False) and (lambda: self.direct(far))
        out[~near] = _guarded(whole, lambda: [*map(self.direct, far.tolist())])
        return out


# ---------------------------------------------------------------------------
# scalar functions at many arguments


class KernelDomainError(ValueError):
    """A scalar function is undefined or non-finite at a needed argument."""


# A table of fewer entries is evaluated one entry at a time: an array operation
# costs about a microsecond at any size, more than it saves on a few entries.
# Measured on a 2-vCPU Xeon (Python 3.11, numpy 2.4), one by one against over
# arrays: the spin weights of one 8 x 8 state (64 entries) 101 us against 121,
# of a 16 x 16 one (256) 367 against 167; a sigma table of 121 entries 171
# against 140, of 37 entries 53 against 71.
_ARRAY_MIN = 100


def _mapped(fn: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    """fn at each entry of x, in its shape; its errors propagate."""
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _guarded(array, each):
    """array() where given, unless it raises, divides by zero or makes a NaN; else each()."""
    if array:
        try:
            with np.errstate(divide="raise", invalid="raise", over="ignore", under="ignore"):
                return array()
        except (ArithmeticError, ValueError):
            pass
    return each()


_ENTRY_ERRORS = (ValueError, ZeroDivisionError, OverflowError)


def _evaluated(entries, count: int, array=None, argument=None) -> np.ndarray:
    """The ``count`` values of a table, flat, from ``entries()``, which gives them
    one by one in row-major order.

    ``array()``, where given, computes the same bits with array operations
    (IEEE arithmetic in numpy, transcendental functions through ``math``) and
    is taken from _ARRAY_MIN entries on.  Where it fails (see ``_guarded``), the
    entries are evaluated one by one instead, so that a failing evaluation
    raises KernelDomainError with the error of the first failing entry and,
    given ``argument``, ``argument(k)``, the words that name the argument of
    that entry, the k-th.
    """
    try:
        return _guarded(count >= _ARRAY_MIN and array, lambda: np.fromiter(entries(), float, count))
    except _ENTRY_ERRORS as exc:
        at, k = "", -1
        try:  # through the entries again, to the failing one
            for k, _ in enumerate(entries() if argument else ()):
                pass
        except _ENTRY_ERRORS:
            at = f", at {argument(k + 1)}"
        raise KernelDomainError(f"function undefined at an eigenvalue: {exc}{at}") from exc


def _each(fn: Callable[[float], float]) -> Callable:
    """``fn`` at a number, or through ``_mapped`` at each entry of an array."""
    return lambda x: _mapped(fn, x) if isinstance(x, np.ndarray) else fn(x)


_tanh, _expm1, _exp, _cosh, _sinh, _root, _log = map(
    _each, (math.tanh, math.expm1, math.exp, math.cosh, math.sinh, math.sqrt, math.log))


def _takes_arrays(f: Callable) -> Callable:
    """``f``, marked for ``over`` and ``_matfun`` as taking a float array to its bits per entry."""
    f._takes_arrays = True
    return f


def _checked(out: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``out``, f at each of ``values`` (eigenvalues, one row per matrix) or, one axis
    longer, at each pair of a row's values; a non-finite value raises KernelDomainError
    naming the first, in row-major order."""
    if not np.isfinite(out).all():
        at = tuple(np.argwhere(~np.isfinite(out))[0])
        pairs = out.ndim > values.ndim
        args = (values[at[:-1]], values[at[:-2] + at[-1:]]) if pairs else (values[at],)
        raise KernelDomainError(f"function non-finite at eigenvalues {tuple(map(float, args))!r}")
    return out


# ---------------------------------------------------------------------------
# coefficient tables, from B(x) = x/(e^x - 1) and e^x at rational scales


def _sigma_series(degree: int) -> list:
    # coth x - 1/x = (B(2x) - 1)/x + 1
    return [Fraction(0)] + _bernoulli_series(2, degree + 1)[2:]


def _eta_series(s, degree: int) -> list:
    # (e^(s x) - 1)/(s x); s = -1 gives (1 - e^-x)/x
    s = Fraction(s)
    return [c / s for c in _exp_series(s, degree + 1)[1:]]


def _gamma_series(degree: int) -> list:
    # (x coth(x/2) - 2)/x^2 = (2 B(x) + x - 2)/x^2
    return [2 * c for c in _bernoulli_series(1, degree + 2)[2:]]


# ---------------------------------------------------------------------------
# direct branches


@_takes_arrays
def _sigma_direct(x: float) -> float:
    return 1.0 / _tanh(x) - 1.0 / x


@_takes_arrays
def _gamma_direct(x: float) -> float:
    return (x / _tanh(0.5 * x) - 2.0) / (x * x)


@_takes_arrays
def _eta_direct(x: float) -> float:
    return _expm1(x) / x


@_takes_arrays
def _eta_neg_direct(x: float) -> float:
    return -_expm1(-x) / x


@_takes_arrays
def _eta_neg_recip_direct(x: float) -> float:
    return x / (-_expm1(-x))


@_takes_arrays
def _coth_half_x_direct(x: float) -> float:
    return x / _tanh(0.5 * x)


# coth(x) - 1/x, value 0 at the origin; odd
SIGMA = ScalarKernel("sigma", _sigma_direct, _pairs(_sigma_series(TAYLOR_DEGREE)), parity="odd")
# (x coth(x/2) - 2)/x^2, value 1/6 at the origin; even, positive
GAMMA = ScalarKernel("gamma", _gamma_direct, _pairs(_gamma_series(TAYLOR_DEGREE)), parity="even")
# (e^x - 1)/x, value 1 at the origin
ETA = ScalarKernel("eta", _eta_direct, ((0, 1.0),), LIMIT_RADIUS)
# (1 - e^-x)/x, value 1 at the origin; drives the exp derivative
ETA_NEG = ScalarKernel("eta_neg", _eta_neg_direct, ((0, 1.0),), LIMIT_RADIUS)
# x/(1 - e^-x), value 1 at the origin; positive, drives the log derivative
ETA_NEG_RECIP = ScalarKernel("eta_neg_recip", _eta_neg_recip_direct, ((0, 1.0),), LIMIT_RADIUS)
# x coth(x/2) = 2 + gamma(x) x^2, value 2 at the origin; even
COTH_HALF_X = ScalarKernel("coth_half_times_x", _coth_half_x_direct, ((0, 2.0),), LIMIT_RADIUS,
                           parity="even")

# Below LIMIT_RADIUS, |q x| < 2^-60 for every parameter the factories take, so
# e^(s x), cosh(q x/2) and sinh(q x/2)/(q x/2) round to their limits there.
MAX_PARAMETER = 2.0**440


def _kernel_factory(build):
    """``build``, a kernel factory of one float parameter, keeping its last 64
    kernels (callers may pass any value).  Every finite value up to MAX_PARAMETER
    in magnitude builds a kernel: its limit (plus q x for sinh_ratio) below
    LIMIT_RADIUS, its direct formula elsewhere.  Where the value leaves the float
    range the kernel raises OverflowError, and a table of it KernelDomainError with
    the first failing entry's error.  A value that is not finite, or beyond
    MAX_PARAMETER, raises ValueError naming both."""

    @lru_cache(maxsize=64)
    @wraps(build)
    def make(value):
        value = float(value)
        if abs(value) <= MAX_PARAMETER:
            return build(value)
        raise ValueError(f"{build.__name__}: {build.__code__.co_varnames[0]}={value!r} is not "
                         f"finite or exceeds {MAX_PARAMETER!r} in magnitude")

    return make


@_kernel_factory
def make_r_kernel(q: float) -> ScalarKernel:
    """cosh(q x/2)/sinh(x/2) * x: even in x, positive, value 2 at the origin."""

    @_takes_arrays
    def direct(x: float, _q=q) -> float:
        try:
            return _cosh(0.5 * _q * x) / _sinh(0.5 * x) * x
        except OverflowError:  # exponent-difference form, overflows only with the value
            if isinstance(x, np.ndarray):  # per entry only: ``over`` falls back to it
                raise
            ax, aq = abs(x), abs(_q)
            return ax * math.exp(0.5 * (aq - 1) * ax) * (1 + math.exp(-aq * ax)) / -math.expm1(-ax)

    return ScalarKernel(f"r[q={q:g}]", direct, ((0, 2.0),), LIMIT_RADIUS, parity="even")


@_kernel_factory
def make_sinh_ratio_kernel(q: float) -> ScalarKernel:
    """sinh(q x/2)/sinh(x/2) * x: odd in x, value 0 at the origin; x itself at q = 1."""

    @_takes_arrays
    def direct(x: float, _q=q) -> float:
        try:
            return _sinh(0.5 * _q * x) / _sinh(0.5 * x) * x
        except OverflowError:  # as for make_r_kernel
            if isinstance(x, np.ndarray):
                raise
            ax, aq = abs(x), abs(_q)
            growth = math.copysign(math.exp(0.5 * (aq - 1) * ax), _q)
            return x * growth * math.expm1(-aq * ax) / math.expm1(-ax)

    return ScalarKernel(f"sinh_ratio[q={q:g}]", direct, ((1, q),), LIMIT_RADIUS, parity="odd")


@_kernel_factory
def make_sandwich_kernel(s: float) -> ScalarKernel:
    """x e^(s x)/(1 - e^-x): log-derivative kernel for power-sandwich arguments."""

    @_takes_arrays
    def direct(x: float, _s=s) -> float:
        return _exp(_s * x) * x / (-_expm1(-x))

    return ScalarKernel(f"sandwich[s={s:g}]", direct, ((0, 1.0),), LIMIT_RADIUS)


@_kernel_factory
def make_sqrt_r_kernel(q: float) -> ScalarKernel:
    """Square root of the r kernel; even, positive, value sqrt(2) at the origin."""
    r_ker = make_r_kernel(q)

    @_takes_arrays
    def direct(x: float, _r=r_ker) -> float:
        return _root(_r.direct(x))

    return ScalarKernel(f"sqrt_r[q={q:g}]", direct, ((0, math.sqrt(2.0)),), LIMIT_RADIUS,
                        parity="even")
