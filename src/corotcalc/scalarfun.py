"""Scalar kernels with Bernoulli-series fallbacks near the origin.

Every kernel here is total on the real line.  The removable singularities
(quotients whose numerator and denominator both vanish at zero) are bridged
by truncated Taylor polynomials whose coefficients come from the exact
rational Bernoulli recurrence, so the series carry no floating-point drift
beyond the final rounding of each coefficient.

The switch radius and truncation degree are chosen so that the direct and
series branches agree to well below 1e-12 across the whole hand-over ring
|x| in [radius/2, 2*radius].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

__all__ = [
    "MAX_BERNOULLI",
    "SWITCH_RADIUS",
    "TAYLOR_DEGREE",
    "ScalarKernel",
    "bernoulli",
    "sigma",
    "gamma_kernel",
    "eta",
    "eta_neg",
    "eta_neg_recip",
    "coth_half_times_x",
    "r_kernel",
    "sinh_ratio_kernel",
    "SIGMA",
    "GAMMA",
    "ETA",
    "ETA_NEG",
    "ETA_NEG_RECIP",
    "COTH_HALF_X",
    "make_r_kernel",
    "make_sinh_ratio_kernel",
    "make_exp_kernel",
    "make_sandwich_kernel",
    "make_sqrt_r_kernel",
]

MAX_BERNOULLI = 40
SWITCH_RADIUS = 0.25
TAYLOR_DEGREE = 24


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
# truncated power-series helpers (dense coefficient lists, index = power)


def _poly_mul(a: list, b: list, degree: int) -> list:
    out = [0.0] * (degree + 1)
    for i, ai in enumerate(a):
        if ai == 0 or i > degree:
            continue
        for j, bj in enumerate(b):
            if i + j > degree:
                break
            if bj != 0:
                out[i + j] += ai * bj
    return out


def _poly_sqrt(a: list, degree: int) -> list:
    """Formal square root of a series with positive constant term."""
    if a[0] <= 0:
        raise ValueError("series square root needs a positive constant term")
    out = [0.0] * (degree + 1)
    out[0] = math.sqrt(a[0])
    for k in range(1, degree + 1):
        acc = a[k] if k < len(a) else 0.0
        for j in range(1, k):
            acc -= out[j] * out[k - j]
        out[k] = acc / (2.0 * out[0])
    return out


def _pairs(coeffs: list) -> tuple:
    return tuple((p, c) for p, c in enumerate(coeffs) if c != 0.0)


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

    def taylor_eval(self, x: float) -> float:
        acc = 0.0
        for power, coeff in self.taylor:
            acc += coeff * x**power
        return acc

    def direct_eval(self, x: float) -> float:
        return self.direct(x)

    def __call__(self, x: float) -> float:
        if abs(x) < self.switch_radius:
            return self.taylor_eval(x)
        return self.direct(x)


# ---------------------------------------------------------------------------
# coefficient tables (exact rationals rounded once to float)


def _sigma_coeffs(degree: int = TAYLOR_DEGREE) -> list:
    # coth x - 1/x = sum_{n>=1} 4^n B_{2n} x^{2n-1} / (2n)!
    c = [0.0] * (degree + 1)
    n = 1
    while 2 * n - 1 <= degree:
        c[2 * n - 1] = float(Fraction(4**n) * bernoulli(2 * n) / math.factorial(2 * n))
        n += 1
    return c


def _coth_half_x_coeffs(degree: int = TAYLOR_DEGREE) -> list:
    # coth(x/2) * x = 2 + sum_{n>=1} 2 B_{2n} x^{2n} / (2n)!
    c = [0.0] * (degree + 1)
    c[0] = 2.0
    n = 1
    while 2 * n <= degree:
        c[2 * n] = float(2 * bernoulli(2 * n) / math.factorial(2 * n))
        n += 1
    return c


def _gamma_coeffs(degree: int = TAYLOR_DEGREE) -> list:
    # (coth(x/2) x - 2) / x^2: the coth_half_x series shifted down two powers.
    c = [0.0] * (degree + 1)
    n = 1
    while 2 * n - 2 <= degree:
        c[2 * n - 2] = float(2 * bernoulli(2 * n) / math.factorial(2 * n))
        n += 1
    return c


def _eta_coeffs(degree: int = TAYLOR_DEGREE, sign: float = 1.0) -> list:
    # (e^x - 1)/x = sum x^n / (n+1)!; sign=-1 gives the series of (1-e^-x)/x.
    return [float(sign**n * Fraction(1, math.factorial(n + 1))) for n in range(degree + 1)]


def _eta_neg_recip_coeffs(degree: int = TAYLOR_DEGREE) -> list:
    # x/(1 - e^-x) = sum B_n (-x)^n / n! = 1 + x/2 + sum B_{2k} x^{2k}/(2k)!
    return [
        float(bernoulli(n) * Fraction((-1) ** n, math.factorial(n)))
        for n in range(degree + 1)
    ]


def _exp_coeffs(scale: float, degree: int = TAYLOR_DEGREE) -> list:
    c = [1.0]
    for n in range(1, degree + 1):
        c.append(c[-1] * scale / n)
    return c


def _cosh_coeffs(scale: float, degree: int = TAYLOR_DEGREE) -> list:
    c = [0.0] * (degree + 1)
    k = 0
    while 2 * k <= degree:
        c[2 * k] = scale ** (2 * k) / math.factorial(2 * k)
        k += 1
    return c


def _sinhc_coeffs(scale: float, degree: int = TAYLOR_DEGREE) -> list:
    # sinh(scale*x)/(scale*x)
    c = [0.0] * (degree + 1)
    k = 0
    while 2 * k <= degree:
        c[2 * k] = scale ** (2 * k) / math.factorial(2 * k + 1)
        k += 1
    return c


def _y_over_sinh_coeffs(scale: float, degree: int = TAYLOR_DEGREE) -> list:
    # (scale*x)/sinh(scale*x) = sum (2 - 4^k) B_{2k} (scale*x)^{2k} / (2k)!
    c = [0.0] * (degree + 1)
    k = 0
    while 2 * k <= degree:
        c[2 * k] = float((2 - 4**k) * bernoulli(2 * k) / math.factorial(2 * k)) * scale ** (
            2 * k
        )
        k += 1
    return c


def _r_coeffs(q: float, degree: int = TAYLOR_DEGREE) -> list:
    # cosh(q x / 2) / sinh(x / 2) * x = 2 cosh(q x / 2) * [(x/2)/sinh(x/2)]
    prod = _poly_mul(_cosh_coeffs(q / 2.0, degree), _y_over_sinh_coeffs(0.5, degree), degree)
    return [2.0 * c for c in prod]


def _sinh_ratio_coeffs(q: float, degree: int = TAYLOR_DEGREE) -> list:
    # sinh(q x / 2)/sinh(x / 2) * x = q x * sinhc(q x/2) * [(x/2)/sinh(x/2)]
    prod = _poly_mul(_sinhc_coeffs(q / 2.0, degree), _y_over_sinh_coeffs(0.5, degree), degree)
    return [0.0] + [q * c for c in prod[:degree]]


# ---------------------------------------------------------------------------
# direct branches


def _sigma_direct(x: float) -> float:
    return 1.0 / math.tanh(x) - 1.0 / x


def _gamma_direct(x: float) -> float:
    return (x / math.tanh(0.5 * x) - 2.0) / (x * x)


def _eta_direct(x: float) -> float:
    return math.expm1(x) / x


def _eta_neg_direct(x: float) -> float:
    return -math.expm1(-x) / x


def _eta_neg_recip_direct(x: float) -> float:
    return x / (-math.expm1(-x))


def _coth_half_x_direct(x: float) -> float:
    return x / math.tanh(0.5 * x)


SIGMA = ScalarKernel("sigma", _sigma_direct, _pairs(_sigma_coeffs()), parity="odd")
GAMMA = ScalarKernel("gamma", _gamma_direct, _pairs(_gamma_coeffs()), parity="even")
ETA = ScalarKernel("eta", _eta_direct, _pairs(_eta_coeffs()))
ETA_NEG = ScalarKernel("eta_neg", _eta_neg_direct, _pairs(_eta_coeffs(sign=-1.0)))
ETA_NEG_RECIP = ScalarKernel(
    "eta_neg_recip", _eta_neg_recip_direct, _pairs(_eta_neg_recip_coeffs())
)
COTH_HALF_X = ScalarKernel(
    "coth_half_times_x", _coth_half_x_direct, _pairs(_coth_half_x_coeffs()), parity="even"
)


def sigma(x: float) -> float:
    """coth(x) - 1/x, extended by its limit 0 at the origin.  Odd."""
    return SIGMA(x)


def gamma_kernel(x: float) -> float:
    """(coth(x/2) x - 2)/x^2 with value 1/6 at the origin.  Even, positive."""
    return GAMMA(x)


def eta(x: float) -> float:
    """(e^x - 1)/x with value 1 at the origin."""
    return ETA(x)


def eta_neg(x: float) -> float:
    """(1 - e^-x)/x with value 1 at the origin; drives the exp derivative."""
    return ETA_NEG(x)


def eta_neg_recip(x: float) -> float:
    """x/(1 - e^-x), total and positive; drives the log derivative."""
    return ETA_NEG_RECIP(x)


def coth_half_times_x(x: float) -> float:
    """coth(x/2) * x with value 2 at the origin; equals 2 + gamma(x) x^2."""
    return COTH_HALF_X(x)


@lru_cache(maxsize=None)
def make_r_kernel(q: float) -> ScalarKernel:
    """cosh(q x/2)/sinh(x/2) * x: even in x, positive, value 2 at the origin."""
    q = float(q)

    def direct(x: float, _q=q) -> float:
        return math.cosh(0.5 * _q * x) / math.sinh(0.5 * x) * x

    return ScalarKernel(f"r[q={q:g}]", direct, _pairs(_r_coeffs(q)), parity="even")


@lru_cache(maxsize=None)
def make_sinh_ratio_kernel(q: float) -> ScalarKernel:
    """sinh(q x/2)/sinh(x/2) * x: odd in x, value 0 at the origin."""
    q = float(q)

    def direct(x: float, _q=q) -> float:
        return math.sinh(0.5 * _q * x) / math.sinh(0.5 * x) * x

    return ScalarKernel(
        f"sinh_ratio[q={q:g}]", direct, _pairs(_sinh_ratio_coeffs(q)), parity="odd"
    )


@lru_cache(maxsize=None)
def make_exp_kernel(scale: float) -> ScalarKernel:
    """e^(scale * x); no fallback needed, the direct branch is total."""
    scale = float(scale)

    def direct(x: float, _s=scale) -> float:
        return math.exp(_s * x)

    return ScalarKernel(f"exp[s={scale:g}]", direct, (), switch_radius=0.0)


@lru_cache(maxsize=None)
def make_sandwich_kernel(s: float) -> ScalarKernel:
    """x e^(s x)/(1 - e^-x): log-derivative kernel for power-sandwich arguments."""
    s = float(s)

    def direct(x: float, _s=s) -> float:
        return math.exp(_s * x) * x / (-math.expm1(-x))

    coeffs = _poly_mul(_exp_coeffs(s), _eta_neg_recip_coeffs(), TAYLOR_DEGREE)
    return ScalarKernel(f"sandwich[s={s:g}]", direct, _pairs(coeffs))


@lru_cache(maxsize=None)
def make_sqrt_r_kernel(q: float) -> ScalarKernel:
    """Square root of the r kernel; even, positive, value sqrt(2) at the origin.

    The square root has complex branch points where cosh(q z/2) vanishes, at
    distance pi/|q| from the origin, so the series radius shrinks with |q|;
    the switch radius is tightened accordingly.  The direct branch is stable
    down to tiny |x| (no cancellation), so a small switch radius is harmless.
    """
    q = float(q)
    r_ker = make_r_kernel(q)

    def direct(x: float, _r=r_ker) -> float:
        return math.sqrt(_r.direct_eval(x))

    coeffs = _poly_sqrt(_r_coeffs(q), TAYLOR_DEGREE)
    # Formal sqrt of an even series keeps only even powers; drop rounding dust.
    coeffs = [c if p % 2 == 0 else 0.0 for p, c in enumerate(coeffs)]
    radius = min(SWITCH_RADIUS, 0.4 / max(1.0, abs(q)))
    return ScalarKernel(
        f"sqrt_r[q={q:g}]", direct, _pairs(coeffs), switch_radius=radius, parity="even"
    )


def r_kernel(q: float, x: float) -> float:
    """Even positive kernel cosh(q x/2)/sinh(x/2) * x with r_q(0) = 2."""
    return make_r_kernel(q)(x)


def sinh_ratio_kernel(q: float, x: float) -> float:
    """Odd kernel sinh(q x/2)/sinh(x/2) * x; reduces to x when q = 1."""
    return make_sinh_ratio_kernel(q)(x)
