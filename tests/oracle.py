"""Reference values of corotcalc's scalar kernels, from their closed forms in mpmath.

This module imports nothing from ``corotcalc``: every value comes from the
kernel's defining formula, evaluated at 50 significant digits.  sigma and gamma
cancel near the origin (coth x against 1/x, x coth(x/2) against 2), so they are
evaluated with the precision raised by the digits that cancel: about
2 log10(1/|x|), some 650 digits at the smallest subnormal.
"""

from __future__ import annotations

import math

import mpmath as mp

DIGITS = 50


def sigma(x):
    return mp.coth(x) - 1 / x


def gamma(x):
    return (x * mp.coth(x / 2) - 2) / x**2


def eta(x):
    return mp.expm1(x) / x


def eta_neg(x):
    return -mp.expm1(-x) / x


def eta_neg_recip(x):
    return x / -mp.expm1(-x)


def coth_half_x(x):
    return x * mp.coth(x / 2)


def r(q: float):
    return lambda x: mp.cosh(q * x / 2) / mp.sinh(x / 2) * x


def sinh_ratio(q: float):
    return lambda x: mp.sinh(q * x / 2) / mp.sinh(x / 2) * x


def sandwich(s: float):
    return lambda x: x * mp.exp(s * x) / -mp.expm1(-x)


def sqrt_r(q: float):
    return lambda x: mp.sqrt(r(q)(x))


CANCELS = (sigma, gamma)


def value(form, x: float):
    """form at the float x, as an mpf correct to about DIGITS digits; x != 0."""
    extra = 2 * max(0, math.ceil(-math.log10(abs(x)))) if form in CANCELS else 0
    with mp.workdps(DIGITS + extra):
        return +form(mp.mpf(x))


def error(got: float, exact) -> float:
    """|got - exact| in units of epsilon = 2^-52 relative to |exact|, with
    |exact| taken as at least the smallest normal float (subnormals have fewer bits)."""
    with mp.workdps(DIGITS):
        scale = max(abs(exact), mp.mpf(2) ** -1022)
        return float(abs(mp.mpf(got) - exact) / scale / mp.mpf(2) ** -52)
