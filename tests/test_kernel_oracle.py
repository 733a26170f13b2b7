"""Every built-in kernel against the mpmath oracle of ``oracle.py``, near the origin.

The points: 320 uniform in |x| < 0.25, 160 log-uniform magnitudes in
[1e-300, 1e-1] with both signs, LIMIT_RADIUS = 2^-500 and the floats either
side of it, 1e-310 and the smallest subnormal 5e-324, each with both signs.
Each kernel is checked at each number and through ``over`` on all of them.
The worst error measured here is 1.9 epsilon (sinh_ratio at q = -2); the
bound is 2.5 epsilon.  At 1e-310 and 5e-324 the direct formulas with x/2 give
inf or raise, so a pass also shows that no direct branch reaches them.
"""

import functools
import math
import re

import numpy as np
import oracle
import pytest

from corotcalc import calculus as ca
from corotcalc import scalarfun as sf

BOUND = 2.5  # in epsilon = 2^-52

KERNELS = {k.name: (k, form) for k, form in [
    (sf.SIGMA, oracle.sigma), (sf.GAMMA, oracle.gamma), (sf.ETA, oracle.eta),
    (sf.ETA_NEG, oracle.eta_neg), (sf.ETA_NEG_RECIP, oracle.eta_neg_recip),
    (sf.COTH_HALF_X, oracle.coth_half_x),
    *[(make(q), form(q)) for q in (3.0, 1.0, -1.0, 0.5, -2.0)
      for make, form in ((sf.make_r_kernel, oracle.r),
                         (sf.make_sinh_ratio_kernel, oracle.sinh_ratio),
                         (sf.make_sqrt_r_kernel, oracle.sqrt_r))],
    *[(sf.make_sandwich_kernel(s), oracle.sandwich(s)) for s in (2.0, 1.0, 0.5, -1.0)],
]}


def _points() -> list:
    rng = np.random.default_rng(28)
    magnitudes = 10.0 ** rng.uniform(-300.0, -1.0, 160)
    edges = [sf.LIMIT_RADIUS, math.nextafter(sf.LIMIT_RADIUS, 0.0),
             math.nextafter(sf.LIMIT_RADIUS, 1.0), 1e-310, 5e-324]
    return [*rng.uniform(-0.25, 0.25, 320).tolist(), *magnitudes.tolist(), *(-magnitudes).tolist(),
            *edges, *(-x for x in edges)]


POINTS = _points()


@functools.lru_cache(maxsize=None)
def _exact(name: str) -> list:
    return [oracle.value(KERNELS[name][1], x) for x in POINTS]


@pytest.mark.parametrize("name", list(KERNELS))
def test_kernel_near_the_origin_is_within_the_bound_of_the_oracle(name):
    kernel = KERNELS[name][0]
    got = [kernel(x) for x in POINTS]
    errors = [oracle.error(v, e) for v, e in zip(got, _exact(name))]
    worst = max(range(len(POINTS)), key=errors.__getitem__)
    assert errors[worst] <= BOUND, (POINTS[worst], got[worst], errors[worst])
    assert len(POINTS) >= sf._ARRAY_MIN  # over takes its array path
    assert kernel.over(np.array(POINTS)).tobytes() == np.array(got).tobytes()


# parameters where the degree-24 series the factories once summed out to |x| = 0.25
# had not converged: r at q = 100 was 2.6e-5 off at x = 0.2, sandwich at s = 100 16% off.
# Rounding q x to a float costs up to |q x| epsilon/2 in e^(q x), cosh and sinh.
@pytest.mark.parametrize("make, form, q", [
    (sf.make_r_kernel, oracle.r, 100.0), (sf.make_sinh_ratio_kernel, oracle.sinh_ratio, 100.0),
    (sf.make_sandwich_kernel, oracle.sandwich, 100.0), (sf.make_sqrt_r_kernel, oracle.sqrt_r, 1e6),
    (sf.make_r_kernel, oracle.r, 1e100), (sf.make_sinh_ratio_kernel, oracle.sinh_ratio, -1e100),
    (sf.make_sandwich_kernel, oracle.sandwich, sf.MAX_PARAMETER),
    (sf.make_sinh_ratio_kernel, oracle.sinh_ratio, -sf.MAX_PARAMETER),
], ids=lambda v: getattr(v, "__name__", None) or repr(v))
def test_large_parameters_are_within_the_bound_of_the_oracle(make, form, q):
    kernel = make(q)
    below = math.nextafter(sf.LIMIT_RADIUS, 0.0)
    xs = [x for x in (0.2, -0.01, 1e-5, 3e-101, -1e-120, below, -below, 1e-160, 1e-300, 5e-324)
          if abs(float(oracle.value(form(q), x))) < 1e308]
    for x in xs:
        assert oracle.error(kernel(x), oracle.value(form(q), x)) <= BOUND * (1 + abs(q * x)), x


@pytest.mark.parametrize("make", [sf.make_r_kernel, sf.make_sinh_ratio_kernel,
                                  sf.make_sandwich_kernel, sf.make_sqrt_r_kernel],
                         ids=lambda f: f.__name__)
def test_a_kernel_beyond_the_float_range_fails_in_its_table_with_its_entry_error(make):
    # 1e100 builds a kernel; it is finite only within about 1e-98 of the origin
    kernel = make(1e100)
    assert math.isfinite(kernel(1e-100)) and math.isfinite(kernel(-1e-160))
    vals = np.array([[0.0, 1e-160, 1e-100], [0.0, 1e-160, 1.0]])
    assert np.isfinite(ca._difference_table(kernel, vals[0])).all()
    with pytest.raises(OverflowError, match="^math range error$"):
        kernel(1.0)
    # the table's first entry beyond the range is v_0 - v_2 = -1.0 in the second row;
    # the sandwich kernel is finite there, and fails first at v_2 - v_0 = 1.0
    sandwich = make is sf.make_sandwich_kernel
    if sandwich:
        assert math.isfinite(kernel(-1.0))
    pair = (1.0, 0.0) if sandwich else (0.0, 1.0)
    message = ("function undefined at an eigenvalue: math range error, "
               f"at the difference {pair[0] - pair[1]!r} of eigenvalues {pair!r}")
    with pytest.raises(ca.KernelDomainError, match=f"^{re.escape(message)}$"):
        ca._difference_table(kernel, vals)
