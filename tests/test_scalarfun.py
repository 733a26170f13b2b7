import math
from fractions import Fraction

import numpy as np
import pytest

from corotcalc import scalarfun as sf


ALL_FIXED_KERNELS = [sf.SIGMA, sf.GAMMA, sf.ETA, sf.ETA_NEG, sf.ETA_NEG_RECIP, sf.COTH_HALF_X]
PARAM_KERNELS = (
    [sf.make_r_kernel(q) for q in (0.0, 1.0, 2.0, 3.0, -1.0)]
    + [sf.make_sinh_ratio_kernel(q) for q in (0.0, 1.0, 2.0, 3.0)]
    + [sf.make_sqrt_r_kernel(q) for q in (1.0, 3.0, -1.0)]
    + [sf.make_sandwich_kernel(s) for s in (0.0, 1.0, -1.0, 2.0)]
)


# ---------------------------------------------------------------------------
# bernoulli


def test_bernoulli_base():
    assert sf.bernoulli(0) == 1


def test_bernoulli_two():
    # recurrence by hand: C(3,0) B0 + C(3,1) B1 + C(3,2) B2 = 0 with B1 = -1/2
    assert sf.bernoulli(1) == Fraction(-1, 2)
    assert sf.bernoulli(2) == Fraction(1, 6)


def test_bernoulli_odd_vanish():
    for n in range(3, 40, 2):
        assert sf.bernoulli(n) == 0


def test_bernoulli_recurrence_oracle():
    # sum_{k=0}^{n} C(n+1, k) B_k = 0 for every n >= 1
    for n in range(1, 41):
        acc = sum(math.comb(n + 1, k) * sf.bernoulli(k) for k in range(n + 1))
        assert acc == 0


def test_bernoulli_known_values():
    assert sf.bernoulli(4) == Fraction(-1, 30)
    assert sf.bernoulli(6) == Fraction(1, 42)
    assert sf.bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_out_of_range():
    with pytest.raises(ValueError):
        sf.bernoulli(41)
    with pytest.raises(ValueError):
        sf.bernoulli(-1)


# ---------------------------------------------------------------------------
# individual kernels


def test_sigma_at_zero():
    assert sf.sigma(0.0) == 0.0


def test_sigma_parity():
    x = 0.7
    assert sf.sigma(-x) == pytest.approx(-sf.sigma(x), abs=1e-16)


def test_sigma_at_one():
    expected = math.cosh(1.0) / math.sinh(1.0) - 1.0
    assert sf.sigma(1.0) == pytest.approx(expected, rel=1e-15)


def test_sigma_taylor_leading_terms():
    # x/3 - x^3/45 + 2 x^5/945, coefficients straight from the recurrence
    coeffs = dict(sf.SIGMA.taylor)
    assert coeffs[1] == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert coeffs[3] == pytest.approx(-1.0 / 45.0, rel=1e-15)
    assert coeffs[5] == pytest.approx(2.0 / 945.0, rel=1e-15)
    for n in (1, 2, 3, 4, 5):
        expected = float(Fraction(4**n) * sf.bernoulli(2 * n) / math.factorial(2 * n))
        assert coeffs[2 * n - 1] == pytest.approx(expected, rel=1e-15)


def test_gamma_at_zero():
    assert sf.gamma_kernel(0.0) == pytest.approx(1.0 / 6.0, rel=1e-15)


def test_gamma_positive_samples():
    for x in (0.1, -0.1, 1.0, -1.0, 10.0, -10.0):
        assert sf.gamma_kernel(x) > 0.0


def test_gamma_at_two():
    expected = (2.0 / math.tanh(1.0) - 2.0) / 4.0
    assert sf.gamma_kernel(2.0) == pytest.approx(expected, rel=1e-14)


def test_gamma_lower_bound_on_window():
    # quantified positivity used by the bijectivity argument
    for x in np.linspace(-20.0, 20.0, 4001):
        assert sf.gamma_kernel(float(x)) >= 1e-3


def test_eta_at_zero():
    assert sf.eta(0.0) == 1.0


def test_eta_at_one():
    assert sf.eta(1.0) == pytest.approx(math.e - 1.0, rel=1e-15)


def test_eta_reflection_identity():
    # (1 - e^-x)/x * e^x = (e^x - 1)/x
    x = 0.5
    assert sf.eta(-x) * math.exp(x) == pytest.approx(sf.eta(x), rel=1e-15)


def test_eta_neg_matches_eta():
    for x in (0.3, 1.7, -2.2):
        assert sf.eta_neg(x) == pytest.approx(sf.eta(-x), rel=1e-15)


def test_eta_neg_recip_is_reciprocal():
    for x in (0.4, 2.0, -1.3, 0.01):
        assert sf.eta_neg_recip(x) == pytest.approx(1.0 / sf.eta_neg(x), rel=1e-14)
    assert sf.eta_neg_recip(0.0) == 1.0


def test_eta_neg_recip_positive():
    for x in np.linspace(-30, 30, 601):
        assert sf.eta_neg_recip(float(x)) > 0.0


def test_coth_half_x_at_zero():
    assert sf.coth_half_times_x(0.0) == 2.0


def test_coth_half_x_at_one():
    assert sf.coth_half_times_x(1.0) == pytest.approx(1.0 / math.tanh(0.5), rel=1e-15)


def test_coth_half_x_gamma_identity():
    # coth(x/2) x = 2 + gamma(x) x^2
    for x in (3.0, 0.2, -1.5, 0.0):
        lhs = sf.coth_half_times_x(x)
        rhs = 2.0 + sf.gamma_kernel(x) * x * x
        assert abs(lhs - rhs) <= 1e-12


def test_r_kernel_at_zero():
    for q in (0.0, 1.0, 2.0):
        assert sf.r_kernel(q, 0.0) == pytest.approx(2.0, rel=1e-15)


def test_r_kernel_even():
    x = 0.9
    assert sf.r_kernel(1.0, x) - sf.r_kernel(1.0, -x) == 0.0


def test_r_kernel_value():
    expected = 2.0 * math.cosh(1.0) / math.sinh(1.0)
    assert sf.r_kernel(1.0, 2.0) == pytest.approx(expected, rel=1e-15)


def test_r_kernel_positive_box():
    for q in np.linspace(-3, 3, 25):
        ker = sf.make_r_kernel(float(q))
        for x in np.linspace(-20, 20, 401):
            assert ker(float(x)) >= 1e-6


def test_sinh_ratio_reduces_to_x_at_q_one():
    for x in (0.0, 0.1, 0.3, 1.0, -2.5):
        assert sf.sinh_ratio_kernel(1.0, x) == pytest.approx(x, abs=1e-14)


def test_sinh_ratio_at_zero():
    assert sf.sinh_ratio_kernel(3.0, 0.0) == 0.0


def test_sinh_ratio_value():
    expected = math.sinh(1.5) / math.sinh(0.5)
    assert sf.sinh_ratio_kernel(3.0, 1.0) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("x", [500.0, -500.0, 1000.0, -1000.0, 1500.0, -1500.0])
@pytest.mark.parametrize("q", [1.0, 3.0, -1.0])
@pytest.mark.parametrize("family", ["r", "sinh_ratio"])
def test_large_argument_vs_high_precision(family, q, x):
    # cosh(q x/2) and sinh(x/2) overflow here; the kernel value may not.
    import mpmath as mp

    from corotcalc.calculus import KernelDomainError, f_of_ad_spectral

    if family == "r":
        kernel, top = sf.make_r_kernel(q), mp.cosh
    else:
        kernel, top = sf.make_sinh_ratio_kernel(q), mp.sinh
    with mp.workdps(50):
        t = mp.mpf(x)
        exact = top(q * t / 2) / mp.sinh(t / 2) * t
        finite = abs(exact) <= mp.mpf(np.finfo(float).max)
        ref = float(exact) if finite else None
    if finite:
        got = kernel(x)
        assert abs(got - ref) <= 1e-13 * abs(ref), (got, ref)
    else:
        with pytest.raises(KernelDomainError):
            f_of_ad_spectral(kernel, np.diag([x, 0.0]), np.ones((2, 2)))


def test_sqrt_r_squares_back():
    for q in (1.0, 3.0, -1.0):
        ker = sf.make_sqrt_r_kernel(q)
        for x in (0.0, 0.05, 0.2, 1.0, 4.0, -2.0):
            assert ker(x) ** 2 == pytest.approx(sf.r_kernel(q, x), rel=1e-13)


def test_sandwich_kernel_values():
    for s in (0.0, 1.0, -1.0):
        ker = sf.make_sandwich_kernel(s)
        for x in (0.0, 0.1, 1.0, -0.7):
            expected = math.exp(s * x) * sf.eta_neg_recip(x)
            assert ker(x) == pytest.approx(expected, rel=1e-13)


def test_exp_kernel():
    ker = sf.make_exp_kernel(1.3)
    assert ker(0.5) == pytest.approx(math.exp(0.65), rel=1e-15)


# ---------------------------------------------------------------------------
# branch-agreement and parity invariants, for every kernel


@pytest.mark.parametrize("kernel", ALL_FIXED_KERNELS + PARAM_KERNELS, ids=lambda k: k.name)
def test_branch_agreement_on_ring(kernel):
    if not kernel.taylor:
        pytest.skip("kernel has no series branch")
    r = kernel.switch_radius
    for x in np.linspace(r / 2, 2 * r, 100):
        x = float(x)
        for sx in (x, -x):
            assert abs(kernel.direct_eval(sx) - kernel.taylor_eval(sx)) <= 1e-12


@pytest.mark.parametrize("kernel", ALL_FIXED_KERNELS + PARAM_KERNELS, ids=lambda k: k.name)
def test_branch_continuity_just_above_switch(kernel):
    if not kernel.taylor:
        pytest.skip("kernel has no series branch")
    x = kernel.switch_radius * 1.0000001
    assert abs(kernel.direct_eval(x) - kernel.taylor_eval(x)) <= 1e-12


@pytest.mark.parametrize("kernel", ALL_FIXED_KERNELS + PARAM_KERNELS, ids=lambda k: k.name)
def test_declared_parity(kernel):
    if kernel.parity == "none":
        pytest.skip("no parity declared")
    sign = 1.0 if kernel.parity == "even" else -1.0
    for x in (1e-3, 0.1, 0.2499, 0.31, 1.0, 5.0):
        assert abs(kernel(-x) - sign * kernel(x)) <= 1e-14 * (1.0 + abs(kernel(x)))


@pytest.mark.parametrize("kernel", ALL_FIXED_KERNELS + PARAM_KERNELS, ids=lambda k: k.name)
def test_taylor_power_parity_consistent(kernel):
    if kernel.parity == "none":
        pytest.skip("no parity declared")
    rem = 0 if kernel.parity == "even" else 1
    assert all(p % 2 == rem for p, _ in kernel.taylor)
