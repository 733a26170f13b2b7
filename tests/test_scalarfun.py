import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    assert sf.SIGMA(0.0) == 0.0


def test_sigma_parity():
    x = 0.7
    assert sf.SIGMA(-x) == pytest.approx(-sf.SIGMA(x), abs=1e-16)


def test_sigma_at_one():
    expected = math.cosh(1.0) / math.sinh(1.0) - 1.0
    assert sf.SIGMA(1.0) == pytest.approx(expected, rel=1e-15)


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
    assert sf.GAMMA(0.0) == pytest.approx(1.0 / 6.0, rel=1e-15)


def test_gamma_positive_samples():
    for x in (0.1, -0.1, 1.0, -1.0, 10.0, -10.0):
        assert sf.GAMMA(x) > 0.0


def test_gamma_at_two():
    expected = (2.0 / math.tanh(1.0) - 2.0) / 4.0
    assert sf.GAMMA(2.0) == pytest.approx(expected, rel=1e-14)


def test_gamma_lower_bound_on_window():
    # quantified positivity used by the bijectivity argument
    for x in np.linspace(-20.0, 20.0, 4001):
        assert sf.GAMMA(float(x)) >= 1e-3


def test_eta_at_zero():
    assert sf.ETA(0.0) == 1.0


def test_eta_at_one():
    assert sf.ETA(1.0) == pytest.approx(math.e - 1.0, rel=1e-15)


def test_eta_reflection_identity():
    # (1 - e^-x)/x * e^x = (e^x - 1)/x
    x = 0.5
    assert sf.ETA(-x) * math.exp(x) == pytest.approx(sf.ETA(x), rel=1e-15)


def test_eta_neg_matches_eta():
    for x in (0.3, 1.7, -2.2):
        assert sf.ETA_NEG(x) == pytest.approx(sf.ETA(-x), rel=1e-15)


def test_eta_neg_recip_is_reciprocal():
    for x in (0.4, 2.0, -1.3, 0.01):
        assert sf.ETA_NEG_RECIP(x) == pytest.approx(1.0 / sf.ETA_NEG(x), rel=1e-14)
    assert sf.ETA_NEG_RECIP(0.0) == 1.0


def test_eta_neg_recip_positive():
    for x in np.linspace(-30, 30, 601):
        assert sf.ETA_NEG_RECIP(float(x)) > 0.0


def test_coth_half_x_at_zero():
    assert sf.COTH_HALF_X(0.0) == 2.0


def test_coth_half_x_at_one():
    assert sf.COTH_HALF_X(1.0) == pytest.approx(1.0 / math.tanh(0.5), rel=1e-15)


def test_coth_half_x_gamma_identity():
    # coth(x/2) x = 2 + gamma(x) x^2
    for x in (3.0, 0.2, -1.5, 0.0):
        lhs = sf.COTH_HALF_X(x)
        rhs = 2.0 + sf.GAMMA(x) * x * x
        assert abs(lhs - rhs) <= 1e-12


def test_r_kernel_at_zero():
    for q in (0.0, 1.0, 2.0):
        assert sf.make_r_kernel(q)(0.0) == pytest.approx(2.0, rel=1e-15)


def test_r_kernel_even():
    x = 0.9
    assert sf.make_r_kernel(1.0)(x) - sf.make_r_kernel(1.0)(-x) == 0.0


def test_r_kernel_value():
    expected = 2.0 * math.cosh(1.0) / math.sinh(1.0)
    assert sf.make_r_kernel(1.0)(2.0) == pytest.approx(expected, rel=1e-15)


def test_r_kernel_positive_box():
    for q in np.linspace(-3, 3, 25):
        ker = sf.make_r_kernel(float(q))
        for x in np.linspace(-20, 20, 401):
            assert ker(float(x)) >= 1e-6


def test_sinh_ratio_reduces_to_x_at_q_one():
    for x in (0.0, 0.1, 0.3, 1.0, -2.5):
        assert sf.make_sinh_ratio_kernel(1.0)(x) == pytest.approx(x, abs=1e-14)


def test_sinh_ratio_at_zero():
    assert sf.make_sinh_ratio_kernel(3.0)(0.0) == 0.0


def test_sinh_ratio_value():
    expected = math.sinh(1.5) / math.sinh(0.5)
    assert sf.make_sinh_ratio_kernel(3.0)(1.0) == pytest.approx(expected, rel=1e-14)


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
            assert ker(x) ** 2 == pytest.approx(sf.make_r_kernel(q)(x), rel=1e-13)


def test_sandwich_kernel_values():
    for s in (0.0, 1.0, -1.0):
        ker = sf.make_sandwich_kernel(s)
        for x in (0.0, 0.1, 1.0, -0.7):
            expected = math.exp(s * x) * sf.ETA_NEG_RECIP(x)
            assert ker(x) == pytest.approx(expected, rel=1e-13)


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
            assert abs(kernel.direct(sx) - kernel.taylor_eval(sx)) <= 1e-12


@pytest.mark.parametrize("kernel", ALL_FIXED_KERNELS + PARAM_KERNELS, ids=lambda k: k.name)
def test_branch_continuity_just_above_switch(kernel):
    if not kernel.taylor:
        pytest.skip("kernel has no series branch")
    x = kernel.switch_radius * 1.0000001
    assert abs(kernel.direct(x) - kernel.taylor_eval(x)) <= 1e-12


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



# ---------------------------------------------------------------------------
# every Taylor table against a 60-digit oracle, and parity to the bit


def _oracle_cases() -> dict:
    """{name: (float coefficients by power, n -> exact coefficients 0..n, radius)};
    radius is the kernel's switch radius, None for a series summed to convergence."""
    import mpmath as mp

    from corotcalc import calculus as ca
    from corotcalc import kinematics as ki

    def dense(kernel):
        out = [0.0] * (sf.TAYLOR_DEGREE + 1)
        for p, c in kernel.taylor:
            out[p] = c
        return out

    def taylor(form):
        # coefficients 1..n+1 of x form(x): mpmath takes a singular constant
        # term from one evaluation near 0, too close for gamma's cancellation
        return lambda n: mp.taylor(lambda x: x * form(x), 0, n + 1, singular=True)[1:]

    def ratio(top, q):
        return lambda x: top(q * x / 2) / mp.sinh(x / 2) * x

    kernels = [
        (sf.SIGMA, lambda x: mp.coth(x) - 1 / x),
        (sf.GAMMA, lambda x: (x * mp.coth(x / 2) - 2) / x**2),
        (sf.ETA, lambda x: mp.expm1(x) / x),
        (sf.ETA_NEG, lambda x: -mp.expm1(-x) / x),
        (sf.ETA_NEG_RECIP, lambda x: x / -mp.expm1(-x)),
        (sf.COTH_HALF_X, lambda x: x * mp.coth(x / 2)),
    ]
    kernels += [(sf.make_r_kernel(q), ratio(mp.cosh, q)) for q in (0.0, 1.0, 2.0, 3.0, -1.0)]
    kernels += [(sf.make_sinh_ratio_kernel(q), ratio(mp.sinh, q)) for q in (0.0, 1.0, 2.0, 3.0)]
    kernels += [(sf.make_sandwich_kernel(s), lambda x, s=s: x * mp.exp(s * x) / -mp.expm1(-x))
                for s in (0.0, 1.0, -1.0, 2.0)]
    cases = {k.name: (dense(k), taylor(f), k.switch_radius) for k, f in kernels}
    for q in (1.0, 3.0, -1.0):
        k = sf.make_sqrt_r_kernel(q)
        cases[k.name] = (dense(k), taylor(lambda x, q=q: mp.sqrt(ratio(mp.cosh, q)(x))),
                         k.switch_radius)
    cases["spin series"] = (ki._SPIN_SERIES,
                            taylor(lambda u: (mp.log1p(u) - u) / (u * mp.log1p(u))), None)
    cases["sigma spec"] = (ca.sigma_series_spec().coefficients,
                           taylor(lambda x: mp.coth(x) - 1 / x), None)
    cases["eta_neg spec"] = (ca.eta_neg_series_spec().coefficients,
                             taylor(lambda x: -mp.expm1(-x) / x), None)
    cases["exp spec"] = (ca.exp_series_spec().coefficients,
                         lambda n: [1 / mp.factorial(k) for k in range(n + 1)], None)
    cases["log spec"] = (ca.log_series_spec().coefficients,
                         lambda n: [mp.mpf(0)] + [mp.mpf((-1) ** (k + 1)) / k
                                                  for k in range(1, n + 1)], None)
    return cases


@pytest.mark.parametrize("name", list(_oracle_cases()))
def test_taylor_coefficients_are_correctly_rounded(name):
    # Each coefficient is the float nearest the exact one.  A coefficient the
    # table holds as zero must vanish at the oracle's precision, or, for the
    # kernels that keep only their limit below LIMIT_RADIUS, have a term below
    # 2^-60 of the leading one at the switch radius, where x^2 < 2^-1000.
    import mpmath as mp

    got, exact, radius = _oracle_cases()[name]
    with mp.workdps(60):
        ref = exact(len(got) - 1)
        lead = max((abs(e) * mp.mpf(radius or 1) ** n for n, e in enumerate(ref)), default=0)
        for n, (c, e) in enumerate(zip(got, ref)):
            if c != 0.0:
                assert c == float(e), (n, c, float(e))
            elif radius == sf.LIMIT_RADIUS:
                assert abs(e) * mp.mpf(radius) ** n <= mp.mpf(2) ** -60 * lead, (n, e)
            else:
                assert abs(e) < mp.mpf(10) ** -60, (n, e)


@pytest.mark.parametrize("kernel", [k for k in ALL_FIXED_KERNELS + PARAM_KERNELS
                                    if k.parity != "none"], ids=lambda k: k.name)
@given(x=st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 700.0)))
def test_declared_parity_holds_to_the_bit(kernel, x):
    # both branches, the switch radius itself and large |x|
    sign = 1.0 if kernel.parity == "even" else -1.0
    r = kernel.switch_radius
    for t in (x, r, math.nextafter(r, 0.0), math.nextafter(r, 1.0)):
        assert kernel(-t) == sign * kernel(t), t


# r and sinh_ratio kernels whose overflow branch starts at other |x| than those of PARAM_KERNELS
RATIO_KERNELS = [make(q) for make in (sf.make_r_kernel, sf.make_sinh_ratio_kernel)
                 for q in (-2.0, 0.5)]


@pytest.mark.parametrize("kernel", ALL_FIXED_KERNELS + PARAM_KERNELS + RATIO_KERNELS,
                         ids=lambda k: k.name)
def test_over_equals_the_kernel_at_each_entry_to_the_bit(kernel):
    # both sides of the switch radius, signed zeros, subnormals, and |x| where
    # the r and sinh_ratio kernels take their overflow branch (cosh(q x/2) or
    # sinh(x/2) out of range) or a kernel overflows outright
    r = kernel.switch_radius
    near = [0.0, -0.0, 5e-324, -5e-324, 0.5 * r, math.nextafter(r, 0.0)]
    far = [r, math.nextafter(r, 1.0), 2.0 * r, 1.0, 3.0, 40.0, 500.0, 1430.0, 1500.0, math.inf]
    xs = near + [-x for x in near] + far + [-x for x in far]
    rng = np.random.default_rng(5)
    xs += rng.uniform(-3.0, 3.0, 40).tolist() + rng.uniform(-40.0, 40.0, 60).tolist()
    xs += (rng.choice([-1.0, 1.0], 40) * rng.uniform(1430.0, 3000.0, 40)).tolist()
    good, failing = [], {}
    for x in xs:
        try:
            good.append((x, float(kernel(x))))
        except (OverflowError, ValueError, ZeroDivisionError) as exc:
            failing[x] = exc
    assert len(good) >= sf._ARRAY_MIN
    x = np.array([x for x, _ in good]).reshape(1, -1)  # any shape
    want = np.array([v for _, v in good]).reshape(x.shape)
    assert kernel.over(x).tobytes() == want.tobytes()
    # where no entry's array form raises (no +-inf, no overflow branch), the
    # direct branch computes as one array formula, to the bit as at each entry
    whole = (np.abs(x) >= r) & (np.abs(x) < 400.0)
    at_once = sf._guarded(lambda: kernel.direct(x[whole]), pytest.fail)
    assert at_once.tobytes() == want[whole].tobytes()
    for x, exc in failing.items():
        for before in ([1.0], np.resize([v for v, _ in good], 200)):  # after 200 good entries
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                kernel.over(np.append(before, x))
    _over_equals_each_entry(kernel, [0.0, -0.0, -0.0, 0.0])  # zeros alone share one sum
    _over_equals_each_entry(kernel, [])


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def _over_equals_each_entry(kernel, xs) -> None:
    assert _bits(kernel.over(np.array(xs, dtype=float))) == _bits([kernel(v) for v in xs])


@pytest.mark.parametrize("kernel", ALL_FIXED_KERNELS + PARAM_KERNELS, ids=lambda k: k.name)
def test_taylor_sum_at_negative_zero_has_the_bits_at_zero(kernel):
    # over evaluates every exact zero of the Taylor branch as taylor_eval(0.0)
    assert _bits(kernel.taylor_eval(-0.0)) == _bits(kernel.taylor_eval(0.0))


@pytest.mark.parametrize("taylor, radius", [((), sf.SWITCH_RADIUS), (sf.ETA.taylor, 0.0)],
                         ids=["no Taylor terms", "switch radius 0"])
def test_over_equals_the_kernel_without_a_taylor_branch(taylor, radius):
    # the direct branch sees the sign of a zero, so over must pass each zero to it
    kernel = sf.ScalarKernel("signed", lambda x: math.copysign(2.0, x), taylor, radius)
    _over_equals_each_entry(kernel, [0.0, -0.0, 0.1, -0.1, 0.0, 5e-324, -5e-324, 1.0])
    _over_equals_each_entry(kernel, [-0.0, 0.0])
    if radius <= 0.0:  # a zero where the direct branch raises raises from over too
        failing = sf.ScalarKernel("failing", sf.ETA.direct, taylor, radius)
        with pytest.raises(ZeroDivisionError):
            failing(0.0)
        with pytest.raises(ZeroDivisionError):
            failing.over(np.array([1.0, 0.0]))


FACTORIES = [sf.make_r_kernel, sf.make_sinh_ratio_kernel, sf.make_sandwich_kernel,
             sf.make_sqrt_r_kernel]


@pytest.mark.parametrize("factory", [sf.make_r_kernel, sf.make_sandwich_kernel])
def test_kernel_factory_cache_is_bounded(factory):
    assert factory.cache_info().maxsize is not None  # callers may pass any parameter
    for k in range(100):
        factory(0.001 * k + 0.0005)
    assert factory.cache_info().currsize <= 64


@pytest.mark.parametrize("factory", FACTORIES, ids=lambda f: f.__name__)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1e300])
def test_kernel_factory_rejects_parameter_out_of_range(factory, value):
    # 1e300: below LIMIT_RADIUS, q x would not be small, so the limit would be wrong
    with pytest.raises(ValueError, match=rf"^{factory.__name__}: [qs]={re.escape(repr(value))} "):
        factory(value)


@pytest.mark.parametrize("factory", FACTORIES, ids=lambda f: f.__name__)
def test_kernel_factory_takes_every_parameter_up_to_the_largest(factory):
    for value in (sf.MAX_PARAMETER, -sf.MAX_PARAMETER, 5e-324, -0.0):
        factory(value)
    with pytest.raises(ValueError, match=" is not finite or exceeds "):
        factory(math.nextafter(sf.MAX_PARAMETER, math.inf))
