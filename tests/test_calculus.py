import math

import numpy as np
import pytest
import scipy.linalg

from corotcalc import calculus as ca
from corotcalc import kinematics as ki
from corotcalc import monotonicity as mo
from corotcalc.matcore import (
    DimensionMismatchError,
    MatrixValidationError,
    NotSpdError,
    eigendecompose_symmetric,
    frobenius_dot,
    frobenius_norm,
)
from corotcalc.sampling import make_rng, random_matrix, random_spd_exp, random_symmetric
from corotcalc.scalarfun import GAMMA, SIGMA


def spd_from_log(rng, dim=3, scale=1.0):
    a, s = random_spd_exp(rng, dim, scale)
    return a


# ---------------------------------------------------------------------------
# ad and its powers


def test_ad_identity_commutes():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(ca.ad(np.eye(2), x), np.zeros((2, 2)))


def test_ad_eigen_difference_oracle():
    # entrywise (g_i - g_j) X_ij for diagonal g
    out = ca.ad(np.diag([1.0, 2.0]), [[0.0, 1.0], [0.0, 0.0]])
    np.testing.assert_array_equal(out, [[0.0, -1.0], [0.0, 0.0]])


def test_ad_powers_commute():
    rng = make_rng(1)
    a = random_matrix(rng, 3)
    np.testing.assert_allclose(ca.ad(a, a @ a), np.zeros((3, 3)), atol=1e-14)


def test_ad_bilinear():
    rng = make_rng(2)
    a, b, x, y = (random_matrix(rng, 3) for _ in range(4))
    lhs = ca.ad(2.0 * a + 3.0 * b, x)
    rhs = 2.0 * ca.ad(a, x) + 3.0 * ca.ad(b, x)
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)
    lhs = ca.ad(a, 2.0 * x + 3.0 * y)
    rhs = 2.0 * ca.ad(a, x) + 3.0 * ca.ad(a, y)
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_ad_power_base_cases():
    rng = make_rng(3)
    a, x = random_matrix(rng, 3), random_matrix(rng, 3)
    np.testing.assert_array_equal(ca.ad_power(a, x, 0), x)
    np.testing.assert_array_equal(ca.ad_power(a, x, 1), ca.ad(a, x))


def test_ad_power_matches_binomial_m5():
    rng = make_rng(4)
    a, x = random_matrix(rng, 3), random_matrix(rng, 3)
    nested = ca.ad_power(a, x, 5)
    binom = ca.ad_power_binomial(a, x, 5)
    assert frobenius_norm(nested - binom) <= 1e-12 * (1.0 + frobenius_norm(nested))


def test_ad_power_matches_binomial_bulk():
    rng = make_rng(5)
    for m in range(9):
        a, x = random_matrix(rng, 3), random_matrix(rng, 3)
        nested = ca.ad_power(a, x, m)
        binom = ca.ad_power_binomial(a, x, m)
        assert frobenius_norm(nested - binom) <= 1e-12 * (1.0 + frobenius_norm(nested))


def test_ad_power_depth_cap():
    with pytest.raises(ValueError):
        ca.ad_power(np.eye(2), np.eye(2), 65)


def test_ad_adjoint_in_trace_inner_product():
    # <ad_A[X], Y> = <X, ad_A[Y]> for symmetric A
    rng = make_rng(6)
    for _ in range(20):
        a = random_symmetric(rng, 3)
        x, y = random_matrix(rng, 3), random_matrix(rng, 3)
        lhs = frobenius_dot(ca.ad(a, x), y)
        rhs = frobenius_dot(x, ca.ad(a, y))
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


# ---------------------------------------------------------------------------
# matrix functions


def test_matfun_spectral_identity_function():
    rng = make_rng(7)
    s = random_symmetric(rng, 3)
    np.testing.assert_allclose(ca.matfun_spectral(lambda t: t, s), s, atol=1e-13)


def test_matfun_spectral_log_diagonal():
    out = ca.matfun_spectral(math.log, np.diag([math.e**2, math.e**4]))
    np.testing.assert_allclose(out, np.diag([2.0, 4.0]), atol=1e-13)


def test_matfun_spectral_exp_log_round_trip():
    rng = make_rng(8)
    for _ in range(10):
        a = spd_from_log(rng)
        log_a = ca.matfun_spectral(math.log, a)
        back = ca.matfun_spectral(math.exp, log_a)
        assert frobenius_norm(back - a) <= 1e-10 * (1.0 + frobenius_norm(a))


def test_matfun_spectral_domain_error():
    with pytest.raises(ca.KernelDomainError):
        ca.matfun_spectral(math.log, np.diag([1.0, -2.0]))


def test_matfun_series_exp_at_zero():
    res = ca.matfun_series(ca.exp_series_spec(), np.zeros((3, 3)))
    np.testing.assert_array_equal(res.value, np.eye(3))
    assert res.stopped_by == "tolerance"


def test_matlog_series_at_identity():
    res = ca.matlog_series(np.eye(3))
    np.testing.assert_array_equal(res.value, np.zeros((3, 3)))


def test_exp_series_vs_spectral():
    rng = make_rng(9)
    for _ in range(10):
        a = random_symmetric(rng, 3)
        a *= min(1.0, 1.0 / frobenius_norm(a))
        series = ca.matexp_series(a)
        spectral = ca.matfun_spectral(math.exp, a)
        assert frobenius_norm(series - spectral) <= 1e-10 * (1.0 + frobenius_norm(spectral))


def test_log_series_vs_spectral_near_identity():
    rng = make_rng(10)
    for _ in range(10):
        u = random_symmetric(rng, 3)
        u *= 0.5 / max(1.0, frobenius_norm(u))
        a = np.eye(3) + u
        series = ca.matlog_series(a).value
        spectral = ca.matfun_spectral(math.log, a)
        assert frobenius_norm(series - spectral) <= 1e-8


def test_log_series_divergence_signaled():
    with pytest.raises(ca.SeriesDivergenceError):
        ca.matlog_series(np.diag([2.25, 1.0, 1.0]))


def test_series_reports_max_terms_stop():
    spec = ca.PowerSeriesSpec((1.0, 1.0, 1.0), max_terms=3, tol=1e-30)
    res = ca.matfun_series(spec, 0.5 * np.eye(2))
    assert res.stopped_by == "max_terms"
    np.testing.assert_allclose(res.value, np.diag([1.75, 1.75]), atol=1e-15)


def test_series_spec_validation():
    with pytest.raises(ValueError):
        ca.PowerSeriesSpec((1.0,), max_terms=0)
    with pytest.raises(ValueError):
        ca.PowerSeriesSpec((1.0,), tol=0.0)


# ---------------------------------------------------------------------------
# the commutator-kernel operator


def test_f_of_ad_constant_kernel_is_identity_map():
    rng = make_rng(11)
    g = random_symmetric(rng, 3)
    x = random_matrix(rng, 3)
    np.testing.assert_allclose(ca.f_of_ad_spectral(lambda t: 1.0, g, x), x, atol=1e-13)


def test_f_of_ad_linear_kernel_is_commutator():
    rng = make_rng(12)
    g = random_symmetric(rng, 3)
    x = random_matrix(rng, 3)
    out = ca.f_of_ad_spectral(lambda t: t, g, x)
    np.testing.assert_allclose(out, ca.ad(g, x), atol=1e-13)


def test_f_of_ad_exp_kernel_matches_conjugation_product():
    rng = make_rng(13)
    for _ in range(20):
        g = random_symmetric(rng, 3)
        x = random_matrix(rng, 3)
        out = ca.f_of_ad_spectral(math.exp, g, x)
        eg = ca.matfun_spectral(math.exp, g)
        eg_inv = ca.matfun_spectral(lambda t: math.exp(-t), g)
        direct = eg @ x @ eg_inv
        assert frobenius_norm(out - direct) <= 1e-12 * (1.0 + frobenius_norm(direct))


def test_f_of_ad_linearity():
    rng = make_rng(14)
    for _ in range(200):
        g = random_symmetric(rng, 3)
        x, y = random_matrix(rng, 3), random_matrix(rng, 3)
        al, be = rng.uniform(-2, 2, 2)
        op = ca.SpectralAdOperator.from_matrix(g, SIGMA)
        lhs = op.apply(al * x + be * y)
        rhs = al * op.apply(x) + be * op.apply(y)
        assert frobenius_norm(lhs - rhs) <= 1e-12 * (1.0 + frobenius_norm(lhs))


def test_f_of_ad_commutes_with_ad():
    # f(ad_A) ad_A = ad_A f(ad_A)
    rng = make_rng(15)
    for kernel in (math.exp, SIGMA, GAMMA):
        for _ in range(20):
            a = random_symmetric(rng, 3)
            x = random_matrix(rng, 3)
            op = ca.SpectralAdOperator.from_matrix(a, kernel)
            lhs = op.apply(ca.ad(a, x))
            rhs = ca.ad(a, op.apply(x))
            assert frobenius_norm(lhs - rhs) <= 1e-12 * (1.0 + frobenius_norm(lhs))


def test_spectral_operator_table_invariants():
    rng = make_rng(16)
    g = random_symmetric(rng, 4)
    op = ca.SpectralAdOperator.from_matrix(g, SIGMA)
    lam = op.decomposition.eigenvalues
    for i in range(4):
        assert op.kernel_table[i, i] == SIGMA(0.0)
        for j in range(4):
            assert op.kernel_table[i, j] == SIGMA(float(lam[i] - lam[j]))
            # odd kernel: antisymmetric table
            assert abs(op.kernel_table[i, j] + op.kernel_table[j, i]) <= 1e-14
    op_even = ca.SpectralAdOperator.from_matrix(g, GAMMA)
    assert np.max(np.abs(op_even.kernel_table - op_even.kernel_table.T)) <= 1e-14


def test_f_of_ad_series_zero_coefficients():
    rng = make_rng(17)
    spec = ca.PowerSeriesSpec((0.0, 0.0, 0.0))
    out = ca.f_of_ad_series(spec, random_symmetric(rng, 3), random_matrix(rng, 3))
    np.testing.assert_array_equal(out.value, np.zeros((3, 3)))


def test_f_of_ad_series_exp_matches_spectral():
    rng = make_rng(18)
    for _ in range(10):
        a = random_symmetric(rng, 3, scale=0.5)
        x = random_matrix(rng, 3)
        series = ca.f_of_ad_series(ca.exp_series_spec(), a, x).value
        spectral = ca.f_of_ad_spectral(math.exp, a, x)
        assert frobenius_norm(series - spectral) <= 1e-10


def test_f_of_ad_series_sigma_matches_spectral_within_radius():
    rng = make_rng(19)
    for _ in range(10):
        h = random_symmetric(rng, 3)
        h *= 0.3 / max(1.0, frobenius_norm(h) / 0.97)
        x = random_matrix(rng, 3)
        series = ca.f_of_ad_series(ca.sigma_series_spec(), h, x).value
        spectral = ca.f_of_ad_spectral(SIGMA, h, x)
        assert frobenius_norm(series - spectral) <= 1e-8


# ---------------------------------------------------------------------------
# derivative of the exponential


def test_d_exp_at_zero_is_identity_map():
    rng = make_rng(20)
    x = random_matrix(rng, 3)
    np.testing.assert_allclose(ca.d_exp(np.zeros((3, 3)), x), x, atol=1e-13)


def test_d_exp_commuting_diagonal():
    a = np.diag([0.3, -1.2, 0.7])
    x = np.diag([1.0, 2.0, 3.0])
    expected = ca.matfun_spectral(math.exp, a) @ x
    np.testing.assert_allclose(ca.d_exp(a, x), expected, atol=1e-13)


def test_d_exp_wide_spectrum_vs_high_precision():
    # e^400 and e^-400 are finite, so every divided difference is too
    import mpmath as mp

    mp.mp.dps = 50
    a_diag = (400.0, -400.0, 0.0)
    x = random_matrix(make_rng(27), 3)
    got = ca.d_exp(np.diag(a_diag), x)
    for i, a_i in enumerate(a_diag):
        for j, a_j in enumerate(a_diag):
            ai, aj = mp.mpf(a_i), mp.mpf(a_j)
            dd = mp.exp(ai) if i == j else (mp.exp(ai) - mp.exp(aj)) / (ai - aj)
            ref = float(mp.mpf(x[i, j]) * dd)
            assert abs(got[i, j] - ref) <= 1e-14 * abs(ref), (i, j, got[i, j], ref)


@pytest.mark.parametrize("p, s", [(2, 1), (1, 0), (0, -1)])
@pytest.mark.parametrize("sign", [1, -1])
def test_dlog_sinh_pair_wide_spectrum_vs_high_precision(p, s, sign):
    # ln b_i - ln b_j reaches 500: cosh and sinh of (p+s)/2 times it overflow,
    # the kernel values do not.
    import mpmath as mp

    b = np.diag([math.exp(250.0), 1.0, math.exp(-250.0)])
    x = random_matrix(make_rng(31), 3)
    got = ca.dlog_sinh_pair(b, x, p, s, sign)
    top = mp.cosh if sign == 1 else mp.sinh
    with mp.workdps(50):
        logs = [mp.log(mp.mpf(v)) for v in np.diag(b)]
        for i in range(3):
            for j in range(3):
                t = logs[i] - logs[j]
                k = top((p + s) * t / 2) / mp.sinh(t / 2) * t if i != j else 1 + sign
                ref = float(mp.mpf(x[i, j]) * k)
                assert abs(got[i, j] - ref) <= 1e-13 * abs(ref), (i, j, got[i, j], ref)


def test_dlog_sinh_pair_overflowing_kernel_raises():
    # (p+s) = 3 at ln b_i - ln b_j = 1000: the exact kernel value exceeds the float range
    b = np.diag([math.exp(500.0), 1.0, math.exp(-500.0)])
    with pytest.raises(ca.KernelDomainError):
        ca.dlog_sinh_pair(b, np.ones((3, 3)), 2, 1, 1)


def test_d_exp_vs_finite_difference():
    # independent oracle: central difference through scipy's expm
    rng = make_rng(21)
    h = 1e-5
    for _ in range(30):
        a = random_symmetric(rng, 3)
        a *= 2.0 / max(1.0, frobenius_norm(a) / 0.9)
        x = random_matrix(rng, 3)
        fd = (scipy.linalg.expm(a + h * x) - scipy.linalg.expm(a - h * x)) / (2.0 * h)
        val = ca.d_exp(a, x)
        assert frobenius_norm(val - fd) <= 1e-6 * (1.0 + frobenius_norm(fd))


def test_d_exp_series_route_matches_spectral():
    rng = make_rng(22)
    a = random_symmetric(rng, 3, scale=0.6)
    x = random_matrix(rng, 3)
    sp = ca.d_exp(a, x, method="spectral")
    se = ca.d_exp(a, x, method="series")
    assert frobenius_norm(sp - se) <= 1e-11


def test_d_exp_general_matrix_vs_finite_difference():
    rng = make_rng(23)
    for _ in range(10):
        a = random_matrix(rng, 3, scale=0.5)
        x = random_matrix(rng, 3)
        fd = (scipy.linalg.expm(a + 1e-5 * x) - scipy.linalg.expm(a - 1e-5 * x)) / 2e-5
        val = ca.d_exp(a, x)  # auto dispatches to the series route
        assert frobenius_norm(val - fd) <= 1e-6 * (1.0 + frobenius_norm(fd))


# ---------------------------------------------------------------------------
# derivative of the logarithm


def test_d_log_at_identity():
    rng = make_rng(24)
    x = random_matrix(rng, 3)
    np.testing.assert_allclose(ca.d_log(np.eye(3), x), x, atol=1e-13)


def test_d_log_scalar_matrix():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    a = math.e**2 * np.eye(2)
    np.testing.assert_allclose(ca.d_log(a, x), math.e**-2 * x, atol=1e-14)


def test_d_log_inverts_d_exp():
    rng = make_rng(25)
    for _ in range(30):
        a, s = random_spd_exp(rng, 3, scale=1.0)
        x = random_matrix(rng, 3)
        roundtrip = ca.d_log(a, ca.d_exp(s, x))
        assert frobenius_norm(roundtrip - x) <= 1e-10 * (1.0 + frobenius_norm(x))


def test_d_log_rejects_non_spd():
    with pytest.raises(NotSpdError):
        ca.d_log(np.diag([1.0, -1.0]), np.eye(2))


def test_d_log_vs_finite_difference():
    rng = make_rng(26)
    for _ in range(10):
        a = spd_from_log(rng, scale=0.8)
        x = random_matrix(rng, 3)
        fd = (scipy.linalg.logm(a + 1e-6 * x) - scipy.linalg.logm(a - 1e-6 * x)) / 2e-6
        assert frobenius_norm(ca.d_log(a, x) - fd) <= 1e-6 * (1.0 + frobenius_norm(fd))


# ---------------------------------------------------------------------------
# log-derivative identities for sandwiched arguments


def _spectral_power(a, p):
    dec = eigendecompose_symmetric(a)
    return (dec.q * dec.eigenvalues**p) @ dec.q.T


def test_dlog_sandwich_commuting_case():
    rng = make_rng(27)
    a = spd_from_log(rng)
    y = 0.4 * np.eye(3) + 0.2 * a + 0.1 * a @ a
    out = ca.dlog_sandwich(a, y, 1, 0)
    expected = ca.d_log(a, a @ y)
    np.testing.assert_allclose(out, expected, atol=1e-12)
    np.testing.assert_allclose(out, y, atol=1e-12)


@pytest.mark.parametrize("p,s", [(1, 0), (2, 1), (0, -1)])
def test_dlog_sandwich_vs_dlog(p, s):
    rng = make_rng(28 + p * 10 + s)
    for _ in range(20):
        a = spd_from_log(rng)
        y = random_matrix(rng, 3)
        arg = _spectral_power(a, p) @ y @ _spectral_power(a, -s)
        lhs = ca.dlog_sandwich(a, y, p, s)
        rhs = ca.d_log(a, arg)
        assert frobenius_norm(lhs - rhs) <= 1e-10 * (1.0 + frobenius_norm(rhs))


def test_dlog_sandwich_rejects_bad_powers():
    with pytest.raises(ValueError):
        ca.dlog_sandwich(np.eye(2), np.eye(2), 2, 0)


def test_dlog_commutator_identity_commuting():
    rng = make_rng(29)
    a = spd_from_log(rng)
    y = 0.3 * np.eye(3) + 0.5 * a
    res = ca.dlog_commutator_residual(a, y)
    assert frobenius_norm(res) <= 1e-12


def test_dlog_commutator_eigen_difference_oracle():
    # ad(ln a, y) for a = diag(1, e^2): entry (0,1) is (0 - 2) * y01
    a = np.diag([1.0, math.e**2])
    y = np.array([[0.0, 1.0], [0.0, 0.0]])
    log_a = ca.matfun_spectral(math.log, a)
    np.testing.assert_allclose(ca.ad(log_a, y), [[0.0, -2.0], [0.0, 0.0]], atol=1e-14)
    assert frobenius_norm(ca.dlog_commutator_residual(a, y)) <= 1e-12


def test_dlog_commutator_identity_random():
    rng = make_rng(30)
    for _ in range(20):
        a = spd_from_log(rng)
        y = random_matrix(rng, 3)
        assert frobenius_norm(ca.dlog_commutator_residual(a, y)) <= 1e-10


def test_dlog_anticommutator_at_identity():
    rng = make_rng(31)
    y = random_matrix(rng, 3)
    np.testing.assert_allclose(ca.dlog_anticommutator(np.eye(3), y), 2.0 * y, atol=1e-13)


def test_dlog_anticommutator_commuting_gives_twice():
    rng = make_rng(32)
    a = spd_from_log(rng)
    y = 0.2 * np.eye(3) + 0.7 * a
    np.testing.assert_allclose(ca.dlog_anticommutator(a, y), 2.0 * y, atol=1e-11)


def test_dlog_anticommutator_vs_dlog():
    rng = make_rng(33)
    for _ in range(20):
        a = spd_from_log(rng)
        y = random_matrix(rng, 3)
        lhs = ca.dlog_anticommutator(a, y)
        rhs = ca.d_log(a, a @ y + y @ a)
        assert frobenius_norm(lhs - rhs) <= 1e-10 * (1.0 + frobenius_norm(rhs))


def test_dlog_sinh_pair_commuting_cases():
    rng = make_rng(34)
    a = spd_from_log(rng)
    x = 0.5 * np.eye(3) + 0.25 * a
    diff = ca.dlog_sinh_pair(a, x, 1, 0, -1)
    np.testing.assert_allclose(diff, np.zeros((3, 3)), atol=1e-12)
    summ = ca.dlog_sinh_pair(a, x, 1, 0, +1)
    np.testing.assert_allclose(summ, 2.0 * x, atol=1e-11)


@pytest.mark.parametrize("p,s", [(1, 0), (2, 1), (0, -1)])
def test_dlog_sinh_pair_vs_dlog(p, s):
    rng = make_rng(35 + p * 10 + s)
    for _ in range(20):
        a = spd_from_log(rng)
        x = random_matrix(rng, 3)
        ap = _spectral_power(a, p)
        am = _spectral_power(a, -s)
        lhs_diff = ca.dlog_sinh_pair(a, x, p, s, -1)
        rhs_diff = ca.d_log(a, ap @ x @ am - am @ x @ ap)
        assert frobenius_norm(lhs_diff - rhs_diff) <= 1e-10 * (1.0 + frobenius_norm(rhs_diff))
        lhs_sum = ca.dlog_sinh_pair(a, x, p, s, +1)
        rhs_sum = ca.d_log(a, ap @ x @ am + am @ x @ ap)
        assert frobenius_norm(lhs_sum - rhs_sum) <= 1e-10 * (1.0 + frobenius_norm(rhs_sum))


def test_dlog_sinh_pair_cross_check_anticommutator():
    rng = make_rng(36)
    a = spd_from_log(rng)
    x = random_matrix(rng, 3)
    np.testing.assert_allclose(
        ca.dlog_sinh_pair(a, x, 1, 0, +1), ca.dlog_anticommutator(a, x), atol=1e-11
    )


def test_dlog_sinh_pair_validation():
    with pytest.raises(ValueError):
        ca.dlog_sinh_pair(np.eye(2), np.eye(2), 2, 0, +1)
    with pytest.raises(ValueError):
        ca.dlog_sinh_pair(np.eye(2), np.eye(2), 1, 0, 2)


# ---------------------------------------------------------------------------
# the anticommutator gap (iff characterization of commuting directions)


def test_gap_vanishes_for_polynomials_in_a():
    rng = make_rng(37)
    for _ in range(20):
        a = spd_from_log(rng)
        c = rng.uniform(-1, 1, 3)
        x = c[0] * np.eye(3) + c[1] * a + c[2] * a @ a
        gap, comm = ca.anticommutator_gap(a, x)
        assert gap <= 1e-10
        assert comm <= 1e-12 * (1.0 + frobenius_norm(a) * frobenius_norm(x))


def test_gap_positive_for_generic_pairs():
    rng = make_rng(38)
    for _ in range(20):
        a = spd_from_log(rng)
        x = random_symmetric(rng, 3)
        gap, comm = ca.anticommutator_gap(a, x)
        assert gap > 0.0
        assert comm > 0.0


def test_gap_zero_at_identity():
    rng = make_rng(39)
    x = random_matrix(rng, 3)
    gap, comm = ca.anticommutator_gap(np.eye(3), x)
    assert gap <= 1e-14
    assert comm <= 1e-14


def test_gap_curvature_lower_bound():
    # For clearly non-commuting pairs the gap is bounded below by a multiple
    # of the squared commutator norm, by positivity of the gamma kernel.
    rng = make_rng(40)
    for _ in range(500):
        a = spd_from_log(rng, 3, scale=1.0)
        x = random_symmetric(rng, 3)
        gap, comm = ca.anticommutator_gap(a, x)
        if comm >= 1e-2:
            log_a = ca.matfun_spectral(math.log, a)
            bound = 1e-6 * comm**2 / (1.0 + frobenius_norm(log_a) ** 2)
            assert gap >= bound


# ---------------------------------------------------------------------------
# conjugation and adjointness


def test_conjugation_at_s_zero():
    rng = make_rng(41)
    a, y = random_symmetric(rng, 3), random_matrix(rng, 3)
    np.testing.assert_allclose(ca.exp_conjugation(a, y, 0.0), y, atol=1e-14)


def test_conjugation_commuting_pair():
    a = np.diag([1.0, 2.0, 3.0])
    y = np.diag([4.0, 5.0, 6.0])
    np.testing.assert_allclose(ca.exp_conjugation(a, y, 1.7), y, atol=1e-13)


def test_conjugation_vs_triple_product():
    rng = make_rng(42)
    for _ in range(30):
        a = random_symmetric(rng, 3)
        y = random_matrix(rng, 3)
        out = ca.exp_conjugation(a, y, 1.3)
        direct = scipy.linalg.expm(1.3 * a) @ y @ scipy.linalg.expm(-1.3 * a)
        assert frobenius_norm(out - direct) <= 1e-12 * (1.0 + frobenius_norm(direct))


def test_conjugation_series_route_general_matrix():
    rng = make_rng(43)
    a = random_matrix(rng, 3, scale=0.5)
    y = random_matrix(rng, 3)
    out = ca.exp_conjugation(a, y, 1.0)
    direct = scipy.linalg.expm(a) @ y @ scipy.linalg.expm(-a)
    assert frobenius_norm(out - direct) <= 1e-12 * (1.0 + frobenius_norm(direct))


def test_adjoint_residuals_even_kernel_symmetric_argument():
    rng = make_rng(44)
    a = random_symmetric(rng, 3)
    x = random_symmetric(rng, 3)
    y = random_matrix(rng, 3)
    r1, _ = ca.adjoint_residuals(a, x, y, GAMMA)
    assert r1 <= 1e-13


def test_adjoint_residuals_exp_kernel():
    rng = make_rng(45)
    for _ in range(20):
        a = random_symmetric(rng, 3)
        x, y = random_matrix(rng, 3), random_matrix(rng, 3)
        r1, r2 = ca.adjoint_residuals(a, x, y, math.exp)
        assert r1 <= 1e-12
        assert r2 <= 1e-12


def test_odd_kernel_sends_symmetric_to_skew():
    rng = make_rng(46)
    a = random_symmetric(rng, 3)
    x = random_symmetric(rng, 3)
    y = random_matrix(rng, 3)
    r1, _ = ca.adjoint_residuals(a, x, y, SIGMA)
    assert r1 <= 1e-12
    out = ca.f_of_ad_spectral(SIGMA, a, x)
    assert frobenius_norm(out + out.T) <= 1e-12


# ---------------------------------------------------------------------------
# power-function derivative rule (ad of a matrix function)


def test_power_function_commutator_rule_fd():
    # ad(A^k, X) equals the derivative of the power map along ad(A, X)
    rng = make_rng(47)
    h = 1e-5
    for k in range(1, 7):
        a = random_symmetric(rng, 3)
        x = random_matrix(rng, 3)
        lhs = ca.ad(np.linalg.matrix_power(a, k), x)
        c = ca.ad(a, x)
        fd = ca.gateaux_fd(lambda m, k=k: np.linalg.matrix_power(m, k), a, c, h=h)
        assert frobenius_norm(lhs - fd) <= 1e-6 * (1.0 + frobenius_norm(lhs))


def test_power_function_commutator_rule_exact():
    # exact product-rule expansion of the power derivative as the oracle
    rng = make_rng(48)
    for k in range(1, 7):
        a = random_symmetric(rng, 3)
        x = random_matrix(rng, 3)
        c = ca.ad(a, x)
        exact = np.zeros((3, 3))
        for j in range(k):
            exact += np.linalg.matrix_power(a, j) @ c @ np.linalg.matrix_power(a, k - 1 - j)
        lhs = ca.ad(np.linalg.matrix_power(a, k), x)
        assert frobenius_norm(lhs - exact) <= 1e-12 * (1.0 + frobenius_norm(lhs))


def test_gateaux_fd_richardson():
    rng = make_rng(49)
    a = random_symmetric(rng, 3)
    x = random_matrix(rng, 3)
    plain = ca.gateaux_fd(scipy.linalg.expm, a, x, h=1e-4)
    refined = ca.gateaux_fd(scipy.linalg.expm, a, x, h=1e-4, richardson=True)
    exact = ca.d_exp(a, x)
    assert frobenius_norm(refined - exact) <= frobenius_norm(plain - exact)


# ---------------------------------------------------------------------------
# argument gates

_GATE_A = np.array([[3.0, 0.5, 0.1], [0.5, 2.0, 0.2], [0.1, 0.2, 1.0]])
_GATE_D = np.array([[0.4, 0.1, -0.2], [0.1, -0.3, 0.5], [-0.2, 0.5, 0.1]])
_GATE_W = np.array([[0.0, 0.3, -0.1], [-0.3, 0.0, 0.2], [0.1, -0.2, 0.0]])

# name -> (call(a, x, decomposition), takes decomposition=, reads a when it is given)
_GATED = {
    "ad": (lambda a, x, dec: ca.ad(a, x), False, True),
    "f_of_ad_series": (
        lambda a, x, dec: ca.f_of_ad_series(ca.eta_neg_series_spec(), a, x), False, True
    ),
    "f_of_ad_spectral": (
        lambda a, x, dec: ca.f_of_ad_spectral(SIGMA, a, x, decomposition=dec), True, False
    ),
    "SpectralAdOperator.apply": (
        lambda a, x, dec: ca.SpectralAdOperator.from_matrix(a, SIGMA, dec).apply(x),
        True,
        False,
    ),
    "d_exp": (lambda a, x, dec: ca.d_exp(a, x), False, True),
    "d_exp_series": (lambda a, x, dec: ca.d_exp(a, x, method="series"), False, True),
    "exp_conjugation": (lambda a, x, dec: ca.exp_conjugation(a, x, 0.5), False, True),
    "exp_conjugation_series": (
        lambda a, x, dec: ca.exp_conjugation(a, x, 0.5, method="series"), False, True
    ),
    "d_log": (lambda a, x, dec: ca.d_log(a, x, decomposition=dec), True, False),
    "dlog_sandwich": (
        lambda a, x, dec: ca.dlog_sandwich(a, x, 2, 1, decomposition=dec), True, False
    ),
    "dlog_anticommutator": (
        lambda a, x, dec: ca.dlog_anticommutator(a, x, decomposition=dec), True, False
    ),
    "dlog_sinh_pair": (
        lambda a, x, dec: ca.dlog_sinh_pair(a, x, 2, 1, -1, decomposition=dec), True, False
    ),
    "dlog_commutator_residual": (
        lambda a, x, dec: ca.dlog_commutator_residual(a, x, decomposition=dec), True, True
    ),
    "anticommutator_gap": (
        lambda a, x, dec: ca.anticommutator_gap(a, x, decomposition=dec), True, True
    ),
    "log_spin_spectral_d": (
        lambda a, x, dec: ki.log_spin_spectral(a, x, _GATE_W, decomposition=dec), True, False
    ),
    "log_spin_spectral_w": (
        lambda a, x, dec: ki.log_spin_spectral(a, _GATE_D, x, decomposition=dec), True, False
    ),
    "log_spin_commutator_d": (
        lambda a, x, dec: ki.log_spin_commutator(a, x, _GATE_W, decomposition=dec), True, False
    ),
    "log_spin_commutator_w": (
        lambda a, x, dec: ki.log_spin_commutator(a, _GATE_D, x, decomposition=dec), True, False
    ),
    "IsotropicFunction.derivative": (
        lambda a, x, dec: mo.exponential_generator().derivative(a, x, decomposition=dec),
        True,
        False,
    ),
    "corotational_rate_rate": (lambda a, x, dec: ki.corotational_rate(a, x, _GATE_W), False, True),
    "corotational_rate_spin": (lambda a, x, dec: ki.corotational_rate(a, _GATE_D, x), False, True),
}

_BAD = {
    "nan": (np.where(np.eye(3) > 0, np.nan, _GATE_D), MatrixValidationError),
    "inf": (np.where(np.eye(3) > 0, np.inf, _GATE_D), MatrixValidationError),
    "non_square": (np.ones((3, 2)), MatrixValidationError),
    "mismatched": (np.eye(2), DimensionMismatchError),
}


def _gate_cases(bad_kinds):
    for name, (call, takes_dec, _) in _GATED.items():
        for given in (False, True) if takes_dec else (False,):
            for bad in bad_kinds:
                mode = "given" if given else "fresh"
                yield pytest.param(call, given, bad, id=f"{name}-{mode}-{bad}")


@pytest.mark.parametrize("call, given, bad", list(_gate_cases(_BAD)))
def test_dimension_mismatch_raised(call, given, bad):
    # A bad operand raises a typed error, with or without a given decomposition.
    operand, error = _BAD[bad]
    dec = eigendecompose_symmetric(_GATE_A) if given else None
    call(_GATE_A, _GATE_D, dec)
    with pytest.raises(error):
        call(_GATE_A, operand, dec)


_MATRIX_GATED = {
    **_GATED,
    "hencky": (lambda a, x, dec: ki.hencky(a, decomposition=dec), True, False),
}


@pytest.mark.parametrize("name", list(_MATRIX_GATED))
@pytest.mark.parametrize("bad", ["nan", "inf", "non_square"])
def test_matrix_argument_gate(name, bad):
    call, takes_dec, reads_a = _MATRIX_GATED[name]
    with pytest.raises(MatrixValidationError):
        call(_BAD[bad][0], _GATE_D, None)
    if takes_dec:
        # A given decomposition is trusted; the matrix argument is read only
        # where the function itself needs it.
        dec = eigendecompose_symmetric(_GATE_A)
        if reads_a:
            with pytest.raises(MatrixValidationError):
                call(_BAD[bad][0], _GATE_D, dec)
        else:
            expected = call(_GATE_A, _GATE_D, dec)
            np.testing.assert_array_equal(call(_BAD[bad][0], _GATE_D, dec), expected)
