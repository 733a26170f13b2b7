import math

import numpy as np
import pytest

from corotcalc import monotonicity as mo
from corotcalc.calculus import f_of_ad_spectral
from corotcalc.matcore import (
    NotSymmetricError,
    _split_solve,
    eigendecompose_symmetric,
    frobenius_dot,
    frobenius_norm,
)
from corotcalc.sampling import (
    make_rng,
    random_matrix,
    random_orthogonal,
    random_spd_exp,
    random_symmetric,
)
from corotcalc.scalarfun import make_r_kernel, make_sqrt_r_kernel

GENERATORS = [
    mo.identity_generator(),
    mo.exponential_generator(),
    mo.square_generator(),
    mo.cube_plus_identity_generator(),
]


# ---------------------------------------------------------------------------
# the isotropic-function type


@pytest.mark.parametrize("gen", GENERATORS, ids=lambda g: g.name)
def test_isotropic_apply_commutes_with_argument(gen):
    rng = make_rng(70)
    for _ in range(20):
        a = random_symmetric(rng, 3)
        fa = gen.apply(a)
        assert frobenius_norm(fa @ a - a @ fa) <= 1e-12 * (1.0 + frobenius_norm(fa))


@pytest.mark.parametrize("gen", GENERATORS, ids=lambda g: g.name)
def test_isotropic_equivariance(gen):
    rng = make_rng(71)
    for _ in range(10):
        a = random_symmetric(rng, 3)
        r = random_orthogonal(rng, 3)
        lhs = gen.apply(r @ a @ r.T)
        rhs = r @ gen.apply(a) @ r.T
        assert frobenius_norm(lhs - rhs) <= 1e-10 * (1.0 + frobenius_norm(rhs))


def test_derivative_matches_exact_polynomial_rule():
    rng = make_rng(72)
    gen = mo.square_generator()
    for _ in range(20):
        a = random_symmetric(rng, 3)
        x = random_symmetric(rng, 3)
        exact = a @ x + x @ a  # product rule for the square
        for got in (gen.derivative(a, x), mo._poly_gateaux(gen.poly_coefficients, a, x)):
            assert frobenius_norm(got - exact) <= 1e-12 * (1.0 + frobenius_norm(exact))


def test_derivative_close_eigenvalues_use_pointwise_slope():
    gen = mo.exponential_generator()
    a = np.diag([1.0, 1.0 + 1e-9])
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    out = gen.derivative(a, x)
    # weight collapses to exp'(midpoint) = e
    np.testing.assert_allclose(out[0, 1], math.e, rtol=1e-8)


def test_derivative_matches_finite_difference():
    rng = make_rng(73)
    gen = mo.exponential_generator()
    for _ in range(10):
        a = random_symmetric(rng, 3)
        x = random_symmetric(rng, 3)
        fd = (gen.apply(a + 1e-5 * x) - gen.apply(a - 1e-5 * x)) / 2e-5
        got = gen.derivative(a, x)
        assert frobenius_norm(got - fd) <= 1e-5 * (1.0 + frobenius_norm(fd))


# ---------------------------------------------------------------------------
# commutation of the derivative with the commutator


def test_commutation_trivial_for_commuting_direction():
    rng = make_rng(74)
    a = random_symmetric(rng, 3)
    y = 0.3 * np.eye(3) + 0.2 * a
    assert mo.isotropic_commutation_residual(mo.square_generator(), a, y) <= 1e-12


def test_commutation_exp_finite_difference():
    rng = make_rng(75)
    for _ in range(20):
        a = random_symmetric(rng, 3)
        y = random_matrix(rng, 3)
        res = mo.isotropic_commutation_residual(mo.exponential_generator(), a, y, h=1e-5)
        assert res <= 1e-5


def test_commutation_exact_polynomials():
    rng = make_rng(76)
    for gen in (mo.square_generator(), mo.cube_generator()):
        for _ in range(200):
            a = random_symmetric(rng, 3)
            y = random_matrix(rng, 3)
            assert mo.isotropic_commutation_residual(gen, a, y) <= 1e-12


def test_commutation_requires_poly_or_step():
    rng = make_rng(77)
    a, y = random_symmetric(rng, 3), random_matrix(rng, 3)
    with pytest.raises(ValueError):
        mo.isotropic_commutation_residual(mo.exponential_generator(), a, y)
    no_matrix_eval = mo.IsotropicFunction("exp", math.exp, math.exp)
    with pytest.raises(ValueError, match="no general-matrix evaluation"):
        mo.isotropic_commutation_residual(no_matrix_eval, a, y, h=1e-4)


@pytest.mark.parametrize("h", [0.0, -0.0, math.inf, -math.inf, math.nan])
def test_commutation_refuses_a_step_that_cannot_work(h):
    rng = make_rng(77)
    a, y = random_symmetric(rng, 3), random_matrix(rng, 3)
    with pytest.raises(ValueError, match="step h must be finite and nonzero"):
        mo.isotropic_commutation_residual(mo.exponential_generator(), a, y, h=h)


def test_commutation_takes_a_negative_step():
    rng = make_rng(77)
    a, y = random_symmetric(rng, 3), random_matrix(rng, 3)
    gen = mo.exponential_generator()
    res = mo.isotropic_commutation_residual(gen, a, y, h=1e-5)
    assert mo.isotropic_commutation_residual(gen, a, y, h=-1e-5) == res


# ---------------------------------------------------------------------------
# the square-root operator


def test_sqrt_r_commuting_direction_scales_by_sqrt_two():
    rng = make_rng(78)
    g = random_symmetric(rng, 3)
    x = 0.5 * np.eye(3) + 0.3 * g
    out = mo.sqrt_r_operator(g, 1.0, x)
    np.testing.assert_allclose(out, math.sqrt(2.0) * x, atol=1e-13)


@pytest.mark.parametrize("q", [1.0, 3.0, -1.0])
def test_sqrt_r_twice_equals_r_once(q):
    rng = make_rng(79)
    for _ in range(20):
        g = random_symmetric(rng, 3)
        x = random_matrix(rng, 3)
        twice = mo.sqrt_r_operator(g, q, mo.sqrt_r_operator(g, q, x))
        direct = f_of_ad_spectral(make_r_kernel(q), g, x)
        assert frobenius_norm(twice - direct) <= 1e-12 * (1.0 + frobenius_norm(direct))


@pytest.mark.parametrize("q", [1.0, 3.0, -1.0])
def test_sqrt_r_inverts_via_reciprocal_kernel(q):
    rng = make_rng(80)
    ker = make_sqrt_r_kernel(q)
    for _ in range(20):
        g = random_symmetric(rng, 3)
        x = random_matrix(rng, 3)
        forward = mo.sqrt_r_operator(g, q, x)
        back = f_of_ad_spectral(lambda t: 1.0 / ker(t), g, forward)
        assert frobenius_norm(back - x) <= 1e-12 * (1.0 + frobenius_norm(x))


def test_sqrt_r_preserves_symmetry():
    rng = make_rng(81)
    for _ in range(20):
        g = random_symmetric(rng, 3)
        x = random_symmetric(rng, 3)
        out = mo.sqrt_r_operator(g, 3.0, x)
        assert frobenius_norm(out - out.T) <= 1e-12


# ---------------------------------------------------------------------------
# the two quadratic forms


def test_rhs_identity_generator_is_norm_squared():
    rng = make_rng(82)
    g = random_symmetric(rng, 3)
    x = random_symmetric(rng, 3)
    rhs = frobenius_dot(mo.identity_generator().derivative(g, x), x)
    assert rhs == pytest.approx(frobenius_dot(x, x), rel=1e-13)
    assert rhs > 0.0


def test_rhs_exp_at_zero_is_norm_squared():
    rng = make_rng(83)
    x = random_symmetric(rng, 3)
    rhs = frobenius_dot(mo.exponential_generator().derivative(np.zeros((3, 3)), x), x)
    assert rhs == pytest.approx(frobenius_dot(x, x), rel=1e-13)


def test_rhs_divided_difference_weight_example():
    # g = diag(0, ln 4), x the exchange matrix: weight (4-1)/ln 4 on both
    # off-diagonal slots gives 2 * 3 / ln 4
    g = np.diag([0.0, math.log(4.0)])
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    expected = 6.0 / math.log(4.0)
    rhs = frobenius_dot(mo.exponential_generator().derivative(g, x), x)
    assert rhs == pytest.approx(expected, rel=1e-14)


def test_lhs_identity_generator_positive():
    # all Hadamard weights of the anticommutator kernel are >= 2
    rng = make_rng(84)
    for _ in range(50):
        a, _ = random_spd_exp(rng, 3)
        x = random_symmetric(rng, 3)
        assert mo.bilinear_lhs(mo.identity_generator(), a, x, 1, 0) > 0.0


def test_lhs_at_identity_doubles_rhs_at_zero():
    rng = make_rng(85)
    x = random_symmetric(rng, 3)
    for gen in GENERATORS:
        lhs = mo.bilinear_lhs(gen, np.eye(3), x, 1, 0)
        rhs = frobenius_dot(gen.derivative(np.zeros((3, 3)), x), x)
        assert lhs == pytest.approx(2.0 * rhs, rel=1e-12)


def test_bilinear_validation():
    rng = make_rng(86)
    x = random_symmetric(rng, 3)
    with pytest.raises(ValueError):
        mo.bilinear_lhs(mo.identity_generator(), np.eye(3), x, 2, 0)
    with pytest.raises(ValueError):
        mo.bilinear_lhs(mo.identity_generator(), np.eye(3), np.zeros((3, 3)), 1, 0)
    with pytest.raises(NotSymmetricError):
        mo.bilinear_lhs(mo.identity_generator(), np.eye(2), [[0.0, 1.0], [0.0, 0.0]], 1, 0)


# ---------------------------------------------------------------------------
# the bridging identity and sign transport


@pytest.mark.parametrize("p,s", [(1, 0), (2, 1), (0, -1)])
@pytest.mark.parametrize(
    "gen",
    [mo.identity_generator(), mo.exponential_generator(), mo.cube_plus_identity_generator()],
    ids=lambda g: g.name,
)
def test_bridging_identity(gen, p, s):
    rep = mo.equivalence_check(gen, trials=200, seed=2024, p=p, s=s)
    assert rep.max_rel_residual <= 1e-9
    assert rep.all_signs_agree


def test_monotone_generators_give_positive_forms():
    rep = mo.equivalence_check(mo.exponential_generator(), trials=200, seed=31, p=1, s=0)
    assert rep.sign_agreements == rep.trials


def test_sign_flip_preserves_agreement():
    # an anti-monotone generator makes both forms negative; signs still agree
    rng = make_rng(87)
    gen = mo.IsotropicFunction("negated_identity", lambda t: -t, lambda t: -1.0)
    rep = mo.equivalence_check(gen, trials=100, seed=5, p=1, s=0)
    assert rep.all_signs_agree
    a, _ = random_spd_exp(rng, 3)
    x = random_symmetric(rng, 3)
    assert mo.bilinear_lhs(gen, a, x, 1, 0) < 0.0
    assert frobenius_dot(gen.derivative(random_symmetric(rng, 3), x), x) < 0.0


def test_equivalence_check_deterministic():
    r1 = mo.equivalence_check(mo.exponential_generator(), 50, 11, 1, 0)
    r2 = mo.equivalence_check(mo.exponential_generator(), 50, 11, 1, 0)
    assert r1 == r2
    with pytest.raises(ValueError, match="p - s = 1"):
        mo.equivalence_check(mo.exponential_generator(), 50, 11, 2, 0)


def test_divided_difference_table_stack_uses_each_rows_radius():
    gen = mo.cube_generator()
    f, fprime = gen.scalar_generator, gen.derivative_generator
    # near-coalescing: its own radius 2e-5 keeps the 1e-3 gap a divided difference;
    # wide: radius 1e-3 makes its 2e-4 gap a midpoint slope
    rows = np.array([[1.0 + 1e-3, 1.0, -0.5], [100.0, 10.0 + 2e-4, 10.0]])
    stacked = mo._divided_difference_table(f, fprime, rows)
    for i, row in enumerate(rows):
        assert np.array_equal(stacked[i], mo._divided_difference_table(f, fprime, row))
    a, b = rows[0, :2]
    assert stacked[0, 0, 1] == (f(a) - f(b)) / (a - b)
    a, b = rows[1, 1:]
    assert stacked[1, 1, 2] == fprime(0.5 * (a + b))


def test_equivalence_check_carries_a_nan_residual(monkeypatch):
    dots = mo._dots

    def poisoned(u, v):
        out = dots(u, v)
        out[1] = np.nan
        return out

    monkeypatch.setattr(mo, "_dots", poisoned)
    rep = mo.equivalence_check(mo.exponential_generator(), 5, 11, 1, 0)
    assert math.isnan(rep.max_rel_residual)


PAIRS = ((1, 0), (2, 1), (0, -1))


def _reports_from_one_solve(gen, trials, seeds):
    """The bridge core on draws whose S stacks are solved together, as verify does."""
    draws = [mo._bridge_draw(seed, trials) for seed in seeds]
    decs = _split_solve([s_mats for s_mats, _ in draws])
    return [mo._bridge(gen, p, s, dec, x) for (p, s), dec, (_, x) in zip(PAIRS, decs, draws)]


def _key(rep):
    return rep.trials, rep.max_rel_residual.hex(), rep.sign_agreements


@pytest.mark.parametrize("trials", [3, 7, 20, 200])
@pytest.mark.parametrize("gen", GENERATORS, ids=lambda g: g.name)
def test_bridge_core_on_a_joint_solve_equals_equivalence_check(gen, trials):
    # 3 x 3 stays on the scalar solver, 3 x 7 = 21 crosses to the stacked one
    seeds = (90, 91, 92)
    got = _reports_from_one_solve(gen, trials, seeds)
    want = [mo.equivalence_check(gen, trials, seed, p, s) for seed, (p, s) in zip(seeds, PAIRS)]
    assert [_key(r) for r in got] == [_key(r) for r in want]


def test_bridge_core_carries_a_nan_residual_as_equivalence_check(monkeypatch):
    dots = mo._dots

    def poisoned(u, v):
        out = dots(u, v)
        out[1] = np.nan
        return out

    monkeypatch.setattr(mo, "_dots", poisoned)
    gen = mo.exponential_generator()
    got = _reports_from_one_solve(gen, 5, (11, 12, 13))
    want = [mo.equivalence_check(gen, 5, seed, p, s) for seed, (p, s) in zip((11, 12, 13), PAIRS)]
    assert all(math.isnan(r.max_rel_residual) for r in got)
    assert [_key(r) for r in got] == [_key(r) for r in want]
