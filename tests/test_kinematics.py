import dataclasses
import itertools
import math

import numpy as np
import pytest

from corotcalc import kinematics as ki
from corotcalc import matcore
from corotcalc.calculus import d_log
from corotcalc.matcore import (
    DimensionMismatchError,
    EigenConvergenceError,
    EigenDecomposition,
    NotSpdError,
    eigendecompose_symmetric,
    frobenius_norm,
)
from corotcalc.sampling import (
    make_rng,
    random_matrix,
    random_orthogonal,
    random_skew,
    random_spd_ratio,
    random_symmetric,
)


# ---------------------------------------------------------------------------
# hencky strain


def test_hencky_identity():
    np.testing.assert_array_equal(ki.hencky(np.eye(3)), np.zeros((3, 3)))


def test_hencky_diagonal():
    b = np.diag([math.e**2, math.e**4, 1.0])
    np.testing.assert_allclose(ki.hencky(b), np.diag([1.0, 2.0, 0.0]), atol=1e-13)


def test_hencky_round_trip():
    rng = make_rng(50)
    for _ in range(10):
        b = random_spd_ratio(rng, 3)
        h = ki.hencky(b)
        dec = eigendecompose_symmetric(2.0 * h)
        back = (dec.q * np.exp(dec.eigenvalues)) @ dec.q.T
        assert frobenius_norm(back - b) <= 1e-10 * (1.0 + frobenius_norm(b))


def test_hencky_rejects_indefinite():
    with pytest.raises(NotSpdError):
        ki.hencky(np.diag([1.0, -1.0]))


# ---------------------------------------------------------------------------
# genuine-strain-measure conditions


def test_strain_measure_identity_condition_exact():
    # the log strain vanishes exactly at B = I, in every dimension
    for n in (1, 2, 3, 4):
        assert frobenius_norm(ki.hencky(np.eye(n))) == 0.0


def test_strain_measure_derivative_condition():
    # the log strain's derivative at B = I is X/2: centered differences (h = 1e-5)
    # along 20 random symmetric directions
    rng, h = make_rng(0), 1e-5
    for _ in range(20):
        x = random_symmetric(rng, 3)
        fd = (ki.hencky(np.eye(3) + h * x) - ki.hencky(np.eye(3) - h * x)) / (2 * h)
        assert frobenius_norm(fd - 0.5 * x) <= 1e-6


def test_strain_measure_derivative_along_identity_direction():
    h = 1e-5
    fd = (ki.hencky((1 + h) * np.eye(3)) - ki.hencky((1 - h) * np.eye(3))) / (2 * h)
    np.testing.assert_allclose(fd, 0.5 * np.eye(3), atol=1e-6)


# ---------------------------------------------------------------------------
# spin representations


def test_spin_spectral_identity_b():
    rng = make_rng(51)
    d, w = random_symmetric(rng, 3), random_skew(rng, 3)
    np.testing.assert_array_equal(ki.log_spin_spectral(np.eye(3), d, w), w)


def test_spin_spectral_diagonal_pair():
    # diagonal B with diagonal D: every cross projection P_i D P_j vanishes
    b = np.diag([4.0, 2.0, 1.0])
    d = np.diag([1.0, -2.0, 3.0])
    w = random_skew(make_rng(52), 3)
    np.testing.assert_allclose(ki.log_spin_spectral(b, d, w), w, atol=1e-15)


def test_spin_pair_coefficient_vs_high_precision():
    # the projection-sum weight across its series/direct switch, against a
    # 40-digit evaluation of the raw formula
    import mpmath as mp

    mp.mp.dps = 40
    pairs = [
        (1.0, 1.0 + 1e-12), (1.0, 1.0 + 1e-8), (1.2, 1.0), (1.24999, 1.0),
        (1.2501, 1.0), (2.0, 1.0), (1000.0, 1.0), (1.0, 1000.0),
        (0.8, 1.0), (1e-3, 1.0), (3.7, 2.9), (1e-20, 1.0), (1.0, 1e20),
    ]
    for b_i, b_j in pairs:
        r = mp.mpf(b_i) / mp.mpf(b_j)
        ref = float((1 + r) / (1 - r) + 2 / mp.log(r))
        got = -ki._pair_weight(b_i, b_j)
        assert abs(got - ref) <= 1e-13 * (1.0 + abs(ref))


def test_spin_spectral_2x2_closed_form():
    # eigenvalued pair (e^2, 1): the off-diagonal weight is 2/(1 - e^2)
    b = np.diag([math.e**2, 1.0])
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    omega = ki.log_spin_spectral(b, d, np.zeros((2, 2)))
    c = 2.0 / (1.0 - math.e**2)
    np.testing.assert_allclose(omega, [[0.0, c], [-c, 0.0]], atol=1e-14)
    omega2 = ki.log_spin_commutator(b, d, np.zeros((2, 2)))
    np.testing.assert_allclose(omega, omega2, atol=1e-14)


def test_spin_commutator_identity_b():
    rng = make_rng(53)
    d, w = random_symmetric(rng, 3), random_skew(rng, 3)
    np.testing.assert_array_equal(ki.log_spin_commutator(np.eye(3), d, w), w)


def test_spin_commutator_commuting_pair():
    rng = make_rng(54)
    b = random_spd_ratio(rng, 3)
    w = random_skew(rng, 3)
    d = 0.4 * np.eye(3) + 0.2 * b  # commutes with b
    np.testing.assert_allclose(ki.log_spin_commutator(b, d, w), w, atol=1e-12)


def test_spin_representations_agree():
    rng = make_rng(55)
    for _ in range(300):
        b = random_spd_ratio(rng, 3)
        d = random_symmetric(rng, 3)
        w = random_skew(rng, 3)
        o_sp = ki.log_spin_spectral(b, d, w)
        o_co = ki.log_spin_commutator(b, d, w)
        assert frobenius_norm(o_sp - o_co) <= 1e-10 * (1.0 + frobenius_norm(d))


def test_spin_commutator_always_skew():
    rng = make_rng(56)
    for _ in range(100):
        b = random_spd_ratio(rng, 3)
        d = random_symmetric(rng, 3)
        w = random_skew(rng, 3)
        omega = ki.log_spin_commutator(b, d, w)
        assert frobenius_norm(omega + omega.T) <= 1e-12


def test_spin_frame_rotation_equivariance():
    rng = make_rng(57)
    for _ in range(50):
        b = random_spd_ratio(rng, 3)
        d = random_symmetric(rng, 3)
        w = random_skew(rng, 3)
        r = random_orthogonal(rng, 3)
        rotated = ki.log_spin_commutator(r @ b @ r.T, r @ d @ r.T, r @ w @ r.T)
        expected = r @ ki.log_spin_commutator(b, d, w) @ r.T
        assert frobenius_norm(rotated - expected) <= 1e-10 * (1.0 + frobenius_norm(d))


def test_spin_rejects_indefinite():
    with pytest.raises(NotSpdError):
        ki.log_spin_commutator(np.diag([1.0, -1.0]), np.eye(2), np.zeros((2, 2)))
    with pytest.raises(NotSpdError):
        ki.log_spin_spectral(np.diag([1.0, -1.0]), np.eye(2), np.zeros((2, 2)))


def test_spin_continuity_through_eigenvalue_coalescence():
    rng = make_rng(58)
    q = random_orthogonal(rng, 3)
    d = random_symmetric(rng, 3)
    w = random_skew(rng, 3)
    scale = frobenius_norm(d)

    def spin_at(eps):
        lam = np.array([2.0 * (1.0 + eps), 2.0, 0.5])
        b = (q * lam) @ q.T
        return ki.log_spin_commutator(0.5 * (b + b.T), d, w)

    gaps = (1e-4, 1e-6, 1e-8)
    spins = [spin_at(e) for e in gaps]
    for k in range(len(gaps) - 1):
        delta = frobenius_norm(spins[k] - spins[k + 1])
        assert delta <= 10.0 * gaps[k] * scale


def test_spectral_clustering_agrees_at_tiny_gap():
    rng = make_rng(59)
    q = random_orthogonal(rng, 3)
    d = random_symmetric(rng, 3)
    w = random_skew(rng, 3)
    lam = np.array([2.0 * (1.0 + 1e-8), 2.0, 0.5])
    b = (q * lam) @ q.T
    b = 0.5 * (b + b.T)
    o_sp = ki.log_spin_spectral(b, d, w)
    o_co = ki.log_spin_commutator(b, d, w)
    assert frobenius_norm(o_sp - o_co) <= 1e-6


@pytest.mark.parametrize("gap", [1e-6, 1e-7, 1e-8, 1e-12, 0.0])
def test_spin_forms_agree_through_coalescence(gap):
    # the two weights are evaluated independently; near and at a repeated
    # eigenvalue both tend to zero, so the forms must agree to rounding
    rng = make_rng(61)
    q = random_orthogonal(rng, 3)
    d = random_symmetric(rng, 3)
    w = random_skew(rng, 3)
    lam = np.array([2.0 * (1.0 + gap), 2.0, 0.5])
    b = (q * lam) @ q.T
    b = 0.5 * (b + b.T)
    dec = EigenDecomposition(q, lam)
    o_sp = ki.log_spin_spectral(b, d, w, decomposition=dec)
    o_co = ki.log_spin_commutator(b, d, w, decomposition=dec)
    assert frobenius_norm(o_sp - o_co) <= 1e-13 * (1.0 + frobenius_norm(d))


# ---------------------------------------------------------------------------
# rates


def test_corotational_rate_zero_spin():
    rng = make_rng(60)
    a, a_dot = random_matrix(rng, 3), random_matrix(rng, 3)
    np.testing.assert_array_equal(
        ki._corotational(a, a_dot, np.zeros((3, 3))), a_dot
    )


def test_corotational_rate_identity_tensor():
    rng = make_rng(61)
    a_dot, w = random_matrix(rng, 3), random_skew(rng, 3)
    np.testing.assert_allclose(ki._corotational(np.eye(3), a_dot, w), a_dot, atol=1e-15)


def test_corotational_rate_hand_oracle():
    # a*omega - omega*a computed by hand for the 2x2 exchange/rotation pair
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    omega = np.array([[0.0, 1.0], [-1.0, 0.0]])
    out = ki._corotational(a, np.zeros((2, 2)), omega)
    np.testing.assert_array_equal(out, [[-2.0, 0.0], [0.0, 2.0]])


# ---------------------------------------------------------------------------
# trajectories


def test_integrate_zero_field_constant():
    f0 = np.array([[1.0, 0.2, 0.0], [0.0, 1.0, 0.0], [0.1, 0.0, 1.0]])
    field = ki.VelocityGradientField("zero", 3, lambda t: np.zeros((3, 3)))
    samples = ki.integrate_motion(field, f0, 0.5, 1e-2, record_every=10)
    for s in samples:
        np.testing.assert_array_equal(s.f, f0)
        assert s.rate_residual <= 1e-14


def test_integrate_rigid_rotation():
    rate = 0.9
    samples = ki.integrate_motion(ki.rigid_rotation(rate), np.eye(3), 1.0, 1e-3, record_every=100)
    for s in samples:
        # F(t) is the plane rotation by rate*t; B stays the identity
        c, sn = math.cos(rate * s.t), math.sin(rate * s.t)
        f_exact = np.array([[c, -sn, 0.0], [sn, c, 0.0], [0.0, 0.0, 1.0]])
        assert frobenius_norm(s.f - f_exact) <= 1e-10
        assert frobenius_norm(s.b - np.eye(3)) <= 1e-10
        assert frobenius_norm(s.h) <= 1e-10
        assert frobenius_norm(s.omega_log - s.w) <= 1e-10


def test_integrate_pure_stretch_closed_form():
    alpha = 0.3
    samples = ki.integrate_motion(
        ki.pure_stretch((alpha, -alpha, 0.0)), np.eye(3), 1.0, 1e-3, record_every=200
    )
    for s in samples:
        b_exact = np.diag([math.e ** (2 * alpha * s.t), math.e ** (-2 * alpha * s.t), 1.0])
        h_exact = np.diag([alpha * s.t, -alpha * s.t, 0.0])
        assert frobenius_norm(s.b - b_exact) <= 1e-10
        assert frobenius_norm(s.h - h_exact) <= 1e-10


def test_integrate_simple_shear_closed_form():
    kappa = 1.0
    samples = ki.integrate_motion(ki.simple_shear(kappa), np.eye(3), 1.0, 1e-3, record_every=250)
    for s in samples:
        f_exact = np.eye(3)
        f_exact[0, 1] = kappa * s.t
        assert frobenius_norm(s.f - f_exact) <= 1e-12
        assert abs(s.det_f - 1.0) <= 1e-12


def _rk4_reference(field, f0, n_steps, dt):
    """F at every step as M_k F, M_k the RK4 step matrix, one field call per stage time."""
    f = np.array(f0, dtype=float)
    eye = np.eye(len(f))
    out = [f]
    for k in range(n_steps):
        t = k * dt
        l0, l_mid, l1 = field(t), field(t + 0.5 * dt), field(t + dt)
        k2 = l_mid @ (eye + 0.5 * dt * l0)
        k3 = l_mid @ (eye + 0.5 * dt * k2)
        k4 = l1 @ (eye + dt * k3)
        m = eye + (dt / 6.0) * (l0 + 2.0 * k2 + 2.0 * k3 + k4)
        f = m @ f
        out.append(f)
    return out


def _rk4_stage_form(field, f0, n_steps, dt):
    """F at every step by the plain RK4 stage formula, one field call per stage."""
    f = np.array(f0, dtype=float)
    out = [f]
    for k in range(n_steps):
        t = k * dt
        k1 = field(t) @ f
        k2 = field(t + 0.5 * dt) @ (f + 0.5 * dt * k1)
        k3 = field(t + 0.5 * dt) @ (f + 0.5 * dt * k2)
        k4 = field(t + dt) @ (f + dt * k3)
        f = f + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(f)
    return out


_FIELDS = {
    "simple_shear": lambda dim: ki.simple_shear(1.0, dim),
    "pure_stretch": lambda dim: ki.pure_stretch(np.linspace(0.3, -0.3, dim)),
    "rigid_rotation": lambda dim: ki.rigid_rotation(0.9, dim),
    "polynomial_3": lambda dim: ki.polynomial_motion(3, dim),
    "polynomial_13": lambda dim: ki.polynomial_motion(13, dim),
}


@pytest.mark.parametrize("dim", [2, 3, 5])
@pytest.mark.parametrize("motion", sorted(_FIELDS))
def test_integrate_samples_match_single_matrix_functions(motion, dim):
    # every recorded field, bit for bit, from the public one-matrix functions
    field = _FIELDS[motion](dim)
    dt, every = 1e-2, 2
    samples = ki.integrate_motion(field, np.eye(dim), 0.5, dt, record_every=every)
    fs = _rk4_reference(field, np.eye(dim), 50, dt)[::every]
    assert len(samples) == len(fs) == 26
    bs = [f @ f.T for f in fs]
    bs = [0.5 * (b + b.T) for b in bs]
    for i, (s, f, b) in enumerate(zip(samples, fs, bs)):
        dec = eigendecompose_symmetric(b)
        l = field(s.t)
        d = 0.5 * (l + l.T)
        w = 0.5 * (l - l.T)
        h = ki.hencky(b)
        omega = ki.log_spin_commutator(b, d, w, decomposition=dec)
        omega_sp = ki.log_spin_spectral(b, d, w, decomposition=dec)
        db_dt = l @ b + b @ l.T
        h_dot = 0.5 * d_log(b, db_dt)
        evol = 0.0
        if 0 < i < len(bs) - 1:
            db_fd = (bs[i + 1] - bs[i - 1]) / (samples[i + 1].t - samples[i - 1].t)
            evol = frobenius_norm(db_fd - db_dt)
        assert s.t == i * every * dt
        for got, want in ((s.f, f), (s.b, b), (s.h, h), (s.d, d), (s.w, w), (s.omega_log, omega)):
            assert np.array_equal(got, want), i
            assert not got.flags.writeable
        assert s.spin_agreement == frobenius_norm(omega - omega_sp)
        assert s.rate_residual == frobenius_norm(h_dot + h @ omega - omega @ h - d)
        assert s.evolution_residual == evol
        assert s.det_f == float(np.linalg.det(f))


@pytest.mark.parametrize("dim", [2, 3, 5])
@pytest.mark.parametrize("motion", sorted(_FIELDS))
def test_integrate_step_matrix_matches_stage_form(motion, dim):
    # M_k F and the stage formula are the same RK4 step, up to rounding
    field = _FIELDS[motion](dim)
    samples = ki.integrate_motion(field, np.eye(dim), 0.5, 1e-2)
    fs = _rk4_stage_form(field, np.eye(dim), 50, 1e-2)
    assert len(samples) == len(fs) == 51
    for s, f in zip(samples, fs):
        assert frobenius_norm(s.f - f) <= 1e-12 * frobenius_norm(f)


@pytest.mark.parametrize("chunk", [1, 7, 16, 1000])
def test_integrate_records_across_step_chunks(chunk, monkeypatch):
    # the stride and the determinant chunks need not align; the step path's
    # products equal the reference's `@` bit for bit, for a constant or a
    # time-dependent L, at d = 1, for an F0 in Fortran order, and at chunk 1,
    # where each step writes into the buffer its F was read from
    monkeypatch.setattr(ki, "_STEP_CHUNK", chunk)
    for motion, dim, order in itertools.product(sorted(_FIELDS), (1, 2, 3, 5), "CF"):
        if dim == 1 and motion in ("simple_shear", "rigid_rotation"):
            continue  # plane motions
        field = _FIELDS[motion](dim)
        f0 = np.asfortranarray(np.eye(dim)) if order == "F" else np.eye(dim)
        samples = ki.integrate_motion(field, f0, 0.5, 1e-2, record_every=3)
        fs = _rk4_reference(field, f0, 50, 1e-2)
        case = (motion, dim, order)
        assert [s.t for s in samples] == [k * 1e-2 for k in range(0, 51, 3)], case
        for s, f in zip(samples, fs[::3]):
            assert s.f.tobytes() == f.tobytes(), case
            assert np.float64(s.det_f).tobytes() == np.linalg.det(f).tobytes(), case
    with pytest.raises(ki.IntegrationAbort) as ei:
        ki.integrate_motion(ki.pure_stretch((-160.0, 0.0)), np.eye(2), 6.0, 1e-2)
    assert (ei.value.step, ei.value.det_f) == (570, 0.0)


def test_step_chunk_stays_under_a_sixteenth_of_the_record_bound(monkeypatch):
    # at d = 200 a chunk of 1000 F's would be 320 MB; 100 steps are 32 MB
    bound, sizes = ki.MAX_RECORD_BYTES >> 4, []
    det = np.linalg.det

    def spy(a):
        sizes.append(a.nbytes)
        return det(a)

    monkeypatch.setattr(np.linalg, "det", spy)
    samples = ki.integrate_motion(ki.simple_shear(1.0, dim=200), np.eye(200), 0.1, 1e-3, 1000)
    assert len(samples) == 1
    assert sizes[1:] == [52 * 320_000, 48 * 320_000]  # after det F0: 100 steps, 52 a chunk
    assert max(sizes) <= bound


def _overflow_warnings() -> list:
    with pytest.warns(RuntimeWarning) as record:
        with pytest.raises(matcore.MatrixValidationError):
            ki.integrate_motion(ki.pure_stretch((1000.0,)), np.eye(1), 20.0, 1e-2)
    return [str(w.message) for w in record]


def test_step_chunks_leave_the_default_shear_unchanged(monkeypatch):
    # one det per step, whatever the chunk: the samples of 7-step chunks are
    # bit-identical, and an overflow is reported at the same step
    want = ki.integrate_motion(ki.simple_shear(1.0), np.eye(3), 1.0, 1e-3)
    warned = _overflow_warnings()
    monkeypatch.setattr(ki, "_STEP_CHUNK", 7)
    got = ki.integrate_motion(ki.simple_shear(1.0), np.eye(3), 1.0, 1e-3)
    assert len(got) == len(want) == 1001
    for g, w in zip(got, want):
        for field in dataclasses.fields(w):
            value = np.asarray(getattr(w, field.name))
            assert np.asarray(getattr(g, field.name)).tobytes() == value.tobytes(), field.name
    assert _overflow_warnings() == warned


def test_constant_fields_declare_their_gradient():
    for make in _FIELDS.values():
        field = make(3)
        if field.constant is not None:
            assert field.constant is field(0.0) is field(1.7)
            assert not field.constant.flags.writeable
    assert ki.polynomial_motion(3).constant is None
    assert ki.VelocityGradientField("zero", 3, lambda t: np.zeros((3, 3))).constant is None
    # a caller cannot declare a constant that disagrees with eval
    with pytest.raises(TypeError):
        ki.VelocityGradientField("zero", 3, lambda t: np.zeros((3, 3)), np.eye(3))
    with pytest.raises(TypeError):
        ki.VelocityGradientField("zero", 3, lambda t: np.zeros((3, 3)), constant=np.eye(3))


def test_integrate_field_returning_nested_lists():
    # a field may return any array-like, as the stage form allowed
    field = ki.polynomial_motion(3, 3)
    listed = ki.VelocityGradientField("listed", 3, lambda t: field(t).tolist())
    got = ki.integrate_motion(listed, np.eye(3), 0.2, 1e-2, record_every=5)
    want = ki.integrate_motion(field, np.eye(3), 0.2, 1e-2, record_every=5)
    for a, b in zip(got, want):
        assert np.array_equal(a.f, b.f) and np.array_equal(a.d, b.d)


@pytest.mark.parametrize("make", [ki.simple_shear, ki.rigid_rotation])
def test_plane_motions_need_two_dimensions(make):
    with pytest.raises(ValueError):
        make(1.0, dim=1)
    assert make(1.0, dim=2).dim == 2


@pytest.mark.parametrize("make", [
    lambda dim: ki.simple_shear(1.0, dim=dim),
    lambda dim: ki.rigid_rotation(1.0, dim=dim),
    lambda dim: ki.polynomial_motion(3, dim=dim),
], ids=["simple_shear", "rigid_rotation", "polynomial_motion"])
def test_field_dimension_is_bounded_before_any_allocation(make):
    # without the bound numpy refuses a 10^9-by-10^9 array at once: no memory is touched
    for dim in (10**9, ki.MAX_DIM + 1):
        with pytest.raises(ValueError, match=f"MAX_DIM = {ki.MAX_DIM}, got {dim}"):
            make(dim)
    with pytest.raises(ValueError):
        make(0)


def test_pure_stretch_rate_count_is_bounded_before_any_allocation():
    # one rate per dimension: np.diag would build the MAX_DIM + 1 square field
    with pytest.raises(ValueError, match=f"MAX_DIM = {ki.MAX_DIM} rates, got {ki.MAX_DIM + 1}"):
        ki.pure_stretch([0.0] * (ki.MAX_DIM + 1))
    with pytest.raises(ValueError, match="got 0"):
        ki.pure_stretch([])
    assert ki.pure_stretch([0.0] * ki.MAX_DIM).dim == ki.MAX_DIM


def test_integrate_raises_not_spd_from_stack():
    # F0 = diag(1, 1, 1e-200) has det > 0, but its B underflows to a zero eigenvalue
    with pytest.raises(NotSpdError) as ei:
        ki.integrate_motion(ki.simple_shear(1.0), np.diag([1.0, 1.0, 1e-200]), 0.1, 1e-2)
    assert ei.value.smallest_eigenvalue == 0.0


def test_integrate_raises_eigen_convergence_from_stack(monkeypatch):
    # one sweep settles B = I at t = 0 but not the sheared B after it
    monkeypatch.setattr(matcore, "DEFAULT_MAX_SWEEPS", 1)
    with pytest.raises(EigenConvergenceError) as ei:
        ki.integrate_motion(ki.polynomial_motion(3), np.eye(3), 0.1, 1e-2)
    assert ei.value.sweeps == 1


def test_integrate_validates_inputs():
    field = ki.simple_shear(1.0)
    with pytest.raises(ValueError):
        ki.integrate_motion(field, np.eye(3), 1.0, -1e-3)
    with pytest.raises(ValueError):
        ki.integrate_motion(field, np.diag([1.0, 1.0, -1.0]), 1.0, 1e-3)
    with pytest.raises(ValueError):
        ki.integrate_motion(field, np.eye(3), 1.0, 1e-3, record_every=0)


@pytest.mark.parametrize("t_end, dt", [
    (-1.0, 1e-3), (math.inf, 1e-3), (math.nan, 1e-3), (1e-3 * (ki.MAX_STEPS + 1), 1e-3),
    (1.0, 0.0), (1.0, math.inf), (1.0, math.nan), (1.0, 1e-300),
])
def test_integrate_bounds_the_step_count(t_end, dt):
    with pytest.raises(ValueError):
        ki.integrate_motion(ki.simple_shear(1.0), np.eye(3), t_end, dt)


def test_integrate_bounds_the_recorded_samples(monkeypatch):
    # 10**6 + 1 samples would take over 2 GB at d = 3; a stride brings them under
    with pytest.raises(ValueError, match="MB, above the bound"):
        ki.integrate_motion(ki.simple_shear(1.0), np.eye(3), 1000.0, 1e-3)
    assert ki._step_count(1000.0, 1e-3, 1000, 3) == 10**6
    # six samples at d = 2 fit exactly in the bound, eleven do not
    monkeypatch.setattr(ki, "MAX_RECORD_BYTES", 6 * (136 * 4 + 1200))
    assert len(ki.integrate_motion(ki.simple_shear(1.0, 2), np.eye(2), 2.5, 1e-3, 499)) == 6
    with pytest.raises(ValueError):
        ki.integrate_motion(ki.simple_shear(1.0, 2), np.eye(2), 2.5, 1e-3, record_every=250)


@pytest.mark.parametrize("field", [
    ki.VelocityGradientField("blowup", 1, lambda t: np.array([[1000.0]])),
    ki.pure_stretch((1000.0,)),
])
def test_integrate_warns_once_where_f_overflows(field):
    # no abort, since det F = inf > 0; the step where F overflows is reported
    # once, not again in the later chunk of steps
    m = float(ki._rk4_matrix(*[np.array([[1000.0]])] * 3, 1e-2)[0, 0])
    f, first = 1.0, 0
    while math.isfinite(f):
        f, first = f * m, first + 1
    with pytest.warns(RuntimeWarning) as record:
        with pytest.raises(matcore.MatrixValidationError):
            ki.integrate_motion(field, np.eye(1), 20.0, 1e-2)
    # the only warning: B = F F^T overflows too, and the eigensolver's gate reports it
    assert [str(w.message) for w in record] == [
        f"overflow in the RK4 step: F is not finite from step {first}"]


def test_integrate_warns_once_where_the_step_matrix_overflows():
    # M itself is not finite; numpy's overflow in building it stays silent
    with pytest.warns(RuntimeWarning) as record:
        with pytest.raises(matcore.MatrixValidationError):
            ki.integrate_motion(ki.pure_stretch((1e300,)), np.eye(1), 0.002, 1e-3)
    assert [str(w.message) for w in record] == [
        "overflow in the RK4 step: F is not finite from step 1"]


def test_integrate_runs_at_the_step_bound(monkeypatch):
    monkeypatch.setattr(ki, "MAX_STEPS", 2500)
    samples = ki.integrate_motion(ki.simple_shear(1.0, 2), np.eye(2), 2.5, 1e-3, record_every=500)
    assert [s.t for s in samples] == [k * 500 * 1e-3 for k in range(6)]
    with pytest.raises(ValueError):
        ki.integrate_motion(ki.simple_shear(1.0, 2), np.eye(2), 2.501, 1e-3)


def test_integrate_aborts_on_orientation_loss():
    # a sustained contraction underflows one axis of F to exact zero, which
    # the positivity check must catch and report with a step index
    field = ki.VelocityGradientField("collapse", 2, lambda t: np.diag([-160.0, 0.0]))
    with pytest.raises(ki.IntegrationAbort) as ei:
        ki.integrate_motion(field, np.eye(2), 6.0, 1e-2)
    assert ei.value.step >= 1
    assert ei.value.det_f <= 0.0


@pytest.mark.parametrize("field", [
    ki.VelocityGradientField("collapse", 2, lambda t: np.diag([-160.0, 0.0])),
    ki.pure_stretch((-160.0, 0.0)),
])
def test_integrate_abort_step_and_det_pinned(field):
    # F[0, 0] = m**k with m ~ 0.27 underflows to exact zero at step 570, in
    # mid-chunk; the abort reports that step, not the chunk's end
    with pytest.raises(ki.IntegrationAbort) as ei:
        ki.integrate_motion(field, np.eye(2), 6.0, 1e-2)
    assert ei.value.step == 570
    assert ei.value.det_f == 0.0


def test_integrate_abort_drops_the_steps_after_it():
    # L = -100 at whole t and 0 between: M_k = 1 - 200/6 flips the sign of F
    # at step 1, and the rest of the chunk overflows without a warning
    field = ki.VelocityGradientField(
        "kick", 1, lambda t: np.array([[-100.0 if t == int(t) else 0.0]])
    )
    with pytest.raises(ki.IntegrationAbort) as ei:
        ki.integrate_motion(field, np.eye(1), 500.0, 1.0)
    assert ei.value.step == 1
    assert ei.value.det_f == np.linalg.det([[1.0 + (1.0 / 6.0) * (-200.0)]])


def test_rk4_order_in_dt():
    # global error of F at t=1 drops ~16x when dt is halved
    field = ki.polynomial_motion(11)
    ref = ki.integrate_motion(field, np.eye(3), 1.0, 1e-4, record_every=10000)[-1].f
    err = []
    for dt in (2e-2, 1e-2):
        f_end = ki.integrate_motion(field, np.eye(3), 1.0, dt, record_every=int(1.0 / dt))[-1].f
        err.append(frobenius_norm(f_end - ref))
    ratio = err[0] / err[1]
    assert 10.0 <= ratio <= 22.0


# ---------------------------------------------------------------------------
# the rate identity along trajectories


def test_rate_identity_zero_motion():
    field = ki.VelocityGradientField("zero", 3, lambda t: np.zeros((3, 3)))
    samples = ki.integrate_motion(field, np.eye(3), 0.1, 1e-2)
    _, res = ki.corotational_rate_residuals(samples, "analytic")
    assert np.max(res) == 0.0


def test_rate_identity_simple_shear_analytic():
    samples = ki.integrate_motion(ki.simple_shear(1.0), np.eye(3), 1.0, 1e-3)
    _, res = ki.corotational_rate_residuals(samples, "analytic")
    assert np.max(res) <= 1e-8


@pytest.mark.parametrize(
    "field",
    [
        ki.simple_shear(1.0),
        ki.pure_stretch((0.3, -0.2, 0.1)),
        ki.rigid_rotation(0.8),
        ki.polynomial_motion(21),
    ],
    ids=lambda f: f.descriptor,
)
def test_rate_identity_across_motions(field):
    samples = ki.integrate_motion(field, np.eye(3), 2.0, 1e-3, record_every=50)
    _, res = ki.corotational_rate_residuals(samples, "analytic")
    assert np.max(res) <= 1e-8


def test_rate_identity_fd_second_order():
    s_coarse = ki.integrate_motion(ki.simple_shear(1.0), np.eye(3), 1.0, 1e-3, record_every=20)
    s_fine = ki.integrate_motion(ki.simple_shear(1.0), np.eye(3), 1.0, 1e-3, record_every=10)
    _, r_coarse = ki.corotational_rate_residuals(s_coarse, "finite_difference")
    _, r_fine = ki.corotational_rate_residuals(s_fine, "finite_difference")
    ratio = np.max(r_coarse) / np.max(r_fine)
    assert 3.2 <= ratio <= 4.8


def test_evolution_residual_second_order():
    # needs a motion whose B has a nonzero third time derivative
    field = ki.pure_stretch((0.3, -0.3, 0.0))
    s_coarse = ki.integrate_motion(field, np.eye(3), 1.0, 1e-3, record_every=20)
    s_fine = ki.integrate_motion(field, np.eye(3), 1.0, 1e-3, record_every=10)
    e_coarse = max(s.evolution_residual for s in s_coarse)
    e_fine = max(s.evolution_residual for s in s_fine)
    assert 3.2 <= e_coarse / e_fine <= 4.8


def test_rate_residuals_need_three_samples():
    samples = ki.integrate_motion(ki.simple_shear(1.0), np.eye(3), 0.01, 1e-2)
    with pytest.raises(ValueError):
        ki.corotational_rate_residuals(samples, "finite_difference")
    samples = ki.integrate_motion(ki.simple_shear(1.0), np.eye(3), 0.03, 1e-2)
    with pytest.raises(ValueError, match="unknown h_dot_method"):
        ki.corotational_rate_residuals(samples, "bogus")


def test_motion_sample_invariants():
    samples = ki.integrate_motion(ki.polynomial_motion(33), np.eye(3), 0.5, 1e-3, record_every=100)
    for s in samples:
        assert s.det_f > 0
        assert frobenius_norm(s.b - s.f @ s.f.T) <= 1e-12 * (1.0 + frobenius_norm(s.b))
        assert frobenius_norm(s.d - s.d.T) == 0.0
        assert frobenius_norm(s.w + s.w.T) == 0.0
    assert samples[0].evolution_residual == 0.0
    assert samples[-1].evolution_residual == 0.0


def test_field_determinism():
    f1 = ki.polynomial_motion(77)
    f2 = ki.polynomial_motion(77)
    for t in (0.0, 0.3, 1.7):
        np.testing.assert_array_equal(f1(t), f2(t))


def test_integrate_motion_rejects_f0_of_another_dimension():
    # the field's L is 3 x 3; checked before any step, not deep in a matmul
    with pytest.raises(DimensionMismatchError):
        ki.integrate_motion(ki.simple_shear(1.0), np.eye(2), 2.5, 1e-3)
    with pytest.raises(DimensionMismatchError):
        ki.integrate_motion(ki.polynomial_motion(3, dim=2), np.eye(3), 0.1, 1e-2)


@pytest.mark.parametrize("field", [ki.pure_stretch((0.3, -0.3, 0.0)), ki.simple_shear(1.0),
                                   ki.polynomial_motion(3)], ids=lambda f: f.descriptor)
def test_evolution_residuals_of_every_second_sample_equal_a_coarser_run(field):
    fine = ki.integrate_motion(field, np.eye(3), 1.0, 1e-3, record_every=10)
    coarse = ki.integrate_motion(field, np.eye(3), 1.0, 1e-3, record_every=20)
    strided = fine[::2]
    assert [s.t for s in strided] == [s.t for s in coarse]
    *_, got = ki._b_rates(field, [s.t for s in strided], np.array([s.b for s in strided]))
    want = [s.evolution_residual for s in coarse]
    assert [r.hex() for r in got] == [r.hex() for r in want]
    assert max(want) > 0.0
