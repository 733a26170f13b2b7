"""Continuum kinematics: deformation trajectories, log strain, spin tensors.

The spin of the logarithmic corotational rate is computed two ways: the
classical eigenprojection sum over the left Cauchy-Green tensor, and the
commutator-kernel form driven by the odd sigma kernel at the log strain.
Both are assembled as one Hadamard mask in the eigenbasis of B and differ
only in the scalar pair weight, so they agree to rounding; the trajectory
integrator records residuals of the defining rate identity along simulated
motions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .calculus import _hadamard, _pair_table, _spd_decomposition, d_log, matfun_spectral
from .matcore import SkewMatrix, _gate, as_array, frobenius_norm, skew_part
from .sampling import make_rng
from .scalarfun import SIGMA

__all__ = [
    "IntegrationAbort",
    "VelocityGradientField",
    "MotionSample",
    "StrainMeasureReport",
    "simple_shear",
    "pure_stretch",
    "rigid_rotation",
    "polynomial_motion",
    "hencky",
    "strain_measure_report",
    "log_spin_spectral",
    "log_spin_commutator",
    "corotational_rate",
    "upper_convected_rate",
    "jaumann_spin",
    "integrate_motion",
    "corotational_rate_residuals",
]


class IntegrationAbort(RuntimeError):
    """The deformation gradient lost positive orientation mid-trajectory."""

    def __init__(self, step: int, det_f: float):
        self.step = int(step)
        self.det_f = float(det_f)
        super().__init__(f"det(F) = {det_f:.6e} <= 0 at step {step}")


# ---------------------------------------------------------------------------
# the eigenprojection spin coefficient
#
# For an eigenvalue pair (b_i, b_j) of the left Cauchy-Green tensor the
# classical spin weight is (1+r)/(1-r) + 2/ln(r) with r = b_i/b_j.  Both
# terms blow up as r -> 1 while their sum stays O(ln r), so near r = 1 the
# weight is evaluated from its own series in u = r - 1 (a plain ln(1+u)
# quotient expansion, independent of the sigma kernel used by the
# commutator form):  c(u) = -1 - 2 Q(u),  Q = (ln(1+u) - u)/(u ln(1+u)).

_SPIN_SERIES_DEGREE = 28
_SPIN_SERIES_SWITCH = 0.25


def _spin_series_coeffs() -> list:
    degree = _SPIN_SERIES_DEGREE
    num = [Fraction((-1) ** (j + 1), j + 2) for j in range(degree + 1)]
    den = [Fraction((-1) ** j, j + 1) for j in range(degree + 1)]
    out = [Fraction(0)] * (degree + 1)
    for k in range(degree + 1):
        acc = num[k]
        for j in range(1, k + 1):
            acc -= den[j] * out[k - j]
        out[k] = acc / den[0]
    return [float(c) for c in out]


_SPIN_SERIES = _spin_series_coeffs()


def _pair_coefficient(b_i: float, b_j: float) -> float:
    u = (b_i - b_j) / b_j
    if abs(u) <= _SPIN_SERIES_SWITCH:
        q = 0.0
        for c in reversed(_SPIN_SERIES):
            q = q * u + c
        return -1.0 - 2.0 * q
    # ln r, not ln(1+u): u rounds to -1 when b_i << b_j.
    r = b_i / b_j
    return (1.0 + r) / (1.0 - r) + 2.0 / math.log(r)


# ---------------------------------------------------------------------------
# strain and spin


def hencky(b, decomposition=None) -> np.ndarray:
    """Logarithmic strain: half the spectral logarithm of B = F F^T."""
    dec = _spd_decomposition(b, decomposition)
    return matfun_spectral(lambda v: 0.5 * math.log(v), b, decomposition=dec)


def _spin(pair_weight, values, dec, d, w) -> np.ndarray:
    """W - skew(Q (T o Q^T D Q) Q^T) with T_ij = pair_weight(v_i, v_j).

    Both weights are odd under swapping the pair, so the mask sends the
    symmetric part of D to a skew matrix; taking the skew part drops the
    rounding-level remainder and makes the spin exactly skew.
    """
    m = _hadamard(dec, _pair_table(pair_weight, values), d)
    return _gate(w, shape=m.shape)[0] - 0.5 * (m - m.T)


def log_spin_spectral(b, d, w, decomposition=None) -> np.ndarray:
    """Spin of the logarithmic rate via the eigenprojection sum.

    W + sum over ordered pairs i != j of c(b_i, b_j) P_i D P_j with the
    classical weight c = (1+r)/(1-r) + 2/ln r, r = b_i/b_j.  Near r = 1 the
    weight comes from its own series in r - 1, whose value at r = 1 is
    exactly zero, so coalescing and repeated eigenvalues need no merging.
    """
    dec = _spd_decomposition(b, decomposition)
    return _spin(lambda x, y: -_pair_coefficient(x, y), dec.eigenvalues, dec, d, w)


def log_spin_commutator(b, d, w, decomposition=None) -> np.ndarray:
    """Spin of the logarithmic rate via the odd sigma kernel at the log strain.

    W minus sigma of the commutator at H = ln(B)/2 applied to D.  No
    eigenvalue bookkeeping is needed: the kernel vanishes at zero, so
    coalescing eigenvalues are benign by construction.
    """
    dec = _spd_decomposition(b, decomposition)
    h_eigs = 0.5 * np.log(dec.eigenvalues)
    return _spin(lambda x, y: SIGMA(x - y), h_eigs, dec, d, w)


def corotational_rate(a, a_dot, omega) -> np.ndarray:
    """Corotational derivative: dA/dt + A Omega - Omega A."""
    aa, ad_, om = _gate(a, a_dot, omega)
    return ad_ + aa @ om - om @ aa


def upper_convected_rate(a, a_dot, l) -> np.ndarray:
    """Upper-convected derivative: dA/dt - L A - A L^T."""
    aa, ad_, ll = _gate(a, a_dot, l)
    return ad_ - ll @ aa - aa @ ll.T


def jaumann_spin(l) -> SkewMatrix:
    """Spin of the Jaumann corotational rate: the skew part of L."""
    return skew_part(l)


# ---------------------------------------------------------------------------
# velocity-gradient fields


@dataclass(frozen=True)
class VelocityGradientField:
    """Time-dependent velocity gradient t -> L(t), deterministic per descriptor."""

    descriptor: str
    dim: int
    eval: Callable[[float], np.ndarray]

    def __call__(self, t: float) -> np.ndarray:
        return self.eval(t)


def simple_shear(kappa: float, dim: int = 3) -> VelocityGradientField:
    """Constant shear: the only nonzero entry of L is L[0,1] = kappa."""
    l = np.zeros((dim, dim))
    l[0, 1] = kappa
    l.setflags(write=False)
    return VelocityGradientField(f"simple_shear(kappa={kappa:g})", dim, lambda t: l)


def pure_stretch(rates) -> VelocityGradientField:
    """Constant diagonal stretching at the given rates."""
    rates = tuple(float(r) for r in rates)
    l = np.diag(rates)
    l.setflags(write=False)
    label = "pure_stretch(rates=" + ",".join(f"{r:g}" for r in rates) + ")"
    return VelocityGradientField(label, len(rates), lambda t: l)


def rigid_rotation(rate: float, dim: int = 3) -> VelocityGradientField:
    """Constant rotation in the (0, 1) coordinate plane at the given rate."""
    l = np.zeros((dim, dim))
    l[0, 1] = -rate
    l[1, 0] = rate
    l.setflags(write=False)
    return VelocityGradientField(f"rigid_rotation(rate={rate:g})", dim, lambda t: l)


def polynomial_motion(
    seed: int, dim: int = 3, degree: int = 2, scale: float = 0.4
) -> VelocityGradientField:
    """L(t) = C_0 + C_1 t + ... with seeded coefficient matrices.

    Draws: degree+1 random dim*dim blocks of uniform(-scale, scale),
    attenuated by 1/(k+1) per power so moderate horizons stay well-posed.
    """
    rng = make_rng(seed)
    coeffs = []
    for k in range(degree + 1):
        c = rng.uniform(-scale, scale, (dim, dim)) / (k + 1)
        c.setflags(write=False)
        coeffs.append(c)
    coeffs = tuple(coeffs)

    def eval_l(t: float) -> np.ndarray:
        out = np.zeros((dim, dim))
        for c in reversed(coeffs):
            out = out * t + c
        return out

    return VelocityGradientField(
        f"polynomial(seed={seed},degree={degree},scale={scale:g})", dim, eval_l
    )


# ---------------------------------------------------------------------------
# trajectories


@dataclass(frozen=True)
class MotionSample:
    """One recorded time point of a simulated deformation.

    ``rate_residual`` is the defect of the corotational rate identity for
    the log strain (analytic strain rate); ``evolution_residual`` is the
    centered-difference defect of the B evolution equation, zero at the
    trajectory endpoints where no centered stencil exists.
    """

    t: float
    f: np.ndarray
    b: np.ndarray
    h: np.ndarray
    d: np.ndarray
    w: np.ndarray
    omega_log: np.ndarray
    spin_agreement: float
    rate_residual: float
    evolution_residual: float
    det_f: float


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr)
    arr.setflags(write=False)
    return arr


def integrate_motion(
    field: VelocityGradientField,
    f0,
    t_end: float,
    dt: float,
    record_every: int = 1,
) -> list:
    """Integrate dF/dt = L(t) F by classical fourth-order Runge-Kutta.

    Records a MotionSample every ``record_every`` steps (step 0 included);
    the final step is recorded only when it falls on the stride, keeping
    the recorded time grid uniform.  Aborts if det(F) stops being positive.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if record_every < 1:
        raise ValueError("record_every must be at least 1")
    f = np.array(as_array(f0), dtype=float)
    if float(np.linalg.det(f)) <= 0.0:
        raise ValueError("det(F0) must be positive")
    n_steps = int(round(t_end / dt))

    recorded = []  # (step, t, F)
    if 0 % record_every == 0:
        recorded.append((0, 0.0, f.copy()))
    for k in range(n_steps):
        t = k * dt
        k1 = field(t) @ f
        k2 = field(t + 0.5 * dt) @ (f + 0.5 * dt * k1)
        k3 = field(t + 0.5 * dt) @ (f + 0.5 * dt * k2)
        k4 = field(t + dt) @ (f + dt * k3)
        f = f + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        det_f = float(np.linalg.det(f))
        if det_f <= 0.0:
            raise IntegrationAbort(k + 1, det_f)
        if (k + 1) % record_every == 0:
            recorded.append((k + 1, (k + 1) * dt, f.copy()))

    # Per-sample kinematic quantities.
    raw = []
    for _, t, fk in recorded:
        b = fk @ fk.T
        b = 0.5 * (b + b.T)
        dec = _spd_decomposition(b)
        h = hencky(b, decomposition=dec)
        l = field(t)
        d = 0.5 * (l + l.T)
        w = 0.5 * (l - l.T)
        omega = log_spin_commutator(b, d, w, decomposition=dec)
        omega_sp = log_spin_spectral(b, d, w, decomposition=dec)
        agreement = frobenius_norm(omega - omega_sp)
        db_dt = l @ b + b @ l.T
        h_dot = 0.5 * d_log(b, db_dt, decomposition=dec)
        rate_res = frobenius_norm(corotational_rate(h, h_dot, omega) - d)
        raw.append((t, fk, b, h, d, w, omega, agreement, rate_res, l))

    samples = []
    n = len(raw)
    for i, (t, fk, b, h, d, w, omega, agreement, rate_res, l) in enumerate(raw):
        evol_res = 0.0
        if 0 < i < n - 1:
            t_prev, b_prev = raw[i - 1][0], raw[i - 1][2]
            t_next, b_next = raw[i + 1][0], raw[i + 1][2]
            db_fd = (b_next - b_prev) / (t_next - t_prev)
            evol_res = frobenius_norm(db_fd - (l @ b + b @ l.T))
        samples.append(
            MotionSample(
                t=t,
                f=_freeze(fk),
                b=_freeze(b),
                h=_freeze(h),
                d=_freeze(d),
                w=_freeze(w),
                omega_log=_freeze(omega),
                spin_agreement=agreement,
                rate_residual=rate_res,
                evolution_residual=evol_res,
                det_f=float(np.linalg.det(fk)),
            )
        )
    return samples


def corotational_rate_residuals(samples: list, h_dot_method: str = "analytic"):
    """Defect of (corotational rate of H) = D along a recorded trajectory.

    ``analytic`` differentiates the log strain through the derivative of the
    logarithm with dB/dt taken from the evolution equation; the result is
    independent of how densely the trajectory was sampled.
    ``finite_difference`` differentiates the recorded H values by centered
    differences and is second-order accurate in the sample spacing; the
    first and last samples carry no value.  Returns (times, residuals).
    """
    if len(samples) < 3:
        raise ValueError("need at least 3 samples")
    if h_dot_method == "analytic":
        times = np.array([s.t for s in samples])
        residuals = np.array([s.rate_residual for s in samples])
        return times, residuals
    if h_dot_method != "finite_difference":
        raise ValueError(f"unknown h_dot_method {h_dot_method!r}")
    times = []
    residuals = []
    for i in range(1, len(samples) - 1):
        s = samples[i]
        h_dot = (samples[i + 1].h - samples[i - 1].h) / (samples[i + 1].t - samples[i - 1].t)
        res = frobenius_norm(corotational_rate(s.h, h_dot, s.omega_log) - s.d)
        times.append(s.t)
        residuals.append(res)
    return np.array(times), np.array(residuals)


# ---------------------------------------------------------------------------
# genuine-strain-measure conditions


@dataclass(frozen=True)
class StrainMeasureReport:
    """Residuals of the two defining conditions of a genuine strain measure."""

    identity_residual: float
    max_derivative_residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return (
            self.identity_residual <= self.tolerance
            and self.max_derivative_residual <= self.tolerance
        )


def strain_measure_report(
    tolerance: float = 1e-6, trials: int = 20, seed: int = 0, h: float = 1e-5, dim: int = 3
) -> StrainMeasureReport:
    """Check that the log strain vanishes at B = I with derivative X/2 there.

    The derivative condition is tested by a centered difference of the
    strain map at the identity along ``trials`` random symmetric directions.
    """
    ident = np.eye(dim)
    identity_residual = frobenius_norm(hencky(ident))
    rng = make_rng(seed)
    worst = 0.0
    for _ in range(trials):
        x = rng.uniform(-1.0, 1.0, (dim, dim))
        x = 0.5 * (x + x.T)
        fd = (hencky(ident + h * x) - hencky(ident - h * x)) / (2.0 * h)
        worst = max(worst, frobenius_norm(fd - 0.5 * x))
    return StrainMeasureReport(identity_residual, worst, tolerance)
