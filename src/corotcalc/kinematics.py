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

import dataclasses
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .calculus import _d_log, _difference_table, _each_pair, _matfun
from .matcore import (
    _eigendecompose_stack,
    _gate,
    _hadamard,
    _norms,
    _require_spd,
    eigendecompose_symmetric,
)
from .sampling import make_rng
from .scalarfun import SIGMA, KernelDomainError, _div, _log, _log1p_series, _takes_arrays

__all__ = [
    "IntegrationAbort",
    "VelocityGradientField",
    "MotionSample",
    "simple_shear",
    "pure_stretch",
    "rigid_rotation",
    "polynomial_motion",
    "hencky",
    "log_spin_spectral",
    "log_spin_commutator",
    "MAX_STEPS",
    "MAX_RECORD_BYTES",
    "MAX_DIM",
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
# the eigenprojection spin weight
#
# For an eigenvalue pair (b_i, b_j) of the left Cauchy-Green tensor the spin
# table holds -c, c = (1+r)/(1-r) + 2/ln(r) the classical weight, r = b_i/b_j.
# Both terms blow up as r -> 1 while their sum stays O(ln r), so near r = 1
# -c is evaluated from its own series in u = r - 1 (a plain ln(1+u) quotient
# expansion, independent of the sigma kernel used by the commutator form):
# -c(u) = 1 + 2 Q(u),  Q = (ln(1+u) - u)/(u ln(1+u)).

_SPIN_SERIES_DEGREE = 28
_SPIN_SERIES_SWITCH = 0.25
# Q(u) as (ln(1+u) - u)/u^2 over ln(1+u)/u: the ln(1+u) series shifted two and one powers
_LOG1P = _log1p_series(_SPIN_SERIES_DEGREE + 2)
_SPIN_SERIES = [float(c) for c in _div(_LOG1P[2:], _LOG1P[1:])]


def _spin_series(u):
    """1 + 2 Q(u) by Horner's rule, at a float or at each entry of an array."""
    q = 0.0
    for c in reversed(_SPIN_SERIES):
        q = q * u + c
    return 1.0 + 2.0 * q


def _pair_weight(b_i: float, b_j: float) -> float:
    u = (b_i - b_j) / b_j
    if abs(u) <= _SPIN_SERIES_SWITCH:
        return _spin_series(u)
    # ln r, not ln(1+u): u rounds to -1 when b_i << b_j.
    r = b_i / b_j
    return (1.0 + r) / (r - 1.0) - 2.0 / math.log(r)


def _pair_weights(b_i: np.ndarray, b_j: np.ndarray) -> np.ndarray:
    """``_pair_weight`` at each pair of entries of two arrays, to the bit."""
    u = (b_i - b_j) / b_j
    near = np.abs(u) <= _SPIN_SERIES_SWITCH
    out = np.empty(u.shape)
    out[near] = _spin_series(u[near])
    r = (b_i / b_j)[~near]
    out[~near] = (1.0 + r) / (r - 1.0) - 2.0 / _log(r)
    return out


# ---------------------------------------------------------------------------
# strain and spin


@_takes_arrays
def _half_log(v: float) -> float:
    return 0.5 * _log(v)


def hencky(b) -> np.ndarray:
    """Logarithmic strain: half the spectral logarithm of B = F F^T."""
    return _matfun(_half_log, _require_spd(eigendecompose_symmetric(b)))


def _spin(dec, d, w, commutator: bool) -> np.ndarray:
    """W - skew(Q (T o Q^T D Q) Q^T) in the eigenbasis of B, unchecked; stacks take stacks.

    T_ij is sigma(h_i - h_j) at the log strain eigenvalues h = ln(b)/2 with
    ``commutator``, else minus the classical weight c(b_i, b_j).  Both
    weights are odd under swapping the pair, so the mask sends the
    symmetric part of D to a skew matrix; taking the skew part drops the
    rounding-level remainder and makes the spin exactly skew.
    """
    if commutator:
        table = _difference_table(SIGMA, 0.5 * np.log(dec.eigenvalues))
    else:
        table = _each_pair(_pair_weight, _pair_weights, dec.eigenvalues)
    m = _hadamard(dec, table, d)
    return w - 0.5 * (m - m.swapaxes(-1, -2))


def log_spin_spectral(b, d, w, decomposition=None) -> np.ndarray:
    """Spin of the logarithmic rate via the eigenprojection sum.

    W + sum over ordered pairs i != j of c(b_i, b_j) P_i D P_j with the
    classical weight c = (1+r)/(1-r) + 2/ln r, r = b_i/b_j.  Near r = 1 the
    weight comes from its own series in r - 1, whose value at r = 1 is
    exactly zero, so coalescing and repeated eigenvalues need no merging.
    A given ``decomposition`` is trusted as that of B (``SpdMatrix`` holds one).
    """
    dec = _require_spd(eigendecompose_symmetric(b) if decomposition is None else decomposition)
    return _spin(dec, *_gate(d, w, shape=dec.q.shape), commutator=False)


def log_spin_commutator(b, d, w, decomposition=None) -> np.ndarray:
    """Spin of the logarithmic rate via the odd sigma kernel at the log strain.

    W minus sigma of the commutator at H = ln(B)/2 applied to D.  No
    eigenvalue bookkeeping is needed: the kernel vanishes at zero, so
    coalescing eigenvalues are benign by construction.  A given
    ``decomposition`` is trusted as that of B, as in ``log_spin_spectral``.
    """
    dec = _require_spd(eigendecompose_symmetric(b) if decomposition is None else decomposition)
    return _spin(dec, *_gate(d, w, shape=dec.q.shape), commutator=True)


def _corotational(a, a_dot, omega) -> np.ndarray:
    """Corotational derivative: dA/dt + A Omega - Omega A."""
    return a_dot + a @ omega - omega @ a


# ---------------------------------------------------------------------------
# velocity-gradient fields


@dataclass(frozen=True)
class VelocityGradientField:
    """Time-dependent velocity gradient t -> L(t), deterministic per descriptor.

    ``constant`` is the L of a time-independent field (the read-only matrix
    every call returns), or None; ``integrate_motion`` then builds its step
    matrix once and repeats L for its recorded times.  Only ``simple_shear``,
    ``pure_stretch`` and ``rigid_rotation`` set it.
    """

    descriptor: str
    dim: int
    eval: Callable[[float], np.ndarray]
    constant: Optional[np.ndarray] = dataclasses.field(
        default=None, init=False, compare=False, repr=False
    )

    def __call__(self, t: float) -> np.ndarray:
        return self.eval(t)


def _constant_field(descriptor: str, l: np.ndarray) -> VelocityGradientField:
    l.setflags(write=False)
    field = VelocityGradientField(descriptor, len(l), lambda t: l)
    object.__setattr__(field, "constant", l)
    return field


def _plane_gradient(dim: int, motion: str) -> np.ndarray:
    if dim < 2:
        raise ValueError(f"{motion} acts in the (0, 1) plane: dim must be at least 2, got {dim}")
    if dim > MAX_DIM:
        raise ValueError(f"{motion}: dim must be at most MAX_DIM = {MAX_DIM}, got {dim}")
    return np.zeros((dim, dim))


def simple_shear(kappa: float, dim: int = 3) -> VelocityGradientField:
    """Constant shear: the only nonzero entry of L is L[0,1] = kappa."""
    l = _plane_gradient(dim, "simple_shear")
    l[0, 1] = kappa
    return _constant_field(f"simple_shear(kappa={kappa:g})", l)


def pure_stretch(rates) -> VelocityGradientField:
    """Constant diagonal stretching at the given rates, one per dimension."""
    rates = tuple(float(r) for r in rates)
    if not 1 <= len(rates) <= MAX_DIM:
        raise ValueError(f"pure_stretch: from 1 to MAX_DIM = {MAX_DIM} rates, got {len(rates)}")
    label = "pure_stretch(rates=" + ",".join(f"{r:g}" for r in rates) + ")"
    return _constant_field(label, np.diag(rates))


def rigid_rotation(rate: float, dim: int = 3) -> VelocityGradientField:
    """Constant rotation in the (0, 1) coordinate plane at the given rate."""
    l = _plane_gradient(dim, "rigid_rotation")
    l[0, 1] = -rate
    l[1, 0] = rate
    return _constant_field(f"rigid_rotation(rate={rate:g})", l)


def polynomial_motion(seed: int, dim: int = 3) -> VelocityGradientField:
    """L(t) = C_0 + C_1 t + C_2 t^2 with seeded coefficient matrices.

    Draws: three random dim*dim blocks of uniform(-0.4, 0.4), attenuated by
    1/(k+1) per power so moderate horizons stay well-posed.
    """
    if not 1 <= dim <= MAX_DIM:
        raise ValueError(f"polynomial_motion: dim must be from 1 to MAX_DIM = {MAX_DIM}, got {dim}")
    rng = make_rng(seed)
    coeffs = []
    for k in range(3):
        c = rng.uniform(-0.4, 0.4, (dim, dim)) / (k + 1)
        c.setflags(write=False)
        coeffs.append(c)
    coeffs = tuple(coeffs)

    def eval_l(t: float) -> np.ndarray:
        out = np.zeros((dim, dim))
        for c in reversed(coeffs):
            out = out * t + c
        return out

    return VelocityGradientField(f"polynomial(seed={seed},degree=2,scale=0.4)", dim, eval_l)


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


# Steps of one trajectory, at most: 6.3 s for simple shear and 3.6 min for
# polynomial_motion at d = 3 (0.63 and 21.5 us CPU per step, 2-core Xeon).
MAX_STEPS = 10**7
# Peak memory of the recorded samples, at most, estimated as 136 d^2 + 1200
# bytes a sample (about 17 (d, d) float stacks and 1.2 KB of integrate_motion's
# objects, which _trajectory's callers skip; peak RSS measured 1.3, 2.2 and
# 36 KB a sample at d = 1, 3 and 16).
MAX_RECORD_BYTES = 2**28
# The largest d whose one sample fits in MAX_RECORD_BYTES: 1404.
MAX_DIM = math.isqrt((MAX_RECORD_BYTES - 1200) // 136)
# Steps whose F are kept at once, to check det F > 0 as one stack; fewer above d = 45.
_STEP_CHUNK = 1000


def _step_count(t_end: float, dt: float, record_every: int, dim: int) -> int:
    """round(t_end / dt), or ValueError for a bad time grid or one over a bound."""
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if not 0.0 <= t_end < math.inf:
        raise ValueError(f"t_end must be non-negative and finite, got {t_end!r}")
    if record_every < 1:
        raise ValueError("record_every must be at least 1")
    steps = round(min(t_end / dt, MAX_STEPS + 1))  # t_end / dt may be inf
    if steps > MAX_STEPS:
        raise ValueError(f"t_end / dt = {t_end / dt:.6g} steps, above the bound of {MAX_STEPS}")
    n_samples = steps // record_every + 1
    size = n_samples * (136 * dim * dim + 1200)
    if size > MAX_RECORD_BYTES:
        raise ValueError(
            f"{n_samples} recorded samples at dim {dim} need about {size >> 20} MB, "
            f"above the bound of {MAX_RECORD_BYTES >> 20} MB; raise record_every"
        )
    return steps


def _rk4_matrix(l0, l_mid, l1, h: float) -> np.ndarray:
    """The classical RK4 step F -> M F of dF/dt = L(t) F over [t, t + h].

    L at t, t + h/2 and t + h; the stages K_i F are those of the plain
    stage formula, so M = I + (h/6)(L_0 + 2 K_2 + 2 K_3 + K_4).
    """
    l0, l_mid, l1 = np.asarray(l0), np.asarray(l_mid), np.asarray(l1)
    eye = np.eye(len(l0))
    k2 = l_mid.dot(eye + 0.5 * h * l0)
    k3 = l_mid.dot(eye + 0.5 * h * k2)
    k4 = l1.dot(eye + h * k3)
    return eye + (h / 6.0) * (l0 + 2.0 * k2 + 2.0 * k3 + k4)


def _b_rates(field: VelocityGradientField, times: list, b: np.ndarray) -> tuple:
    """L at each time, dB/dt = L B + B L^T, and each sample's ``evolution_residual``
    (the defect of B's centered difference, 0.0 at the ends).  Every k-th sample of
    a run gives, to the bit, the residuals of a run recording k times as sparsely."""
    l_all = (np.array([field(t) for t in times]) if field.constant is None
             else np.repeat(field.constant[None], len(times), axis=0))
    db_dt = l_all @ b + b @ l_all.swapaxes(1, 2)
    evol_res = [0.0] * len(times)
    if len(times) > 2:
        t_all = np.array(times)
        db_fd = (b[2:] - b[:-2]) / (t_all[2:] - t_all[:-2])[:, None, None]
        evol_res[1:-1] = _norms(db_fd - db_dt[1:-1]).tolist()
    return l_all, db_dt, evol_res


def integrate_motion(
    field: VelocityGradientField,
    f0,
    t_end: float,
    dt: float,
    record_every: int = 1,
) -> list:
    """Integrate dF/dt = L(t) F by classical fourth-order Runge-Kutta.

    The equation is linear, so each step is F <- M_k F with the step matrix
    M_k of ``_rk4_matrix``; a field with a ``constant`` L builds it once.
    Records a MotionSample every ``record_every`` steps (step 0 included);
    the final step is recorded only when it falls on the stride, keeping
    the recorded time grid uniform.  Runs at most MAX_STEPS steps and
    records samples of at most about MAX_RECORD_BYTES.  Raises IntegrationAbort at the first step
    whose det(F) is not positive; the determinants are taken per chunk of
    steps, as one stack.
    The recorded samples are post-processed as one stack: one stacked
    eigensolve of B, then the log strain, both spins and the rate residuals,
    each bit-identical to the single-matrix functions.  The arrays of the
    samples are read-only views into those stacks.  An F0 whose shape is not
    the field's raises DimensionMismatchError before any step.
    """
    return [MotionSample(*row) for row in zip(*_trajectory(field, f0, t_end, dt, record_every))]


def _trajectory(field: VelocityGradientField, f0, t_end: float, dt: float,
                record_every: int) -> tuple:
    """``integrate_motion``'s samples as columns, in MotionSample's field order:
    lists of the floats, (n, d, d) stacks of the arrays."""
    f = np.array(_gate(f0, field(0.0))[0], dtype=float)
    n_steps = _step_count(t_end, dt, record_every, len(f))
    det_f = float(np.linalg.det(f))
    if det_f <= 0.0:
        raise ValueError("det(F0) must be positive")

    if field.constant is not None:
        with np.errstate(over="ignore", invalid="ignore"):  # an M that overflows makes F warn below
            ms = itertools.repeat(_rk4_matrix(*[field.constant] * 3, dt))
    times = [k * dt for k in range(0, n_steps + 1, record_every)]
    fs, dets = [f[None]], [det_f]
    steps = min(_STEP_CHUNK, (MAX_RECORD_BYTES >> 4) // f.nbytes)  # 16 MB; >= 1 F at MAX_DIM
    chunk = np.empty((min(n_steps, steps),) + f.shape)
    for start in range(0, n_steps, steps):
        stop = min(start + steps, n_steps)
        block = chunk[: stop - start]
        if field.constant is None:
            ts = [k * dt for k in range(start, stop)]
            with np.errstate(over="ignore", invalid="ignore"):
                ms = [_rk4_matrix(field(t), field(t + 0.5 * dt), field(t + dt), dt) for t in ts]
        # steps past an abort in this block are dropped, so they may not warn;
        # the first kept step whose F overflowed warns below
        finite = np.isfinite(f).all()
        with np.errstate(all="ignore"):
            for m, out in zip(ms, block):
                f = m.dot(f, out)  # np.matmul's dgemm, without the ufunc dispatch
            block_dets = np.linalg.det(block)
        lost = np.flatnonzero(block_dets <= 0.0)
        kept = block[: lost[0] + 1] if lost.size else block
        bad = np.flatnonzero(~np.isfinite(kept).all(axis=(1, 2)))
        if finite and bad.size:
            warnings.warn(f"overflow in the RK4 step: F is not finite from step "
                          f"{start + bad[0] + 1}", RuntimeWarning, stacklevel=3)
        if lost.size:
            raise IntegrationAbort(start + lost[0] + 1, block_dets[lost[0]])
        first = -(start + 1) % record_every  # block[i] is step start + 1 + i
        fs.append(block[first::record_every].copy())
        dets.extend(block_dets[first::record_every].tolist())

    # Per-sample kinematic quantities, as stacks over the recorded samples.
    f_all = np.concatenate(fs)
    with np.errstate(over="ignore", invalid="ignore"):  # the eigensolver's gate reports it
        b = f_all @ f_all.swapaxes(1, 2)
        b = 0.5 * (b + b.swapaxes(1, 2))
    dec = _require_spd(_eigendecompose_stack(b))
    h = _matfun(_half_log, dec)
    l_all, db_dt, evol_res = _b_rates(field, times, b)
    d = 0.5 * (l_all + l_all.swapaxes(1, 2))
    w = 0.5 * (l_all - l_all.swapaxes(1, 2))
    omega = _spin(dec, d, w, commutator=True)
    try:
        agreement = _norms(omega - _spin(dec, d, w, commutator=False)).tolist()
    except KernelDomainError as exc:  # b_i/b_j underflows to 0 or overflows
        raise KernelDomainError(f"the classical spin weight c(b_i, b_j) fails: {exc}") from exc
    h_dot = 0.5 * _d_log(dec, db_dt)
    rate_res = _norms(_corotational(h, h_dot, omega) - d).tolist()

    for stack in (f_all, b, h, d, w, omega):
        stack.setflags(write=False)
    return times, f_all, b, h, d, w, omega, agreement, rate_res, evol_res, dets


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
        return np.array([s.t for s in samples]), np.array([s.rate_residual for s in samples])
    if h_dot_method != "finite_difference":
        raise ValueError(f"unknown h_dot_method {h_dot_method!r}")
    t, h, omega, d = (np.array([getattr(s, k) for s in samples])
                      for k in ("t", "h", "omega_log", "d"))
    h_dot = (h[2:] - h[:-2]) / (t[2:] - t[:-2])[:, None, None]
    return t[1:-1], _norms(_corotational(h[1:-1], h_dot, omega[1:-1]) - d[1:-1])
