"""Named verification suites behind the ``corotcalc verify`` command.

Each suite runs a fixed set of identity checks with seeded random fixtures
and reports one row per identity: a label, the worst observed residual, and
the threshold it must stay under.  Rows are deterministic for a given seed
and trial count.  The suite tokens (lemma1 .. lemma6, theorem1, appendix,
monotonicity) are part of the CLI wire format.

Each suite draws all its trials' inputs first, in the order a loop over the
trials would, solves them as stacks, and takes each row's worst residual
over the stack: bit-identical to the public single-matrix functions trial by
trial.  A NaN residual makes its row NaN, so the row fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import calculus as ca, kinematics as ki, monotonicity as mo
from .matcore import _dots, _eigendecompose_stack, _hadamard, _norms, _require_spd, _spectral
from .matcore import _split_solve, _worst
from .sampling import MAX_TRIALS, _draw_trials, _spd_exp
from .scalarfun import COTH_HALF_X, GAMMA, SIGMA, make_r_kernel, make_sandwich_kernel
from .scalarfun import make_sinh_ratio_kernel, make_sqrt_r_kernel

__all__ = ["VerifyRow", "SUITE_NAMES", "MAX_TRIALS", "run_suite", "run_suites"]

POWER_PAIRS = ((1, 0), (2, 1), (0, -1))

# The suites key their Philox generators seed * 1000 + k with 1 <= k <= KEY_OFFSET,
# the largest k being monotonicity's last bridge check, 80 + 10 * 2 + 2.
KEY_OFFSET = 102


@dataclass(frozen=True)
class VerifyRow:
    label: str
    residual: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.threshold


# ---------------------------------------------------------------------------
# shared by the suites: draw the trials, solve them as stacks, reduce each row
_MAT, _SYM = ("mat", 1.0), ("sym", 1.0)


def _row(label: str, residuals, threshold: float) -> VerifyRow:
    return VerifyRow(label, _worst(residuals), threshold)


def _rel(val, ref, scale=None) -> np.ndarray:
    """||val - ref|| / (1 + ||scale||) per trial; scale defaults to ref."""
    return _norms(val - ref) / (1.0 + _norms(ref if scale is None else scale))


def _diag(dec, vals) -> np.ndarray:
    """Q diag(vals) Q^T of each matrix of a stacked decomposition."""
    return (dec.q * vals[:, None, :]) @ dec.q.swapaxes(1, 2)


def _fd_exp(a, x) -> np.ndarray:
    """Centered difference of the series exponential; independent of the
    spectral route it is used to check."""
    return ca._central(ca._matexp, a, x, 1e-5)


# ---------------------------------------------------------------------------
# suites


def _suite_lemma1(seed: int, trials: int) -> list:
    a, x = _draw_trials(seed * 1000 + 1, trials, _SYM, _MAT)
    a *= (2.0 / np.maximum(1.0, _norms(a) / 0.9))[:, None, None]
    b, y, s = _draw_trials(seed * 1000 + 2, trials, _SYM, _MAT, ("scalar", 1.5))
    s_log, z = _draw_trials(seed * 1000 + 3, trials, _SYM, _MAT)
    dec_a, dec, dec_s = _split_solve([a, b, s_log])
    val = ca._d_exp(dec_a, x)
    rows = [_row("exp derivative vs centered difference (rel)", _rel(val, _fd_exp(a, x)), 1e-6)]

    e_plus = _diag(dec, np.exp(s[:, None] * dec.eigenvalues))
    e_minus = _diag(dec, np.exp(-s[:, None] * dec.eigenvalues))
    val = ca._exp_conjugation(dec, y, s.tolist())
    rows.append(_row("exp conjugation: kernel route vs triple product (rel)",
                     _rel(val, e_plus @ y @ e_minus), 1e-12))

    roundtrip = ca._d_log(_require_spd(_eigendecompose_stack(_spd_exp(dec_s))), ca._d_exp(dec_s, z))
    rows.append(_row("log derivative inverts exp derivative (rel)", _rel(roundtrip, z), 1e-10))

    a, x = _draw_trials(seed * 1000 + 4, trials, _SYM, _MAT)
    k = 1 + np.arange(trials) % 6

    def power(m):
        out = np.empty_like(m)
        for j in range(1, 7):
            out[k == j] = np.linalg.matrix_power(m[k == j], j)
        return out

    lhs = ca._ad(power(a), x)
    fd = ca._central(power, a, ca._ad(a, x), 1e-5)
    rows.append(_row("matrix-power commutator rule vs centered difference (rel)",
                     _rel(fd, lhs), 1e-6))
    return rows


def _spd_exp_pairs(seed: int, trials: int) -> tuple:
    """Per power pair: its draws (S, X), the decomposition of S, A = exp S and the
    decomposition of A, checked SPD; the three pairs' stacks are solved together."""
    draws = [_draw_trials(seed + idx, trials, _SYM, _MAT) for idx in range(len(POWER_PAIRS))]
    decs_s = _split_solve([s_log for s_log, _ in draws])
    exps = [_spd_exp(dec_s) for dec_s in decs_s]
    return tuple(zip(draws, decs_s, exps, map(_require_spd, _split_solve(exps))))


def _suite_lemma2(seed: int, trials: int) -> list:
    rows = []
    pairs = _spd_exp_pairs(seed * 1000 + 10, trials)
    for idx, ((p, s), ((_, y), dec_s, a, dec)) in enumerate(zip(POWER_PAIRS, pairs)):
        sandwiched = _diag(dec, dec.eigenvalues**p) @ y @ _diag(dec, dec.eigenvalues**-s)
        conj = a @ ca._exp_conjugation(dec_s, y, [float(s)] * trials)
        tag = f"(p,s)=({p},{s})"
        rows.append(_row(f"power sandwich equals conjugation route {tag}",
                         _norms(sandwiched - conj), 1e-10))
        args = [sandwiched, ca._ad(a, y), a @ y + y @ a] if idx == 0 else [sandwiched]
        d_sand, *d_rest = ca._d_log(dec, np.stack(args))  # one table for every argument
        if idx == 0:
            comm = _norms(d_rest[0] - ca._ad(ca._matfun(math.log, dec), y))
            anti = _norms(ca._log_eig_apply(COTH_HALF_X, dec, y) - d_rest[1])
            rows.append(_row("log derivative of a commutator argument", comm, 1e-10))
            rows.append(_row("log derivative of an anticommutator argument", anti, 1e-10))
        sand = ca._log_eig_apply(make_sandwich_kernel(float(s)), dec, y)
        rows.append(_row(f"log derivative of a power sandwich {tag}", _norms(sand - d_sand), 1e-10))
    return rows


def _gap(dec, a: np.ndarray, x: np.ndarray) -> tuple:
    """``anticommutator_gap`` of each pair of matrices of two stacks, dec that of a."""
    gap = ca._log_eig_apply(COTH_HALF_X, _require_spd(dec), x) - 2.0 * x
    return _norms(gap), _norms(ca._ad(a, x))


def _suite_lemma3(seed: int, trials: int) -> list:
    s_com, c = _draw_trials(seed * 1000 + 20, trials, _SYM, ("vec", 1.0))
    s_log, x = _draw_trials(seed * 1000 + 21, trials, _SYM, _SYM)
    a_com, a = map(_spd_exp, _split_solve([s_com, s_log]))
    dec_com, dec = _split_solve([a_com, a])
    c = c[:, :, None, None]
    gap, _ = _gap(dec_com, a_com, c[:, 0] * np.eye(3) + c[:, 1] * a_com + c[:, 2] * a_com @ a_com)

    violations = checked = 0
    for g, comm, s_norm in zip(*_gap(dec, a, x), _norms(s_log)):
        if comm >= 1e-2:
            checked += 1
            violations += g < 1e-6 * comm**2 / (1.0 + s_norm**2)
    label = f"curvature lower-bound violations on generic directions ({checked} checked)"
    return [_row("anticommutator rule gap on commuting directions", gap, 1e-9),
            VerifyRow(label, float(violations), 0.5)]


def _suite_lemma4(seed: int, trials: int) -> list:
    forms = ((-1, make_sinh_ratio_kernel, "antisymmetric power pair via sinh"),
             (1, make_r_kernel, "symmetric power pair via cosh"))
    rows = []
    pairs = _spd_exp_pairs(seed * 1000 + 30, trials)
    for (p, s), ((_, x), _, _, dec) in zip(POWER_PAIRS, pairs):
        ap, am = _diag(dec, dec.eigenvalues**p), _diag(dec, dec.eigenvalues**-s)
        tag = f"(p,s)=({p},{s})"
        # sign * v is exactly -v or v; one d_log table for both arguments
        rhs = ca._d_log(dec, np.stack([ap @ x @ am + sign * (am @ x @ ap) for sign, _, _ in forms]))
        for (_, kernel, label), ref in zip(forms, rhs):
            lhs = ca._log_eig_apply(kernel(float(p + s)), dec, x)
            rows.append(_row(f"{label} kernel {tag}", _norms(lhs - ref), 1e-10))
    return rows


def _suite_lemma5(seed: int, trials: int) -> list:
    a, y = _draw_trials(seed * 1000 + 40, trials, _SYM, _MAT)
    poly = np.empty(trials)
    for parity, gen in enumerate((mo.square_generator(), mo.cube_generator())):
        c, aa, yy = gen.poly_coefficients, a[parity::2], y[parity::2]
        lhs = ca._ad(aa, mo._poly_gateaux(c, aa, yy))
        poly[parity::2] = _norms(lhs - mo._poly_gateaux(c, aa, ca._ad(aa, yy)))

    a, y = _draw_trials(seed * 1000 + 41, max(trials // 4, 25), _SYM, _MAT)
    lhs = ca._ad(a, ca._central(ca._matexp, a, y, 1e-5))
    fd = _norms(lhs - ca._central(ca._matexp, a, ca._ad(a, y), 1e-5))
    return [
        _row("derivative commutes with commutator (exact polynomial route)", poly, 1e-12),
        _row("derivative commutes with commutator (exp, centered difference)", fd, 1e-5),
    ]


def _suite_lemma6(seed: int, trials: int) -> list:
    a, x, y = _draw_trials(seed * 1000 + 50, trials, _SYM, _MAT, _MAT)
    dec = _eigendecompose_stack(a)
    table, flipped = np.empty((2, trials, 3, 3))
    for n, f in enumerate((SIGMA, GAMMA, math.exp)):  # trial n takes kernel n % 3
        table[n::3] = ca._difference_table(f, dec.eigenvalues[n::3])
        flipped[n::3] = ca._difference_table(f, -dec.eigenvalues[n::3])
    fx, fy = _hadamard(dec, table, x), _hadamard(dec, table, y)
    fxt = _hadamard(dec, flipped, x.swapaxes(1, 2))
    return [
        _row("transpose rule for commutator kernels", _norms(fx.swapaxes(1, 2) - fxt), 1e-12),
        _row("self-adjointness in the trace inner product",
             np.abs(_dots(fx, y) - _dots(x, fy)), 1e-12),
    ]


def _suite_theorem1(seed: int, trials: int) -> list:
    # random_spd_ratio's draws (exponents, then a frame), then D and W
    u, m, d, w = _draw_trials(seed * 1000 + 60, trials, ("vec", 1.5), _SYM, _SYM, ("skew", 1.0))
    dec = _require_spd(_eigendecompose_stack(_spectral(_eigendecompose_stack(m).q, 10.0**u)))
    o_sp = ki._spin(dec, d, w, commutator=False)
    o_co = ki._spin(dec, d, w, commutator=True)
    rows = [_row("spin representations agree: projection sum vs kernel (rel)",
                 _rel(o_sp, o_co, d), 1e-10)]

    shear = ki.integrate_motion(ki.simple_shear(1.0), np.eye(3), 1.0, 1e-3, record_every=5)
    _, res = ki.corotational_rate_residuals(shear, "analytic")
    rows.append(_row("corotational rate of log strain equals stretching (shear)", res, 1e-8))

    # every 20th and every 10th step: the samples of record_every=20 and 10
    t = np.array(shear.t)
    rc, rf = (ki._fd_rate_residuals(t[::k], shear.h[::k], shear.omega_log[::k], shear.d[::k])
              for k in (4, 2))
    ratio = float(np.max(rc) / np.max(rf))
    rows.append(VerifyRow("strain-rate residual halving order: |ratio - 4|", abs(ratio - 4.0), 0.8))

    # record_every=20's samples are every second one of record_every=10, to the bit
    stretch = ki.pure_stretch((0.3, -0.3, 0.0))
    fine = ki.integrate_motion(stretch, np.eye(3), 1.0, 1e-3, record_every=10)
    *_, coarse_res = ki._b_rates(stretch, fine.t[::2], fine.b[::2])
    e_ratio = max(coarse_res) / max(fine.evolution_residual)
    rows.append(VerifyRow("evolution-equation residual halving order: |ratio - 4|",
                          abs(e_ratio - 4.0), 0.8))
    return rows


def _suite_appendix(seed: int, trials: int) -> list:
    a, x = _draw_trials(seed * 1000 + 70, trials, _MAT, _MAT)
    nested, binom = np.empty_like(x), np.empty_like(x)
    for m in range(9):
        nested[m::9] = ca._ad_power(a[m::9], x[m::9], m)
        binom[m::9] = ca._ad_power_binomial(a[m::9], x[m::9], m)
    rows = [_row("commutator powers match the binomial expansion (m <= 8, rel)",
                 _rel(binom, nested), 1e-12)]

    a, y = _draw_trials(seed * 1000 + 71, trials, ("mat", 0.5), _MAT)
    val = ca._ad_series(ca.exp_series_spec(scale=1.0), a, y).value
    rows.append(_row("exp of commutator equals conjugation (series route, general A, rel)",
                     _rel(val, ca._matexp(a) @ y @ ca._matexp(-a)), 1e-12))

    a, x = _draw_trials(seed * 1000 + 72, trials, ("mat", 0.6), _MAT)
    val = ca._matexp(a) @ ca._ad_series(ca.eta_neg_series_spec(), a, x).value
    rows.append(_row("exp derivative re-check (series route, general A, rel)",
                     _rel(val, _fd_exp(a, x)), 1e-6))
    return rows


def _suite_monotonicity(seed: int, trials: int) -> list:
    """Per generator, its three power pairs' ``equivalence_check``, their S stacks
    solved together.  Not all ten stacks in one solve: faster, but it raised peak
    RSS by about 1 MB (1.42 MB of allocations at 200 trials, 0.42 MB per generator)."""
    rows = []
    gens = (mo.identity_generator(), mo.exponential_generator(), mo.cube_plus_identity_generator())
    disagreements = 0
    for gi, gen in enumerate(gens):
        draws = [mo._bridge_draw(seed * 1000 + 80 + 10 * gi + pi, trials)
                 for pi in range(len(POWER_PAIRS))]
        decs_s = _split_solve([s_mats for s_mats, _ in draws])
        reports = [mo._bridge(gen, p, s, dec_s, x)
                   for (p, s), dec_s, (_, x) in zip(POWER_PAIRS, decs_s, draws)]
        disagreements += sum(rep.trials - rep.sign_agreements for rep in reports)
        rows.append(_row(f"quadratic-form bridge identity [{gen.name}] (rel)",
                         [rep.max_rel_residual for rep in reports], 1e-9))
    rows.append(VerifyRow("sign disagreements between the two forms", float(disagreements), 0.5))

    g, x, xs = _draw_trials(seed * 1000 + 90, trials, _SYM, _MAT, _SYM)
    dec = _eigendecompose_stack(g)
    sqrt_r, r_table = np.empty((2, trials, 3, 3))
    for n, q in enumerate((1.0, 3.0, -1.0)):  # trial n takes q of n % 3
        sqrt_r[n::3] = ca._difference_table(make_sqrt_r_kernel(q), dec.eigenvalues[n::3])
        r_table[n::3] = ca._difference_table(make_r_kernel(q), dec.eigenvalues[n::3])
    once = _hadamard(dec, sqrt_r, x)
    twice = _hadamard(dec, sqrt_r, once)
    direct = _hadamard(dec, r_table, x)
    back = _hadamard(dec, 1.0 / sqrt_r, once)
    out = _hadamard(dec, sqrt_r, xs)
    rows.append(_row("square-root kernel applied twice equals the kernel (rel)",
                     _rel(twice, direct), 1e-12))
    rows.append(_row("square-root kernel inverted by its reciprocal (rel)", _rel(back, x), 1e-12))
    rows.append(_row("square-root kernel preserves symmetry", _norms(out - out.swapaxes(1, 2)),
                     1e-12))
    return rows


_SUITES = {
    "lemma1": _suite_lemma1,
    "lemma2": _suite_lemma2,
    "lemma3": _suite_lemma3,
    "lemma4": _suite_lemma4,
    "lemma5": _suite_lemma5,
    "lemma6": _suite_lemma6,
    "theorem1": _suite_theorem1,
    "appendix": _suite_appendix,
    "monotonicity": _suite_monotonicity,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, seed: int, trials: int) -> list:
    """Run one named suite; returns its rows in a fixed order."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES} or 'all'")
    return _SUITES[name](seed, trials)


def run_suites(names, seed: int, trials: int) -> dict:
    """Run several suites; returns {suite name: rows} preserving suite order."""
    return {name: run_suite(name, seed, trials) for name in names}
