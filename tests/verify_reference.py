"""Per-trial reference for the ``corotcalc verify`` suites.

Each suite below draws and evaluates its trials one at a time through the
public single-matrix API: the same seeds, the same draw order and the same
residual formulas as ``corotcalc.verify``.  ``test_verify.py`` checks that
the stacked suites give rows equal to these, bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from corotcalc import calculus as ca
from corotcalc import kinematics as ki
from corotcalc import monotonicity as mo
from corotcalc.matcore import (
    EigenDecomposition,
    eigendecompose_symmetric,
    frobenius_dot,
    frobenius_norm,
)
from corotcalc.sampling import (
    make_rng,
    random_matrix,
    random_skew,
    random_spd_exp,
    random_spd_ratio,
    random_symmetric,
)
from corotcalc.scalarfun import GAMMA, SIGMA, make_r_kernel, make_sqrt_r_kernel
from corotcalc.verify import POWER_PAIRS, VerifyRow


def _fd_exp(a, x):
    """Centered difference of the series exponential; independent of the
    spectral route it is used to check."""
    return ca.gateaux_fd(ca.matexp_series, a, x)


def _spectral_power(dec, p):
    return (dec.q * dec.eigenvalues**p) @ dec.q.T


def _suite_lemma1(seed: int, trials: int) -> list:
    rows = []

    rng = make_rng(seed * 1000 + 1)
    worst = 0.0
    for _ in range(trials):
        a = random_symmetric(rng, 3)
        a *= 2.0 / max(1.0, frobenius_norm(a) / 0.9)
        x = random_matrix(rng, 3)
        fd = _fd_exp(a, x)
        val = ca.d_exp(a, x)
        worst = max(worst, frobenius_norm(val - fd) / (1.0 + frobenius_norm(fd)))
    rows.append(VerifyRow("exp derivative vs centered difference (rel)", worst, 1e-6))

    rng = make_rng(seed * 1000 + 2)
    worst = 0.0
    for _ in range(trials):
        a = random_symmetric(rng, 3)
        y = random_matrix(rng, 3)
        s = float(rng.uniform(-1.5, 1.5))
        dec = eigendecompose_symmetric(a)
        e_plus = (dec.q * np.exp(s * dec.eigenvalues)) @ dec.q.T
        e_minus = (dec.q * np.exp(-s * dec.eigenvalues)) @ dec.q.T
        direct = e_plus @ y @ e_minus
        val = ca.exp_conjugation(a, y, s)
        worst = max(worst, frobenius_norm(val - direct) / (1.0 + frobenius_norm(direct)))
    rows.append(VerifyRow("exp conjugation: kernel route vs triple product (rel)", worst, 1e-12))

    rng = make_rng(seed * 1000 + 3)
    worst = 0.0
    for _ in range(trials):
        a, s_log = random_spd_exp(rng, 3, scale=1.0)
        x = random_matrix(rng, 3)
        roundtrip = ca.d_log(a, ca.d_exp(s_log, x))
        worst = max(worst, frobenius_norm(roundtrip - x) / (1.0 + frobenius_norm(x)))
    rows.append(VerifyRow("log derivative inverts exp derivative (rel)", worst, 1e-10))

    rng = make_rng(seed * 1000 + 4)
    worst = 0.0
    for n in range(trials):
        k = 1 + (n % 6)
        a = random_symmetric(rng, 3)
        x = random_matrix(rng, 3)
        lhs = ca.ad(np.linalg.matrix_power(a, k), x)
        c = ca.ad(a, x)
        fd = ca.gateaux_fd(lambda m, k=k: np.linalg.matrix_power(m, k), a, c, h=1e-5)
        worst = max(worst, frobenius_norm(lhs - fd) / (1.0 + frobenius_norm(lhs)))
    rows.append(VerifyRow("matrix-power commutator rule vs centered difference (rel)", worst, 1e-6))

    return rows


def _suite_lemma2(seed: int, trials: int) -> list:
    rows = []
    for idx, (p, s) in enumerate(POWER_PAIRS):
        rng = make_rng(seed * 1000 + 10 + idx)
        w_conj = w_comm = w_anti = w_sand = 0.0
        for _ in range(trials):
            a, s_log = random_spd_exp(rng, 3, scale=1.0)
            y = random_matrix(rng, 3)
            dec = eigendecompose_symmetric(a)
            ap = _spectral_power(dec, p)
            am = _spectral_power(dec, -s)
            sandwiched = ap @ y @ am

            conj = a @ ca.exp_conjugation(s_log, y, float(s))
            w_conj = max(w_conj, frobenius_norm(sandwiched - conj))

            if idx == 0:
                w_comm = max(
                    w_comm,
                    frobenius_norm(ca.dlog_commutator_residual(a, y)),
                )
                anti = ca.dlog_anticommutator(a, y)
                w_anti = max(
                    w_anti,
                    frobenius_norm(anti - ca.d_log(a, a @ y + y @ a)),
                )
            sand = ca.dlog_sandwich(a, y, p, s)
            w_sand = max(w_sand, frobenius_norm(sand - ca.d_log(a, sandwiched)))
        tag = f"(p,s)=({p},{s})"
        rows.append(VerifyRow(f"power sandwich equals conjugation route {tag}", w_conj, 1e-10))
        if idx == 0:
            rows.append(VerifyRow("log derivative of a commutator argument", w_comm, 1e-10))
            rows.append(VerifyRow("log derivative of an anticommutator argument", w_anti, 1e-10))
        rows.append(VerifyRow(f"log derivative of a power sandwich {tag}", w_sand, 1e-10))
    return rows


def _suite_lemma3(seed: int, trials: int) -> list:
    rng = make_rng(seed * 1000 + 20)
    worst_commuting = 0.0
    for _ in range(trials):
        a, _ = random_spd_exp(rng, 3, scale=1.0)
        c = rng.uniform(-1.0, 1.0, 3)
        x = c[0] * np.eye(3) + c[1] * a + c[2] * a @ a
        gap, _ = ca.anticommutator_gap(a, x)
        worst_commuting = max(worst_commuting, gap)

    rng = make_rng(seed * 1000 + 21)
    violations = 0
    checked = 0
    for _ in range(trials):
        a, s_log = random_spd_exp(rng, 3, scale=1.0)
        x = random_symmetric(rng, 3)
        gap, comm = ca.anticommutator_gap(a, x)
        if comm >= 1e-2:
            checked += 1
            bound = 1e-6 * comm**2 / (1.0 + frobenius_norm(s_log) ** 2)
            if gap < bound:
                violations += 1
    return [
        VerifyRow("anticommutator rule gap on commuting directions", worst_commuting, 1e-9),
        VerifyRow(
            f"curvature lower-bound violations on generic directions ({checked} checked)",
            float(violations),
            0.5,
        ),
    ]


def _suite_lemma4(seed: int, trials: int) -> list:
    rows = []
    for idx, (p, s) in enumerate(POWER_PAIRS):
        rng = make_rng(seed * 1000 + 30 + idx)
        w_diff = w_sum = 0.0
        for _ in range(trials):
            a, _ = random_spd_exp(rng, 3, scale=1.0)
            x = random_matrix(rng, 3)
            dec = eigendecompose_symmetric(a)
            ap = _spectral_power(dec, p)
            am = _spectral_power(dec, -s)
            diff_arg = ap @ x @ am - am @ x @ ap
            sum_arg = ap @ x @ am + am @ x @ ap
            w_diff = max(
                w_diff,
                frobenius_norm(
                    ca.dlog_sinh_pair(a, x, p, s, -1)
                    - ca.d_log(a, diff_arg)
                ),
            )
            w_sum = max(
                w_sum,
                frobenius_norm(
                    ca.dlog_sinh_pair(a, x, p, s, +1)
                    - ca.d_log(a, sum_arg)
                ),
            )
        tag = f"(p,s)=({p},{s})"
        rows.append(VerifyRow(f"antisymmetric power pair via sinh kernel {tag}", w_diff, 1e-10))
        rows.append(VerifyRow(f"symmetric power pair via cosh kernel {tag}", w_sum, 1e-10))
    return rows


def _suite_lemma5(seed: int, trials: int) -> list:
    rng = make_rng(seed * 1000 + 40)
    worst_poly = 0.0
    gens = (mo.square_generator(), mo.cube_generator())
    for n in range(trials):
        gen = gens[n % 2]
        a = random_symmetric(rng, 3)
        y = random_matrix(rng, 3)
        worst_poly = max(worst_poly, mo.isotropic_commutation_residual(gen, a, y))

    rng = make_rng(seed * 1000 + 41)
    worst_fd = 0.0
    for _ in range(max(trials // 4, 25)):
        a = random_symmetric(rng, 3)
        y = random_matrix(rng, 3)
        worst_fd = max(
            worst_fd,
            mo.isotropic_commutation_residual(mo.exponential_generator(), a, y, h=1e-5),
        )
    return [
        VerifyRow("derivative commutes with commutator (exact polynomial route)", worst_poly, 1e-12),
        VerifyRow("derivative commutes with commutator (exp, centered difference)", worst_fd, 1e-5),
    ]


def _suite_lemma6(seed: int, trials: int) -> list:
    kernels = ((SIGMA, "odd sigma"), (GAMMA, "even gamma"), (math.exp, "exp"))
    rng = make_rng(seed * 1000 + 50)
    w_t = w_d = 0.0
    for n in range(trials):
        kernel, _ = kernels[n % 3]
        a = random_symmetric(rng, 3)
        x = random_matrix(rng, 3)
        y = random_matrix(rng, 3)
        r1, r2 = ca.adjoint_residuals(a, x, y, kernel)
        w_t = max(w_t, r1)
        w_d = max(w_d, r2)
    return [
        VerifyRow("transpose rule for commutator kernels", w_t, 1e-12),
        VerifyRow("self-adjointness in the trace inner product", w_d, 1e-12),
    ]


def _suite_theorem1(seed: int, trials: int) -> list:
    rows = []

    rng = make_rng(seed * 1000 + 60)
    worst = 0.0
    for _ in range(trials):
        b = random_spd_ratio(rng, 3)
        d = random_symmetric(rng, 3)
        w = random_skew(rng, 3)
        dec = eigendecompose_symmetric(b)
        o_sp = ki.log_spin_spectral(b, d, w, decomposition=dec)
        o_co = ki.log_spin_commutator(b, d, w, decomposition=dec)
        worst = max(worst, frobenius_norm(o_sp - o_co) / (1.0 + frobenius_norm(d)))
    rows.append(VerifyRow("spin representations agree: projection sum vs kernel (rel)", worst, 1e-10))

    samples = ki.integrate_motion(ki.simple_shear(1.0), np.eye(3), 1.0, 1e-3, record_every=5)
    _, res = ki.corotational_rate_residuals(samples, "analytic")
    rows.append(
        VerifyRow("corotational rate of log strain equals stretching (shear)", float(np.max(res)), 1e-8)
    )

    coarse = ki.integrate_motion(ki.simple_shear(1.0), np.eye(3), 1.0, 1e-3, record_every=20)
    fine = ki.integrate_motion(ki.simple_shear(1.0), np.eye(3), 1.0, 1e-3, record_every=10)
    _, rc = ki.corotational_rate_residuals(coarse, "finite_difference")
    _, rf = ki.corotational_rate_residuals(fine, "finite_difference")
    ratio = float(np.max(rc) / np.max(rf))
    rows.append(
        VerifyRow("strain-rate residual halving order: |ratio - 4|", abs(ratio - 4.0), 0.8)
    )

    stretch = ki.pure_stretch((0.3, -0.3, 0.0))
    coarse = ki.integrate_motion(stretch, np.eye(3), 1.0, 1e-3, record_every=20)
    fine = ki.integrate_motion(stretch, np.eye(3), 1.0, 1e-3, record_every=10)
    e_ratio = max(s.evolution_residual for s in coarse) / max(s.evolution_residual for s in fine)
    rows.append(
        VerifyRow("evolution-equation residual halving order: |ratio - 4|", abs(e_ratio - 4.0), 0.8)
    )
    return rows


def _suite_appendix(seed: int, trials: int) -> list:
    rng = make_rng(seed * 1000 + 70)
    worst = 0.0
    for n in range(trials):
        m = n % 9
        a = random_matrix(rng, 3)
        x = random_matrix(rng, 3)
        nested = ca.ad_power(a, x, m)
        binom = ca.ad_power_binomial(a, x, m)
        worst = max(worst, frobenius_norm(nested - binom) / (1.0 + frobenius_norm(nested)))
    rows = [VerifyRow("commutator powers match the binomial expansion (m <= 8, rel)", worst, 1e-12)]

    rng = make_rng(seed * 1000 + 71)
    worst = 0.0
    for _ in range(trials):
        a = random_matrix(rng, 3, scale=0.5)
        y = random_matrix(rng, 3)
        val = ca.exp_conjugation(a, y, 1.0, method="series")
        direct = ca.matexp_series(a) @ y @ ca.matexp_series(-a)
        worst = max(worst, frobenius_norm(val - direct) / (1.0 + frobenius_norm(direct)))
    rows.append(
        VerifyRow("exp of commutator equals conjugation (series route, general A, rel)", worst, 1e-12)
    )

    rng = make_rng(seed * 1000 + 72)
    worst = 0.0
    for _ in range(trials):
        a = random_matrix(rng, 3, scale=0.6)
        x = random_matrix(rng, 3)
        fd = _fd_exp(a, x)
        val = ca.d_exp(a, x, method="series")
        worst = max(worst, frobenius_norm(val - fd) / (1.0 + frobenius_norm(fd)))
    rows.append(
        VerifyRow("exp derivative re-check (series route, general A, rel)", worst, 1e-6)
    )
    return rows


def _suite_monotonicity(seed: int, trials: int) -> list:
    rows = []
    gens = (
        mo.identity_generator(),
        mo.exponential_generator(),
        mo.cube_plus_identity_generator(),
    )
    disagreements = 0
    for gi, gen in enumerate(gens):
        worst = 0.0
        for pi, (p, s) in enumerate(POWER_PAIRS):
            rep = equivalence_check(gen, trials, seed * 1000 + 80 + 10 * gi + pi, p, s)
            worst = max(worst, rep.max_rel_residual)
            disagreements += rep.trials - rep.sign_agreements
        rows.append(
            VerifyRow(f"quadratic-form bridge identity [{gen.name}] (rel)", worst, 1e-9)
        )
    rows.append(VerifyRow("sign disagreements between the two forms", float(disagreements), 0.5))

    rng = make_rng(seed * 1000 + 90)
    w_sq = w_inv = w_sym = 0.0
    for n in range(trials):
        q = float((1, 3, -1)[n % 3])
        g = random_symmetric(rng, 3)
        x = random_matrix(rng, 3)
        once = mo.sqrt_r_operator(g, q, x)
        twice = mo.sqrt_r_operator(g, q, once)
        direct = ca.f_of_ad_spectral(make_r_kernel(q), g, x)
        w_sq = max(w_sq, frobenius_norm(twice - direct) / (1.0 + frobenius_norm(direct)))
        ker = make_sqrt_r_kernel(q)
        back = ca.f_of_ad_spectral(lambda t: 1.0 / ker(t), g, once)
        w_inv = max(w_inv, frobenius_norm(back - x) / (1.0 + frobenius_norm(x)))
        xs = random_symmetric(rng, 3)
        out = mo.sqrt_r_operator(g, q, xs)
        w_sym = max(w_sym, frobenius_norm(out - out.T))
    rows.append(VerifyRow("square-root kernel applied twice equals the kernel (rel)", w_sq, 1e-12))
    rows.append(VerifyRow("square-root kernel inverted by its reciprocal (rel)", w_inv, 1e-12))
    rows.append(VerifyRow("square-root kernel preserves symmetry", w_sym, 1e-12))
    return rows


def equivalence_check(
    f: mo.IsotropicFunction, trials: int, seed: int, p: int, s: int
) -> mo.EquivalenceReport:
    """Sample the identity linking the two quadratic forms and their signs.

    Per trial (draw order): one random symmetric S (entries uniform in
    [-1.5, 1.5]) giving A = exp(S) with ln A = S by construction, then one
    random symmetric nonzero direction X.  Checks that the form at A equals
    the form at G = S evaluated on the square-root-kernel image of X, and
    counts sign agreement of the two forms.
    """
    if p - s != 1:
        raise ValueError(f"power pair must satisfy p - s = 1, got p={p}, s={s}")
    rng = make_rng(seed)
    worst = 0.0
    agreements = 0
    for _ in range(trials):
        s_mat = random_symmetric(rng, 3, scale=1.5)
        dec_s = eigendecompose_symmetric(s_mat)
        a = ca.matfun_spectral(math.exp, s_mat)
        x = random_symmetric(rng, 3)
        dec_a = EigenDecomposition._trusted(dec_s.q, np.exp(dec_s.eigenvalues))
        lhs = mo.bilinear_lhs(f, a, x, p, s, decomposition=dec_a)
        z = mo.sqrt_r_operator(s_mat, float(p + s), x)
        rhs = frobenius_dot(f.derivative(s_mat, z), z)
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
        if (lhs > 0.0) == (rhs > 0.0):
            agreements += 1
    return mo.EquivalenceReport(trials, worst, agreements)


SUITES = {
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
