"""Acceptance gate: one test per criterion, each printing a PASS line.

Every tolerance is pinned here; nothing is left to later calibration.
Runtime-limited criteria assert their wall-clock budget as well.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from corotcalc import calculus as ca
from corotcalc import kinematics as ki
from corotcalc import monotonicity as mo
from corotcalc.matcore import eigendecompose_symmetric, frobenius_norm
from corotcalc.sampling import (
    make_rng,
    random_matrix,
    random_orthogonal,
    random_skew,
    random_spd_ratio,
    random_symmetric,
)
from corotcalc.scalarfun import SIGMA
from corotcalc.verify import run_suite


def _announce(num, text):
    print(f"ACCEPTANCE {num} PASS: {text}")


def test_criterion_1_spin_representation_agreement():
    t0 = time.perf_counter()
    rng = make_rng(1001)
    worst = 0.0
    for _ in range(1000):
        b = random_spd_ratio(rng, 3, max_log10_ratio=3.0)
        d = random_symmetric(rng, 3)
        w = random_skew(rng, 3)
        dec = eigendecompose_symmetric(b)
        o_sp = ki.log_spin_spectral(b, d, w, decomposition=dec)
        o_co = ki.log_spin_commutator(b, d, w, decomposition=dec)
        resid = frobenius_norm(o_sp - o_co) / (1.0 + frobenius_norm(d))
        worst = max(worst, resid)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10, f"spin representations disagree: {worst:.3e}"
    assert elapsed < 5.0, f"criterion 1 overran its 5 s budget: {elapsed:.1f} s"
    _announce(1, f"1000 triples, max scaled spin discrepancy {worst:.3e} <= 1e-10 "
                 f"({elapsed:.2f} s)")


def test_criterion_2_rate_identity_on_simple_shear():
    t0 = time.perf_counter()
    samples = ki.integrate_motion(ki.simple_shear(1.0), np.eye(3), 1.0, 1e-3)
    _, res = ki.corotational_rate_residuals(samples, "analytic")
    analytic_max = float(np.max(res))
    assert analytic_max <= 1e-8, f"analytic rate residual {analytic_max:.3e}"

    coarse = ki.integrate_motion(ki.simple_shear(1.0), np.eye(3), 1.0, 1e-3, record_every=20)
    fine = ki.integrate_motion(ki.simple_shear(1.0), np.eye(3), 1.0, 1e-3, record_every=10)
    _, rc = ki.corotational_rate_residuals(coarse, "finite_difference")
    _, rf = ki.corotational_rate_residuals(fine, "finite_difference")
    ratio = float(np.max(rc) / np.max(rf))
    assert 3.2 <= ratio <= 4.8, f"halving ratio {ratio:.3f} outside 4 +- 20%"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"criterion 2 overran its 10 s budget: {elapsed:.1f} s"
    _announce(2, f"analytic residual {analytic_max:.3e} <= 1e-8, halving ratio "
                 f"{ratio:.3f} in [3.2, 4.8] ({elapsed:.2f} s)")


def test_criterion_3_exp_log_derivative_suite():
    rows = run_suite("lemma1", seed=42, trials=200)
    for r in rows:
        assert r.passed, f"{r.label}: {r.residual:.3e} > {r.threshold:.1e}"
    _announce(3, "; ".join(f"{r.label} -> {r.residual:.2e}" for r in rows))


def test_criterion_4_log_derivative_argument_identities():
    rows = run_suite("lemma2", seed=42, trials=200) + run_suite("lemma4", seed=42, trials=200)
    for r in rows:
        assert r.passed, f"{r.label}: {r.residual:.3e} > {r.threshold:.1e}"
    _announce(4, f"all {len(rows)} dual-path rows <= 1e-10 over 200 trials, "
                 "(p,s) in {(1,0),(2,1),(0,-1)}")


def test_criterion_5_anticommutator_gap_iff():
    rows = run_suite("lemma3", seed=42, trials=500)
    commuting, generic = rows
    assert commuting.passed, f"commuting gap {commuting.residual:.3e} > 1e-9"
    assert generic.passed, f"{generic.residual:.0f} curvature-bound violations"
    _announce(5, f"commuting gap {commuting.residual:.2e} <= 1e-9; "
                 "0 lower-bound violations over 500 generic trials")


def test_criterion_6_isotropic_and_monotonicity_suite():
    rows = run_suite("lemma5", seed=42, trials=200) + run_suite("lemma6", seed=42, trials=200)
    for r in rows:
        assert r.passed, f"{r.label}: {r.residual:.3e} > {r.threshold:.1e}"
    bridge_worst = 0.0
    for gen in (mo.identity_generator(), mo.exponential_generator(),
                mo.cube_plus_identity_generator()):
        for p, s in ((1, 0), (2, 1), (0, -1)):
            rep = mo.equivalence_check(gen, trials=500, seed=606, p=p, s=s)
            assert rep.max_rel_residual <= 1e-9, (
                f"{gen.name} (p,s)=({p},{s}): bridge residual {rep.max_rel_residual:.3e}"
            )
            assert rep.all_signs_agree, f"{gen.name}: sign disagreement"
            bridge_worst = max(bridge_worst, rep.max_rel_residual)
    _announce(6, f"commutation/transpose rows ok; bridge identity worst "
                 f"{bridge_worst:.2e} <= 1e-9 over 500 trials x 3 generators, "
                 "sign agreement 100%")


def test_criterion_7_commutator_power_suite():
    rng = make_rng(707)
    worst = 0.0
    for _ in range(200):
        m = int(rng.integers(0, 9))
        a = random_matrix(rng, 3)
        x = random_matrix(rng, 3)
        nested = ca.ad_power(a, x, m)
        binom = ca.ad_power_binomial(a, x, m)
        worst = max(worst, frobenius_norm(nested - binom) / (1.0 + frobenius_norm(nested)))
    assert worst <= 1e-12, f"binomial expansion residual {worst:.3e}"
    rows = run_suite("appendix", seed=42, trials=200)
    for r in rows:
        assert r.passed, f"{r.label}: {r.residual:.3e} > {r.threshold:.1e}"
    _announce(7, f"binomial identity {worst:.2e} <= 1e-12 for m <= 8; exp-derivative "
                 "and conjugation re-verified on the series route")


def test_criterion_8_series_spectral_coincidence():
    rng = make_rng(808)
    import math

    worst_log = 0.0
    for _ in range(50):
        u = random_symmetric(rng, 3)
        u *= 0.5 / max(1.0, frobenius_norm(u) / 0.98)
        a = np.eye(3) + u
        series = ca.matlog_series(a).value
        spectral = ca.matfun_spectral(math.log, a)
        worst_log = max(worst_log, frobenius_norm(series - spectral))
    assert worst_log <= 1e-8, f"log series vs spectral {worst_log:.3e}"

    worst_sigma = 0.0
    for _ in range(50):
        h = random_symmetric(rng, 3)
        h *= 0.3 / max(1.0, frobenius_norm(h) / 0.98)
        x = random_matrix(rng, 3)
        series = ca.f_of_ad_series(ca.sigma_series_spec(), h, x).value
        spectral = ca.f_of_ad_spectral(SIGMA, h, x)
        worst_sigma = max(worst_sigma, frobenius_norm(series - spectral))
    assert worst_sigma <= 1e-8, f"sigma series vs kernel {worst_sigma:.3e}"

    divergent_fixtures = [
        np.diag([2.25, 1.0, 1.0]),          # ||A - I||_F = 1.25
        np.eye(3) + 1.3 * np.outer([1.0, 0.0, 0.0], [1.0, 0.0, 0.0]),
        np.diag([2.2, 0.6, 1.0]),           # ||A - I||_F = 1.27
    ]
    for a in divergent_fixtures:
        assert frobenius_norm(a - np.eye(3)) >= 1.2
        with pytest.raises(ca.SeriesDivergenceError):
            ca.matlog_series(a)
    _announce(8, f"log series {worst_log:.2e} <= 1e-8 at ||A-I|| <= 0.5; sigma series "
                 f"{worst_sigma:.2e} <= 1e-8 at ||H|| <= 0.3; divergence signaled on "
                 "3 fixtures with ||A-I|| >= 1.2")


def test_criterion_9_degenerate_spectrum_continuity():
    rng = make_rng(909)
    q = random_orthogonal(rng, 3)
    d = random_symmetric(rng, 3)
    w = random_skew(rng, 3)
    scale = frobenius_norm(d)

    def b_at(eps):
        lam = np.array([2.0 * (1.0 + eps), 2.0, 0.5])
        b = (q * lam) @ q.T
        return 0.5 * (b + b.T)

    gaps = (1e-4, 1e-6, 1e-8)
    spins = [ki.log_spin_commutator(b_at(e), d, w) for e in gaps]
    deltas = []
    for k in range(len(gaps) - 1):
        delta = frobenius_norm(spins[k] - spins[k + 1])
        assert delta <= 10.0 * gaps[k] * scale, (
            f"spin jump {delta:.3e} above continuity bound at gap {gaps[k]:g}"
        )
        deltas.append(delta)
    b_tiny = b_at(1e-8)
    o_sp = ki.log_spin_spectral(b_tiny, d, w)
    o_co = ki.log_spin_commutator(b_tiny, d, w)
    disc = frobenius_norm(o_sp - o_co)
    assert disc <= 1e-6, f"projection form disagrees: {disc:.3e}"
    _announce(9, f"spin deltas {deltas[0]:.2e}, {deltas[1]:.2e} within continuity "
                 f"bounds; projection form within {disc:.2e} <= 1e-6 at gap 1e-8")


def test_criterion_10_full_verify_cli():
    t0 = time.perf_counter()
    argv = [sys.executable, "-m", "corotcalc.cli", "verify", "--suite", "all"]
    first = subprocess.run(argv, capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    assert first.returncode == 0, first.stdout + first.stderr
    assert elapsed < 60.0, f"verify --suite all took {elapsed:.1f} s"
    second = subprocess.run(argv, capture_output=True, text=True)
    assert second.stdout == first.stdout, "verify output is not deterministic"
    _announce(10, f"verify --suite all: exit 0, deterministic, {elapsed:.1f} s < 60 s")
