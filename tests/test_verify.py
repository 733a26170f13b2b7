import numpy as np
import pytest
import verify_reference

from corotcalc import cli, verify
from corotcalc import monotonicity as mo
from corotcalc.verify import SUITE_NAMES, VerifyRow, run_suite, run_suites


def test_unknown_suite_raises():
    with pytest.raises(ValueError):
        run_suite("nonsense", seed=1, trials=10)


def test_rows_deterministic_per_seed():
    a = run_suite("lemma6", seed=3, trials=25)
    b = run_suite("lemma6", seed=3, trials=25)
    assert a == b


def test_rows_vary_with_seed():
    a = run_suite("lemma6", seed=3, trials=25)
    b = run_suite("lemma6", seed=4, trials=25)
    assert [r.residual for r in a] != [r.residual for r in b]


def test_row_pass_logic():
    assert VerifyRow("x", 1e-13, 1e-12).passed
    assert not VerifyRow("x", 1e-11, 1e-12).passed


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_every_suite_green_at_small_trials(name):
    for row in run_suite(name, seed=42, trials=40):
        assert row.passed, f"[{name}] {row.label}: {row.residual:.3e} > {row.threshold:.1e}"


def test_run_suites_preserves_order():
    res = run_suites(("lemma3", "lemma6"), seed=1, trials=10)
    assert list(res.keys()) == ["lemma3", "lemma6"]


def test_trials_must_be_positive():
    with pytest.raises(ValueError):
        run_suite("lemma1", seed=1, trials=0)


@pytest.mark.parametrize("seed", (0, 42))
@pytest.mark.parametrize("name", SUITE_NAMES)
def test_stacked_rows_equal_per_trial_reference(name, seed):
    # trial counts on both sides of the stacked eigensolver's crossover
    for trials in (1, 2, 7, 40):
        assert run_suite(name, seed, trials) == verify_reference.SUITES[name](seed, trials)


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_nan_residual_fails_its_row(name, monkeypatch, capsys):
    # one NaN trial among finite ones: each row reduced over its trials is NaN
    # and fails, and the command exits 1
    row = verify._row
    poisoned = []

    def nan_at_first(label, residuals, threshold):
        residuals = np.array(residuals, dtype=float)
        residuals[0] = np.nan
        poisoned.append(label)
        return row(label, residuals, threshold)

    monkeypatch.setattr(verify, "_row", nan_at_first)
    rc = cli.main(["verify", "--suite", name, "--trials", "5", "--seed", "3"])
    captured = capsys.readouterr()
    assert rc == 1
    failing = [line for line in captured.out.splitlines() if line.endswith("FAIL")]
    assert poisoned and len(failing) == len(poisoned)
    assert all(" nan " in line for line in failing)
