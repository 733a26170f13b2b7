import numpy as np
import pytest
import verify_reference

from corotcalc import calculus as ca
from corotcalc import cli, matcore, sampling, verify
from corotcalc import kinematics as ki
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


def test_suite_keys_fit_64_bits_at_the_largest_accepted_seed(monkeypatch):
    top = (2**64 - 1 - verify.KEY_OFFSET) // 1000
    parser = cli.build_parser()
    assert parser.parse_args(["verify", "--seed", str(top)]).seed == top
    with pytest.raises(SystemExit):
        parser.parse_args(["verify", "--seed", str(top + 1)])
    keys = []
    make_rng = sampling.make_rng

    def recording(seed):
        keys.append(seed)
        return make_rng(seed)

    monkeypatch.setattr(sampling, "make_rng", recording)
    run_suites(SUITE_NAMES, top, 1)
    assert min(keys) > top * 1000
    assert max(keys) == top * 1000 + verify.KEY_OFFSET < 2**64


def _spy_on_table_builders(monkeypatch) -> list:
    """Record each pair-table build as (builder, key, eigenvalue bytes, ...).

    A table is one pair function (code and captured objects) over one set of
    eigenvalues with the same per-row arguments (by value), or one commutator
    kernel (by identity) over one set of eigenvalues.
    """
    builds = []  # holds every kernel and argument, so no id is reused
    each_pair, difference_table = ca._each_pair, ca._difference_table

    def counting_each(entry, array, values, *per_row):
        key = (entry.__code__, tuple(id(c.cell_contents) for c in entry.__closure__ or ()),
               tuple(np.asarray(arg, dtype=float).tobytes() for arg in per_row))
        builds.append(("each", key, np.asarray(values).tobytes(), entry, per_row))
        return each_pair(entry, array, values, *per_row)

    def counting_differences(k, values):
        builds.append(("difference", id(k), np.asarray(values).tobytes(), k))
        return difference_table(k, values)

    spies = {"_each_pair": counting_each, "_difference_table": counting_differences}
    for mod in (ca, ki, mo):
        for name, spy in spies.items():
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, spy)
    return builds


def test_table_key_sees_a_repeated_divided_difference_build(monkeypatch):
    # its per-row radii are a fresh list on every call: equal by value, not by identity
    builds = _spy_on_table_builders(monkeypatch)
    gen = mo.cube_generator()
    vals = np.array([[2.0, 1.0, -0.5], [3.0, 3.0, 1.0]])
    for _ in range(2):
        mo._divided_difference_table(gen.scalar_generator, gen.derivative_generator, vals)
    assert len(builds) == 2 and len({build[:3] for build in builds}) == 1


def test_each_suite_builds_each_pair_table_once(monkeypatch):
    # a second build of one table is repeated kernel work
    builds = _spy_on_table_builders(monkeypatch)
    builders = set()
    for name in SUITE_NAMES:
        builds.clear()
        run_suite(name, seed=3, trials=20)
        keys = {build[:3] for build in builds}
        assert len(keys) == len(builds), f"{name}: {len(builds)} builds, {len(keys)} tables"
        builders.update(build[0] for build in builds)
    assert builders == {"each", "difference"}


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


# stacked eigensolves per suite: the independent stacks of lemma1 to lemma4
# are solved together (theorem1 counts its three trajectories' solves and
# monotonicity its nine equivalence checks, one each)
SOLVES = {"lemma1": 2, "lemma2": 2, "lemma3": 2, "lemma4": 2, "lemma5": 0, "lemma6": 1,
          "theorem1": 4, "appendix": 0, "monotonicity": 4}


def test_each_suite_solves_its_independent_stacks_together(monkeypatch):
    solve, calls = matcore._eigendecompose_stack, []

    def counting(s):
        calls.append(len(s))
        return solve(s)

    for mod in (matcore, sampling, verify, ki, mo):
        if hasattr(mod, "_eigendecompose_stack"):
            monkeypatch.setattr(mod, "_eigendecompose_stack", counting)
    for name in SUITE_NAMES:
        calls.clear()
        run_suite(name, seed=3, trials=20)
        assert len(calls) == SOLVES[name], (name, calls)
