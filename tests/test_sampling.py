import re

import numpy as np
import pytest

from corotcalc import kinematics as ki
from corotcalc import monotonicity as mo
from corotcalc import sampling, verify
from corotcalc.sampling import (
    _draw_trials,
    make_rng,
    random_matrix,
    random_orthogonal,
    random_skew,
    random_spd_ratio,
    random_symmetric,
)

# one trial's draw of each kind through the public helpers, and its shape
ONE_TRIAL = {
    "mat": (lambda rng, s: random_matrix(rng, 3, s), (3, 3)),
    "sym": (lambda rng, s: random_symmetric(rng, 3, s), (3, 3)),
    "skew": (lambda rng, s: random_skew(rng, 3, s), (3, 3)),
    "vec": (lambda rng, s: rng.uniform(-s, s, 3), (3,)),
    "scalar": (lambda rng, s: float(rng.uniform(-s, s)), ()),
}

# every (kind, scale) that verify and equivalence_check draw, then mixed patterns
SPECS = [
    (("mat", 1.0),),
    (("mat", 0.5),),
    (("mat", 0.6),),
    (("sym", 1.0),),
    (("sym", 1.5),),
    (("skew", 1.0),),
    (("vec", 1.0),),
    (("vec", 1.5),),
    (("scalar", 1.5),),
    (("sym", 1.0), ("mat", 1.0), ("scalar", 1.5)),
    (("vec", 1.5), ("sym", 1.0), ("sym", 1.0), ("skew", 1.0)),
    (("sym", 1.0), ("vec", 1.0)),
    (("mat", 0.5), ("mat", 1.0)),
    (("sym", 1.5), ("sym", 1.0)),
]


@pytest.mark.parametrize("bad", [1e3, -1.0, float("nan"), float("inf")])
def test_random_spd_ratio_rejects_exponent_before_drawing(bad):
    rng = make_rng(5)
    with pytest.raises(ValueError):
        random_spd_ratio(rng, 3, bad)
    assert rng.uniform() == make_rng(5).uniform()


@pytest.mark.parametrize("max_log10_ratio", [0.0, 3.0, 10.0, 600.0])
def test_random_spd_ratio_draw_order(max_log10_ratio):
    # dim uniform exponents in [-r/2, r/2], then one random_orthogonal frame
    rng = make_rng(7)
    half = 0.5 * max_log10_ratio
    lam = 10.0 ** rng.uniform(-half, half, 3)
    q = random_orthogonal(rng, 3)
    out = (q * lam) @ q.T
    expected = 0.5 * (out + out.T)
    np.testing.assert_array_equal(random_spd_ratio(make_rng(7), 3, max_log10_ratio), expected)


@pytest.mark.parametrize("trials", [1, 25, 500])
@pytest.mark.parametrize("seed", [1, 7003, 42090])
@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: "-".join(f"{k}{s}" for k, s in spec))
def test_draw_trials_equals_a_per_trial_loop_over_the_helpers(spec, seed, trials):
    rng = make_rng(seed)
    rows = [[ONE_TRIAL[kind][0](rng, scale) for kind, scale in spec] for _ in range(trials)]
    stacks = _draw_trials(seed, trials, *spec)
    assert len(stacks) == len(spec)
    for (kind, _), stack, column in zip(spec, stacks, zip(*rows)):
        expected = np.array(column)
        assert stack.dtype == expected.dtype == np.float64
        assert stack.shape == expected.shape == (trials, *ONE_TRIAL[kind][1])
        assert stack.flags.c_contiguous
        np.testing.assert_array_equal(stack, expected)
        assert stack.tobytes() == expected.tobytes()


@pytest.mark.parametrize("spec", [(("sim", 1.0),), (("mat", 1.0), ("vector", 1.5))])
def test_draw_trials_rejects_an_unknown_kind_before_drawing(spec, monkeypatch):
    keys = []
    monkeypatch.setattr(sampling, "make_rng", keys.append)
    with pytest.raises(ValueError, match=f"unknown draw kind {spec[-1][0]!r}"):
        _draw_trials(5, 10, *spec)
    assert keys == []


@pytest.mark.parametrize("trials", [0, -3])
def test_draw_trials_rejects_fewer_than_one_trial_before_drawing(trials, monkeypatch):
    keys = []
    monkeypatch.setattr(sampling, "make_rng", keys.append)
    with pytest.raises(ValueError, match="trials must be at least 1"):
        _draw_trials(5, trials, ("sym", 1.0))
    assert keys == []


@pytest.mark.parametrize("call, seed", [
    (make_rng, -1),
    (make_rng, 2**64),
    (make_rng, -(2**70)),
    (ki.polynomial_motion, -1),
    (lambda seed: mo.equivalence_check(mo.identity_generator(), 3, seed=seed, p=1, s=0), -1),
], ids=["make_rng-negative", "make_rng-2**64", "make_rng-2**70", "polynomial_motion",
        "equivalence_check"])
def test_seed_outside_64_bits_names_the_range(call, seed):
    with pytest.raises(ValueError, match=re.escape(f"seed must be in [0, 2**64 - 1], got {seed}")):
        call(seed)


def test_make_rng_takes_both_ends_of_the_seed_range():
    for seed in (0, np.uint64(0), 2**64 - 1, np.uint64(2**64 - 1)):
        assert isinstance(make_rng(seed), np.random.Generator)


@pytest.mark.parametrize("call, seed", [
    (make_rng, 1.5),
    (make_rng, 1.9999),
    (make_rng, 1.0),
    (make_rng, np.float64(1.0)),
    (make_rng, True),
    (make_rng, False),
    (make_rng, np.True_),
    (make_rng, "1"),
    (make_rng, None),
    (ki.polynomial_motion, 1.5),
    (lambda seed: mo.equivalence_check(mo.identity_generator(), 3, seed=seed, p=1, s=0), 1.5),
], ids=["make_rng-1.5", "make_rng-1.9999", "make_rng-1.0", "make_rng-float64", "make_rng-True",
        "make_rng-False", "make_rng-numpy-True", "make_rng-str", "make_rng-None",
        "polynomial_motion", "equivalence_check"])
def test_seed_that_is_not_an_integer_is_refused(call, seed):
    # before, a float was truncated and a bool read as 0 or 1: make_rng(1.5),
    # make_rng(1.9999) and make_rng(True) all keyed the stream of make_rng(1)
    with pytest.raises(TypeError, match=re.escape(f"seed must be an integer, got {seed!r}")):
        call(seed)


@pytest.mark.parametrize("seed", [np.int64(7), np.uint64(7), np.int32(7), np.uint8(7)],
                         ids=lambda s: type(s).__name__)
def test_numpy_integer_seed_keys_the_stream_of_the_int(seed):
    assert make_rng(seed).integers(2**62) == make_rng(7).integers(2**62)


def _no_draws(seed):
    raise AssertionError(f"a generator was keyed {seed}")


@pytest.mark.parametrize("trials", [sampling.MAX_TRIALS + 1, 2**62])
def test_trial_counts_above_max_trials_are_refused_before_drawing(trials, monkeypatch):
    # a stack of them would take all memory (numpy's MemoryError at 10**9 trials)
    monkeypatch.setattr(sampling, "make_rng", _no_draws)
    bound = re.escape(f"trials must be at most MAX_TRIALS = {sampling.MAX_TRIALS}")
    with pytest.raises(ValueError, match=bound):
        _draw_trials(5, trials, ("sym", 1.0))
    with pytest.raises(ValueError, match=bound):
        mo.equivalence_check(mo.identity_generator(), trials, 1, 1, 0)
    for name in verify.SUITE_NAMES:
        with pytest.raises(ValueError, match=bound):
            verify.run_suite(name, 1, trials)


def test_max_trials_is_accepted_and_shared_with_verify():
    assert verify.MAX_TRIALS is sampling.MAX_TRIALS
    assert _draw_trials(5, sampling.MAX_TRIALS, ("scalar", 1.0))[0].shape == (sampling.MAX_TRIALS,)
