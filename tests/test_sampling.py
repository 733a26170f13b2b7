import numpy as np
import pytest

from corotcalc.sampling import make_rng, random_orthogonal, random_spd_ratio


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
