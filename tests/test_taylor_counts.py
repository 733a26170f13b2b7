"""Each kernel table takes one Taylor sum for all of its exact zeros.

``ScalarKernel.taylor_eval`` is replaced by a spy that records its argument.
A table of 100 entries or more goes through ``ScalarKernel.over``, which must
sum the series once for every entry that is exactly zero (the diagonal of
each table below) and once per other entry inside the switch radius.  The
near entries are counted here from the eigenvalues, with ``math``.
"""

import math

import numpy as np
import pytest

from corotcalc import calculus as ca
from corotcalc import matcore as mc
from corotcalc import scalarfun as sf
from corotcalc import verify

N, D = 12, 3  # 108 table entries: the array path

RNG = np.random.default_rng(22)
FRAMES = np.linalg.qr(RNG.standard_normal((N, D, D)))[0]


def _stack(lam: np.ndarray) -> np.ndarray:
    """Q diag(lam) Q^T for each row of lam and frame Q, symmetrized."""
    s = FRAMES @ (lam[..., None] * FRAMES.swapaxes(1, 2))
    return 0.5 * (s + s.swapaxes(1, 2))


# eigenvalues close enough that some pairs fall inside the switch radius, some outside
SPD = _stack(np.exp(RNG.uniform(-0.4, 0.4, (N, D))))
SYM = _stack(RNG.uniform(-0.6, 0.6, (N, D)))
X = RNG.standard_normal((N, D, D))


@pytest.fixture
def taylor_args(monkeypatch):
    """The argument of every ``taylor_eval`` call made since the fixture was set up."""
    args = []
    original = sf.ScalarKernel.taylor_eval

    def spy(self, x):
        args.append(x)
        return original(self, x)

    monkeypatch.setattr(sf.ScalarKernel, "taylor_eval", spy)
    return args


def _near_off_diagonal(vals, arg, radius=sf.SWITCH_RADIUS) -> int:
    """Entries i != j of each row with 0 < |arg(v_i, v_j)| < radius."""
    assert all(len(set(row)) == D for row in vals.tolist())  # no repeated eigenvalue
    return sum(0.0 < abs(arg(a, b)) < radius
               for row in vals.tolist() for i, a in enumerate(row)
               for j, b in enumerate(row) if i != j)


TABLES = {
    # ETA_NEG_RECIP at ln(b_i/b_j)
    "_d_log": (lambda: ca._d_log(mc._eigendecompose_stack(SPD), X), SPD,
               lambda a, b: math.log(a / b)),
    # ETA_NEG at |a_i - a_j|
    "_d_exp": (lambda: ca._d_exp(mc._eigendecompose_stack(SYM), X), SYM,
               lambda a, b: abs(a - b)),
    # ETA, no declared parity: every pair, its diagonal included
    "_difference_table(ETA)": (
        lambda: ca._difference_table(sf.ETA, mc._eigendecompose_stack(SYM).eigenvalues), SYM,
        lambda a, b: a - b),
}


@pytest.mark.parametrize("name", sorted(TABLES))
def test_one_taylor_sum_for_all_diagonal_zeros(name, taylor_args):
    call, stack, arg = TABLES[name]
    near = _near_off_diagonal(mc._eigendecompose_stack(stack).eigenvalues, arg)
    assert 0 < near < N * D * (D - 1)  # both branches are taken
    taylor_args.clear()
    call()
    assert [x for x in taylor_args if x == 0.0] == [0.0]  # one sum for the 36 zeros
    assert len(taylor_args) == 1 + near


# f(-ad_A) is f's own table over -lambda, so a flipped table takes the array
# path as the plain one does: no entry goes through ScalarKernel.__call__


@pytest.fixture
def kernel_calls(monkeypatch):
    """The number of ``ScalarKernel.__call__`` calls made since the fixture was set up."""
    calls = [0]
    original = sf.ScalarKernel.__call__

    def spy(self, x):
        calls[0] += 1
        return original(self, x)

    monkeypatch.setattr(sf.ScalarKernel, "__call__", spy)
    return calls


def test_lemma6_tables_take_the_array_path(kernel_calls, taylor_args):
    # 200 trials: each of SIGMA and GAMMA gets 67 or 66 trials, 3 pairs each and k(0.0)
    assert 66 * 3 + 1 >= sf._ARRAY_MIN
    verify._suite_lemma6(1, 200)
    assert kernel_calls[0] == 0
    assert [t for t in taylor_args if t == 0.0] == [0.0] * 4  # a table and its flip, per kernel


@pytest.mark.parametrize("kernel", [sf.SIGMA, sf.GAMMA, sf.ETA], ids=lambda k: k.name)
def test_adjoint_residuals_tables_take_the_array_path(kernel, kernel_calls, taylor_args):
    d = 16  # 121 entries a mirrored table, 256 a full one
    assert d * (d - 1) // 2 + 1 >= sf._ARRAY_MIN
    rng = np.random.default_rng(24)
    a, x, y = rng.standard_normal((3, d, d))
    ca.adjoint_residuals(a + a.T, x, y, kernel)
    assert kernel_calls[0] == 0
    assert [t for t in taylor_args if t == 0.0] == [0.0] * 2
