"""Each kernel table sums its Taylor branch in one call, over the entries that need it.

``ScalarKernel.taylor_eval`` is replaced by a spy that records its argument.
A table of 100 entries or more goes through ``ScalarKernel.over``, which hands
all the entries below the kernel's switch radius to one ``taylor_eval`` call.
For sigma and gamma those are the entries within 0.25 of the origin; the other
eight families take their direct formula down to LIMIT_RADIUS = 2^-500, so
only exact zeros (the diagonal of each table below) reach their limit branch.
The near entries are counted here from the eigenvalues, with ``math``.
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


def _stack(lam: np.ndarray, frames=FRAMES) -> np.ndarray:
    """Q diag(lam) Q^T for each row of lam and frame Q, symmetrized."""
    s = frames @ (lam[..., None] * frames.swapaxes(1, 2))
    return 0.5 * (s + s.swapaxes(1, 2))


# eigenvalues close enough that some pairs fall inside the switch radius, some outside
SPD = _stack(np.exp(RNG.uniform(-0.4, 0.4, (N, D))))
SYM = _stack(RNG.uniform(-0.6, 0.6, (N, D)))
X = RNG.standard_normal((N, D, D))
# one 16 x 16 matrix: sigma's mirrored table holds 120 pairs and k(0.0)
SYM16 = _stack(RNG.uniform(-0.6, 0.6, (1, 16)),
               np.linalg.qr(RNG.standard_normal((1, 16, 16)))[0])


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


def _near(vals, arg, radius, upper) -> int:
    """Entries of the tables of ``vals`` within ``radius`` of 0: of a mirrored table
    (``upper``) the pairs i < j and k(0.0) once, else every pair, the diagonal included."""
    assert all(len(set(row)) == len(row) for row in vals.tolist())  # no repeated eigenvalue
    pairs = [(a, b) for row in vals.tolist() for i, a in enumerate(row)
             for j, b in enumerate(row) if (i < j if upper else i != j)]
    return sum(abs(arg(a, b)) < radius for a, b in pairs) + (1 if upper else vals.size)


TABLES = {
    # ETA_NEG_RECIP at ln(b_i/b_j)
    "_d_log": (lambda: ca._d_log(mc._eigendecompose_stack(SPD), X), SPD,
               lambda a, b: math.log(a / b), sf.LIMIT_RADIUS, False),
    # ETA_NEG at |a_i - a_j|
    "_d_exp": (lambda: ca._d_exp(mc._eigendecompose_stack(SYM), X), SYM,
               lambda a, b: abs(a - b), sf.LIMIT_RADIUS, False),
    # ETA, no declared parity: every pair, its diagonal included
    "_difference_table(ETA)": (
        lambda: ca._difference_table(sf.ETA, mc._eigendecompose_stack(SYM).eigenvalues), SYM,
        lambda a, b: a - b, sf.LIMIT_RADIUS, False),
    # SIGMA, odd: the pairs i < j and k(0.0)
    "_difference_table(SIGMA)": (
        lambda: ca._difference_table(sf.SIGMA, mc._eigendecompose_stack(SYM16).eigenvalues),
        SYM16, lambda a, b: a - b, sf.SWITCH_RADIUS, True),
}


@pytest.mark.parametrize("name", sorted(TABLES))
def test_one_taylor_sum_for_all_diagonal_zeros(name, taylor_args):
    call, stack, arg, radius, upper = TABLES[name]
    vals = mc._eigendecompose_stack(stack).eigenvalues
    near = _near(vals, arg, radius, upper)
    if radius == sf.SWITCH_RADIUS:  # both branches are taken
        assert 1 < near < sf._ARRAY_MIN
    else:  # the eigenvalues are distinct: only the zeros are near
        assert near == vals.size
    taylor_args.clear()
    call()
    assert len(taylor_args) == 1 and isinstance(taylor_args[0], np.ndarray)
    assert taylor_args[0].size == near
    if radius == sf.LIMIT_RADIUS:
        assert not taylor_args[0].any()


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
    # one sum per table: a table and its flip, per kernel
    assert [type(t) for t in taylor_args] == [np.ndarray] * 4
    assert all(t.size > 1 for t in taylor_args)


@pytest.mark.parametrize("kernel", [sf.SIGMA, sf.GAMMA, sf.ETA], ids=lambda k: k.name)
def test_adjoint_residuals_tables_take_the_array_path(kernel, kernel_calls, taylor_args):
    d = 16  # 121 entries a mirrored table, 256 a full one
    assert d * (d - 1) // 2 + 1 >= sf._ARRAY_MIN
    rng = np.random.default_rng(24)
    a, x, y = rng.standard_normal((3, d, d))
    ca.adjoint_residuals(a + a.T, x, y, kernel)
    assert kernel_calls[0] == 0
    assert [type(t) for t in taylor_args] == [np.ndarray] * 2  # a table and its flip
    if kernel is sf.ETA:  # its near entries are the diagonal's zeros
        assert [t.tolist() for t in taylor_args] == [[0.0] * d] * 2
