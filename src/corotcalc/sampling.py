"""Seeded random fixtures built on a counter-based generator.

All randomization in the package flows through Philox4x64-10 (numpy's ``Philox``
bit generator) keyed by a 64-bit seed, so fixtures are reproducible bit-for-bit at
the draw-sequence level and a port to another language can replay them.  Draw order
is documented per helper.  ``_draw_trials`` draws a stack of trials in one call,
each trial its spec columns in order, each block row-major, as the helpers would.
"""

from __future__ import annotations

import operator

import numpy as np

from .matcore import _eigendecompose_stack, _spectral, eigendecompose_symmetric

__all__ = [
    "make_rng",
    "random_matrix",
    "random_symmetric",
    "random_skew",
    "random_orthogonal",
    "random_spd_ratio",
    "random_spd_exp",
]

# The largest trial count ``_draw_trials`` draws, and so ``verify --trials`` accepts.
# The whole verify suite's peak RSS grows by about 2.3 KB a trial (61.5 MB at 10^4
# trials, 130.9 MB at 4 * 10^4 and 228 MB, 94 s, at this bound; Python 3.11, numpy 2.4,
# 2-core Xeon), so a run stays under the 256 MB of kinematics.MAX_RECORD_BYTES.
MAX_TRIALS = 80_000


def make_rng(seed: int) -> np.random.Generator:
    """Philox4x64-10 generator keyed by an integer seed in [0, 2**64 - 1]: TypeError
    for a bool or a non-integer (which would key a truncated seed), else ValueError."""
    if isinstance(seed, bool) or not hasattr(type(seed), "__index__"):
        raise TypeError(f"seed must be an integer, got {seed!r}")
    if not 0 <= (seed := operator.index(seed)) <= 2**64 - 1:
        raise ValueError(f"seed must be in [0, 2**64 - 1], got {seed!r}")
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def random_matrix(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    """One dim*dim block of uniform(-scale, scale) draws, row-major."""
    return rng.uniform(-scale, scale, (dim, dim))


def random_symmetric(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    """Symmetric part of one random_matrix draw."""
    m = random_matrix(rng, dim, scale)
    return 0.5 * (m + m.T)


def random_skew(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    """Skew part of one random_matrix draw."""
    m = random_matrix(rng, dim, scale)
    return 0.5 * (m - m.T)


def random_orthogonal(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Eigenvector frame of one random_symmetric draw.

    Using the package's own eigensolver keeps the result independent of any
    LAPACK build, which matters for byte-reproducible outputs.
    """
    return eigendecompose_symmetric(random_symmetric(rng, dim)).q


def random_spd_ratio(
    rng: np.random.Generator, dim: int, max_log10_ratio: float = 3.0
) -> np.ndarray:
    """SPD matrix with eigenvalue ratio at most 10**max_log10_ratio.

    Draws: dim uniform exponents in [-r/2, r/2] (r = max_log10_ratio), then
    one random_orthogonal frame; ValueError before any draw unless r is in [0, 600].
    """
    if not 0.0 <= max_log10_ratio <= 600.0:
        raise ValueError(f"max_log10_ratio must be in [0, 600], got {max_log10_ratio!r}")
    half = 0.5 * max_log10_ratio
    lam = 10.0 ** rng.uniform(-half, half, dim)
    return _spectral(random_orthogonal(rng, dim), lam)


def random_spd_exp(rng: np.random.Generator, dim: int, scale: float = 1.5):
    """(A, S) with A = exp(S) for one random_symmetric S; ln A = S exactly.

    Draws: one random_symmetric with entries uniform(-scale, scale).
    """
    s = random_symmetric(rng, dim, scale)
    return _spd_exp(_eigendecompose_stack(s[None]))[0], s


def _spd_exp(dec) -> np.ndarray:
    """exp S of each S of a stack, from its decomposition, as ``random_spd_exp``."""
    return _spectral(dec.q, np.exp(dec.eigenvalues))


def _draw_trials(seed: int, trials: int, *spec) -> list:
    """One C-contiguous stack per (kind, scale) of ``spec``, drawn in one generator call
    keyed ``seed``: each trial draws its spec columns in order, each block row-major, as
    the public helpers would draw them one trial at a time.  "mat", "sym" and "skew" give
    (N, 3, 3) stacks, "vec" (N, 3) and "scalar" (N,).  ValueError before any draw
    unless 1 <= trials <= MAX_TRIALS."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if trials > MAX_TRIALS:
        raise ValueError(f"trials must be at most MAX_TRIALS = {MAX_TRIALS}, got {trials}")
    widths = [{"mat": 9, "sym": 9, "skew": 9, "vec": 3, "scalar": 1}.get(k, 0) for k, _ in spec]
    if 0 in widths:
        raise ValueError(f"unknown draw kind {spec[widths.index(0)][0]!r}")
    hi = np.repeat([scale for _, scale in spec], widths)
    flat = make_rng(seed).uniform(-hi, hi, (trials, hi.size))
    stacks = []
    for (kind, _), m in zip(spec, np.split(flat, np.cumsum(widths)[:-1], axis=1)):
        m = m.reshape(trials, 3, 3) if m.shape[1] == 9 else m[:, 0] if kind == "scalar" else m
        half = {"sym": np.add, "skew": np.subtract}.get(kind)
        stacks.append(np.ascontiguousarray(0.5 * half(m, m.swapaxes(1, 2)) if half else m))
    return stacks
