"""Seeded random fixtures built on a counter-based generator.

All randomization in the package flows through Philox4x64-10 (numpy's
``Philox`` bit generator) keyed by a 64-bit seed, so fixtures are
reproducible bit-for-bit at the draw-sequence level and a port to another
language can replay them.  Draw order is documented per helper.
"""

from __future__ import annotations

import numpy as np

from .matcore import eigendecompose_symmetric

__all__ = [
    "make_rng",
    "random_matrix",
    "random_symmetric",
    "random_skew",
    "random_orthogonal",
    "random_spd_ratio",
    "random_spd_exp",
]


def make_rng(seed: int) -> np.random.Generator:
    """Philox4x64-10 generator keyed by a 64-bit unsigned seed."""
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
    q = random_orthogonal(rng, dim)
    out = (q * lam) @ q.T
    return 0.5 * (out + out.T)


def random_spd_exp(rng: np.random.Generator, dim: int, scale: float = 1.5):
    """(A, S) with A = exp(S) for one random_symmetric S; ln A = S exactly.

    Draws: one random_symmetric with entries uniform(-scale, scale).
    """
    s = random_symmetric(rng, dim, scale)
    dec = eigendecompose_symmetric(s)
    a = (dec.q * np.exp(dec.eigenvalues)) @ dec.q.T
    return 0.5 * (a + a.T), s
