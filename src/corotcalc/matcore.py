"""Dense square-matrix value types and a self-contained symmetric eigensolver.

Plain float64 numpy arrays are the computational carrier throughout the
package.  The classes in this module add boundary validation (finiteness,
symmetry, skewness, positive definiteness) and freeze their storage so that
instances behave as immutable values.  Every operation is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_SYM_TOL",
    "DEFAULT_SPD_TOL",
    "DEFAULT_EIG_TOL",
    "DEFAULT_MAX_SWEEPS",
    "MatrixValidationError",
    "DimensionMismatchError",
    "NotSymmetricError",
    "NotSkewError",
    "NotSpdError",
    "EigenConvergenceError",
    "Matrix",
    "SymMatrix",
    "SkewMatrix",
    "SpdMatrix",
    "EigenDecomposition",
    "as_array",
    "is_symmetric",
    "is_skew",
    "multiply",
    "frobenius_dot",
    "frobenius_norm",
    "sym_part",
    "skew_part",
    "eigendecompose_symmetric",
]

DEFAULT_SYM_TOL = 1e-10
DEFAULT_SPD_TOL = 1e-12
DEFAULT_EIG_TOL = 1e-12
DEFAULT_MAX_SWEEPS = 64


class MatrixValidationError(ValueError):
    """An array cannot be accepted as a matrix value."""


class DimensionMismatchError(ValueError):
    """Operands of a binary operation have different dimensions."""


class NotSymmetricError(MatrixValidationError):
    """Asymmetry exceeds the symmetrization tolerance."""


class NotSkewError(MatrixValidationError):
    """Deviation from skew-symmetry exceeds the tolerance."""


class NotSpdError(MatrixValidationError):
    """A symmetric matrix has a non-positive (or too small) eigenvalue."""

    def __init__(self, smallest_eigenvalue: float):
        self.smallest_eigenvalue = float(smallest_eigenvalue)
        super().__init__(
            "matrix is not positive definite: smallest eigenvalue "
            f"{self.smallest_eigenvalue:.17g}"
        )


class EigenConvergenceError(RuntimeError):
    """The Jacobi sweep budget was exhausted before the target accuracy."""

    def __init__(self, off_norm: float, sweeps: int):
        self.off_norm = float(off_norm)
        self.sweeps = int(sweeps)
        super().__init__(
            f"eigensolver did not converge after {sweeps} sweeps; "
            f"final off-diagonal norm {self.off_norm:.3e}"
        )


def _check_square_finite(arr: np.ndarray) -> np.ndarray:
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise MatrixValidationError(f"expected a square matrix, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise MatrixValidationError("matrix dimension must be at least 1")
    if not np.all(np.isfinite(arr)):
        raise MatrixValidationError("matrix entries must be finite")
    return arr


def as_array(a) -> np.ndarray:
    """Coerce a Matrix or array-like to a validated float64 square array."""
    if isinstance(a, Matrix):
        return a.array
    arr = np.asarray(a, dtype=float)
    return _check_square_finite(arr)


def _gate(*args, shape=None) -> tuple:
    """Each argument through ``as_array``; DimensionMismatchError unless all
    have ``shape`` (default: the shape of the first)."""
    arrays = tuple(as_array(a) for a in args)
    want = arrays[0].shape if shape is None else shape
    for arr in arrays:
        if arr.shape != want:
            raise DimensionMismatchError(f"shape mismatch {want} vs {arr.shape}")
    return arrays


def _symmetry_defect(arr: np.ndarray, tol: float = DEFAULT_SYM_TOL, skew: bool = False) -> tuple:
    """(max|A - A^T|, tol (1 + max|A|)), or max|A + A^T| first with ``skew``."""
    defect = float(np.max(np.abs(arr + arr.T if skew else arr - arr.T)))
    return defect, tol * (1.0 + float(np.max(np.abs(arr))))


def is_symmetric(a) -> bool:
    defect, bound = _symmetry_defect(as_array(a))
    return defect <= bound


def is_skew(a) -> bool:
    defect, bound = _symmetry_defect(as_array(a), skew=True)
    return defect <= bound


class Matrix:
    """Immutable dense d-by-d real matrix (row-major semantics)."""

    __slots__ = ("_array",)

    def __init__(self, entries):
        arr = _check_square_finite(np.array(entries, dtype=float))
        arr.setflags(write=False)
        object.__setattr__(self, "_array", arr)

    @property
    def array(self) -> np.ndarray:
        return self._array

    @property
    def dim(self) -> int:
        return self._array.shape[0]

    def __array__(self, dtype=None, copy=None):
        if dtype is None:
            return self._array
        return self._array.astype(dtype)

    def __repr__(self):
        return f"{type(self).__name__}({self._array.tolist()!r})"

    def to_json_dict(self) -> dict:
        """Wire form: {"dim": d, "rows": [[...], ...]}."""
        return {"dim": self.dim, "rows": [list(row) for row in self._array.tolist()]}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Matrix":
        if not isinstance(obj, dict) or "dim" not in obj or "rows" not in obj:
            raise MatrixValidationError("matrix object must have 'dim' and 'rows' keys")
        dim = obj["dim"]
        rows = obj["rows"]
        if not isinstance(dim, int) or dim < 1:
            raise MatrixValidationError(f"invalid dimension {dim!r}")
        if len(rows) != dim or any(len(r) != dim for r in rows):
            raise MatrixValidationError("'rows' shape does not match 'dim'")
        return cls(rows)

    @staticmethod
    def identity(dim: int) -> "Matrix":
        return Matrix(np.eye(dim))

    @staticmethod
    def zeros(dim: int) -> "Matrix":
        return Matrix(np.zeros((dim, dim)))


class SymMatrix(Matrix):
    """Symmetric matrix; the constructor symmetrizes borderline input.

    Input with relative asymmetry above ``sym_tol`` is rejected, otherwise it
    is replaced by (A + A^T)/2 so that downstream code sees an exactly
    symmetric array.
    """

    __slots__ = ()

    def __init__(self, entries, sym_tol: float = DEFAULT_SYM_TOL):
        arr = _check_square_finite(np.array(entries, dtype=float))
        asym, bound = _symmetry_defect(arr, sym_tol)
        if asym > bound:
            raise NotSymmetricError(
                f"asymmetry {asym:.3e} exceeds tolerance {bound:.3e}"
            )
        super().__init__(0.5 * (arr + arr.T))


class SkewMatrix(Matrix):
    """Skew-symmetric matrix; construction zeroes the diagonal exactly."""

    __slots__ = ()

    def __init__(self, entries, sym_tol: float = DEFAULT_SYM_TOL):
        arr = _check_square_finite(np.array(entries, dtype=float))
        dev, bound = _symmetry_defect(arr, sym_tol, skew=True)
        if dev > bound:
            raise NotSkewError(
                f"deviation from skew-symmetry {dev:.3e} exceeds tolerance {bound:.3e}"
            )
        skew = 0.5 * (arr - arr.T)
        np.fill_diagonal(skew, 0.0)
        super().__init__(skew)


class SpdMatrix(SymMatrix):
    """Symmetric positive definite matrix, checked by the module eigensolver."""

    __slots__ = ("_decomposition",)

    def __init__(self, entries, sym_tol: float = DEFAULT_SYM_TOL):
        super().__init__(entries, sym_tol=sym_tol)
        dec = eigendecompose_symmetric(self.array)
        smallest = float(dec.eigenvalues[-1])
        floor = DEFAULT_SPD_TOL * (1.0 + float(np.max(np.abs(dec.eigenvalues))))
        if smallest <= floor:
            raise NotSpdError(smallest)
        object.__setattr__(self, "_decomposition", dec)

    @property
    def decomposition(self) -> "EigenDecomposition":
        return self._decomposition


@dataclass(frozen=True)
class EigenDecomposition:
    """Orthogonal factor and descending eigenvalues of a symmetric matrix."""

    q: np.ndarray
    eigenvalues: np.ndarray

    def __post_init__(self):
        q = np.array(self.q, dtype=float)
        vals = np.array(self.eigenvalues, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1] or vals.shape != (q.shape[0],):
            raise MatrixValidationError("inconsistent decomposition shapes")
        if np.any(np.diff(vals) > 0):
            raise MatrixValidationError("eigenvalues must be sorted descending")
        d = q.shape[0]
        ortho = float(np.sqrt(np.sum((q.T @ q - np.eye(d)) ** 2)))
        if ortho > 1e-6 * d:
            raise MatrixValidationError(f"factor is not orthogonal: residual {ortho:.3e}")
        q.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "eigenvalues", vals)

    @property
    def dim(self) -> int:
        return self.q.shape[0]

    def reconstruct(self) -> np.ndarray:
        return self.q @ np.diag(self.eigenvalues) @ self.q.T

    def orthogonality_residual(self) -> float:
        d = self.dim
        return float(np.sqrt(np.sum((self.q.T @ self.q - np.eye(d)) ** 2)))

    def reconstruction_residual(self, source) -> float:
        src = as_array(source)
        return float(np.sqrt(np.sum((self.reconstruct() - src) ** 2)))


def multiply(a, b) -> np.ndarray:
    """Standard matrix product."""
    aa, bb = _gate(a, b)
    return aa @ bb


def frobenius_dot(u, v) -> float:
    """Trace inner product Tr(U V^T) = sum of elementwise products."""
    uu, vv = _gate(u, v)
    return float(np.sum(uu * vv))


def frobenius_norm(u) -> float:
    uu = as_array(u)
    return float(np.sqrt(np.sum(uu * uu)))


def sym_part(a) -> SymMatrix:
    arr = as_array(a)
    return SymMatrix(0.5 * (arr + arr.T))


def skew_part(a) -> SkewMatrix:
    arr = as_array(a)
    return SkewMatrix(0.5 * (arr - arr.T))


def eigendecompose_symmetric(s, max_sweeps: int = DEFAULT_MAX_SWEEPS) -> EigenDecomposition:
    """Diagonalize a symmetric matrix by cyclic Jacobi rotations.

    Sweeps rotate every off-diagonal pivot in a fixed row-major order until
    the off-diagonal Frobenius norm drops below a fraction of
    ``DEFAULT_EIG_TOL * (1 + ||S||_F)``, which keeps the reconstruction
    residual of the returned factors below ``DEFAULT_EIG_TOL * (1 + ||S||_F)``.
    A matrix whose squared Frobenius norm overflows is solved scaled by an
    exact power of two.  Eigenvalues are returned in descending order with the
    eigenvector columns permuted to match.  Deterministic for a fixed input:
    no pivoting decisions depend on anything but the matrix values.
    """
    arr = as_array(s)
    asym, bound = _symmetry_defect(arr)
    if asym > bound:
        raise NotSymmetricError("input to the symmetric eigensolver is not symmetric")
    d = arr.shape[0]
    if d == 1:
        return EigenDecomposition(np.eye(1), arr[0, :1].copy())

    # Scalar (pure Python) working storage: at d <= 16 the per-call overhead
    # of array ops dominates, and plain floats keep the solver free of any
    # backend dependence.
    a = [[float(x) for x in row] for row in 0.5 * (arr + arr.T)]
    sum_sq = sum(x * x for row in a for x in row)
    if math.isinf(sum_sq):
        # Largest entry scaled below 2^(511 - bit_length(d)): the squared
        # norm is finite and small entries stay normal floats.
        exp2 = math.frexp(float(np.max(np.abs(arr))))[1] - 511 + d.bit_length()
        dec = eigendecompose_symmetric(np.ldexp(arr, -exp2), max_sweeps)
        return EigenDecomposition(dec.q, np.ldexp(dec.eigenvalues, exp2))
    q = [[1.0 if i == j else 0.0 for j in range(d)] for i in range(d)]
    rng_d = range(d)

    stop = 0.05 * DEFAULT_EIG_TOL * (1.0 + math.sqrt(sum_sq))

    off = _off_norm(a, d)
    converged = off <= stop
    for sweep in range(max_sweeps):
        if converged:
            break
        # Skip near-converged pivots early on; rotate everything later.
        thresh = 0.2 * off / (d * d) if sweep < 3 else 0.0
        for p in range(d - 1):
            ap = a[p]
            for r in range(p + 1, d):
                ar = a[r]
                apr = ap[r]
                g = 100.0 * abs(apr)
                app = ap[p]
                arr_ = ar[r]
                if sweep >= 4 and abs(app) + g == abs(app) and abs(arr_) + g == abs(arr_):
                    ap[r] = 0.0
                    ar[p] = 0.0
                    continue
                if apr == 0.0 or abs(apr) <= thresh:
                    continue
                h = arr_ - app
                if abs(h) + g == abs(h):
                    t = apr / h
                else:
                    theta = 0.5 * h / apr
                    t = 1.0 / (abs(theta) + math.sqrt(1.0 + theta * theta))
                    if theta < 0.0:
                        t = -t
                c = 1.0 / math.sqrt(1.0 + t * t)
                s_ = t * c
                # Two-sided rotation A <- J^T A J with J mixing columns p, r.
                for i in rng_d:
                    ai = a[i]
                    cp = ai[p]
                    cr = ai[r]
                    ai[p] = c * cp - s_ * cr
                    ai[r] = s_ * cp + c * cr
                for j in rng_d:
                    rp = ap[j]
                    rr = ar[j]
                    ap[j] = c * rp - s_ * rr
                    ar[j] = s_ * rp + c * rr
                ap[r] = 0.0
                ar[p] = 0.0
                for i in rng_d:
                    qi = q[i]
                    qp_ = qi[p]
                    qr_ = qi[r]
                    qi[p] = c * qp_ - s_ * qr_
                    qi[r] = s_ * qp_ + c * qr_
        off = _off_norm(a, d)
        converged = off <= stop
    if not converged:
        raise EigenConvergenceError(off, max_sweeps)

    diag = np.array([a[i][i] for i in rng_d])
    order = np.argsort(-diag, kind="stable")
    q_arr = np.array(q)
    return EigenDecomposition(q_arr[:, order], diag[order])


def _off_norm(a: list, d: int) -> float:
    acc = 0.0
    for i in range(d):
        row = a[i]
        for j in range(d):
            if i != j:
                x = row[j]
                acc += x * x
    return math.sqrt(acc)
