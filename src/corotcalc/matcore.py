"""Dense square-matrix value types and a self-contained symmetric eigensolver.

Plain float64 numpy arrays are the computational carrier throughout the
package.  The classes in this module add boundary validation (finiteness,
symmetry, skewness, positive definiteness) and freeze their storage so that
instances behave as immutable values.  Every operation is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, compress, cycle

import numpy as np

__all__ = [
    "DEFAULT_SYM_TOL",
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
    "frobenius_dot",
    "frobenius_norm",
    "eigendecompose_symmetric",
]

DEFAULT_SYM_TOL = 1e-10
DEFAULT_EIG_TOL = 1e-12
DEFAULT_MAX_SWEEPS = 64
_HALF_MAX = np.finfo(float).max / 2  # the sum of two entries below this is finite
# Stacks of fewer matrices go to the scalar solver.  At d = 3 (2-core Xeon) a
# stacked solve took 0.6 to 1.0 ms for one matrix, 0.6 to 0.7 ms for 16 and
# 1.3 ms for 200; the scalar solver 40 to 64 us a matrix: they meet at 16 to 20.
_STACK_MIN = 16


class MatrixValidationError(ValueError):
    """An array cannot be accepted as a matrix value."""


class DimensionMismatchError(ValueError):
    """Operands of a binary operation have different dimensions."""


class NotSymmetricError(MatrixValidationError):
    """Asymmetry exceeds the symmetrization tolerance."""


class NotSkewError(MatrixValidationError):
    """Deviation from skew-symmetry exceeds the tolerance."""


class NotSpdError(MatrixValidationError):
    """A symmetric matrix has a non-positive eigenvalue."""

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


def _square_finite(entries, convert=np.array) -> np.ndarray:
    """``convert(entries, dtype=float)`` if square and finite, else MatrixValidationError."""
    try:
        arr = convert(entries, dtype=float)
    except (TypeError, ValueError) as exc:  # an entry that is not a number, or ragged rows
        raise MatrixValidationError(f"matrix entries must be numbers: {exc}") from None
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise MatrixValidationError(f"expected a square matrix, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise MatrixValidationError("matrix dimension must be at least 1")
    if not np.isfinite(arr).all():
        raise MatrixValidationError("matrix entries must be finite")
    return arr


def as_array(a) -> np.ndarray:
    """Coerce a Matrix or array-like to a validated float64 square array."""
    if isinstance(a, Matrix):
        return a.array
    return _square_finite(a, np.asarray)


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
    """(max|A - A^T|, tol (1 + max|A|), max|A| > _HALF_MAX), or max|A + A^T| first
    with ``skew``.  Above half the float range the difference is taken of the
    halved entries and doubled, so that it cannot overflow."""
    scale = float(np.abs(arr).max())
    huge = scale > _HALF_MAX
    a = 0.5 * arr if huge else arr
    defect = float(np.abs(a + a.T if skew else a - a.T).max())
    return (2.0 * defect if huge else defect), tol * (1.0 + scale), huge


def _half_sum(a: np.ndarray, b: np.ndarray, huge: bool) -> np.ndarray:
    """0.5 (a + b); with ``huge``, 0.5 a + 0.5 b (exact there) where the sum overflows."""
    if not huge:
        return 0.5 * (a + b)
    with np.errstate(over="ignore"):
        out = 0.5 * (a + b)
    return np.where(np.isfinite(out), out, 0.5 * a + 0.5 * b)


def _require_spd(dec: "EigenDecomposition") -> "EigenDecomposition":
    """``dec`` (one matrix or a stack) if every eigenvalue is positive, the
    package's one SPD rule; else NotSpdError with the first offending one."""
    smallest = dec.eigenvalues[..., -1]
    if not (smallest > 0.0).all():
        raise NotSpdError(np.extract(~(smallest > 0.0), smallest)[0])
    return dec


class Matrix:
    """Immutable dense d-by-d real matrix (row-major semantics)."""

    __slots__ = ("_array",)

    def __init__(self, entries):
        self._freeze(_square_finite(entries))

    def _freeze(self, arr: np.ndarray) -> None:
        """Keep ``arr``, checked already, read-only and uncopied."""
        arr.setflags(write=False)
        object.__setattr__(self, "_array", arr)

    @property
    def array(self) -> np.ndarray:
        return self._array

    @property
    def dim(self) -> int:
        return self._array.shape[0]

    def __array__(self, dtype=None, copy=None):
        return np.array(self._array, dtype=dtype, copy=copy)

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
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
            raise MatrixValidationError(f"invalid dimension {dim!r}")
        try:
            rows = np.asarray(obj["rows"])
        except (TypeError, ValueError) as exc:  # ragged rows
            raise MatrixValidationError(f"matrix entries must be numbers: {exc}") from None
        if rows.dtype.kind not in "iuf":  # booleans, strings and other objects
            raise MatrixValidationError(f"matrix entries must be numbers, got {rows.dtype}")
        # numpy reads a boolean among numbers as 1 or 0
        if rows.ndim == 2 and bool in {type(x) for row in obj["rows"] for x in row}:
            raise MatrixValidationError("matrix entries must be numbers, got a boolean")
        matrix = object.__new__(Matrix)
        matrix._freeze(_square_finite(rows, np.asarray))  # rows is ours: converted once, not copied
        if cls is not Matrix:
            matrix = cls(matrix)  # a value type checks its own property only
        if matrix.dim != dim:
            raise MatrixValidationError(f"'rows' is {matrix.dim}x{matrix.dim}, 'dim' is {dim}")
        return matrix


def _symmetrized(entries, sym_tol: float, skew: bool = False) -> np.ndarray:
    """(A + A^T)/2, or with ``skew`` (A - A^T)/2, whose diagonal x + (-x) is +0.0.

    The one check of the entries: ``as_array`` (which takes a Matrix as
    checked already), then symmetry or skewness within ``sym_tol``.
    """
    arr = as_array(entries)
    defect, bound, huge = _symmetry_defect(arr, sym_tol, skew)
    if defect > bound:
        if skew:
            raise NotSkewError(
                f"deviation from skew-symmetry {defect:.3e} exceeds tolerance {bound:.3e}"
            )
        raise NotSymmetricError(f"asymmetry {defect:.3e} exceeds tolerance {bound:.3e}")
    return _half_sum(arr, -arr.T if skew else arr.T, huge)


class SymMatrix(Matrix):
    """Symmetric matrix; the constructor symmetrizes borderline input.

    Input with relative asymmetry above ``sym_tol`` is rejected, otherwise it
    is replaced by (A + A^T)/2 so that downstream code sees an exactly
    symmetric array.
    """

    __slots__ = ()

    def __init__(self, entries, sym_tol: float = DEFAULT_SYM_TOL):
        self._freeze(_symmetrized(entries, sym_tol))


class SkewMatrix(Matrix):
    """Skew-symmetric matrix; construction zeroes the diagonal exactly."""

    __slots__ = ()

    def __init__(self, entries, sym_tol: float = DEFAULT_SYM_TOL):
        self._freeze(_symmetrized(entries, sym_tol, skew=True))


class SpdMatrix(SymMatrix):
    """Symmetric positive definite matrix, checked by the module eigensolver."""

    __slots__ = ("_decomposition",)

    def __init__(self, entries, sym_tol: float = DEFAULT_SYM_TOL):
        arr = _symmetrized(entries, sym_tol)
        self._freeze(arr)
        object.__setattr__(self, "_decomposition", _require_spd(_jacobi(arr)))

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
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(vals))):
            raise MatrixValidationError("decomposition entries must be finite")
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

    @classmethod
    def _trusted(cls, q: np.ndarray, eigenvalues: np.ndarray) -> "EigenDecomposition":
        """Wrap factors the library computed itself: frozen in place, unchecked.

        ``q`` may also be a stack of shape (N, d, d) with ``eigenvalues`` of
        shape (N, d), one decomposition per matrix.
        """
        q.setflags(write=False)
        eigenvalues.setflags(write=False)
        dec = object.__new__(cls)
        object.__setattr__(dec, "q", q)
        object.__setattr__(dec, "eigenvalues", eigenvalues)
        return dec

    @property
    def dim(self) -> int:
        return self.q.shape[-1]


def frobenius_dot(u, v) -> float:
    """Trace inner product Tr(U V^T) = sum of elementwise products."""
    uu, vv = _gate(u, v)
    return float(np.sum(uu * vv))


def frobenius_norm(u) -> float:
    return float(_norms(as_array(u)))


def _norms(x: np.ndarray) -> np.ndarray:
    """The Frobenius norm of a matrix, or of each matrix of a stack.  Where the sum of
    squares overflows it is taken again of the entries scaled by an exact power of two."""
    with np.errstate(over="ignore"):
        out = np.sqrt((x * x).sum(axis=(-2, -1)))
    over = np.isinf(out)
    if over.any():
        exp2 = np.frexp(np.max(np.abs(x), axis=(-2, -1)))[1]
        scaled = np.ldexp(x, -exp2[..., None, None])
        out = np.where(over, np.ldexp(np.sqrt(np.sum(scaled * scaled, axis=(-2, -1))), exp2), out)
    return out


def _dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``frobenius_dot`` of each pair of matrices of two stacks."""
    return np.sum(u * v, axis=(-2, -1))


def _worst(residuals) -> float:
    """The largest residual, 0.0 for none; a NaN residual makes it NaN."""
    return float(np.max(residuals, initial=0.0))


def _spectral(q: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Q diag(vals) Q^T, symmetrized; one per matrix of a stack."""
    out = (q * vals[..., None, :]) @ q.swapaxes(-1, -2)
    return 0.5 * (out + out.swapaxes(-1, -2))


def _hadamard(dec: EigenDecomposition, table: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Q (T o Q^T X Q) Q^T: the table applied entrywise in the eigenbasis of dec,
    unchecked; a stacked dec takes a stack X."""
    q, qt = dec.q, dec.q.swapaxes(-1, -2)
    return q @ (table * (qt @ x @ q)) @ qt


def eigendecompose_symmetric(s) -> EigenDecomposition:
    """Diagonalize a symmetric matrix by cyclic Jacobi rotations.

    Sweeps rotate every off-diagonal pivot in a fixed row-major order until
    the off-diagonal Frobenius norm drops below a fraction of
    ``DEFAULT_EIG_TOL * (1 + ||S||_F)``, which keeps the reconstruction
    residual of the returned factors below ``DEFAULT_EIG_TOL * (1 + ||S||_F)``.
    A matrix whose squared Frobenius norm overflows is solved scaled by an
    exact power of two; an eigenvalue beyond the float range raises
    MatrixValidationError.  Eigenvalues are returned in descending order with
    the eigenvector columns permuted to match.  Deterministic for a fixed
    input: no pivoting decisions depend on anything but the matrix values.
    """
    return _jacobi(_require_symmetric(as_array(s)))


def _require_symmetric(arr: np.ndarray) -> np.ndarray:
    """``arr`` if symmetric within DEFAULT_SYM_TOL: the eigensolver's gate."""
    asym, bound, _ = _symmetry_defect(arr)
    if asym > bound:
        raise NotSymmetricError("input to the symmetric eigensolver is not symmetric")
    return arr


def _jacobi(arr: np.ndarray) -> EigenDecomposition:
    """``eigendecompose_symmetric`` of an array that passed its gate, unchecked."""
    d = arr.shape[0]
    # Scalar (pure Python) working storage: at d <= 16 the per-call overhead
    # of array ops dominates, and plain floats keep the solver free of any
    # backend dependence.  An average that overflows is a silent inf here
    # and sends the matrix to the scaled solve.
    rows = arr.tolist()
    a = [[0.5 * (x + y) for x, y in zip(row, col)] for row, col in zip(rows, zip(*rows))]
    sum_sq = _sum_squares(a, diagonal=True)
    if math.isinf(sum_sq):
        # Largest entry scaled below 2^(511 - bit_length(d)): the squared
        # norm is finite and small entries stay normal floats.
        exp2 = math.frexp(float(np.max(np.abs(arr))))[1] - 511 + d.bit_length()
        dec = _jacobi(np.ldexp(arr, -exp2))
        with np.errstate(over="ignore"):
            vals = np.ldexp(dec.eigenvalues, exp2)
        if np.isinf(vals).any():
            raise MatrixValidationError("an eigenvalue lies beyond the float range")
        return EigenDecomposition._trusted(dec.q, vals)
    qt = [[1.0 if i == j else 0.0 for j in range(d)] for i in range(d)]  # Q^T = I
    sqrt = math.sqrt
    rng_d = range(d)

    stop = 0.05 * DEFAULT_EIG_TOL * (1.0 + sqrt(sum_sq))

    off = sqrt(_sum_squares(a))
    converged = off <= stop
    for sweep in range(DEFAULT_MAX_SWEEPS):
        if converged:
            break
        # Skip near-converged pivots early on; rotate everything later.
        thresh = 0.2 * off / (d * d) if sweep < 3 else 0.0
        for p in range(d - 1):
            ap, qp = a[p], qt[p]
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
                    t = 1.0 / (abs(theta) + sqrt(1.0 + theta * theta))
                    if theta < 0.0:
                        t = -t
                c = 1.0 / sqrt(1.0 + t * t)
                s_ = t * c
                # Two-sided rotation A <- J^T A J with J mixing columns p, r,
                # and Q^T <- J^T Q^T.  A stays exactly symmetric, so off the
                # pivot block rows p and r of J^T (A J) are copies of its
                # columns p and r; the block, written last, is rotated from
                # both sides (this loop's writes to it at i = p, r are dead).
                qr = qt[r]
                for i in rng_d:
                    ai = a[i]
                    cp = ai[p]
                    cr = ai[r]
                    ap[i] = ai[p] = c * cp - s_ * cr
                    ar[i] = ai[r] = s_ * cp + c * cr
                    x = qp[i]
                    y = qr[i]
                    qp[i] = c * x - s_ * y
                    qr[i] = s_ * x + c * y
                # A J at (p, p), (p, r) and (r, r), then J^T on the left
                cpp, cpr, crr = c * app - s_ * apr, s_ * app + c * apr, s_ * apr + c * arr_
                ap[p] = c * cpp - s_ * (c * apr - s_ * arr_)
                ar[r] = s_ * cpr + c * crr
                ap[r] = 0.0
                ar[p] = 0.0
        off = sqrt(_sum_squares(a))
        converged = off <= stop
    if not converged:
        raise EigenConvergenceError(off, DEFAULT_MAX_SWEEPS)

    diag = np.array([a[i][i] for i in rng_d])
    order = np.argsort(-diag, kind="stable")
    return EigenDecomposition._trusted(np.array(qt).take(order, 0).T, diag[order])


def _sum_squares(a: list, diagonal: bool = False) -> float:
    """Sum of the squared entries, off the diagonal unless ``diagonal``, in row-major order."""
    entries = chain.from_iterable(a)
    if not diagonal:  # row-major, the diagonal is every (d + 1)-th entry from the first
        entries = compress(entries, cycle((False,) + (True,) * len(a)))
    acc = 0.0
    for x in entries:
        acc += x * x
    return acc


def _eigendecompose_stack(s) -> EigenDecomposition:
    """``eigendecompose_symmetric`` of every matrix of an (N, d, d) stack at once.

    Each matrix gets ``_jacobi``'s arithmetic (pivot order, threshold, zeroing,
    rotation, stop rule, sequential sums of squares), so each factor and eigenvalue
    is bit-identical to its own, signed zeros included.  A and Q^T share one
    (d, 2d, N) array W, W[i, :d] row i of A and W[i, d:] row i of Q^T, each entry a
    contiguous vector over the stack.  At a pivot every live matrix takes
    c W[p] - s W[r] and s W[p] + c W[r] (``_jacobi``'s products on the rows p and r
    of A and of Q^T) and A's 2x2 block in closed form; a masked copy keeps them
    where ``_jacobi`` rotates, and A's columns p and r are copied from the rows
    kept.  The live set is compacted once per sweep.  A matrix whose squared norm
    overflows, and a stack of fewer than ``_STACK_MIN``, take ``_jacobi``.  The
    first unconverged matrix is reported.  Returns q (N, d, d), eigenvalues (N, d).
    """
    arr = np.asarray(s, dtype=float)
    if not np.isfinite(arr).all():
        raise MatrixValidationError("matrix entries must be finite")
    n, d = arr.shape[0], arr.shape[-1]
    with np.errstate(over="ignore"):  # an asymmetry that overflows is inf, and rejected
        asym = np.abs(arr - arr.swapaxes(1, 2)).max(axis=(1, 2))
    if np.any(asym > DEFAULT_SYM_TOL * (1.0 + np.abs(arr).max(axis=(1, 2)))):
        raise NotSymmetricError("input to the symmetric eigensolver is not symmetric")
    if n < _STACK_MIN:
        decs = [_jacobi(m) for m in arr]
        q = np.array([dec.q for dec in decs]).reshape(arr.shape)
        vals = np.array([dec.eigenvalues for dec in decs]).reshape(arr.shape[:-1])
        return EigenDecomposition._trusted(q, vals)

    # an average may overflow here, and so may the rotations that are not kept
    with np.errstate(all="ignore"):
        w = np.zeros((d, 2 * d, n))
        w[:, :d] = (0.5 * (arr + arr.swapaxes(1, 2))).transpose(1, 2, 0)
        w[range(d), range(d, 2 * d)] = 1.0  # Q = I
        sum_sq = _stack_sum_squares(w[:, :d], diagonal=True)
        scaled = np.flatnonzero(np.isinf(sum_sq))
        w[:, :d, scaled] = 0.0  # solved one at a time below; never live here
        stop = 0.05 * DEFAULT_EIG_TOL * (1.0 + np.sqrt(sum_sq))
        off = np.sqrt(_stack_sum_squares(w[:, :d]))
        pivots = [(p, r) for p in range(d - 1) for r in range(p + 1, d)]
        live = np.flatnonzero(off > stop)
        wl = w.take(live, axis=2)  # the live matrices, C-contiguous
        for sweep in range(DEFAULT_MAX_SWEEPS):
            if live.size == 0:
                break
            thresh = 0.2 * off[live] / (d * d) if sweep < 3 else 0.0
            for p, r in pivots:
                wp, wr = wl[p], wl[r]
                apr, app, arr_ = wp[r], wp[p], wr[r]
                g = 100.0 * (abs_apr := np.abs(apr))
                rot = abs_apr > thresh  # so never where apr == 0.0
                if sweep >= 4:
                    tiny = (np.abs(app) + g == np.abs(app)) & (np.abs(arr_) + g == np.abs(arr_))
                    if tiny.any():
                        wp[r] = wr[p] = apr = np.where(tiny, 0.0, apr)
                        rot &= ~tiny
                if not rot.any():
                    continue
                abs_h = np.abs(h := arr_ - app)
                theta = 0.5 * h / apr + 0.0  # -0.0 to +0.0: _jacobi flips t only where theta < 0.0
                t = np.sqrt(theta * theta + 1.0)  # theta + copysign(t, theta): +-(|theta| + t)
                t = np.where(abs_h + g == abs_h, apr / h, 1.0 / (theta + np.copysign(t, theta)))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s_ = t * c
                # off the block, _jacobi's new rows; on it, A J, from which J^T (A J)
                new_p, new_r = c * wp - s_ * wr, s_ * wp + c * wr
                new_p[p], new_r[r] = c * new_p[p] - s_ * new_p[r], s_ * new_r[p] + c * new_r[r]
                new_p[r] = new_r[p] = 0.0
                if not rot.all():  # else a plain copy
                    new_p, new_r = np.where(rot, new_p, wp), np.where(rot, new_r, wr)
                wp[...], wr[...] = new_p, new_r
                wl[:, p], wl[:, r] = wp[:d], wr[:d]  # from the rows kept, not the new ones
            off[live] = np.sqrt(_stack_sum_squares(wl[:, :d]))
            done = off[live] <= stop[live]
            if done.any():
                w[..., live[done]] = wl[..., done]
                live, wl = live[~done], wl.compress(~done, 2)
    if live.size:
        raise EigenConvergenceError(off[live[0]], DEFAULT_MAX_SWEEPS)

    diag = w[range(d), range(d)].T
    order = np.argsort(-diag, axis=1, kind="stable")
    vals = np.take_along_axis(diag, order, axis=1)
    q = np.take_along_axis(w[:, d:].transpose(2, 1, 0), order[:, None, :], axis=2)
    for i in scaled:
        dec = _jacobi(arr[i])
        q[i], vals[i] = dec.q, dec.eigenvalues
    return EigenDecomposition._trusted(q, vals)


def _split_solve(stacks) -> list:
    """``_eigendecompose_stack`` of each of several stacks by one solve of their
    concatenation.  Each decomposition is bit-identical to its stack's own, and
    an error is the one that solving the stacks one after another raises."""
    try:
        dec = _eigendecompose_stack(np.concatenate(stacks))
    except (MatrixValidationError, EigenConvergenceError):
        for s in stacks:
            _eigendecompose_stack(s)
        raise
    ends = np.cumsum([len(s) for s in stacks])[:-1]
    return [EigenDecomposition._trusted(q, vals)
            for q, vals in zip(np.split(dec.q, ends), np.split(dec.eigenvalues, ends))]


def _stack_sum_squares(a: np.ndarray, diagonal: bool = False) -> np.ndarray:
    """``_sum_squares`` of each matrix of a (d, d, N) stack, in the same sequential order."""
    sq = (a * a).reshape(-1, a.shape[-1])
    if not diagonal:
        sq[:: a.shape[0] + 1] = 0.0  # adding +0.0 leaves a sum of squares unchanged
    return np.cumsum(sq, axis=0)[-1]  # sequential: sum() of one column would be pairwise
