import hashlib
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from corotcalc import matcore
from corotcalc.matcore import (
    EigenConvergenceError,
    EigenDecomposition,
    Matrix,
    MatrixValidationError,
    NotSkewError,
    NotSpdError,
    NotSymmetricError,
    SkewMatrix,
    SpdMatrix,
    SymMatrix,
    eigendecompose_symmetric,
    frobenius_dot,
    frobenius_norm,
    _eigendecompose_stack,
    _split_solve,
    _worst,
)

STACK_MIN = matcore._STACK_MIN


@pytest.fixture(autouse=True, scope="module")
def _stacked_solver_for_any_size():
    """Stacks of every size take the stacked solver in this module, so that the
    stack tests below check it and not the scalar solver it defers to."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matcore, "_STACK_MIN", 1)
        yield


# ---------------------------------------------------------------------------
# constructors and validation


def test_matrix_rejects_non_square():
    with pytest.raises(MatrixValidationError):
        Matrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    with pytest.raises(MatrixValidationError):
        matcore.as_array(np.zeros((0, 0)))


def test_matrix_rejects_non_finite():
    with pytest.raises(MatrixValidationError):
        Matrix([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(MatrixValidationError):
        Matrix([[np.inf, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize("make", [Matrix, SymMatrix, SkewMatrix, SpdMatrix, matcore.as_array])
@pytest.mark.parametrize("entries", [[["a", 0.0], [0.0, 1.0]], [[1.0, [2.0, 3.0]], [3.0, 4.0]],
                                     [[{}, 0.0], [0.0, 1.0]]])
def test_matrix_rejects_entries_that_are_not_numbers(make, entries):
    with pytest.raises(MatrixValidationError):
        make(entries)


def test_matrix_is_immutable():
    m = Matrix([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValueError):
        m.array[0, 0] = 9.0


def test_array_of_a_matrix_copies_and_asarray_views():
    m = Matrix([[1.0, 2.0], [3.0, 4.0]])
    copied = np.array(m)
    assert copied.flags.writeable and not np.shares_memory(copied, m.array)
    copied[0, 0] = 9.0
    assert m.array[0, 0] == 1.0
    viewed = np.asarray(m)
    assert np.shares_memory(viewed, m.array) and not viewed.flags.writeable
    assert np.asarray(m, dtype=np.float32).tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_sym_constructor_symmetrizes_borderline():
    eps = 1e-13
    m = SymMatrix([[1.0, 2.0 + eps], [2.0, 3.0]])
    np.testing.assert_allclose(m.array, m.array.T, rtol=0, atol=0)


def test_sym_constructor_rejects_large_asymmetry():
    with pytest.raises(NotSymmetricError):
        SymMatrix([[1.0, 2.0], [0.5, 3.0]])


def test_skew_constructor_zero_diagonal():
    eps = 1e-13
    m = SkewMatrix([[eps, 1.0], [-1.0, -eps]])
    assert m.array[0, 0] == 0.0 and m.array[1, 1] == 0.0
    np.testing.assert_allclose(m.array, -m.array.T, rtol=0, atol=0)


def test_skew_constructor_rejects_symmetric():
    with pytest.raises(NotSkewError):
        SkewMatrix([[0.0, 1.0], [1.0, 0.0]])


def test_spd_constructor_accepts_and_caches_decomposition():
    b = SpdMatrix([[2.0, 1.0], [1.0, 2.0]])
    np.testing.assert_allclose(b.decomposition.eigenvalues, [3.0, 1.0], atol=1e-14)


def test_spd_constructor_rejects_indefinite_with_eigenvalue():
    with pytest.raises(NotSpdError) as ei:
        SpdMatrix([[1.0, 2.0], [2.0, 1.0]])
    assert ei.value.smallest_eigenvalue == pytest.approx(-1.0, abs=1e-12)


def test_spd_constructor_accepts_any_positive_spectrum():
    # one SPD rule, smallest eigenvalue > 0, however wide the spectrum
    b = SpdMatrix(np.diag([1e13, 1.0, 1.0]))
    np.testing.assert_array_equal(b.decomposition.eigenvalues, [1e13, 1.0, 1.0])
    wide = SpdMatrix(np.diag(np.exp([250.0, 0.0, -250.0])))
    assert wide.decomposition.eigenvalues[-1] > 0.0
    with pytest.raises(NotSpdError):
        SpdMatrix(np.diag([1.0, 0.0]))


def test_sym_constructor_huge_entries_without_overflow():
    # 1e308 + 1e308 overflows; the average does not (RuntimeWarnings are errors)
    s = SymMatrix([[1e308, 1e308], [1e308, 1e308]])
    np.testing.assert_array_equal(s.array, [[1e308, 1e308], [1e308, 1e308]])
    w = SkewMatrix([[0.0, 1e308], [-1e308, 0.0]])
    np.testing.assert_array_equal(w.array, [[0.0, 1e308], [-1e308, 0.0]])


def test_symmetry_defect_huge_entries_without_overflow():
    # the defect of halved entries, doubled: no overflow (RuntimeWarnings are errors)
    with pytest.raises(NotSymmetricError):
        SymMatrix([[1e308, -1e308], [1e308, 1e308]])
    with pytest.raises(NotSkewError):
        SkewMatrix([[0.0, 1e308], [1e308, 0.0]])
    s = SymMatrix([[1e308, 5e307], [5e307, -1e308]])
    np.testing.assert_array_equal(s.array, [[1e308, 5e307], [5e307, -1e308]])


def test_sym_constructor_keeps_subnormal_average_bits():
    tiny = 5e-324  # the smallest subnormal: halving it alone rounds to zero
    a = np.array([[1.0, tiny], [tiny, 2.0]])
    np.testing.assert_array_equal(SymMatrix(a).array, 0.5 * (a + a.T))
    assert SymMatrix(a).array[0, 1] == tiny


def test_json_round_trip():
    m = Matrix([[1.0, 0.25], [-3.5, 4.0]])
    again = Matrix.from_json_dict(m.to_json_dict())
    np.testing.assert_array_equal(m.array, again.array)


def test_json_rejects_bad_shape():
    with pytest.raises(MatrixValidationError):
        Matrix.from_json_dict({"dim": 2, "rows": [[1.0, 2.0]]})


@pytest.mark.parametrize("rows", [5, [1.0, 2.0], None])
def test_json_rejects_rows_that_are_not_lists(rows):
    with pytest.raises(MatrixValidationError):
        Matrix.from_json_dict({"dim": 2, "rows": rows})


# ---------------------------------------------------------------------------
# frobenius_dot


def test_frobenius_dot_identity():
    assert frobenius_dot(np.eye(3), np.eye(3)) == 3.0


def test_frobenius_dot_single_entry():
    x = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert frobenius_dot(x, x) == 1.0


def test_frobenius_dot_elementwise_oracle():
    u = [[1.0, 2.0], [3.0, 4.0]]
    v = [[5.0, 6.0], [7.0, 8.0]]
    expected = sum(a * b for ra, rb in zip(u, v) for a, b in zip(ra, rb))
    assert expected == 70.0
    assert frobenius_dot(u, v) == expected


def test_frobenius_dot_positive_definite():
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.uniform(-1, 1, (3, 3))
        assert frobenius_dot(x, x) > 0
    assert frobenius_dot(np.zeros((3, 3)), np.zeros((3, 3))) == 0.0


# ---------------------------------------------------------------------------
# eigensolver


def test_eigen_identity():
    dec = eigendecompose_symmetric(np.eye(3))
    np.testing.assert_allclose(dec.eigenvalues, [1.0, 1.0, 1.0], atol=0)
    assert frobenius_norm(dec.q.T @ dec.q - np.eye(3)) <= 1e-14


def test_eigen_already_diagonal():
    dec = eigendecompose_symmetric(np.diag([7.0, 5.0, 2.0]))
    np.testing.assert_allclose(dec.eigenvalues, [7.0, 5.0, 2.0], atol=0)


def test_eigen_descending_order_from_shuffled_diagonal():
    dec = eigendecompose_symmetric(np.diag([2.0, 7.0, 5.0]))
    np.testing.assert_allclose(dec.eigenvalues, [7.0, 5.0, 2.0], atol=0)
    np.testing.assert_allclose(dec.q @ np.diag(dec.eigenvalues) @ dec.q.T,
                               np.diag([2.0, 7.0, 5.0]), atol=1e-14)


def test_eigen_characteristic_polynomial_oracle():
    # x^2 - 4x + 3 = 0 has roots 3 and 1.
    dec = eigendecompose_symmetric([[2.0, 1.0], [1.0, 2.0]])
    np.testing.assert_allclose(dec.eigenvalues, [3.0, 1.0], atol=1e-14)


def test_eigen_rejects_asymmetric():
    with pytest.raises(NotSymmetricError):
        eigendecompose_symmetric([[0.0, 1.0], [0.0, 0.0]])


def test_eigen_reports_convergence_failure(monkeypatch):
    monkeypatch.setattr(matcore, "DEFAULT_MAX_SWEEPS", 0)
    with pytest.raises(EigenConvergenceError) as ei:
        eigendecompose_symmetric([[2.0, 1.0], [1.0, 2.0]])
    assert ei.value.off_norm > 0


def test_eigen_deterministic():
    rng = np.random.default_rng(11)
    s = rng.uniform(-1, 1, (5, 5))
    s = 0.5 * (s + s.T)
    d1 = eigendecompose_symmetric(s)
    d2 = eigendecompose_symmetric(s)
    np.testing.assert_array_equal(d1.q, d2.q)
    np.testing.assert_array_equal(d1.eigenvalues, d2.eigenvalues)


def test_eigen_reconstruction_residual_bulk():
    # Random symmetric matrices across the supported small dimensions.
    rng = np.random.default_rng(2024)
    trials_per_dim = 3334
    for d in (2, 3, 5):
        for _ in range(trials_per_dim):
            s = rng.uniform(-1, 1, (d, d))
            s = 0.5 * (s + s.T)
            dec = eigendecompose_symmetric(s)
            scale = 1.0 + frobenius_norm(s)
            residual = frobenius_norm(dec.q @ np.diag(dec.eigenvalues) @ dec.q.T - s)
            assert residual <= 1e-12 * scale


def test_eigen_permutation_invariance():
    rng = np.random.default_rng(5)
    for _ in range(50):
        s = rng.uniform(-1, 1, (4, 4))
        s = 0.5 * (s + s.T)
        perm = rng.permutation(4)
        p = np.eye(4)[:, perm]
        sp = p.T @ s @ p
        e1 = np.sort(eigendecompose_symmetric(s).eigenvalues)
        e2 = np.sort(eigendecompose_symmetric(sp).eigenvalues)
        np.testing.assert_allclose(e1, e2, atol=1e-12)


@pytest.mark.parametrize(
    "s",
    [
        [[1e200, 1e199], [1e199, 1e200]],
        [[3e300, -1e300, 0.0], [-1e300, 2e300, 5e299], [0.0, 5e299, -4e300]],
        [[1e160, 1e155, 2.0], [1e155, -1e160, 0.0], [2.0, 0.0, 1.0]],
    ],
    ids=["2x2", "3x3_near_max", "3x3_wide"],
)
def test_eigen_squared_norm_overflow(s):
    # The squared Frobenius norm overflows while the eigenvalues are finite.
    ours = eigendecompose_symmetric(s).eigenvalues
    ref = np.sort(np.linalg.eigvalsh(np.array(s)))[::-1]
    assert np.max(np.abs(ours - ref)) <= 1e-14 * np.max(np.abs(ref)), (ours, ref)


def test_eigen_matches_numpy_eigh():
    rng = np.random.default_rng(17)
    for d in (2, 3, 5, 8):
        s = rng.uniform(-1, 1, (d, d))
        s = 0.5 * (s + s.T)
        ours = eigendecompose_symmetric(s).eigenvalues
        ref = np.sort(np.linalg.eigvalsh(s))[::-1]
        np.testing.assert_allclose(ours, ref, atol=1e-12)


def test_decomposition_validates_orthogonality():
    for q, eigenvalues in (
        ([[1.0, 1.0], [0.0, 1.0]], [2.0, 1.0]),  # not orthogonal
        (np.eye(3), [2.0, 1.0]),  # inconsistent shapes
        (np.eye(2), [1.0, 2.0]),  # ascending
        (np.full((3, 3), np.nan), [2.0, 1.0, 0.5]),  # NaN factor: no comparison fails
        (np.eye(3), [np.nan, 1.0, 0.5]),
        (np.eye(3), [np.inf, 1.0, 0.5]),
        (np.eye(3), [1.0, 0.5, -np.inf]),
    ):
        with pytest.raises(MatrixValidationError):
            EigenDecomposition(q=np.array(q), eigenvalues=np.array(eigenvalues))


def test_predicates():
    sym, skew = [[1.0, 2.0], [2.0, 1.0]], [[0.0, 1.0], [-1.0, 0.0]]
    np.testing.assert_array_equal(SymMatrix(sym).array, sym)
    with pytest.raises(NotSymmetricError):
        SymMatrix([[1.0, 2.0], [0.0, 1.0]])
    np.testing.assert_array_equal(SkewMatrix(skew).array, skew)
    with pytest.raises(NotSkewError):
        SkewMatrix([[0.0, 1.0], [1.0, 0.0]])


# ---------------------------------------------------------------------------
# eigenvalues beyond the float range


def test_eigen_rejects_eigenvalue_beyond_float_range():
    # eigenvalues 2e308 and 0: the scaled solve finds them, unscaling overflows
    with pytest.raises(MatrixValidationError):
        eigendecompose_symmetric([[1e308, 1e308], [1e308, 1e308]])
    with pytest.raises(MatrixValidationError):
        _eigendecompose_stack(np.array([np.eye(2), [[1e308, 1e308], [1e308, 1e308]]]))


def test_eigen_symmetrizes_huge_entries_without_overflow():
    # 1e308 + 1e308 overflows, the eigenvalues +-1.118e308 do not; RuntimeWarnings are errors
    s = np.array([[1e308, 5e307], [5e307, -1e308]])
    dec = eigendecompose_symmetric(s)
    ref = np.sort(np.linalg.eigvalsh(s))[::-1]
    assert np.all(np.isfinite(dec.eigenvalues))
    assert np.max(np.abs(dec.eigenvalues - ref)) <= 1e-14 * np.max(np.abs(ref))
    stacked = _eigendecompose_stack(np.array([s, np.eye(2)]))
    np.testing.assert_array_equal(stacked.q[0], dec.q)
    np.testing.assert_array_equal(stacked.eigenvalues[0], dec.eigenvalues)


def _frozen_matrix(d: int) -> list:
    """A symmetric d x d matrix of small integers times 2^-2, exact in binary."""
    return [[math.ldexp(((i + 1) * (j + 1) * 5 + 3 * (i + j) + 7 * (i == j)) % 13 - 6, -2)
             for j in range(d)] for i in range(d)]


_FROZEN = {  # name: (matrix, SHA-256 of q.tobytes() + eigenvalues.tobytes())
    **{f"d={d}": (_frozen_matrix(d), digest) for d, digest in (
        (1, "794976fd0327050748e98d0926137f2f0b50991ccc25ca591b701361bef8fb66"),
        (2, "81ab87eef713b914081203fd43f8fc33fa229266e6dc69490655bc19c16b48f7"),
        (3, "ccd63af2261a18ecf9efeeaf7fc0948877faea1f0b82f507863c8f7d1a356180"),
        (8, "5c4edb3a6f8d4a9c25fe89b19c1b75cb8dd3eb7bf611e7e551c95765c2ceca61"),
        (16, "32bf72191f30ec6070cebaaf690c10cb979b87ca4cce08ccb6555c758622f63e"),
    )},
    "squared norm overflows": ([[math.ldexp(3, 1020), math.ldexp(1, 1019), 0.0],
                                [math.ldexp(1, 1019), math.ldexp(-5, 1018), 1.0],
                                [0.0, 1.0, 5.0]],
                               "ea628f8c6f6533288bb253056a423891d93ecc8b42b9956049d31d6549599a8a"),
    "signed zeros": ([[1.0, -0.0, -0.0, -0.0], [-0.0, -0.0, 0.5, -0.0],
                      [-0.0, 0.5, -2.5, -0.0], [-0.0, -0.0, -0.0, 0.0]],
                     "d2ed54b1940868e2fcef5305a68180f31212e48021042606e94f89997095da51"),
}


@pytest.mark.parametrize("name", list(_FROZEN))
def test_scalar_solver_frozen_bytes(name):
    # the scalar solver works in Python floats only, so its bytes are the same
    # on every numpy build and CPU feature set; these were recorded before its
    # loops were last restructured, and pin it across such changes
    entries, digest = _FROZEN[name]
    dec = matcore._jacobi(np.array(entries))
    assert dec.q.flags.f_contiguous  # the layout later products see
    assert hashlib.sha256(dec.q.tobytes() + dec.eigenvalues.tobytes()).hexdigest() == digest


# ---------------------------------------------------------------------------
# the stacked solver: per matrix, the single-matrix solver bit for bit

_SPECTRA = ("generic", "clustered", "repeated", "diagonal", "zero", "wide", "signed_zero")


def _test_matrix(rng, d: int, kind: str) -> np.ndarray:
    if kind == "zero":
        return np.zeros((d, d))
    if kind == "signed_zero":
        # -0.0 off the diagonal, +-0.0 and a few values on it; half of them
        # with one nonzero pivot among the zeros, the only rotation there is
        s = np.full((d, d), -0.0)
        s[np.diag_indices(d)] = rng.choice([-0.0, 0.0, 1.0, -2.5], d)
        if d > 1 and rng.random() < 0.5:
            p, r = np.sort(rng.choice(d, 2, replace=False))
            s[p, r] = s[r, p] = rng.uniform(-1.0, 1.0)
        return s
    if kind == "wide":
        lam = rng.choice([-1.0, 1.0], d) * 10.0 ** rng.uniform(-150.0, 150.0, d)
    elif kind == "clustered":
        lam = rng.uniform(0.5, 2.0) * (1.0 + 1e-12 * rng.integers(0, 3, d))
    elif kind == "repeated":
        lam = rng.choice(rng.uniform(-2.0, 2.0, 2), d)
    else:
        lam = rng.uniform(-2.0, 2.0, d)
    if kind == "diagonal":
        return np.diag(lam)
    q = np.linalg.qr(rng.normal(size=(d, d)))[0]
    s = (q * lam) @ q.T
    return 0.5 * (s + s.T)


def _assert_stack_matches_scalar(stack: np.ndarray) -> None:
    # bytes, not values: np.array_equal takes -0.0 for 0.0
    dec = _eigendecompose_stack(stack)
    assert not dec.q.flags.writeable and not dec.eigenvalues.flags.writeable
    for i, s in enumerate(stack):
        ref = eigendecompose_symmetric(s)
        assert dec.q[i].tobytes() == ref.q.tobytes(), i
        assert dec.eigenvalues[i].tobytes() == ref.eigenvalues.tobytes(), i


@given(
    d=st.integers(1, 16),
    kinds=st.lists(st.sampled_from(_SPECTRA), min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
def test_eigen_stack_matches_scalar_solver(d, kinds, seed):
    # mixed stacks: members converge at different sweeps
    rng = np.random.default_rng(seed)
    _assert_stack_matches_scalar(np.array([_test_matrix(rng, d, k) for k in kinds]))


def test_eigen_stack_matches_scalar_on_many_matrices():
    rng = np.random.default_rng(23)
    _assert_stack_matches_scalar(np.array([_test_matrix(rng, 3, "generic") for _ in range(400)]))
    # a member whose squared norm overflows takes the scalar solver's scaled route
    huge = np.array([[1e200, 3e199, 0.0], [3e199, -2e199, 1.0], [0.0, 1.0, 5.0]])
    _assert_stack_matches_scalar(np.array([np.eye(3), huge, _test_matrix(rng, 3, "wide")]))


@pytest.mark.parametrize("d", [1, 2, 17, 20, 24])
def test_eigen_stack_matches_scalar_solver_outside_the_usual_sizes(d):
    # d = 1 and 2 and above the property test's 16; stacks of fewer than
    # STACK_MIN would take the scalar solver and compare it with itself
    rng = np.random.default_rng(d)
    for n in (STACK_MIN, STACK_MIN + 1):
        _assert_stack_matches_scalar(np.array([_test_matrix(rng, d, _SPECTRA[k % len(_SPECTRA)])
                                               for k in range(n)]))


def test_eigen_stack_keeps_the_signs_of_zeros():
    # a rotation the stacked solver computes but does not keep must not reach
    # a zero: each member's -0.0 entries come out as the scalar solver leaves them
    rng = np.random.default_rng(31)
    for d in (2, 3, 5):
        stack = np.array([_test_matrix(rng, d, "signed_zero") for _ in range(300)])
        _assert_stack_matches_scalar(stack)
        vals = _eigendecompose_stack(stack).eigenvalues
        assert ((vals == 0.0) & np.signbit(vals)).any()  # -0.0 eigenvalues are there


def test_eigen_stack_members_that_skip_a_pivot_others_rotate_keep_their_bits():
    # the dense members rotate at every pivot; the block-diagonal one has a_pr
    # exactly 0.0 at the pivots across its blocks, and the nearly diagonal one
    # skips pivots below the threshold in sweeps 0 to 2 and has entries zeroed
    # as tiny in sweep 4.  Columns p and r written from the rotated rows, not
    # from the rows kept, would give the nearly diagonal member other bits
    dense = np.array([[4.0, 1.0, -2.0, 0.5], [1.0, 3.0, 0.25, -1.0],
                      [-2.0, 0.25, 2.0, 1.5], [0.5, -1.0, 1.5, 1.0]])
    block = np.array([[2.0, 1.0, 0.0, 0.0], [1.0, 3.0, 0.0, 0.0],
                      [0.0, 0.0, 1.0, 0.5], [0.0, 0.0, 0.5, -1.0]])
    nearly = np.diag([1.0, 2.0, 1.0, 2.0])
    for (i, j), x in {(0, 1): -1.7e-4, (0, 2): 2.1e-6, (0, 3): 1e-6, (1, 2): -1.5e-4,
                      (1, 3): 4.3e-5, (2, 3): -8.9e-5}.items():
        nearly[i, j] = nearly[j, i] = x
    _assert_stack_matches_scalar(np.array([dense, block, nearly, -dense]))


@pytest.mark.parametrize("n", [1, 2, 5, 40])
def test_stack_sum_squares_is_sequential(n):
    # at one column numpy's sum() is pairwise; the sum must stay the scalar
    # solver's sequential one however few matrices are live
    rng = np.random.default_rng(n)
    for d in (1, 2, 3, 4, 8, 16):
        stack = rng.uniform(-1.0, 1.0, (n, d, d)) * 10.0 ** rng.uniform(-8.0, 8.0, (n, d, d))
        huge = stack[:1].copy()
        huge[0, -1, 0] = 1e200  # its square overflows to inf, on the diagonal at d = 1
        for diagonal in (False, True):
            for s in (stack, huge, np.concatenate([stack, huge])):
                layout = np.ascontiguousarray(s.transpose(1, 2, 0))
                with np.errstate(over="ignore"):
                    got = matcore._stack_sum_squares(layout, diagonal)
                want = [matcore._sum_squares(m.tolist(), diagonal) for m in s]
                assert got.tolist() == want, (d, diagonal, len(s))
            assert math.isfinite(want[0]) and want[-1] == (math.inf if d > 1 or diagonal else 0.0)


def _raised(call) -> tuple:
    with pytest.raises(Exception) as ei:
        call()
    return type(ei.value), str(ei.value)


def test_split_solve_equals_each_group_solved_alone(monkeypatch):
    monkeypatch.setattr(matcore, "_STACK_MIN", STACK_MIN)
    rng = np.random.default_rng(41)
    kinds = _SPECTRA * 40
    groups = [np.array([_test_matrix(rng, 3, kinds[i]) for i in range(n)])
              for n in (1, STACK_MIN - 1, 200)]
    decs = _split_solve(groups)
    assert len(decs) == len(groups)
    for group, dec in zip(groups, decs):
        alone = _eigendecompose_stack(group)
        assert not dec.q.flags.writeable and not dec.eigenvalues.flags.writeable
        assert dec.q.tobytes() == alone.q.tobytes()
        assert dec.eigenvalues.tobytes() == alone.eigenvalues.tobytes()
        assert dec.q.shape == alone.q.shape and dec.eigenvalues.shape == alone.eigenvalues.shape


def test_split_solve_raises_what_sequential_solves_raise(monkeypatch):
    rng = np.random.default_rng(43)
    good = np.array([_test_matrix(rng, 3, "diagonal") for _ in range(20)])  # no sweep
    asym = good.copy()
    asym[7, 0, 1] += 1.0
    nan = good.copy()
    nan[3, 2, 2] = np.nan
    beyond = good.copy()  # an eigenvalue beyond the float range, found after the sweeps
    beyond[5] = [[1e308, 1e308, 0.0], [1e308, 1e308, 0.0], [0.0, 0.0, 1.0]]
    monkeypatch.setattr(matcore, "DEFAULT_MAX_SWEEPS", 2)
    hard = np.array([_test_matrix(rng, 3, "generic") for _ in range(20)])
    assert _raised(lambda: _eigendecompose_stack(hard))[0] is EigenConvergenceError
    cases = {  # groups, and the type solving them one after another raises
        "asymmetric before non-finite": ([good, asym, nan], NotSymmetricError),
        "unconverged, first in the second group": ([good, hard[::-1], hard],
                                                   EigenConvergenceError),
        "beyond the float range before unconverged": ([beyond, hard], MatrixValidationError),
        "unconverged before beyond the float range": ([hard, beyond], EigenConvergenceError),
    }
    for name, (groups, error) in cases.items():
        sequential = _raised(lambda: [_eigendecompose_stack(g) for g in groups])
        assert sequential[0] is error, name
        assert _raised(lambda: _split_solve(groups)) == sequential, name


def test_small_stacks_take_the_scalar_solver(monkeypatch):
    # one scalar solve per matrix below _STACK_MIN, none at it; the stack is
    # gated once, so the scalar solves are of the unchecked core
    monkeypatch.setattr(matcore, "_STACK_MIN", STACK_MIN)
    scalar, calls = matcore._jacobi, []
    rng = np.random.default_rng(37)
    for n in (1, 2, STACK_MIN - 1, STACK_MIN):
        stack = np.array([_test_matrix(rng, 3, "generic") for _ in range(n)])
        refs = [eigendecompose_symmetric(s) for s in stack]  # before the spy: not counted
        calls.clear()
        with monkeypatch.context() as mp:
            mp.setattr(matcore, "_jacobi", lambda s: calls.append(1) or scalar(s))
            dec = _eigendecompose_stack(stack)
        assert not dec.q.flags.writeable and not dec.eigenvalues.flags.writeable
        assert len(calls) == (n if n < STACK_MIN else 0)
        for i, ref in enumerate(refs):
            assert np.array_equal(dec.q[i], ref.q), i
            assert np.array_equal(dec.eigenvalues[i], ref.eigenvalues), i


def test_worst_residual_carries_nan():
    assert _worst([]) == 0.0
    assert _worst(np.array([0.5, 0.25])) == 0.5
    assert np.isnan(_worst(np.array([0.5, np.nan, 0.25])))
    assert np.isnan(_worst([np.nan, 1.0]))


def test_eigen_stack_checks_like_scalar_solver():
    good = np.eye(2)
    with pytest.raises(NotSymmetricError):
        _eigendecompose_stack(np.array([good, [[0.0, 1.0], [0.0, 0.0]]]))
    with pytest.raises(NotSymmetricError):  # an asymmetry beyond the float range
        _eigendecompose_stack(np.array([good, [[0.0, 1.7e308], [-1.7e308, 0.0]]]))
    with pytest.raises(MatrixValidationError):
        _eigendecompose_stack(np.array([good, [[np.nan, 0.0], [0.0, 1.0]]]))


def test_eigen_stack_reports_first_unconverged_matrix(monkeypatch):
    rng = np.random.default_rng(29)
    easy = np.diag([3.0, 2.0, 1.0])
    hard = [_test_matrix(rng, 3, "generic") for _ in range(2)]
    monkeypatch.setattr(matcore, "DEFAULT_MAX_SWEEPS", 1)
    with pytest.raises(EigenConvergenceError) as ref:
        eigendecompose_symmetric(hard[0])
    with pytest.raises(EigenConvergenceError) as ei:
        _eigendecompose_stack(np.array([easy, hard[0], hard[1]]))
    assert ei.value.sweeps == 1
    assert ei.value.off_norm == ref.value.off_norm


@pytest.mark.parametrize("scale", [1e200, 1e300])
def test_norms_above_the_squared_float_range_match_hypot(scale):
    # every square overflows; the norms themselves are in range
    rng = np.random.default_rng(3)
    stack = scale * rng.uniform(-1.0, 1.0, (4, 3, 3))
    for m in stack:
        want = math.hypot(*m.ravel().tolist())
        assert frobenius_norm(m) == pytest.approx(want, rel=4e-16)
    want = [math.hypot(*m.ravel().tolist()) for m in stack]
    assert matcore._norms(stack) == pytest.approx(want, rel=4e-16)


def test_norms_in_range_are_the_plain_sums():
    rng = np.random.default_rng(4)
    stack = rng.standard_normal((5, 4, 4)) * np.array([1e-300, 1.0, 1e100, 1e150, 1e153])[:, None, None]
    plain = np.sqrt(np.sum(stack * stack, axis=(-2, -1)))
    assert matcore._norms(stack).tobytes() == plain.tobytes()
    assert [frobenius_norm(m) for m in stack] == plain.tolist()


def test_norms_of_a_stack_with_an_infinite_entry():
    stack = np.ones((2, 3, 3))
    stack[1, 0, 0] = np.inf
    assert matcore._norms(stack).tolist() == [3.0, np.inf]
