import numpy as np
import pytest

from corotcalc.matcore import (
    EigenConvergenceError,
    EigenDecomposition,
    Matrix,
    MatrixValidationError,
    DimensionMismatchError,
    NotSkewError,
    NotSpdError,
    NotSymmetricError,
    SkewMatrix,
    SpdMatrix,
    SymMatrix,
    eigendecompose_symmetric,
    frobenius_dot,
    frobenius_norm,
    is_skew,
    is_symmetric,
    multiply,
    skew_part,
    sym_part,
)


# ---------------------------------------------------------------------------
# constructors and validation


def test_matrix_rejects_non_square():
    with pytest.raises(MatrixValidationError):
        Matrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])


def test_matrix_rejects_non_finite():
    with pytest.raises(MatrixValidationError):
        Matrix([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(MatrixValidationError):
        Matrix([[np.inf, 0.0], [0.0, 1.0]])


def test_matrix_is_immutable():
    m = Matrix([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValueError):
        m.array[0, 0] = 9.0


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


def test_json_round_trip():
    m = Matrix([[1.0, 0.25], [-3.5, 4.0]])
    again = Matrix.from_json_dict(m.to_json_dict())
    np.testing.assert_array_equal(m.array, again.array)


def test_json_rejects_bad_shape():
    with pytest.raises(MatrixValidationError):
        Matrix.from_json_dict({"dim": 2, "rows": [[1.0, 2.0]]})


# ---------------------------------------------------------------------------
# multiply / frobenius_dot


def test_multiply_identity():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(multiply(np.eye(2), x), x)


def test_multiply_diagonal():
    np.testing.assert_array_equal(
        multiply(np.diag([1.0, 2.0]), np.diag([3.0, 4.0])), np.diag([3.0, 8.0])
    )


def test_multiply_hand_oracle():
    # [[0,1],[0,0]] @ [[0,0],[1,0]]: row 0 picks up the single unit product.
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = np.array([[0.0, 0.0], [1.0, 0.0]])
    np.testing.assert_array_equal(multiply(a, b), [[1.0, 0.0], [0.0, 0.0]])


def test_multiply_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        multiply(np.eye(2), np.eye(3))


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
# sym_part / skew_part


def test_parts_reconstruct():
    rng = np.random.default_rng(3)
    a = rng.uniform(-2, 2, (4, 4))
    np.testing.assert_allclose(
        sym_part(a).array + skew_part(a).array, a, rtol=0, atol=1e-15
    )


def test_parts_of_symmetric():
    s = np.array([[1.0, 2.0], [2.0, 5.0]])
    np.testing.assert_array_equal(sym_part(s).array, s)
    np.testing.assert_array_equal(skew_part(s).array, np.zeros((2, 2)))


def test_parts_hand_oracle():
    a = np.array([[0.0, 2.0], [0.0, 0.0]])
    np.testing.assert_array_equal(sym_part(a).array, [[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_array_equal(skew_part(a).array, [[0.0, 1.0], [-1.0, 0.0]])


# ---------------------------------------------------------------------------
# eigensolver


def test_eigen_identity():
    dec = eigendecompose_symmetric(np.eye(3))
    np.testing.assert_allclose(dec.eigenvalues, [1.0, 1.0, 1.0], atol=0)
    assert dec.orthogonality_residual() <= 1e-14


def test_eigen_already_diagonal():
    dec = eigendecompose_symmetric(np.diag([7.0, 5.0, 2.0]))
    np.testing.assert_allclose(dec.eigenvalues, [7.0, 5.0, 2.0], atol=0)


def test_eigen_descending_order_from_shuffled_diagonal():
    dec = eigendecompose_symmetric(np.diag([2.0, 7.0, 5.0]))
    np.testing.assert_allclose(dec.eigenvalues, [7.0, 5.0, 2.0], atol=0)
    np.testing.assert_allclose(dec.reconstruct(), np.diag([2.0, 7.0, 5.0]), atol=1e-14)


def test_eigen_characteristic_polynomial_oracle():
    # x^2 - 4x + 3 = 0 has roots 3 and 1.
    dec = eigendecompose_symmetric([[2.0, 1.0], [1.0, 2.0]])
    np.testing.assert_allclose(dec.eigenvalues, [3.0, 1.0], atol=1e-14)


def test_eigen_rejects_asymmetric():
    with pytest.raises(NotSymmetricError):
        eigendecompose_symmetric([[0.0, 1.0], [0.0, 0.0]])


def test_eigen_reports_convergence_failure():
    with pytest.raises(EigenConvergenceError) as ei:
        eigendecompose_symmetric([[2.0, 1.0], [1.0, 2.0]], max_sweeps=0)
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
            assert dec.reconstruction_residual(s) <= 1e-12 * scale


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
    with pytest.raises(MatrixValidationError):
        EigenDecomposition(q=np.array([[1.0, 1.0], [0.0, 1.0]]), eigenvalues=np.array([2.0, 1.0]))


def test_predicates():
    assert is_symmetric([[1.0, 2.0], [2.0, 1.0]])
    assert not is_symmetric([[1.0, 2.0], [0.0, 1.0]])
    assert is_skew([[0.0, 1.0], [-1.0, 0.0]])
    assert not is_skew([[0.0, 1.0], [1.0, 0.0]])
