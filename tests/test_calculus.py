import dataclasses
import math
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from corotcalc import calculus as ca
from corotcalc import kinematics as ki
from corotcalc import monotonicity as mo
from corotcalc import scalarfun as sf
from corotcalc.matcore import (
    DimensionMismatchError,
    EigenDecomposition,
    MatrixValidationError,
    NotSpdError,
    SpdMatrix,
    _eigendecompose_stack,
    _spectral,
    eigendecompose_symmetric,
    frobenius_dot,
    frobenius_norm,
)
from corotcalc.sampling import make_rng, random_matrix, random_spd_exp, random_symmetric
from corotcalc.scalarfun import ETA, ETA_NEG, GAMMA, SIGMA, ScalarKernel, make_sinh_ratio_kernel
from test_scalarfun import ALL_FIXED_KERNELS, PARAM_KERNELS


def spd_from_log(rng, dim=3, scale=1.0):
    a, s = random_spd_exp(rng, dim, scale)
    return a


# ---------------------------------------------------------------------------
# ad and its powers


def test_ad_identity_commutes():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(ca.ad(np.eye(2), x), np.zeros((2, 2)))


def test_ad_eigen_difference_oracle():
    # entrywise (g_i - g_j) X_ij for diagonal g
    out = ca.ad(np.diag([1.0, 2.0]), [[0.0, 1.0], [0.0, 0.0]])
    np.testing.assert_array_equal(out, [[0.0, -1.0], [0.0, 0.0]])


def test_ad_powers_commute():
    rng = make_rng(1)
    a = random_matrix(rng, 3)
    np.testing.assert_allclose(ca.ad(a, a @ a), np.zeros((3, 3)), atol=1e-14)


def test_ad_bilinear():
    rng = make_rng(2)
    a, b, x, y = (random_matrix(rng, 3) for _ in range(4))
    lhs = ca.ad(2.0 * a + 3.0 * b, x)
    rhs = 2.0 * ca.ad(a, x) + 3.0 * ca.ad(b, x)
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)
    lhs = ca.ad(a, 2.0 * x + 3.0 * y)
    rhs = 2.0 * ca.ad(a, x) + 3.0 * ca.ad(a, y)
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_ad_power_base_cases():
    rng = make_rng(3)
    a, x = random_matrix(rng, 3), random_matrix(rng, 3)
    np.testing.assert_array_equal(ca.ad_power(a, x, 0), x)
    np.testing.assert_array_equal(ca.ad_power(a, x, 1), ca.ad(a, x))


def test_ad_power_matches_binomial_m5():
    rng = make_rng(4)
    a, x = random_matrix(rng, 3), random_matrix(rng, 3)
    nested = ca.ad_power(a, x, 5)
    binom = ca.ad_power_binomial(a, x, 5)
    assert frobenius_norm(nested - binom) <= 1e-12 * (1.0 + frobenius_norm(nested))


def test_ad_power_matches_binomial_bulk():
    rng = make_rng(5)
    for m in range(9):
        a, x = random_matrix(rng, 3), random_matrix(rng, 3)
        nested = ca.ad_power(a, x, m)
        binom = ca.ad_power_binomial(a, x, m)
        assert frobenius_norm(nested - binom) <= 1e-12 * (1.0 + frobenius_norm(nested))


def test_ad_power_depth_cap():
    with pytest.raises(ValueError):
        ca.ad_power(np.eye(2), np.eye(2), 65)
    with pytest.raises(ValueError):
        ca.ad_power_binomial(np.eye(2), np.eye(2), 65)


def test_ad_adjoint_in_trace_inner_product():
    # <ad_A[X], Y> = <X, ad_A[Y]> for symmetric A
    rng = make_rng(6)
    for _ in range(20):
        a = random_symmetric(rng, 3)
        x, y = random_matrix(rng, 3), random_matrix(rng, 3)
        lhs = frobenius_dot(ca.ad(a, x), y)
        rhs = frobenius_dot(x, ca.ad(a, y))
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


# ---------------------------------------------------------------------------
# matrix functions


def test_matfun_spectral_identity_function():
    rng = make_rng(7)
    s = random_symmetric(rng, 3)
    np.testing.assert_allclose(ca.matfun_spectral(lambda t: t, s), s, atol=1e-13)


def test_matfun_spectral_log_diagonal():
    out = ca.matfun_spectral(math.log, np.diag([math.e**2, math.e**4]))
    np.testing.assert_allclose(out, np.diag([2.0, 4.0]), atol=1e-13)


def test_matfun_spectral_exp_log_round_trip():
    rng = make_rng(8)
    for _ in range(10):
        a = spd_from_log(rng)
        log_a = ca.matfun_spectral(math.log, a)
        back = ca.matfun_spectral(math.exp, log_a)
        assert frobenius_norm(back - a) <= 1e-10 * (1.0 + frobenius_norm(a))


def test_matfun_spectral_domain_error():
    with pytest.raises(ca.KernelDomainError):
        ca.matfun_spectral(math.log, np.diag([1.0, -2.0]))


# Each kernel fails at its eigenvalue ``bad`` and is finite on [0.5, 2].
_FAILING_KERNELS = {
    "domain": (math.log, -1.0),
    "overflow": (math.exp, 800.0),
    "zero-division": (lambda v: 1.0 / v, 0.0),
    "inf": (lambda v: v * 1e307, 1e10),
    "nan": (lambda v: v * 1e307 - v * 1e307, 1e10),
}


def _both_paths(monkeypatch):
    """Sets every table to be built over arrays, then entry by entry, once per item."""
    for least in (0, math.inf):
        monkeypatch.setattr(sf, "_ARRAY_MIN", least)
        yield least


@pytest.mark.parametrize("kind", sorted(_FAILING_KERNELS))
def test_stack_failing_only_in_its_last_matrix_raises(kind, monkeypatch):
    f, bad = _FAILING_KERNELS[kind]
    vals = make_rng(31).uniform(0.5, 2.0, (20, 3))
    vals[-1, 1] = bad
    # a non-finite value names its eigenvalues: the first failing pair is (v_0, v_1)
    named = kind in ("inf", "nan")
    pair = re.escape(repr((float(vals[-1, 0]), bad))) if named else None
    for _ in _both_paths(monkeypatch):
        with pytest.raises(ca.KernelDomainError, match=pair):
            ca._each_pair(lambda a, b: f(a) + f(b),
                          lambda a, b: sf._mapped(f, a) + sf._mapped(f, b), vals)
        dec = EigenDecomposition._trusted(np.tile(np.eye(3), (20, 1, 1)), vals)
        with pytest.raises(ca.KernelDomainError, match=re.escape(repr((bad,))) if named else None):
            ca._matfun(f, dec)
        if named:  # f(v_0 - bad) is the first non-finite difference too, in full or mirrored
            for kernel in (f, ScalarKernel(kind, f, (), parity="odd")):
                with pytest.raises(ca.KernelDomainError, match=pair):
                    ca._difference_table(kernel, vals)


def _zero_between(below: float, above: float):
    """A kernel that is 0.0 strictly between ``below`` and ``above``, undefined elsewhere."""
    def f(x):
        if not below < x < above:
            raise ValueError("outside")
        return 0.0
    return f


@pytest.mark.parametrize("parity", ["odd", "none"])
@pytest.mark.parametrize("below, above, pair", [
    (0.0, 9.0, (1.0, 1.0)),  # k(0.0): a parity kernel's first entry, T_00 of a full table
    (-0.1, 9.0, (0.5, 1.0)),  # v_1 - v_0 = -0.5; with parity, the mirror of a zero
    (-9.0, 2.25, (3.0, 0.5)),  # v_0 - v_2 = 2.5 in the second row
])
def test_a_failing_table_entry_names_its_difference_and_pair(parity, below, above, pair,
                                                              monkeypatch):
    kernel = ScalarKernel("zero_between", _zero_between(below, above), (), switch_radius=0.0,
                          parity=parity)
    vals = np.array([[1.0, 0.5, 0.25], [3.0, 1.0, 0.5]])
    message = ("function undefined at an eigenvalue: outside, "
               f"at the difference {pair[0] - pair[1]!r} of eigenvalues {pair!r}")
    for _ in _both_paths(monkeypatch):
        with pytest.raises(ca.KernelDomainError, match=f"^{re.escape(message)}$"):
            ca._difference_table(kernel, vals)


@pytest.mark.parametrize("n, d", [(1, 1), (1, 3), (5, 2), (17, 4)])
def test_tables_match_per_entry_evaluation_to_the_bit(n, d, monkeypatch):
    rng = make_rng(32 + 10 * n + d)
    dec = _eigendecompose_stack(np.stack([random_symmetric(rng, d) for _ in range(n)]))
    vals = dec.eigenvalues
    scales = rng.uniform(-2.0, 2.0, n).tolist()

    def fn(a, b, s):
        return math.exp(s * (a - b)) * SIGMA(a - b)

    def over(a, b, s):
        return sf._mapped(math.exp, s * (a - b)) * SIGMA.over(a - b)

    rows = zip(vals.tolist(), scales)
    want = np.array([[[float(fn(a, b, s)) for b in row] for a in row] for row, s in rows])
    for _ in _both_paths(monkeypatch):
        assert ca._each_pair(fn, over, vals, scales).tobytes() == want.tobytes()
    want = _spectral(dec.q, np.array([[float(SIGMA(v)) for v in row] for row in vals.tolist()]))
    np.testing.assert_array_equal(ca._matfun(SIGMA, dec), want)


# mirrored tables against per-entry evaluation of every pair, compared as
# bytes so that the sign of a zero counts


def _every_pair(k, vals) -> np.ndarray:
    """k(v_i - v_j) at each pair of each row, as one array."""
    rows = vals.reshape(-1, vals.shape[-1]).tolist()
    return np.array([[[float(k(a - b)) for b in row] for a in row]
                     for row in rows]).reshape(vals.shape + vals.shape[-1:])


def _spectra(rng, d: int, radius: float) -> dict:
    """Spectra of d values, 3 rows of each kind; clustered ones step by about ``radius``."""
    steps = radius * np.array([0.5, math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0), 2.0])
    return {
        "random": rng.uniform(-3.0, 3.0, (3, d)),
        "clustered": rng.uniform(-1.0, 1.0, (3, 1)) + np.cumsum(rng.choice(steps, (3, d)), 1),
        "repeated": rng.choice([-0.5, 0.0, 0.5], (3, d)),
        "1e10-wide": 10.0 ** rng.uniform(-5.0, 5.0, (3, d)),
        "1e10-wide logs": np.log(10.0 ** rng.uniform(-5.0, 5.0, (3, d))),
    }


def _assert_table_matches(k, vals):
    # where an entry overflows (r kernels over 1e10-wide spectra), both raise
    try:
        want = _every_pair(k, vals)
    except OverflowError:
        with pytest.raises(ca.KernelDomainError):
            ca._difference_table(k, vals)
        return
    assert ca._difference_table(k, vals).tobytes() == want.tobytes()


@pytest.mark.parametrize("d", (1, 2, 3, 8, 16))
@pytest.mark.parametrize("kernel", [k for k in ALL_FIXED_KERNELS + PARAM_KERNELS
                                    if k.parity != "none"], ids=lambda k: k.name)
def test_mirrored_difference_tables_equal_every_pair_to_the_bit(kernel, d):
    rng = make_rng(40 + d)
    for vals in _spectra(rng, d, kernel.switch_radius).values():
        _assert_table_matches(kernel, vals)


@pytest.mark.parametrize("d", (1, 2, 3, 8, 16))
def test_table_over_negated_values_is_the_flipped_kernel_to_the_bit(d, monkeypatch):
    # f(-ad_A) as f's table over -lambda: (-v_i) - (-v_j) is -(v_i - v_j) but
    # +0.0 where that is -0.0, and every kernel has the same bits at both zeros
    rng = make_rng(60 + d)
    for k in ALL_FIXED_KERNELS + PARAM_KERNELS + [math.exp]:
        for vals in _spectra(rng, d, getattr(k, "switch_radius", 1.0)).values():
            try:
                want = _every_pair(lambda t: k(-t), vals).tobytes()
            except OverflowError:  # r kernels and exp over 1e10-wide spectra
                want = None
            for _ in _both_paths(monkeypatch):
                if want is None:
                    with pytest.raises(ca.KernelDomainError):
                        ca._difference_table(k, -vals)
                else:
                    assert ca._difference_table(k, -vals).tobytes() == want


def test_zeros_are_evaluated_at_their_mirror():
    # sinh(0 x/2)/sinh(x/2) x is +0.0 at x > 0.25 and -0.0 at -x, so 0.0 - t
    # would mirror it wrongly; sigma is +0.0 at both x and -x near the
    # smallest subnormal, so -t would
    sinh_ratio = make_sinh_ratio_kernel(0.0)
    table = ca._difference_table(sinh_ratio, np.array([2.5, 1.0, 0.0]))
    assert np.signbit(table).tolist() == [[False] * 3, [True, False, False], [True, True, False]]
    table = ca._difference_table(SIGMA, np.array([5e-324, 0.0]))
    assert not np.signbit(table).any()


@pytest.mark.parametrize("d", (1, 3, 8))
def test_tables_of_each_kernel_kind_equal_every_pair(d):
    # declared parity (odd, even, a zero mirrored by sign) and none (a function,
    # a lambda, ETA), each over 3 rows and over 12
    kinds = [SIGMA, math.exp, GAMMA, lambda t: t * t - 1.0, make_sinh_ratio_kernel(0.0), ETA]
    rng = make_rng(50 + d)
    for vals in _spectra(rng, d, 0.25).values():
        for k in kinds:
            _assert_table_matches(k, vals)
            _assert_table_matches(k, np.concatenate([vals] * 4))


def test_a_list_of_kernels_is_not_a_kernel():
    g = np.diag([1.0, 2.0, 3.0])
    with pytest.raises(TypeError):
        ca.f_of_ad_spectral([SIGMA], g, np.ones((3, 3)))


def test_eta_declared_even_gives_a_wrong_table():
    # the builder trusts a declared parity: ETA is not even, so mirroring its
    # upper triangle cannot reproduce the table of every pair
    wrong = dataclasses.replace(ETA, parity="even")
    vals = make_rng(60).uniform(-2.0, 2.0, (2, 4))
    assert ca._difference_table(wrong, vals).tobytes() != _every_pair(wrong, vals).tobytes()
    assert ca._difference_table(ETA, vals).tobytes() == _every_pair(ETA, vals).tobytes()


@pytest.mark.parametrize("d", (1, 2, 3, 8, 16))
def test_symmetric_pair_tables_equal_every_pair_to_the_bit(d):
    # the exp derivative's e^max(a,b) eta_-(|a-b|) and the divided differences
    def fn(a, b):
        return math.exp(max(a, b)) * ETA_NEG(abs(a - b))

    rng = make_rng(70 + d)
    spectra = _spectra(rng, d, 1e-5)
    spectra["close"] = 1.0 + rng.uniform(0.0, 3e-5, (3, d))
    spectra.pop("1e10-wide")  # e^max overflows there
    for vals in spectra.values():
        dec = EigenDecomposition._trusted(np.tile(np.eye(d), (len(vals), 1, 1)), vals)
        x = rng.uniform(-1.0, 1.0, (len(vals), d, d))
        want = np.array([[[fn(a, b) for b in row] for a in row] for row in vals.tolist()])
        assert ca._d_exp(dec, x).tobytes() == ca._hadamard(dec, want, x).tobytes()
        for gen in (mo.cube_generator(), mo.exponential_generator()):
            f, fp = gen.scalar_generator, gen.derivative_generator
            close = mo.DIVIDED_DIFF_PAIR_TOL * (1.0 + np.abs(vals).max(axis=1))
            want = np.array([[[fp(0.5 * (a + b)) if abs(a - b) <= c else (f(a) - f(b)) / (a - b)
                               for b in row] for a in row] for row, c in zip(vals.tolist(), close)])
            got = mo._divided_difference_table(f, fp, vals)
            assert got.tobytes() == want.tobytes()


def test_divided_difference_of_an_even_function_is_symmetric_at_opposite_values():
    # (f(a) - f(b))/(a - b) is an exact zero at b = -a for even f: the larger
    # argument goes first, so both entries are +0.0
    square = mo.square_generator()
    table = mo._divided_difference_table(square.scalar_generator, square.derivative_generator,
                                         np.array([-1.0, 1.0]))
    assert table.tobytes() == np.array([[-2.0, 0.0], [0.0, 2.0]]).tobytes()


# tables over arrays against tables entry by entry, compared as bytes, or as
# the message of the KernelDomainError both raise


def _outcome(build):
    try:
        return build().tobytes()
    except ca.KernelDomainError as exc:
        return str(exc)


def _table_builds(vals, rng):
    """{name: build} for every table the package builds, over the spectra ``vals``."""
    n, d = vals.shape
    dec = EigenDecomposition._trusted(np.tile(np.eye(d), (n, 1, 1)), vals)
    spd = EigenDecomposition._trusted(dec.q, np.exp(np.clip(vals, -700.0, 700.0)))
    x, w = rng.uniform(-1.0, 1.0, (2, n, d, d))
    builds = {getattr(k, "name", "exp"): (lambda k=k: ca._difference_table(k, vals))
              for k in ALL_FIXED_KERNELS + PARAM_KERNELS + [math.exp]}
    builds["d_exp"] = lambda: ca._d_exp(dec, x)
    builds["d_log"] = lambda: ca._d_log(spd, x)
    scales = rng.uniform(-2.0, 2.0, n).tolist()
    builds["exp_conjugation"] = lambda: ca._exp_conjugation(dec, x, scales)
    for commutator in (False, True):
        builds[f"spin {commutator}"] = lambda c=commutator: ki._spin(spd, x + x.swapaxes(1, 2),
                                                                     w, c)
    negated_identity = mo.IsotropicFunction("negated_identity", lambda t: -t, lambda t: -1.0)
    for gen in (mo.identity_generator(), negated_identity, mo.square_generator(),
                mo.cube_generator(), mo.cube_plus_identity_generator(), mo.exponential_generator()):
        builds[gen.name] = lambda f=gen.scalar_generator, fp=gen.derivative_generator: (
            mo._divided_difference_table(f, fp, vals))
    return builds


def _arrays_only(entries, count, array=None, argument=None):
    """``_evaluated`` taking the array evaluation whenever there is one, without
    falling back to entry by entry where it raises."""
    if array is None:
        return np.fromiter(entries(), float, count)
    with np.errstate(divide="raise", invalid="raise", over="ignore", under="ignore"):
        return array()


@pytest.mark.parametrize("d", (1, 2, 3, 8, 16))
def test_array_tables_equal_entry_by_entry_tables_to_the_bit(d, monkeypatch):
    rng = make_rng(80 + d)
    spectra = _spectra(rng, d, 0.25)
    spectra["close"] = 1.0 + rng.uniform(0.0, 3e-5, (3, d))  # divided differences by f'
    spectra["signed zeros"] = rng.choice([-0.0, 0.0, 1.0], (3, d))
    spectra["beyond exp"] = rng.uniform(-1000.0, 1000.0, (3, d))  # e^v overflows
    for kind, vals in spectra.items():
        vals = np.concatenate([vals] * 4)  # 12 rows
        for name, build in _table_builds(vals, rng).items():
            got = [_outcome(build) for _ in _both_paths(monkeypatch)]
            assert got[0] == got[1], (kind, name)
            if isinstance(got[1], bytes):  # a finite table needs no fallback
                with monkeypatch.context() as m:
                    m.setattr(ca, "_evaluated", _arrays_only)
                    assert build().tobytes() == got[1], (kind, name)


def test_mirrored_zeros_over_arrays():
    # the sinh_ratio zeros of test_zeros_are_evaluated_at_their_mirror, in a
    # stack whose table takes the array path
    rows = -(-sf._ARRAY_MIN // 3)
    table = ca._difference_table(make_sinh_ratio_kernel(0.0), np.tile([2.5, 1.0, 0.0], (rows, 1)))
    want = [[False] * 3, [True, False, False], [True, True, False]]
    assert (np.signbit(table) == want).all()


@pytest.mark.parametrize("side", (-1, 0))
def test_stacks_on_both_sides_of_the_crossover_equal_every_pair(side):
    # d = 3: a mirrored table has 3 entries a row and one at 0.0, a full one 9 a row
    rng = make_rng(90)
    mirrored = rng.uniform(-1.0, 1.0, (-(-(sf._ARRAY_MIN - 1) // 3) + side, 3))
    assert (3 * len(mirrored) + 1 >= sf._ARRAY_MIN) == (side == 0)
    got = ca._difference_table(SIGMA, mirrored)
    assert got.tobytes() == _every_pair(SIGMA, mirrored).tobytes()
    full = rng.uniform(-1.0, 1.0, (-(-sf._ARRAY_MIN // 9) + side, 3))
    assert (9 * len(full) >= sf._ARRAY_MIN) == (side == 0)
    want = _every_pair(ETA, full)
    assert ca._difference_table(ETA, full).tobytes() == want.tobytes()
    b = np.exp(full)
    want = np.array([[[ki._pair_weight(p, q) for q in row] for p in row] for row in b.tolist()])
    assert ca._each_pair(ki._pair_weight, ki._pair_weights, b).tobytes() == want.tobytes()


@pytest.mark.parametrize("rows, d", [(11, 3), (12, 3), (1, 9), (1, 10)])
def test_mirrored_tables_on_both_sides_of_the_list_crossover_equal_every_pair(rows, d,
                                                                              monkeypatch):
    # a mirrored table of fewer than _ARRAY_MIN entries, N d^2, is built in Python lists
    listed = []
    lists = ca._mirrored
    monkeypatch.setattr(ca, "_mirrored", lambda *args: listed.append(1) or lists(*args))
    rng = make_rng(95 + d)
    for k in (SIGMA, GAMMA, make_sinh_ratio_kernel(0.0)):  # a zero mirrored by sign too
        for vals in _spectra(rng, d, k.switch_radius).values():
            _assert_table_matches(k, np.resize(vals, (rows, d)))
    assert bool(listed) == (rows * d * d < sf._ARRAY_MIN)


def test_matfun_of_half_log_over_a_stack_equals_each_eigenvalue_to_the_bit():
    # _half_log takes the whole eigenvalue array at once: the stack's log strains
    # equal those built from its values at each eigenvalue, byte for byte
    rng = np.random.default_rng(25)
    rows = -(-sf._ARRAY_MIN // 3)
    vals = np.exp(rng.uniform(-700.0, 700.0, (rows, 3)))
    vals[0] = [5e-324, 1.0, math.nextafter(1.0, 2.0)]
    frames = np.linalg.qr(rng.standard_normal((rows, 3, 3)))[0]
    dec = EigenDecomposition._trusted(frames, vals)
    half_logs = np.array([[ki._half_log(v) for v in row] for row in vals.tolist()])
    assert ca._matfun(ki._half_log, dec).tobytes() == _spectral(frames, half_logs).tobytes()
    vals = vals.copy()
    vals[-1, 1] = 0.0  # ln 0: the error of that entry alone, and its eigenvalue
    message = "function undefined at an eigenvalue: math domain error, at eigenvalue 0.0"
    with pytest.raises(ca.KernelDomainError, match=f"^{re.escape(message)}$"):
        ca._matfun(ki._half_log, EigenDecomposition._trusted(frames, vals))


def _failing(spectrum):
    """A stack of 12 copies of one spectrum, and its decomposition."""
    vals = np.tile(np.array(spectrum, dtype=float), (12, 1))
    return vals, EigenDecomposition._trusted(np.tile(np.eye(vals.shape[1]), (12, 1, 1)), vals)


_UNDEFINED = "function undefined at an eigenvalue: "
_KERNEL_ERRORS = {
    # row 1 overflows the kernel (ln ratio -713.8) before row 2's ratio rounds to 0
    "d_log": (lambda: ca._d_log(_failing([1e305, 1e-5, 1e-20])[1], np.ones((12, 3, 3))),
              _UNDEFINED + "math range error, at eigenvalues (1e-05, 1e+305)"),
    "d_exp": (lambda: ca._d_exp(_failing([800.0, 1.0])[1], np.ones((12, 2, 2))),
              _UNDEFINED + "math range error, at eigenvalues (800.0, 800.0)"),
    "exp_conjugation": (lambda: ca._exp_conjugation(_failing([1.0, 0.0])[1], np.ones((12, 2, 2)),
                                                    [1e3] * 12),
                        _UNDEFINED + "math range error, at eigenvalues (1.0, 0.0)"),
    "spin": (lambda: ki._spin(_failing([1e300, 1e-30])[1], np.ones((12, 2, 2)),
                              np.zeros((12, 2, 2)), False),
             _UNDEFINED + "math domain error, at eigenvalues (1e-30, 1e+300)"),
    "kernel": (lambda: ca._difference_table(ETA, _failing([1e3, 0.0, -1e3])[0]),
               _UNDEFINED + "math range error, at the difference 1000.0 "
                            "of eigenvalues (1000.0, 0.0)"),
    # f = t^3 raises at 1e200 but is never needed there: f' = 3 t^2 is inf
    "divided difference": (lambda: mo._divided_difference_table(
        lambda t: t**3, lambda t: 3.0 * t * t, _failing([1e200, 1e200])[0]),
        "function non-finite at eigenvalues (1e+200, 1e+200)"),
}


@pytest.mark.parametrize("name", sorted(_KERNEL_ERRORS))
def test_kernel_domain_errors_are_those_of_the_first_failing_entry(name, monkeypatch):
    build, message = _KERNEL_ERRORS[name]
    with pytest.raises(ca.KernelDomainError, match=f"^{re.escape(message)}$"):
        build()
    for _ in _both_paths(monkeypatch):
        with pytest.raises(ca.KernelDomainError, match=f"^{re.escape(message)}$"):
            build()


def test_matfun_series_exp_at_zero():
    res = ca.matfun_series(ca.exp_series_spec(), np.zeros((3, 3)))
    np.testing.assert_array_equal(res.value, np.eye(3))
    assert res.stopped_by == "tolerance"


def test_matlog_series_at_identity():
    res = ca.matlog_series(np.eye(3))
    np.testing.assert_array_equal(res.value, np.zeros((3, 3)))


def test_exp_series_vs_spectral():
    rng = make_rng(9)
    for _ in range(10):
        a = random_symmetric(rng, 3)
        a *= min(1.0, 1.0 / frobenius_norm(a))
        series = ca.matexp_series(a)
        spectral = ca.matfun_spectral(math.exp, a)
        assert frobenius_norm(series - spectral) <= 1e-10 * (1.0 + frobenius_norm(spectral))


def test_log_series_vs_spectral_near_identity():
    rng = make_rng(10)
    for _ in range(10):
        u = random_symmetric(rng, 3)
        u *= 0.5 / max(1.0, frobenius_norm(u))
        a = np.eye(3) + u
        series = ca.matlog_series(a).value
        spectral = ca.matfun_spectral(math.log, a)
        assert frobenius_norm(series - spectral) <= 1e-8


def test_log_series_divergence_signaled():
    with pytest.raises(ca.SeriesDivergenceError):
        ca.matlog_series(np.diag([2.25, 1.0, 1.0]))


def test_series_reports_max_terms_stop():
    spec = ca.PowerSeriesSpec((1.0, 1.0, 1.0))
    res = ca.matfun_series(spec, 0.5 * np.eye(2))
    assert res.stopped_by == "max_terms"
    np.testing.assert_allclose(res.value, np.diag([1.75, 1.75]), atol=1e-15)


_SERIES_SPECS = {
    "exp": ca.exp_series_spec(),
    "log": ca.log_series_spec(),
    "sigma": ca.sigma_series_spec(),
    "eta_neg": ca.eta_neg_series_spec(),
    "sparse": ca.PowerSeriesSpec(((0.0, 1.0, 0.0, -0.5, 0.0, 0.25) * 3)[:17]),
}


@given(
    spec=st.sampled_from(sorted(_SERIES_SPECS)),
    scales=st.lists(st.floats(0.0, 3.5), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_series_match_single_matrix_sums(spec, scales, seed):
    # per matrix: value, terms_used and stopped_by as if summed alone; a stack
    # holding a diverging matrix raises, as that matrix alone does
    spec = _SERIES_SPECS[spec]
    rng = np.random.default_rng(seed)
    a = np.array([s * rng.uniform(-1.0, 1.0, (3, 3)) for s in scales])
    x = rng.uniform(-1.0, 1.0, a.shape)
    for stacked, single in (
        (lambda: ca._matfun_series(spec, a), lambda i: ca.matfun_series(spec, a[i])),
        (lambda: ca._ad_series(spec, a, x), lambda i: ca.f_of_ad_series(spec, a[i], x[i])),
    ):
        try:
            alone = [single(i) for i in range(len(a))]
        except ca.SeriesDivergenceError:
            with pytest.raises(ca.SeriesDivergenceError):
                stacked()
            continue
        res = stacked()
        for i, one in enumerate(alone):
            assert np.array_equal(res.value[i], one.value)
            assert res.terms_used[i] == one.terms_used
            assert res.stopped_by[i] == one.stopped_by


def test_stacked_series_raise_on_one_diverging_matrix():
    spec = ca.log_series_spec()
    good, bad = 0.1 * np.eye(3), np.diag([1.25, 0.0, 0.0])
    assert ca.matfun_series(spec, good).stopped_by == "tolerance"
    with pytest.raises(ca.SeriesDivergenceError):
        ca.matfun_series(spec, bad)
    with pytest.raises(ca.SeriesDivergenceError):
        ca._matfun_series(spec, np.array([good, bad, good]))


def test_series_spec_builders_are_cached():
    for build in (ca.exp_series_spec, ca.log_series_spec, ca.sigma_series_spec,
                  ca.eta_neg_series_spec):
        assert build() is build()
    assert ca.exp_series_spec.cache_info().maxsize is not None  # any scale: bounded
    assert ca.exp_series_spec(scale=2.0) is ca.exp_series_spec(scale=2.0)
    assert ca.exp_series_spec(scale=2.0) is not ca.exp_series_spec()


@pytest.mark.parametrize("scale", [1e5, -1e5, math.inf, math.nan])
def test_exp_series_spec_rejects_a_scale_beyond_the_float_range(scale):
    # exact coefficients scale^n / n! that no float holds
    with pytest.raises(ValueError):
        ca.exp_series_spec(scale=scale)
    with pytest.raises(ValueError):
        ca.exp_conjugation(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.eye(2), s=scale,
                           method="series")


# ---------------------------------------------------------------------------
# the commutator-kernel operator


def test_f_of_ad_constant_kernel_is_identity_map():
    rng = make_rng(11)
    g = random_symmetric(rng, 3)
    x = random_matrix(rng, 3)
    np.testing.assert_allclose(ca.f_of_ad_spectral(lambda t: 1.0, g, x), x, atol=1e-13)


def test_f_of_ad_linear_kernel_is_commutator():
    rng = make_rng(12)
    g = random_symmetric(rng, 3)
    x = random_matrix(rng, 3)
    out = ca.f_of_ad_spectral(lambda t: t, g, x)
    np.testing.assert_allclose(out, ca.ad(g, x), atol=1e-13)


def test_f_of_ad_exp_kernel_matches_conjugation_product():
    rng = make_rng(13)
    for _ in range(20):
        g = random_symmetric(rng, 3)
        x = random_matrix(rng, 3)
        out = ca.f_of_ad_spectral(math.exp, g, x)
        eg = ca.matfun_spectral(math.exp, g)
        eg_inv = ca.matfun_spectral(lambda t: math.exp(-t), g)
        direct = eg @ x @ eg_inv
        assert frobenius_norm(out - direct) <= 1e-12 * (1.0 + frobenius_norm(direct))


def test_f_of_ad_linearity():
    rng = make_rng(14)
    for _ in range(200):
        g = random_symmetric(rng, 3)
        x, y = random_matrix(rng, 3), random_matrix(rng, 3)
        al, be = rng.uniform(-2, 2, 2)
        op = lambda arg: ca.f_of_ad_spectral(SIGMA, g, arg)
        lhs = op(al * x + be * y)
        rhs = al * op(x) + be * op(y)
        assert frobenius_norm(lhs - rhs) <= 1e-12 * (1.0 + frobenius_norm(lhs))


def test_f_of_ad_commutes_with_ad():
    # f(ad_A) ad_A = ad_A f(ad_A)
    rng = make_rng(15)
    for kernel in (math.exp, SIGMA, GAMMA):
        for _ in range(20):
            a = random_symmetric(rng, 3)
            x = random_matrix(rng, 3)
            lhs = ca.f_of_ad_spectral(kernel, a, ca.ad(a, x))
            rhs = ca.ad(a, ca.f_of_ad_spectral(kernel, a, x))
            assert frobenius_norm(lhs - rhs) <= 1e-12 * (1.0 + frobenius_norm(lhs))


def test_spectral_operator_table_invariants():
    rng = make_rng(16)
    g = random_symmetric(rng, 4)
    lam = eigendecompose_symmetric(g).eigenvalues
    table = ca._difference_table(SIGMA, lam)
    for i in range(4):
        assert table[i, i] == SIGMA(0.0)
        for j in range(4):
            assert table[i, j] == SIGMA(float(lam[i] - lam[j]))
            # odd kernel: antisymmetric table
            assert abs(table[i, j] + table[j, i]) <= 1e-14
    even = ca._difference_table(GAMMA, lam)
    assert np.max(np.abs(even - even.T)) <= 1e-14


def test_f_of_ad_series_zero_coefficients():
    rng = make_rng(17)
    spec = ca.PowerSeriesSpec((0.0, 0.0, 0.0))
    out = ca.f_of_ad_series(spec, random_symmetric(rng, 3), random_matrix(rng, 3))
    np.testing.assert_array_equal(out.value, np.zeros((3, 3)))


def test_f_of_ad_series_exp_matches_spectral():
    rng = make_rng(18)
    for _ in range(10):
        a = random_symmetric(rng, 3, scale=0.5)
        x = random_matrix(rng, 3)
        series = ca.f_of_ad_series(ca.exp_series_spec(), a, x).value
        spectral = ca.f_of_ad_spectral(math.exp, a, x)
        assert frobenius_norm(series - spectral) <= 1e-10


def test_f_of_ad_series_sigma_matches_spectral_within_radius():
    rng = make_rng(19)
    for _ in range(10):
        h = random_symmetric(rng, 3)
        h *= 0.3 / max(1.0, frobenius_norm(h) / 0.97)
        x = random_matrix(rng, 3)
        series = ca.f_of_ad_series(ca.sigma_series_spec(), h, x).value
        spectral = ca.f_of_ad_spectral(SIGMA, h, x)
        assert frobenius_norm(series - spectral) <= 1e-8


# ---------------------------------------------------------------------------
# derivative of the exponential


def test_d_exp_at_zero_is_identity_map():
    rng = make_rng(20)
    x = random_matrix(rng, 3)
    np.testing.assert_allclose(ca.d_exp(np.zeros((3, 3)), x), x, atol=1e-13)


def test_d_exp_commuting_diagonal():
    a = np.diag([0.3, -1.2, 0.7])
    x = np.diag([1.0, 2.0, 3.0])
    expected = ca.matfun_spectral(math.exp, a) @ x
    np.testing.assert_allclose(ca.d_exp(a, x), expected, atol=1e-13)


def test_d_exp_wide_spectrum_vs_high_precision():
    # e^400 and e^-400 are finite, so every divided difference is too
    import mpmath as mp

    mp.mp.dps = 50
    a_diag = (400.0, -400.0, 0.0)
    x = random_matrix(make_rng(27), 3)
    got = ca.d_exp(np.diag(a_diag), x)
    for i, a_i in enumerate(a_diag):
        for j, a_j in enumerate(a_diag):
            ai, aj = mp.mpf(a_i), mp.mpf(a_j)
            dd = mp.exp(ai) if i == j else (mp.exp(ai) - mp.exp(aj)) / (ai - aj)
            ref = float(mp.mpf(x[i, j]) * dd)
            assert abs(got[i, j] - ref) <= 1e-14 * abs(ref), (i, j, got[i, j], ref)


@pytest.mark.parametrize("p, s", [(2, 1), (1, 0), (0, -1)])
@pytest.mark.parametrize("sign", [1, -1])
def test_dlog_sinh_pair_wide_spectrum_vs_high_precision(p, s, sign):
    # ln b_i - ln b_j reaches 500: cosh and sinh of (p+s)/2 times it overflow,
    # the kernel values do not.
    import mpmath as mp

    b = np.diag([math.exp(250.0), 1.0, math.exp(-250.0)])
    x = random_matrix(make_rng(31), 3)
    got = ca.dlog_sinh_pair(b, x, p, s, sign)
    top = mp.cosh if sign == 1 else mp.sinh
    with mp.workdps(50):
        logs = [mp.log(mp.mpf(v)) for v in np.diag(b)]
        for i in range(3):
            for j in range(3):
                t = logs[i] - logs[j]
                k = top((p + s) * t / 2) / mp.sinh(t / 2) * t if i != j else 1 + sign
                ref = float(mp.mpf(x[i, j]) * k)
                assert abs(got[i, j] - ref) <= 1e-13 * abs(ref), (i, j, got[i, j], ref)


def test_dlog_sinh_pair_overflowing_kernel_raises():
    # (p+s) = 3 at ln b_i - ln b_j = 1000: the exact kernel value exceeds the float range
    b = np.diag([math.exp(500.0), 1.0, math.exp(-500.0)])
    with pytest.raises(ca.KernelDomainError):
        ca.dlog_sinh_pair(b, np.ones((3, 3)), 2, 1, 1)


def test_d_exp_vs_finite_difference():
    # independent oracle: central difference through scipy's expm
    rng = make_rng(21)
    h = 1e-5
    for _ in range(30):
        a = random_symmetric(rng, 3)
        a *= 2.0 / max(1.0, frobenius_norm(a) / 0.9)
        x = random_matrix(rng, 3)
        fd = (scipy.linalg.expm(a + h * x) - scipy.linalg.expm(a - h * x)) / (2.0 * h)
        val = ca.d_exp(a, x)
        assert frobenius_norm(val - fd) <= 1e-6 * (1.0 + frobenius_norm(fd))


def test_d_exp_series_route_matches_spectral():
    rng = make_rng(22)
    a = random_symmetric(rng, 3, scale=0.6)
    x = random_matrix(rng, 3)
    sp = ca.d_exp(a, x, method="spectral")
    se = ca.d_exp(a, x, method="series")
    assert frobenius_norm(sp - se) <= 1e-11
    with pytest.raises(ValueError, match="unknown method"):
        ca.d_exp(a, x, method="bogus")


def test_d_exp_general_matrix_vs_finite_difference():
    rng = make_rng(23)
    for _ in range(10):
        a = random_matrix(rng, 3, scale=0.5)
        x = random_matrix(rng, 3)
        fd = (scipy.linalg.expm(a + 1e-5 * x) - scipy.linalg.expm(a - 1e-5 * x)) / 2e-5
        val = ca.d_exp(a, x)  # auto dispatches to the series route
        assert frobenius_norm(val - fd) <= 1e-6 * (1.0 + frobenius_norm(fd))


# ---------------------------------------------------------------------------
# derivative of the logarithm


def test_d_log_at_identity():
    rng = make_rng(24)
    x = random_matrix(rng, 3)
    np.testing.assert_allclose(ca.d_log(np.eye(3), x), x, atol=1e-13)


def test_d_log_scalar_matrix():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    a = math.e**2 * np.eye(2)
    np.testing.assert_allclose(ca.d_log(a, x), math.e**-2 * x, atol=1e-14)


def test_d_log_inverts_d_exp():
    rng = make_rng(25)
    for _ in range(30):
        a, s = random_spd_exp(rng, 3, scale=1.0)
        x = random_matrix(rng, 3)
        roundtrip = ca.d_log(a, ca.d_exp(s, x))
        assert frobenius_norm(roundtrip - x) <= 1e-10 * (1.0 + frobenius_norm(x))


def test_d_log_rejects_non_spd():
    with pytest.raises(NotSpdError):
        ca.d_log(np.diag([1.0, -1.0]), np.eye(2))


def test_d_log_vs_finite_difference():
    rng = make_rng(26)
    for _ in range(10):
        a = spd_from_log(rng, scale=0.8)
        x = random_matrix(rng, 3)
        fd = (scipy.linalg.logm(a + 1e-6 * x) - scipy.linalg.logm(a - 1e-6 * x)) / 2e-6
        assert frobenius_norm(ca.d_log(a, x) - fd) <= 1e-6 * (1.0 + frobenius_norm(fd))


# ---------------------------------------------------------------------------
# log-derivative identities for sandwiched arguments


def _spectral_power(a, p):
    dec = eigendecompose_symmetric(a)
    return (dec.q * dec.eigenvalues**p) @ dec.q.T


def test_dlog_sandwich_commuting_case():
    rng = make_rng(27)
    a = spd_from_log(rng)
    y = 0.4 * np.eye(3) + 0.2 * a + 0.1 * a @ a
    out = ca.dlog_sandwich(a, y, 1, 0)
    expected = ca.d_log(a, a @ y)
    np.testing.assert_allclose(out, expected, atol=1e-12)
    np.testing.assert_allclose(out, y, atol=1e-12)


@pytest.mark.parametrize("p,s", [(1, 0), (2, 1), (0, -1)])
def test_dlog_sandwich_vs_dlog(p, s):
    rng = make_rng(28 + p * 10 + s)
    for _ in range(20):
        a = spd_from_log(rng)
        y = random_matrix(rng, 3)
        arg = _spectral_power(a, p) @ y @ _spectral_power(a, -s)
        lhs = ca.dlog_sandwich(a, y, p, s)
        rhs = ca.d_log(a, arg)
        assert frobenius_norm(lhs - rhs) <= 1e-10 * (1.0 + frobenius_norm(rhs))


def test_dlog_sandwich_rejects_bad_powers():
    with pytest.raises(ValueError):
        ca.dlog_sandwich(np.eye(2), np.eye(2), 2, 0)


def test_dlog_commutator_identity_commuting():
    rng = make_rng(29)
    a = spd_from_log(rng)
    y = 0.3 * np.eye(3) + 0.5 * a
    res = ca.dlog_commutator_residual(a, y)
    assert frobenius_norm(res) <= 1e-12


def test_dlog_commutator_eigen_difference_oracle():
    # ad(ln a, y) for a = diag(1, e^2): entry (0,1) is (0 - 2) * y01
    a = np.diag([1.0, math.e**2])
    y = np.array([[0.0, 1.0], [0.0, 0.0]])
    log_a = ca.matfun_spectral(math.log, a)
    np.testing.assert_allclose(ca.ad(log_a, y), [[0.0, -2.0], [0.0, 0.0]], atol=1e-14)
    assert frobenius_norm(ca.dlog_commutator_residual(a, y)) <= 1e-12


def test_dlog_commutator_identity_random():
    rng = make_rng(30)
    for _ in range(20):
        a = spd_from_log(rng)
        y = random_matrix(rng, 3)
        assert frobenius_norm(ca.dlog_commutator_residual(a, y)) <= 1e-10


def test_dlog_anticommutator_at_identity():
    rng = make_rng(31)
    y = random_matrix(rng, 3)
    np.testing.assert_allclose(ca.dlog_anticommutator(np.eye(3), y), 2.0 * y, atol=1e-13)


def test_dlog_anticommutator_commuting_gives_twice():
    rng = make_rng(32)
    a = spd_from_log(rng)
    y = 0.2 * np.eye(3) + 0.7 * a
    np.testing.assert_allclose(ca.dlog_anticommutator(a, y), 2.0 * y, atol=1e-11)


def test_dlog_anticommutator_vs_dlog():
    rng = make_rng(33)
    for _ in range(20):
        a = spd_from_log(rng)
        y = random_matrix(rng, 3)
        lhs = ca.dlog_anticommutator(a, y)
        rhs = ca.d_log(a, a @ y + y @ a)
        assert frobenius_norm(lhs - rhs) <= 1e-10 * (1.0 + frobenius_norm(rhs))


def test_dlog_sinh_pair_commuting_cases():
    rng = make_rng(34)
    a = spd_from_log(rng)
    x = 0.5 * np.eye(3) + 0.25 * a
    diff = ca.dlog_sinh_pair(a, x, 1, 0, -1)
    np.testing.assert_allclose(diff, np.zeros((3, 3)), atol=1e-12)
    summ = ca.dlog_sinh_pair(a, x, 1, 0, +1)
    np.testing.assert_allclose(summ, 2.0 * x, atol=1e-11)


@pytest.mark.parametrize("p,s", [(1, 0), (2, 1), (0, -1)])
def test_dlog_sinh_pair_vs_dlog(p, s):
    rng = make_rng(35 + p * 10 + s)
    for _ in range(20):
        a = spd_from_log(rng)
        x = random_matrix(rng, 3)
        ap = _spectral_power(a, p)
        am = _spectral_power(a, -s)
        lhs_diff = ca.dlog_sinh_pair(a, x, p, s, -1)
        rhs_diff = ca.d_log(a, ap @ x @ am - am @ x @ ap)
        assert frobenius_norm(lhs_diff - rhs_diff) <= 1e-10 * (1.0 + frobenius_norm(rhs_diff))
        lhs_sum = ca.dlog_sinh_pair(a, x, p, s, +1)
        rhs_sum = ca.d_log(a, ap @ x @ am + am @ x @ ap)
        assert frobenius_norm(lhs_sum - rhs_sum) <= 1e-10 * (1.0 + frobenius_norm(rhs_sum))


def test_dlog_sinh_pair_cross_check_anticommutator():
    rng = make_rng(36)
    a = spd_from_log(rng)
    x = random_matrix(rng, 3)
    np.testing.assert_allclose(
        ca.dlog_sinh_pair(a, x, 1, 0, +1), ca.dlog_anticommutator(a, x), atol=1e-11
    )


def test_dlog_sinh_pair_validation():
    with pytest.raises(ValueError):
        ca.dlog_sinh_pair(np.eye(2), np.eye(2), 2, 0, +1)
    with pytest.raises(ValueError):
        ca.dlog_sinh_pair(np.eye(2), np.eye(2), 1, 0, 2)


# ---------------------------------------------------------------------------
# the anticommutator gap (iff characterization of commuting directions)


def test_gap_vanishes_for_polynomials_in_a():
    rng = make_rng(37)
    for _ in range(20):
        a = spd_from_log(rng)
        c = rng.uniform(-1, 1, 3)
        x = c[0] * np.eye(3) + c[1] * a + c[2] * a @ a
        gap, comm = ca.anticommutator_gap(a, x)
        assert gap <= 1e-10
        assert comm <= 1e-12 * (1.0 + frobenius_norm(a) * frobenius_norm(x))


def test_gap_positive_for_generic_pairs():
    rng = make_rng(38)
    for _ in range(20):
        a = spd_from_log(rng)
        x = random_symmetric(rng, 3)
        gap, comm = ca.anticommutator_gap(a, x)
        assert gap > 0.0
        assert comm > 0.0


def test_gap_zero_at_identity():
    rng = make_rng(39)
    x = random_matrix(rng, 3)
    gap, comm = ca.anticommutator_gap(np.eye(3), x)
    assert gap <= 1e-14
    assert comm <= 1e-14


def test_gap_curvature_lower_bound():
    # For clearly non-commuting pairs the gap is bounded below by a multiple
    # of the squared commutator norm, by positivity of the gamma kernel.
    rng = make_rng(40)
    for _ in range(500):
        a = spd_from_log(rng, 3, scale=1.0)
        x = random_symmetric(rng, 3)
        gap, comm = ca.anticommutator_gap(a, x)
        if comm >= 1e-2:
            log_a = ca.matfun_spectral(math.log, a)
            bound = 1e-6 * comm**2 / (1.0 + frobenius_norm(log_a) ** 2)
            assert gap >= bound


# ---------------------------------------------------------------------------
# conjugation and adjointness


def test_conjugation_at_s_zero():
    rng = make_rng(41)
    a, y = random_symmetric(rng, 3), random_matrix(rng, 3)
    np.testing.assert_allclose(ca.exp_conjugation(a, y, 0.0), y, atol=1e-14)


def test_conjugation_commuting_pair():
    a = np.diag([1.0, 2.0, 3.0])
    y = np.diag([4.0, 5.0, 6.0])
    np.testing.assert_allclose(ca.exp_conjugation(a, y, 1.7), y, atol=1e-13)


def test_conjugation_vs_triple_product():
    rng = make_rng(42)
    for _ in range(30):
        a = random_symmetric(rng, 3)
        y = random_matrix(rng, 3)
        out = ca.exp_conjugation(a, y, 1.3)
        direct = scipy.linalg.expm(1.3 * a) @ y @ scipy.linalg.expm(-1.3 * a)
        assert frobenius_norm(out - direct) <= 1e-12 * (1.0 + frobenius_norm(direct))


def test_conjugation_series_route_general_matrix():
    rng = make_rng(43)
    a = random_matrix(rng, 3, scale=0.5)
    y = random_matrix(rng, 3)
    out = ca.exp_conjugation(a, y, 1.0)
    direct = scipy.linalg.expm(a) @ y @ scipy.linalg.expm(-a)
    assert frobenius_norm(out - direct) <= 1e-12 * (1.0 + frobenius_norm(direct))


def test_adjoint_residuals_even_kernel_symmetric_argument():
    rng = make_rng(44)
    a = random_symmetric(rng, 3)
    x = random_symmetric(rng, 3)
    y = random_matrix(rng, 3)
    r1, _ = ca.adjoint_residuals(a, x, y, GAMMA)
    assert r1 <= 1e-13


def test_adjoint_residuals_exp_kernel():
    rng = make_rng(45)
    for _ in range(20):
        a = random_symmetric(rng, 3)
        x, y = random_matrix(rng, 3), random_matrix(rng, 3)
        r1, r2 = ca.adjoint_residuals(a, x, y, math.exp)
        assert r1 <= 1e-12
        assert r2 <= 1e-12


def test_odd_kernel_sends_symmetric_to_skew():
    rng = make_rng(46)
    a = random_symmetric(rng, 3)
    x = random_symmetric(rng, 3)
    y = random_matrix(rng, 3)
    r1, _ = ca.adjoint_residuals(a, x, y, SIGMA)
    assert r1 <= 1e-12
    out = ca.f_of_ad_spectral(SIGMA, a, x)
    assert frobenius_norm(out + out.T) <= 1e-12


# ---------------------------------------------------------------------------
# power-function derivative rule (ad of a matrix function)


def test_power_function_commutator_rule_fd():
    # ad(A^k, X) equals the derivative of the power map along ad(A, X)
    rng = make_rng(47)
    h = 1e-5
    for k in range(1, 7):
        a = random_symmetric(rng, 3)
        x = random_matrix(rng, 3)
        lhs = ca.ad(np.linalg.matrix_power(a, k), x)
        c = ca.ad(a, x)
        fd = ca.gateaux_fd(lambda m, k=k: np.linalg.matrix_power(m, k), a, c, h=h)
        assert frobenius_norm(lhs - fd) <= 1e-6 * (1.0 + frobenius_norm(lhs))


@pytest.mark.parametrize("h", [0.0, -0.0, math.inf, -math.inf, math.nan])
def test_gateaux_fd_refuses_a_step_that_cannot_work(h):
    with pytest.raises(ValueError, match="step h must be finite and nonzero"):
        ca.gateaux_fd(ca.matexp_series, np.diag([1.0, 2.0, 3.0]), np.ones((3, 3)), h=h)


def test_gateaux_fd_takes_a_negative_step():
    rng = make_rng(49)
    a, x = random_symmetric(rng, 3), random_matrix(rng, 3)
    fd = ca.gateaux_fd(ca.matexp_series, a, x, h=1e-5)
    np.testing.assert_array_equal(ca.gateaux_fd(ca.matexp_series, a, x, h=-1e-5), fd)


def test_power_function_commutator_rule_exact():
    # exact product-rule expansion of the power derivative as the oracle
    rng = make_rng(48)
    for k in range(1, 7):
        a = random_symmetric(rng, 3)
        x = random_matrix(rng, 3)
        c = ca.ad(a, x)
        exact = np.zeros((3, 3))
        for j in range(k):
            exact += np.linalg.matrix_power(a, j) @ c @ np.linalg.matrix_power(a, k - 1 - j)
        lhs = ca.ad(np.linalg.matrix_power(a, k), x)
        assert frobenius_norm(lhs - exact) <= 1e-12 * (1.0 + frobenius_norm(lhs))


# ---------------------------------------------------------------------------
# argument gates

_GATE_A = np.array([[3.0, 0.5, 0.1], [0.5, 2.0, 0.2], [0.1, 0.2, 1.0]])
_GATE_D = np.array([[0.4, 0.1, -0.2], [0.1, -0.3, 0.5], [-0.2, 0.5, 0.1]])
_GATE_W = np.array([[0.0, 0.3, -0.1], [-0.3, 0.0, 0.2], [0.1, -0.2, 0.0]])

_SOLVED_A = SpdMatrix(_GATE_A)  # holds the decomposition of _GATE_A

# name -> (call(a, x, dec), how a solved A is given: "decomposition", "SpdMatrix" or
# None).  Only three functions take decomposition=, trusted and never reading a; every
# other spectral function solves its own A, which may be an SpdMatrix holding one.
_GATED = {
    "ad": (lambda a, x, dec: ca.ad(a, x), None),
    "f_of_ad_series": (lambda a, x, dec: ca.f_of_ad_series(ca.eta_neg_series_spec(), a, x), None),
    "f_of_ad_spectral": (lambda a, x, dec: ca.f_of_ad_spectral(SIGMA, a, x), "SpdMatrix"),
    "d_exp": (lambda a, x, dec: ca.d_exp(a, x), None),
    "d_exp_series": (lambda a, x, dec: ca.d_exp(a, x, method="series"), None),
    "exp_conjugation": (lambda a, x, dec: ca.exp_conjugation(a, x, 0.5), None),
    "exp_conjugation_series": (
        lambda a, x, dec: ca.exp_conjugation(a, x, 0.5, method="series"), None
    ),
    "d_log": (lambda a, x, dec: ca.d_log(a, x), "SpdMatrix"),
    "dlog_sandwich": (lambda a, x, dec: ca.dlog_sandwich(a, x, 2, 1), "SpdMatrix"),
    "dlog_anticommutator": (lambda a, x, dec: ca.dlog_anticommutator(a, x), "SpdMatrix"),
    "dlog_sinh_pair": (lambda a, x, dec: ca.dlog_sinh_pair(a, x, 2, 1, -1), "SpdMatrix"),
    "dlog_commutator_residual": (
        lambda a, x, dec: ca.dlog_commutator_residual(a, x), "SpdMatrix"
    ),
    "anticommutator_gap": (lambda a, x, dec: ca.anticommutator_gap(a, x), "SpdMatrix"),
    "log_spin_spectral_d": (
        lambda a, x, dec: ki.log_spin_spectral(a, x, _GATE_W, decomposition=dec),
        "decomposition",
    ),
    "log_spin_spectral_w": (
        lambda a, x, dec: ki.log_spin_spectral(a, _GATE_D, x, decomposition=dec),
        "decomposition",
    ),
    "log_spin_commutator_d": (
        lambda a, x, dec: ki.log_spin_commutator(a, x, _GATE_W, decomposition=dec),
        "decomposition",
    ),
    "log_spin_commutator_w": (
        lambda a, x, dec: ki.log_spin_commutator(a, _GATE_D, x, decomposition=dec),
        "decomposition",
    ),
    "bilinear_lhs": (
        lambda a, x, dec: mo.bilinear_lhs(mo.exponential_generator(), a, x, 2, 1,
                                          decomposition=dec),
        "decomposition",
    ),
    "IsotropicFunction.derivative": (
        lambda a, x, dec: mo.exponential_generator().derivative(a, x), "SpdMatrix"
    ),
    "sqrt_r_operator": (lambda a, x, dec: mo.sqrt_r_operator(a, 3.0, x), "SpdMatrix"),
}

_BAD = {
    "nan": (np.where(np.eye(3) > 0, np.nan, _GATE_D), MatrixValidationError),
    "inf": (np.where(np.eye(3) > 0, np.inf, _GATE_D), MatrixValidationError),
    "non_square": (np.ones((3, 2)), MatrixValidationError),
    "mismatched": (np.eye(2), DimensionMismatchError),
}


def _gate_cases(bad_kinds):
    for name, (call, solved) in _GATED.items():
        for given in (False, True) if solved else (False,):
            for bad in bad_kinds:
                mode = "given" if given else "fresh"
                yield pytest.param(call, solved if given else None, bad, id=f"{name}-{mode}-{bad}")


@pytest.mark.parametrize("call, given, bad", list(_gate_cases(_BAD)))
def test_dimension_mismatch_raised(call, given, bad):
    # A bad operand raises a typed error, also where A is given solved: by
    # decomposition= or as an SpdMatrix.
    operand, error = _BAD[bad]
    a, dec = {"decomposition": (_GATE_A, _SOLVED_A.decomposition),
              "SpdMatrix": (_SOLVED_A, None)}.get(given, (_GATE_A, None))
    call(a, _GATE_D, dec)
    with pytest.raises(error):
        call(a, operand, dec)


_MATRIX_GATED = {
    **_GATED,
    "hencky": (lambda a, x, dec: ki.hencky(a), "SpdMatrix"),
}


@pytest.mark.parametrize("name", list(_MATRIX_GATED))
@pytest.mark.parametrize("bad", ["nan", "inf", "non_square"])
def test_matrix_argument_gate(name, bad):
    call, solved = _MATRIX_GATED[name]
    with pytest.raises(MatrixValidationError):
        call(_BAD[bad][0], _GATE_D, None)
    if solved == "decomposition":
        # A given decomposition is trusted: the matrix argument is not read.
        expected = call(_GATE_A, _GATE_D, _SOLVED_A.decomposition)
        np.testing.assert_array_equal(call(_BAD[bad][0], _GATE_D, _SOLVED_A.decomposition),
                                      expected)


_STACK_DEC = _eigendecompose_stack(np.stack([_GATE_A, 2.0 * _GATE_A]))
_OPERAND_STACKS = {
    "stack": np.stack([_GATE_D, _GATE_W]),
    "nan": np.stack([_GATE_D, np.where(np.eye(3) > 0, np.nan, _GATE_W)]),
    "longer": np.stack([_GATE_D] * 3),
}


@pytest.mark.parametrize("operand", list(_OPERAND_STACKS))
@pytest.mark.parametrize("name", list(_GATED))
def test_operand_stack_rejected_with_stacked_decomposition(name, operand):
    # An operand is one matrix: a stack of them is rejected, even where the
    # given decomposition is a stack, whose shape it would match.
    call, solved = _GATED[name]
    a, dec = (None, _STACK_DEC) if solved == "decomposition" else (_GATE_A, None)
    with pytest.raises(MatrixValidationError):
        call(a, _OPERAND_STACKS[operand], dec)
