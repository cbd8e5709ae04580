import math

import numpy as np
import pytest
import scipy.linalg

import idepcag.linalg as la
from idepcag.linalg import (
    ConvergenceError,
    RealificationError,
    SingularMatrixError,
    eig,
    expm,
    inv,
    logm_principal,
    logm_real_doubled,
    norm1,
)


def _random_matrix(rng, n, complex_entries=True, scale=1.0):
    M = rng.standard_normal((n, n)) * scale
    if complex_entries:
        M = M + 1j * rng.standard_normal((n, n)) * scale
    return M


# ---------------------------------------------------------------- inverse


def test_inv_identity():
    assert np.allclose(inv(np.eye(3)), np.eye(3), atol=1e-14)


def test_inv_diagonal_complex():
    M = np.diag([2.0 + 0j, 4.0j])
    expected = np.diag([0.5 + 0j, -0.25j])
    assert np.allclose(inv(M), expected, atol=1e-15)


def test_inv_unipotent():
    M = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert np.allclose(inv(M), [[1.0, -1.0], [0.0, 1.0]], atol=1e-15)


def test_inv_contract_random():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        M = _random_matrix(rng, n) + 2.0 * np.eye(n)
        assert norm1(M @ inv(M) - np.eye(n)) <= 1e-10 * np.linalg.cond(M)


def test_inv_singular_raises():
    with pytest.raises(SingularMatrixError):
        inv(np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_inv_pivot_rule_bound():
    # The rule refuses a pivot at most 1e-14 norm1(M): 1e-15 is below it,
    # 1e-13 above.
    with pytest.raises(SingularMatrixError, match="min pivot 1.000e-15"):
        inv(np.diag([1.0, 1e-15]))
    assert np.array_equal(inv(np.diag([1.0, 1e-13])), np.diag([1.0, 1e13]))


@pytest.mark.parametrize("shape", [(2, 3), (3,), (2, 2, 2)])
def test_inv_rejects_non_square(shape):
    with pytest.raises(ValueError, match="expected a square matrix"):
        inv(np.ones(shape))


def test_inv_and_solve_have_the_bits_of_numpy_gesv():
    # A real M with a complex right-hand side is solved in complex arithmetic.
    rng = np.random.default_rng(3)
    for n in range(1, 9):
        for complex_entries in (False, True):
            M = _random_matrix(rng, n, complex_entries, scale=10.0 ** rng.uniform(-3, 3))
            assert np.array_equal(inv(M), np.linalg.inv(M))
            b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            assert np.array_equal(la.solve(M, b), np.linalg.solve(M, b))
            assert np.array_equal(la.solve(M, b.real), np.linalg.solve(M, b.real))
            B = np.stack([b.real, b.imag], axis=1)
            assert np.array_equal(la.solve(M, B), np.linalg.solve(M, B))


def test_pivot_rule_reads_the_pivots_of_getrf():
    # scipy's lu_factor (LAPACK getrf) is the oracle: the smallest |u_kk| of
    # both eliminations agree to a few ulps of norm1(M).
    rng = np.random.default_rng(5)
    eps = np.finfo(float).eps
    for n in [*range(1, 9), 16, 20]:
        for complex_entries in (False, True):
            for _ in range(10):
                M = _random_matrix(rng, n, complex_entries, scale=10.0 ** rng.uniform(-3, 3))
                ref = np.abs(np.diag(scipy.linalg.lu_factor(M)[0])).min()
                assert abs(la._min_pivot(M) - ref) <= 4 * n * eps * norm1(M)


def test_pivot_row_is_the_first_of_largest_re_plus_im():
    # A three-way tie in the first column: the first row gives min pivot
    # 0.75, the last would give 1.0.  Every step is exact.
    M = np.array([[-1.0, 2.0, -1.0], [-1.0, -2.0, -2.0], [1.0, -1.0, 2.0]])
    assert la._min_pivot(M) == np.abs(np.diag(scipy.linalg.lu_factor(M)[0])).min() == 0.75
    # |1+i| < 1.9 < |Re| + |Im| = 2: getrf pivots on 1+i, of modulus sqrt(2).
    M = np.array([[1.0 + 1.0j, 0.0], [1.9, 10.0]])
    ref = np.abs(np.diag(scipy.linalg.lu_factor(M)[0])).min()
    assert math.isclose(ref, math.sqrt(2.0), rel_tol=1e-15)
    assert math.isclose(la._min_pivot(M), ref, rel_tol=1e-15)


# ---------------------------------------------------------------- spectrum


def test_eig_rotation_generator():
    spectrum = eig(np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert np.allclose(sorted(spectrum.eigenvalues, key=lambda z: z.imag), [-1j, 1j], atol=1e-12)


def test_eig_companion_brute_force():
    # roots of z^2 - 5z + 6 checked by substitution, not by factoring
    M = np.array([[0.0, -6.0], [1.0, 5.0]])
    values = eig(M).eigenvalues
    assert np.allclose(sorted(values.real), [2.0, 3.0], atol=1e-10)
    for z in values:
        assert abs(z**2 - 5 * z + 6) <= 1e-9


def test_eig_paper_monodromy_matrix():
    # numeric monodromy of the rotating-frame example, block form (1/5)[[1+a, b], [-b, 1+a]]
    a, b = 3.3948195096659464, 5.287118128162912
    M = 0.2 * np.array([[1.0 + a, b], [-b, 1.0 + a]])
    values = eig(M).eigenvalues
    expected = np.array([0.878964 + 1.05742j, 0.878964 - 1.05742j])
    for z, w in zip(sorted(values, key=lambda z: z.imag), sorted(expected, key=lambda z: z.imag)):
        assert abs(z - w) <= 1e-3


def test_eig_contracts_on_random_matrices():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        M = _random_matrix(rng, n)
        spectrum = eig(M)
        # determinant-product consistency
        d = np.linalg.det(M)
        assert abs(np.prod(spectrum.eigenvalues) - d) <= 1e-8 * max(1.0, abs(d))
        # eigenpair residuals
        V = spectrum.eigenvectors
        for j, rho in enumerate(spectrum.eigenvalues):
            v = V[:, j]
            assert np.linalg.norm(M @ v - rho * v) <= 1e-8 * norm1(M) * np.linalg.norm(v)
        # deterministic ordering
        mods = np.abs(spectrum.eigenvalues)
        assert np.all(np.diff(mods) <= 1e-12 * max(1.0, mods.max()))


def test_eig_condition_estimate_defective():
    spectrum = eig(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert spectrum.condition_estimate > 1e7


# ---------------------------------------------------------------- expm


def test_expm_zero():
    assert np.array_equal(expm(np.zeros((3, 3))), np.eye(3))


def test_expm_diagonal():
    M = np.diag([math.log(2.0), 1j * math.pi])
    result = expm(M)
    assert np.allclose(result, np.diag([2.0, -1.0 + 0j]), atol=1e-14)


def test_expm_nilpotent_exact():
    M = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(expm(M), [[1.0, 1.0], [0.0, 1.0]], atol=1e-15)


def test_expm_liouville_identity():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        M = _random_matrix(rng, n)
        M *= 5.0 / max(norm1(M), 5.0)  # keep norm at most 5
        lhs = np.linalg.det(expm(M))
        rhs = np.exp(np.trace(M))
        assert abs(lhs - rhs) <= 1e-8 * abs(rhs)


def test_expm_commuting_product():
    rng = np.random.default_rng(4)
    for _ in range(10):
        M = _random_matrix(rng, 3)
        ident = np.eye(3)
        A = 0.3 * M @ M + 0.7 * M + 0.1 * ident  # p(M)
        B = -0.2 * M @ M + 1.1 * ident           # q(M), commutes with A
        lhs = expm(A + B)
        rhs = expm(A) @ expm(B)
        assert norm1(lhs - rhs) <= 1e-9 * max(1.0, norm1(lhs))


def test_expm_against_scipy():
    rng = np.random.default_rng(5)
    for _ in range(20):
        M = _random_matrix(rng, int(rng.integers(1, 7)), scale=2.0)
        assert norm1(expm(M) - scipy.linalg.expm(M)) <= 1e-10 * max(1.0, norm1(scipy.linalg.expm(M)))


def test_expm_rejects_non_finite():
    with pytest.raises(ValueError):
        expm(np.array([[np.nan]]))


def test_expm_complex_single_and_stacked_against_scipy():
    rng = np.random.default_rng(8)
    for m in (1, 2, 3, 5):
        M = rng.standard_normal((30, m, m)) + 1j * rng.standard_normal((30, m, m))
        M *= rng.uniform(0.0, 6.0 / m, (30, 1, 1))
        stacked = la._expm_many(M)
        for A, E in zip(M, stacked):
            ref = scipy.linalg.expm(A)
            assert np.abs(E - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max()), (m, A)
            assert np.array_equal(expm(A), E)


def test_expm_many_same_bits_alone_and_in_a_stack():
    # numpy sends a product with one row or column (m = 1, one matrix) to a
    # different BLAS routine; the kernel must not see the difference.
    rng = np.random.default_rng(9)
    for m in (1, 2, 4):
        for M in (rng.standard_normal((7, m, m)) * 3.0,
                  rng.standard_normal((7, m, m)) + 1j * rng.standard_normal((7, m, m))):
            stacked = la._expm_many(M)
            for A, E in zip(M, stacked):
                assert np.array_equal(la._expm_many(A), E)
                assert np.array_equal(la._expm_many(A[None])[0], E)


def test_expm_overflowing_norm_gives_zero_not_nan():
    # |M|_F^2 overflows for these finite matrices, whose exponential is 0.
    for M in (-1e160 * np.eye(2), -1e300 * np.eye(3), np.array([[-1e160 + 1e159j]])):
        assert np.array_equal(expm(M), np.zeros_like(M))
        assert np.array_equal(la._expm_many(np.stack([M, M]))[1], np.zeros_like(M))


def test_expm_large_norm_scaling_path():
    rng = np.random.default_rng(6)
    M = _random_matrix(rng, 4, scale=8.0)  # forces several squarings
    assert norm1(expm(M) - scipy.linalg.expm(M)) <= 1e-9 * norm1(scipy.linalg.expm(M))


# ---------------------------------------------------------------- logm


def test_logm_identity():
    assert norm1(logm_principal(np.eye(4))) <= 1e-14


def test_logm_negative_scalar_principal_branch():
    L = logm_principal(np.array([[-1.0]]))
    assert L[0, 0] == pytest.approx(1j * math.pi, abs=1e-14)


def test_logm_round_trip_100_random():
    rng = np.random.default_rng(7)
    count = 0
    while count < 100:
        n = int(rng.integers(1, 7))
        M = _random_matrix(rng, n)
        if abs(np.linalg.det(M)) < 1e-3:
            continue
        count += 1
        L = logm_principal(M)
        assert norm1(expm(L) - M) <= 1e-8 * max(1.0, norm1(M))
        assert np.max(np.imag(eig(L).eigenvalues)) <= math.pi + 1e-12
        assert np.min(np.imag(eig(L).eigenvalues)) > -math.pi - 1e-12


def test_logm_dual_paths_agree(monkeypatch):
    rng = np.random.default_rng(8)
    for _ in range(10):
        M = _random_matrix(rng, 3, complex_entries=False, scale=0.4) + 2.0 * np.eye(3)
        by_eig = logm_principal(M)
        monkeypatch.setattr(la, "_EIG_COND_SWITCH", -1.0)  # force the scipy logm path
        by_scipy = logm_principal(M)
        monkeypatch.undo()
        assert norm1(by_eig - by_scipy) <= 1e-9 * max(1.0, norm1(by_eig))


def test_logm_defective_jordan_block():
    # defective, so the eigendecomposition path is unusable; scipy logm is exact here
    M = np.array([[1.0, 1.0], [0.0, 1.0]])
    L = logm_principal(M)
    assert np.allclose(L, [[0.0, 1.0], [0.0, 0.0]], atol=1e-12)


def test_logm_against_scipy():
    rng = np.random.default_rng(9)
    for _ in range(10):
        M = _random_matrix(rng, 4) + 3.0 * np.eye(4)
        assert norm1(logm_principal(M) - scipy.linalg.logm(M)) <= 1e-9 * max(
            1.0, norm1(scipy.linalg.logm(M))
        )


def test_logm_singular_raises():
    with pytest.raises(SingularMatrixError):
        logm_principal(np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_logm_negative_defective_fails_clearly():
    J = np.array([[-1.0, 1.0], [0.0, -1.0]])  # defective, spectrum on the cut
    S = np.array([[2.0, 1.0], [1.0, 3.0]])
    # in this basis roundoff splits the double eigenvalue to -1 +- 7e-9j
    for M in (J, S @ J @ np.linalg.inv(S)):
        with pytest.raises((ConvergenceError, SingularMatrixError)):
            logm_principal(M)


# ------------------------------------------------------- logm_real_doubled


def test_real_doubled_negative_scalar():
    L = logm_real_doubled(np.array([[-2.0]]))
    assert L.dtype.kind == "f"
    assert L[0, 0] == pytest.approx(math.log(4.0), abs=1e-12)


def test_real_doubled_identity():
    assert norm1(logm_real_doubled(np.eye(3))) <= 1e-14


def test_real_doubled_rotation_third_turn():
    theta = math.pi / 3.0
    R = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    L = logm_real_doubled(R)
    two_theta = 2.0 * theta
    R2 = np.array([[math.cos(two_theta), -math.sin(two_theta)],
                   [math.sin(two_theta), math.cos(two_theta)]])
    assert L.dtype.kind == "f"
    assert norm1(expm(L) - R2) <= 1e-10


def test_real_doubled_past_the_float_range():
    # (2^600)^2 overflows.  The log is taken of the square of M / 2^89, whose
    # 1-norm is below 2^511, plus 2 * 89 ln 2; at 2^510 nothing is scaled.
    lam = 2.0**600
    L = 1200.0 * math.log(2.0)
    assert logm_real_doubled(np.array([[lam]]))[0, 0] == pytest.approx(L, rel=1e-15)
    # Defective, so the scipy branch: log((lam I + N)^2) = 2 ln(lam) I + 2 N / lam.
    jordan = logm_real_doubled(np.array([[lam, 1.0], [0.0, lam]]))
    assert np.abs(jordan - L * np.eye(2)).max() <= 1e-12
    assert logm_real_doubled(np.array([[2.0**510]]))[0, 0] == np.log(2.0**1020)


def test_real_doubled_quarter_turn_reports_defect():
    # M^2 = -I has negative real eigenvalues; the principal log is not real
    R = np.array([[0.0, -1.0], [1.0, 0.0]])
    with pytest.raises(RealificationError):
        logm_real_doubled(R)


@pytest.mark.parametrize("theta, real", [(0.5 * math.pi, False), (0.5 * math.pi - 1e-6, True)])
def test_real_doubled_turn_near_a_quarter(theta, real):
    # cos(pi/2) is 6.1e-17, so the quarter turn's eigenvalues are 6.1e-17
    # +- i and their squares -1 -+ 1.2e-16 i: within roundoff of the negative
    # real axis, where no real log exists.  A turn 1e-6 short of it puts
    # the squares 2e-6 off the axis, and has one.
    R = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    if not real:
        with pytest.raises(RealificationError):
            logm_real_doubled(R)
        return
    L = logm_real_doubled(R)
    assert L.dtype.kind == "f"
    assert norm1(expm(L) - R @ R) <= 1e-12


def test_real_doubled_opposite_eigenvalues_match_scipy():
    # X has rho and -rho as eigenvalues (a real pair and a complex quartet),
    # so X @ X repeats every eigenvalue; its log comes from the eigenvectors
    # of X.
    c, s = math.cos(0.7), math.sin(0.7)
    D = scipy.linalg.block_diag(1.5, -1.5, 0.8 * np.array([[c, -s], [s, c]]),
                                -0.8 * np.array([[c, -s], [s, c]]))
    S = np.random.default_rng(11).standard_normal((6, 6))
    X = S @ D @ np.linalg.inv(S)
    L = logm_real_doubled(X)
    ref = scipy.linalg.logm(X @ X).real
    assert L.dtype.kind == "f"
    assert norm1(L - ref) <= 1e-12 * norm1(ref)


def test_real_doubled_rejects_complex_input():
    with pytest.raises(ValueError):
        logm_real_doubled(np.array([[1.0 + 1.0j]]))
